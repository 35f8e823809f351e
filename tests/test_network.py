import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from boltzflow import network
from boltzflow.cli import EXIT_DOMAIN, main
from boltzflow.errors import DomainError
from boltzflow.forward import collision_operator, entropy, solve_forward
from boltzflow.kinematics import Kernel, collide
from boltzflow.network import (
    MAX_NODES,
    VelocityNetwork,
    build_network,
    lattice_ratio,
    maxent_project,
    restrict_quadruples,
    tilt_to_moments,
)

K1 = Kernel("constant", b=1.0)


def test_matches_brute_force_small():
    for d, V, h in ((2, 2.0, 1.0), (2, 3.0, 1.5)):
        net = build_network(d, V, h, K1)
        oracle = oracles.brute_force_quadruples(d, V, h)
        assert np.array_equal(net.quad, oracle)


@pytest.mark.parametrize(
    "d, M", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]
)
def test_matches_dict_join(d, M):
    kernel = Kernel("clamp", lo=0.5, hi=2.0)
    net = build_network(d, float(M), 1.0, kernel)
    quad = oracles.dict_join_quadruples(d, M)
    assert np.array_equal(net.quad, quad)
    _assert_emitted_in_order(net.quad, d, M)
    # everything derived from quad follows, bit for bit
    nodes = oracles.lattice(d, M).astype(float)
    diff = nodes[quad[:, 0]] - nodes[quad[:, 2]]
    assert np.array_equal(net.omega, diff / np.linalg.norm(diff, axis=1, keepdims=True))
    assert np.array_equal(net.B_q, kernel(nodes[quad[:, 0]] - nodes[quad[:, 1]]))
    assert np.array_equal(net.kappa, net.B_q)  # h^{2d} = 1
    assert np.array_equal(net.invariants, oracles.invariant_basis(quad, net.n_nodes))


def _assert_emitted_in_order(quad, d, M):
    """quad is the sort-based join's table, C-contiguous intp, and needs no sort."""
    assert np.array_equal(quad, oracles.sorted_join_quadruples(d, M))
    assert quad.dtype == np.intp and quad.flags.c_contiguous
    assert np.array_equal(np.lexsort(quad.T[::-1]), np.arange(len(quad)))


@pytest.mark.parametrize("d, M, Q", [(3, 4, 819264), (2, 17, 831674)])
def test_large_lattices_match_sorted_join(d, M, Q):
    # d = 3, V/h = 4, and the largest d = 2 lattice (35^2 nodes)
    quad = build_network(d, float(M), 1.0, K1).quad
    assert len(quad) == Q
    _assert_emitted_in_order(quad, d, M)


_JOIN = network._join_quadruples


@pytest.mark.parametrize("case, message", [
    ("first", "collision-consistency failed"),  # a wrong l in the first chunk
    ("last", "collision-consistency failed"),  # a wrong l in the last, partial chunk
    ("zero omega", "omega must be a unit vector"),  # v_k = v_i: omega = 0 / 0
])
def test_collision_check_rejects_a_corrupt_row(case, message, monkeypatch, tmp_path):
    def corrupt(lattice, M):
        quad = _JOIN(lattice, M)
        assert len(quad) % network.CHECK_ROWS > 0  # the last chunk is partial
        if case == "zero omega":
            quad[7, 2] = quad[7, 0]
        else:
            r = 0 if case == "first" else len(quad) - 1
            quad[r, 3] = (quad[r, 3] + 1) % len(lattice)
        return quad

    monkeypatch.setattr(network, "_join_quadruples", corrupt)
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match=message):
        build_network(3, 3.0, 1.0, K1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": {"d": 3, "V": 3.0, "h": 1.0},
                               "experiment": {"type": "forward"}}))
    argv = ["network", "build", "--config", str(cfg), "--out", str(tmp_path / "out")]
    with np.errstate(invalid="ignore"):
        assert main(argv) == EXIT_DOMAIN


def test_collision_check_fails_a_nan_error(monkeypatch):
    # a NaN error only in the last, partial chunk still fails the build
    def nan_collide(v, v_star, omega):
        vp, vp_star = collide(v, v_star, omega)
        if len(v) < network.CHECK_ROWS:
            vp_star[-1, 0] = np.nan
        return vp, vp_star

    monkeypatch.setattr(network, "collide", nan_collide)
    with pytest.raises(DomainError, match="collision-consistency failed"):
        build_network(3, 3.0, 1.0, K1)


def test_operators_match_scatter_oracles(net):
    rng = np.random.default_rng(11)
    for g in (net, restrict_quadruples(net, [0, 5, 17, 300])):
        n, Q = g.n_nodes, g.n_quadruples
        q = rng.standard_normal(Q)
        phi = rng.standard_normal(n)
        w = rng.random(Q)
        ref = oracles.div_bar(g.quad, n, q)
        assert np.max(np.abs(g.div_bar(q) - ref)) <= 1e-14 * np.max(np.abs(ref))
        ref = oracles.grad_bar(g.quad, phi)
        assert np.max(np.abs(g.grad_bar(phi) - ref)) <= 1e-14 * np.max(np.abs(ref))
        ref = oracles.laplacian(g.quad, n, w)
        assert np.max(np.abs(g.laplacian(w) - ref)) <= 1e-14 * np.max(np.abs(ref))
        # the invariant Gram matrix has integer entries: equal exactly
        ones = np.ones(Q)
        assert np.array_equal(g.laplacian(ones), oracles.laplacian(g.quad, n, ones))
        assert np.array_equal(g.invariants, oracles.invariant_basis(g.quad, n))


def test_scatter_blocks_matches_add_at(net):
    # blocks without symmetry, so a swapped slot pair shows
    rng = np.random.default_rng(12)
    for g in (net, restrict_quadruples(net, [0, 5, 17, 300])):
        blocks = rng.standard_normal((4, 4, g.n_quadruples))
        ref = oracles.scatter_blocks(g.quad, g.n_nodes, blocks)
        assert np.max(np.abs(g.scatter_blocks(blocks) - ref)) <= 1e-14 * np.max(np.abs(ref))
        # leading axes: each slice sums as an unbatched call does
        batch = rng.standard_normal((2, 3, 4, 4, g.n_quadruples))
        out = g.scatter_blocks(batch)
        weights = rng.random((3, g.n_quadruples))
        lap = g.laplacian(weights)
        assert out.shape == (2, 3, g.n_nodes, g.n_nodes) and lap.shape == (3, g.n_nodes, g.n_nodes)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], g.scatter_blocks(batch[idx]))
        for m in range(3):
            assert np.array_equal(lap[m], g.laplacian(weights[m]))


def test_quadruples_conserve_exactly(net):
    z = net.lattice
    i, j, k, l = net.quad.T
    assert np.array_equal(z[i] + z[j], z[k] + z[l])
    sq = np.sum(z**2, axis=1)
    assert np.array_equal(sq[i] + sq[j], sq[k] + sq[l])


def test_canonical_form(net):
    i, j, k, l = net.quad.T
    assert np.all(i <= j) and np.all(k <= l)
    assert np.all((i < k) | ((i == k) & (j < l)))


def test_collision_map_consistency(net):
    vp, vps = collide(net.nodes[net.quad[:, 0]], net.nodes[net.quad[:, 1]], net.omega)
    assert np.max(np.abs(vp - net.nodes[net.quad[:, 2]])) <= 1e-12
    assert np.max(np.abs(vps - net.nodes[net.quad[:, 3]])) <= 1e-12


def test_weights(net):
    assert np.all(net.kappa == net.h ** (2 * net.d) * net.B_q)
    assert net.node_weight == net.h**net.d
    assert np.all(net.B_q == 1.0)


_KERNELS = {"constant": K1, "clamp": Kernel("clamp", lo=0.5, hi=2.0)}
_SCALES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]  # d = 2 with V/h 1-4, d = 3 with V/h 1-2


@functools.lru_cache(maxsize=None)
def _network(d, M, h, kind):
    return build_network(d, M * h, h, _KERNELS[kind])


def _draw_network(draw):
    """A network of a tested scale, h of 1 or 0.5, and either kernel."""
    d, M = draw(st.sampled_from(_SCALES))
    return _network(d, M, draw(st.sampled_from([1.0, 0.5])), draw(st.sampled_from(sorted(_KERNELS))))


@st.composite
def _restrictions(draw):
    """A network (d = 2 with V/h 1-4, d = 3 with V/h 1-2) and some of its quadruples."""
    net = _draw_network(draw)
    rows = st.integers(0, net.n_quadruples - 1)
    return net, np.array(draw(st.lists(rows, min_size=1, max_size=24)))


@settings(max_examples=80, deadline=None)
@given(_restrictions())
def test_restriction_derives_the_parent_rows(case):
    net, rows = case
    sub = restrict_quadruples(net, rows)
    assert np.array_equal(sub.quad, net.quad[rows])
    # the rows are derived anew, with the same bits as the parent's
    for name in ("omega", "B_q", "kappa"):
        got, want = getattr(sub, name), getattr(net, name)[rows]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    # every kept quadruple conserves momentum and energy in lattice coordinates
    z = sub.lattice
    i, j, k, l = sub.quad.T
    assert np.array_equal(z[i] + z[j], z[k] + z[l])
    sq = np.sum(z**2, axis=1)
    assert np.array_equal(sq[i] + sq[j], sq[k] + sq[l])


@st.composite
def _maxwellians(draw):
    """A network of every tested scale and its Maxwellian.

    Unit mass, zero momentum and an energy drawn strictly inside the
    attainable range (0, d V^2).
    """
    net = _draw_network(draw)
    share = draw(st.floats(0.02, 0.98))
    return net, maxent_project(net, energy=share * net.d * net.V**2)


@settings(max_examples=100, deadline=None)
@given(_maxwellians())
def test_maxwellian_is_in_detailed_balance(case):
    net, feq = case
    p, r = oracles.quadruple_products(net, feq)
    # log f is affine in (v, |v|^2) and rounds relative to its range, so
    # p and r may part by a few eps per unit of that range (on a grid of
    # energies over every scale and kernel here: at most 9.9 eps, 0.29 of
    # this bound)
    spread = np.log(feq.max() / feq.min())
    eps = np.finfo(float).eps
    rel = (8 + 4 * spread) * eps
    assert np.all(np.abs(p - r) <= rel * np.maximum(p, r))
    # so Q(M) is about 0: each node's terms cancel to that share of their size
    S = abs(oracles.incidence(net.quad, net.n_nodes))
    scale = S @ (net.h ** (2 * net.d) * net.B_q * (p + r)) / net.node_weight
    assert np.all(np.abs(collision_operator(net, feq)) <= rel * scale)


@settings(max_examples=60, deadline=None)
@given(_maxwellians(), st.floats(0.1, 1.0), st.integers(0, 2**16))
def test_forward_entropy_never_increases(case, amplitude, seed):
    net, feq = case
    noise = np.random.Generator(np.random.Philox(seed)).standard_normal(net.n_nodes)
    f0 = feq * np.exp(amplitude * noise)
    traj = solve_forward(net, f0, 0.5)
    assert len(traj.times) > 2
    assert np.all(np.diff(traj.H) <= 0)
    # and it stays above the Maxwellian with the same moments, its minimum
    m = net.moments(f0)
    assert traj.H[-1] >= entropy(net, maxent_project(net, m[0], m[1:-1], m[-1]))


def test_build_3d():
    net = build_network(3, 1.0, 1.0, K1)
    assert net.n_nodes == 27
    oracle = oracles.brute_force_quadruples(3, 1.0, 1.0)
    assert np.array_equal(net.quad, oracle)
    assert net.invariants.shape[1] == net.d + 2


def test_build_validation():
    with pytest.raises(ValueError, match="2 or 3"):
        build_network(4, 1.0, 1.0, K1)
    with pytest.raises(ValueError, match="positive integer"):
        build_network(2, 1.0, 0.3, K1)


@pytest.mark.parametrize("d, V, h, message", [
    (2, -3.0, -1.0, "finite and positive"),  # V/h = 3, but a mirrored lattice
    (2, 3.0, 0.0, "finite and positive"),
    (2, np.nan, 1.0, "finite and positive"),
    (2, 3.0, np.inf, "finite and positive"),
    (2, 1e308, 1e-10, "at most 17 at d = 2"),  # V/h overflows to inf
    (2, 3.0, 1e-320, "at most 17 at d = 2"),
    (2, 18.0, 1.0, "at most 17 at d = 2"),  # 37^2 = 1369 nodes
    (3, 6.0, 1.0, "at most 17 at d = 2 and 5 at d = 3"),  # 13^3 = 2197 nodes
    (2, 0.4, 1.0, "positive integer"),
])
def test_lattice_rule(d, V, h, message):
    with pytest.raises(DomainError, match=message):
        lattice_ratio(d, V, h)
    with pytest.raises(DomainError, match=message):
        build_network(d, V, h, K1)


def test_lattice_cap():
    # the largest lattices of at most MAX_NODES = 11^3 nodes; not built
    assert MAX_NODES == 11**3
    assert lattice_ratio(2, 17.0, 1.0) == 17  # 35^2 = 1225 nodes
    assert lattice_ratio(3, 5.0, 1.0) == 5
    assert lattice_ratio(2, 3.0, 0.3) == 10  # 3 / 0.3 is 10 within roundoff


def test_grad_div_adjoint(net):
    rng = np.random.default_rng(0)
    phi = rng.standard_normal(net.n_nodes)
    q = rng.standard_normal(net.n_quadruples)
    # <grad_bar phi, q> = <phi, div_bar q>
    assert np.isclose(np.dot(net.grad_bar(phi), q), np.dot(phi, net.div_bar(q)))


def test_invariant_basis(net):
    # exactly mass, momentum (d), energy on the default grid
    assert net.invariants.shape[1] == net.d + 2
    g = np.array([net.grad_bar(net.invariants[:, a]) for a in range(net.invariants.shape[1])])
    assert np.max(np.abs(g)) <= 1e-9
    # orthonormal
    assert np.allclose(net.invariants.T @ net.invariants, np.eye(net.d + 2), atol=1e-12)


def test_moments(net):
    f = np.ones(net.n_nodes)
    m = net.moments(f)
    assert np.isclose(m[0], net.n_nodes * net.node_weight)
    assert np.allclose(m[1 : 1 + net.d], 0.0, atol=1e-12)  # symmetric grid
    assert m[-1] > 0


def test_maxent_default(net, feq):
    m = net.moments(feq)
    assert np.allclose(m, [1.0, 0.0, 0.0, 2.0], atol=1e-10)
    assert np.all(feq > 0)
    # Gibbs form: log f linear in (v, |v|^2) features
    feats = np.column_stack(
        [np.ones(net.n_nodes), net.nodes, np.sum(net.nodes**2, axis=1)]
    )
    coef, res, _, _ = np.linalg.lstsq(feats, np.log(feq), rcond=None)
    assert res.size == 0 or res[0] < 1e-18


def test_maxent_custom_moments(net):
    f = maxent_project(net, mass=2.0, momentum=np.array([0.3, -0.1]), energy=4.0)
    assert np.allclose(net.moments(f), [2.0, 0.3, -0.1, 4.0], atol=1e-9)


def test_maxent_infeasible(net):
    with pytest.raises(DomainError, match="not strictly inside the attainable range"):
        maxent_project(net, energy=100.0)  # beyond max |v|^2 on the grid
    with pytest.raises(DomainError, match="target mass must be positive"):
        maxent_project(net, mass=-1.0)


@pytest.mark.parametrize("fit", [
    lambda net: maxent_project(net, energy=np.nan),
    lambda net: maxent_project(net, mass=np.nan),
    lambda net: maxent_project(net, mass=np.inf),
    lambda net: maxent_project(net, momentum=[np.nan, 0.0]),
    lambda net: tilt_to_moments(net, maxent_project(net), [1.0, 0.0, -np.inf, 2.0]),
    lambda net: maxent_project(net, momentum=[0.0]),
    lambda net: tilt_to_moments(net, maxent_project(net), [1.0, 0.0, 0.0, 0.0, 2.0]),
], ids=[
    "energy-nan", "mass-nan", "mass-inf", "momentum-nan", "tilt-momentum-inf",
    "momentum-short", "tilt-targets-long",
])
def test_moment_targets_must_be_finite_and_d_plus_2(net, fit):
    with pytest.raises(DomainError, match="moment targets must be 4 finite numbers"):
        fit(net)


def test_tilt_identity(net, feq):
    f = tilt_to_moments(net, feq, net.moments(feq))
    assert np.max(np.abs(f - feq)) <= 1e-9


def test_tilt_matches_targets(net, feq):
    rng = np.random.default_rng(1)
    base = feq * np.exp(0.2 * rng.standard_normal(net.n_nodes))
    targets = np.array([1.0, 0.1, -0.2, 2.5])
    f = tilt_to_moments(net, base, targets)
    assert np.allclose(net.moments(f), targets, atol=1e-10)
    with pytest.raises(DomainError, match="requires strictly positive f0"):
        tilt_to_moments(net, -base, targets)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("h", [1.0, 0.75, 0.5])
def test_moment_fit_matches_its_own_loop(d, h):
    # maxent_project and tilt_to_moments against the fit's loop before it
    # shared the path solver's: the same bits for V/h = 2..6 and seeded
    # tilts of the Maxwellian up to amplitude 6, where the line search
    # rejects hundreds of full steps and its acceptance rule decides the
    # iterates.  The fit reads only the nodes, so the networks have no
    # quadruples (d = 3, V/h = 6 lies past MAX_NODES); at V = 1 a unit
    # variance sits on the lattice's corners, outside the fit's domain
    for M in (M for M in range(2, 7) if M * h > 1.0):
        net = VelocityNetwork(d, M * h, h, K1, oracles.lattice(d, M), np.zeros((0, 4), int))
        targets = np.array([1.0, *np.zeros(d), float(d)])
        feq = maxent_project(net)
        assert np.array_equal(feq, oracles.exponential_fit(net, np.zeros(net.n_nodes), targets))
        targets = net.moments(feq)
        for amplitude in (0.05, 0.5, 1.0, 2.0, 4.0, 6.0):
            for seed in range(4):
                rng = np.random.Generator(np.random.Philox(seed))
                base = feq * np.exp(amplitude * rng.standard_normal(net.n_nodes))
                assert np.array_equal(
                    tilt_to_moments(net, base, targets),
                    oracles.exponential_fit(net, np.log(base), targets),
                ), (M, amplitude, seed)


def test_restrict_quadruples(net):
    sub = restrict_quadruples(net, [0, 5])
    assert sub.n_quadruples == 2
    assert sub.n_nodes == net.n_nodes
    assert sub.invariants.shape[1] >= net.d + 2  # more conserved directions


@pytest.mark.parametrize(
    "rows", ["mask", "negative", "past-the-end", "far-past-the-end", "float", "nested"]
)
def test_restrict_quadruples_rejects_bad_rows(net, rows):
    Q = net.n_quadruples
    mask = np.zeros(Q, dtype=bool)
    mask[:35] = True
    indices = {
        "mask": mask,
        "negative": [-1],
        "past-the-end": [0, Q],
        "far-past-the-end": [10**6],
        "float": [0.0, 5.0],
        "nested": [[0, 5]],
    }[rows]
    with pytest.raises(DomainError, match="quadruple indices must be integers"):
        restrict_quadruples(net, indices)


def test_to_json_roundtrip(net):
    payload = json.loads(json.dumps(net.to_dict()))
    assert payload["d"] == net.d
    assert len(payload["quadruples"]) == net.n_quadruples
    assert payload["quadruples"][0]["W"] == net.h ** (2 * net.d)


def test_build_error_trivial_grid():
    # V/h = 1 in d=2 is the smallest grid with quadruples; it must build
    net = build_network(2, 1.0, 1.0, K1)
    assert net.n_quadruples > 0
