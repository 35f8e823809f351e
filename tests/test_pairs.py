"""The incidence matrix, the collision index, and the per-quadruple kernels.

`S` must equal its COO build, the incidence operators and
`cre_residual` must give the CSR products of that build, and
`dissipation` must return the same bits as the quadruple-wise formula
in `oracles`: the same products and logs, summed in the same order.
`collision_operator` sums by conservation class instead, in another
order: its cliques must cover every quadruple exactly once, and its
values must lie within an a priori rounding bound of the quadruple-wise
`Q(f)`.  The index itself must equal, bit for bit, the cover built
through an n^2 key table.
"""

from collections import Counter
from dataclasses import fields, replace
from itertools import combinations

import numpy as np
import pytest

import boltzflow.forward
import oracles
from boltzflow.forward import collision_operator, dissipation, solve_forward
from boltzflow.metric import cre_residual, solve_distance
from boltzflow.kinematics import Kernel
from boltzflow.network import (
    build_network,
    maxent_project,
    restrict_quadruples,
    tilt_to_moments,
)

K1 = Kernel("constant", b=1.0)


def _repeated_slots(net):
    """A restricted copy with an i == j row and a k == l row.

    No conservative quadruple repeats a node (a pair of equal velocities
    has nothing to exchange), so the two rows are made by hand; the
    pair arithmetic does not care.  Quadruple 0 shares no node with
    the row the others are made from.
    """
    q0 = net.quad[0]
    q1 = int(np.flatnonzero(~np.isin(net.quad, q0).any(axis=1))[0])
    sub = restrict_quadruples(net, [0, q1, q1, q1])
    quad = sub.quad.copy()
    i, j, k, l = quad[1]
    quad[2] = [i, i, k, l]
    quad[3] = [i, j, k, k]
    return replace(sub, quad=quad)


@pytest.fixture(scope="module", params=["d2", "d3", "clamp", "h-half", "repeated-slot"])
def network(request):
    if request.param == "d3":
        return build_network(3, 2.0, 1.0, K1)
    if request.param == "h-half":  # the rate h^{2d} B_q differs from B_q
        return build_network(2, 1.5, 0.5, K1)
    if request.param == "clamp":
        return build_network(2, 3.0, 1.0, Kernel("clamp", lo=0.5, hi=2.0))
    net = build_network(2, 3.0, 1.0, K1)
    return _repeated_slots(net) if request.param == "repeated-slot" else net


def _states(net):
    """Positive states, states with zeros, and one supported on a single node."""
    rng = np.random.Generator(np.random.Philox(7))
    feq = maxent_project(net)
    out = [feq, feq * np.exp(0.3 * rng.standard_normal(net.n_nodes))]
    for share in (0.1, 0.5):
        f = rng.random(net.n_nodes) + 0.05
        f[rng.random(net.n_nodes) < share] = 0.0
        out.append(f)
    single = np.zeros(net.n_nodes)
    single[net.quad[0, 0]] = 1.0  # every pair product 0: each quadruple adds 0
    out.append(single)
    i, j, k, l = net.quad[0]
    both = out[1].copy()
    both[[i, k]] = 0.0  # quadruple 0 has both products 0
    one = out[1].copy()
    one[i] = 0.0  # quadruple 0 has exactly one product 0
    return out + [both, one]


def _rate(net):
    """The rate h^{2d} B_q, spelled out rather than read from `kappa`."""
    return net.h ** (2 * net.d) * net.B_q


def test_incidence_matches_coo_build(network):
    want = oracles.incidence(network.quad, network.n_nodes).tocsc()
    assert network.S.format == "csc"
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(network.S, part), getattr(want, part)), part
    # a repeated slot sums to -2 or +2
    quad = network.quad
    repeated = (quad[:, 0] == quad[:, 1]) | (quad[:, 2] == quad[:, 3])
    assert (2.0 in np.abs(network.S.data)) == repeated.any()


def test_incidence_operators_match_csr_oracle(network):
    # the CSR row sums of the COO build and the CSC products add each
    # node's (or quadruple's) terms from 0 in the same order: same bits
    rng = np.random.Generator(np.random.Philox(5))
    S = oracles.incidence(network.quad, network.n_nodes)
    n, Q = network.n_nodes, network.n_quadruples
    for cols in ((), (3,)):
        q = rng.standard_normal((Q,) + cols)
        phi = rng.standard_normal((n,) + cols)
        assert np.array_equal(network.div_bar(q), S @ q)
        assert np.array_equal(network.grad_bar(phi), S.T @ phi)
    # cre_residual weights the fluxes q.T of three intervals by the rate
    path = rng.random((4, n))
    lhs = network.node_weight * (path[1:] - path[:-1]) / (1.0 / 3)
    rhs = (S @ (_rate(network)[:, None] * q)).T
    assert cre_residual(network, path, q.T) == np.max(np.abs(lhs - rhs))


U = 2.0**-53  # unit roundoff of binary64


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the relative error of k roundings."""
    return k * U / (1 - k * U)


def _rounding_bound(net, f):
    """A priori bound, per node, on |Q(f) - oracle Q(f)|.

    A sum of terms x_t, each passed through at most k roundings, is
    computed as sum_t x_t (1 + theta_t) with |theta_t| <= gamma_k, in
    any order of summation (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Lemma 3.1 and Sec. 4.2); a zero term adds
    exactly, so only nonzero terms count.  Away from underflow, at node v:

    - the class path: the gain's terms take 1 rounding for g = f_i f_j,
      s - 1 in the clique sum (s the largest clique at v), 1 for the
      entry kappa_C times a slot count, 1 for the product and t - 1 in
      the row sum over the t cliques at v; the loss's terms take r for
      the K entry (r products kappa_C s_C summed), 1 for K f, k - 1 in
      the row sum over the k nonzero entries and 1 for f_v times it;
      then 1 for gain - loss and 1 for / w.
    - the quadruple path: 2 roundings for p - r of rounded products,
      1 for the rate, e - 1 in the row sum over the e quadruple slots at
      v, and 1 for / w.

    Both round the same exact Q(f)_v.  The quadruple path's absolute
    terms sum_q kappa_q (p_q + r_q) over the slots at v are at most
    gain_v + loss_v, so the two results differ by at most
    (gamma_N + gamma_M) (gain_v + loss_v) / w.  Here gain and loss are
    read in binary64 (N more roundings, then 2 for their sum and / w),
    hence the last factor; evaluating the bound itself rounds at a few
    u relative, far inside gamma's slack.
    """
    idx, n = net.collision_index, net.n_nodes
    i, j = idx.members
    g = f[i] * f[j]
    gain, loss = idx.B @ (idx.C @ g), f * (idx.K @ f)
    size = np.diff(idx.C.indptr)
    t = np.diff(idx.B.indptr)
    s = np.zeros(n)
    np.maximum.at(s, np.repeat(np.arange(n), t), size[idx.B.indices])
    terms = np.bincount(i * n + j, minlength=n * n).reshape(n, n)
    terms += terms.T
    r, k = terms.max(axis=1), np.count_nonzero(terms, axis=1)
    N = np.maximum(s + t + 1, r + k + 1) + 2
    e = np.bincount(net.S.indices, minlength=n)
    M = e + 3
    return (_gamma(N) + _gamma(M)) * ((gain + loss) / net.node_weight) / (1 - _gamma(N + 2))


def test_collision_operator_matches_four_gathers(network):
    for f in _states(network):
        ref = oracles.quadruple_collision_operator(network, f)
        # where every term is 0 (the single-node state) the bound is 0
        assert np.all(np.abs(collision_operator(network, f) - ref) <= _rounding_bound(network, f))


def test_collision_operator_builds_no_plain_incidence():
    net = build_network(2, 3.0, 1.0, K1)
    assert "collision_index" not in vars(net)  # building the network does not build it
    feq = maxent_project(net)
    collision_operator(net, feq)
    assert "collision_index" in vars(net)
    # the index keeps none of its pair table, so a forward run does not cache S
    solve_forward(net, feq * np.exp(0.1 * np.sin(np.arange(net.n_nodes))), 0.1)
    assert "S" not in vars(net)


def test_network_caches_only_its_derived_operators():
    # Q(f), D(f) and W_B keep no per-pair array: what a network caches
    # past its defining fields is the velocities, the rates, the two
    # structures of the quadruple graph and the invariant and free bases
    net = build_network(2, 3.0, 1.0, K1)
    feq = maxent_project(net)
    rng = np.random.Generator(np.random.Philox(11))
    pert = feq * np.exp(0.3 * rng.standard_normal(net.n_nodes))
    f1 = tilt_to_moments(net, pert, net.moments(feq))
    collision_operator(net, f1)
    dissipation(net, f1)
    solve_distance(net, feq, f1, K=2)
    cached = set(vars(net)) - {field.name for field in fields(net)}
    assert cached == {"nodes", "kappa", "collision_index", "S", "invariants", "free_basis"}


def test_dissipation_matches_quadruple_wise(network):
    values = []
    for f in _states(network):
        got = dissipation(network, f)
        assert got == oracles.quadruple_dissipation(network, f)
        values.append(got)
    # the zero cases all occur: 0 from an all-zero state, +inf from one zero
    assert values[4] == 0.0
    assert np.isinf(values[6]) and values[6] > 0


def test_dissipation_both_zero_adds_nothing():
    # on the sub-network only quadruple 0 touches the zeroed nodes
    net = _repeated_slots(build_network(2, 3.0, 1.0, K1))
    f = _states(net)[5]
    D = dissipation(net, f)
    assert 0.0 < D < np.inf
    rest = restrict_quadruples(net, [1, 2, 3])
    assert D == dissipation(rest, f)


def test_dissipation_rejects_negative_products(net):
    f = np.ones(net.n_nodes)
    f[net.quad[0, 0]] = -1.0
    with pytest.raises(ValueError):
        dissipation(net, f)


def test_solve_forward_matches_quadruple_kernels(monkeypatch):
    net = build_network(3, 2.0, 1.0, K1)
    feq = maxent_project(net)
    f0 = feq * np.exp(0.3 * np.random.Generator(np.random.Philox(3)).standard_normal(net.n_nodes))
    tol = 1e-10
    fast = solve_forward(net, f0, 0.3, tol=tol)
    monkeypatch.setattr(boltzflow.forward, "collision_operator", oracles.quadruple_collision_operator)
    slow = solve_forward(net, f0, 0.3, tol=tol)
    steps = len(fast.times) - 1
    assert steps > 3 and len(slow.times) - 1 == steps
    # the two Q(f) differ at roundoff, which moves the controller's steps;
    # each run keeps every accepted step's local error estimate within
    # tol (|f0| + 1e-8 + |f|), so the end states may part by twice the
    # accumulated tolerance
    scale = np.abs(f0) + 1e-8 + np.abs(fast.states[-1])
    assert np.all(np.abs(fast.states[-1] - slow.states[-1]) <= 2 * steps * tol * scale)


# -- the indices themselves ----------------------------------------------------


def _cover_edges(net):
    """The multiset of (pair, pair, rate) edges the collision index stands for."""
    idx = net.collision_index
    members = list(zip(*idx.members.tolist()))
    edges = Counter()
    for c, (lo, hi) in enumerate(zip(idx.C.indptr[:-1], idx.C.indptr[1:])):
        for a, b in combinations(members[lo:hi], 2):
            edges[(*sorted([a, b]), idx.rate[c])] += 1
    return edges


def _quad_edges(net):
    """The multiset of (pair, pair, rate) edges of the quadruples."""
    pairs = zip(map(tuple, net.quad[:, :2].tolist()), map(tuple, net.quad[:, 2:].tolist()))
    return Counter((*sorted(ab), kappa) for ab, kappa in zip(pairs, net.kappa))


def _distinct_pairs(quad):
    return sorted(set(map(tuple, quad[:, :2].tolist())) | set(map(tuple, quad[:, 2:].tolist())))


def _one_class(net):
    """A restricted copy that keeps every quadruple of one class of 4 pairs."""
    z = net.lattice
    key = [tuple(z[i] + z[j]) + (int(z[i] @ z[i] + z[j] @ z[j]),) for i, j, _, _ in net.quad]
    rows = {}
    for q, k in enumerate(key):
        rows.setdefault(k, []).append(q)
    return restrict_quadruples(net, next(r for r in rows.values() if len(r) == 6))


def test_collision_index_covers_every_quadruple(network):
    assert _cover_edges(network) == _quad_edges(network)
    if network.n_quadruples > 4:  # a whole lattice: every class is one clique
        assert network.collision_index.members.shape[1] == len(_distinct_pairs(network.quad))


HAND_MADE = [
    "repeated-rows", "one-class", "part-of-a-class", "edge-repeated", "self-loop", "split-classes",
]


def _hand_made(case):
    """The restricted, hand-edited or split-class network of the given name."""
    if case == "split-classes":
        # at h = 0.6 the clamp kernel's rates of one class differ in the
        # last bit, so those classes are split into two-pair cliques
        return build_network(3, 1.8, 0.6, Kernel("clamp", lo=0.5, hi=2.0))
    if case == "repeated-rows":
        return restrict_quadruples(build_network(2, 3.0, 1.0, K1), [3, 3, 3])
    if case == "repeated-slot":  # two rows that are not conservative
        return _repeated_slots(build_network(2, 3.0, 1.0, K1))
    if case == "row-across-keys":
        # three rows among three of the four pairs of one class, and a row
        # that is not conservative: it joins the fourth pair, (18, 22), to
        # the pair of row 0, of another key; the three rows stay one clique
        net = build_network(2, 3.0, 1.0, K1)
        sub = restrict_quadruples(net, [271, 272, 302, 0])
        quad = sub.quad.copy()
        quad[3] = [18, 22, *net.quad[0, :2]]
        return replace(sub, quad=quad)
    net = _one_class(build_network(2, 3.0, 1.0, K1))
    quad = net.quad.copy()
    if case == "part-of-a-class":  # five of its six rows: an edge missing
        quad = quad[:5]
    elif case == "edge-repeated":  # six rows, one edge twice and one missing
        quad[5] = quad[4]
    elif case == "self-loop":  # six rows, one joins a pair to itself
        quad[5, 2:] = quad[5, :2]
    return replace(net, quad=quad)


@pytest.mark.parametrize("case", HAND_MADE)
def test_collision_index_covers_restricted_and_split_networks(case):
    net = _hand_made(case)
    assert _cover_edges(net) == _quad_edges(net)
    idx = net.collision_index
    cliques = np.diff(idx.C.indptr)
    if case == "split-classes":
        assert len(_distinct_pairs(net.quad)) == 57111 and idx.members.shape[1] == 61719
    elif case == "one-class":
        assert cliques.tolist() == [4]
    else:  # every row its own two-pair clique
        assert cliques.tolist() == [2] * net.n_quadruples


@pytest.mark.parametrize("case", HAND_MADE + ["repeated-slot"])
def test_cover_cliques_have_two_members_and_give_B_and_K(case):
    # B and K written down clique by clique from the cover, K's terms
    # added in member order as the build adds them
    idx = _hand_made(case).collision_index
    n = idx.K.shape[0]
    assert np.all(np.diff(idx.C.indptr) >= 2) and np.all(idx.rate > 0)
    assert np.all(idx.C.data == 1.0) and np.array_equal(idx.C.indices, np.arange(idx.C.shape[1]))
    B, A = np.zeros(idx.B.shape), np.zeros((n, n))
    for c, (lo, hi) in enumerate(zip(idx.C.indptr[:-1], idx.C.indptr[1:])):
        slots = Counter()
        for i, j in idx.members[:, lo:hi].T.tolist():
            slots.update([i, j])
            A[i, j] += idx.rate[c] * (hi - lo)
        for v, count in slots.items():
            B[v, c] = idx.rate[c] * count
    assert np.array_equal(idx.B.toarray(), B)
    assert np.array_equal(idx.K, A + A.T)


# the lattices on which the cover must equal the key-table build bit for bit
LATTICES = {
    "d2-3": (2, 3.0, 1.0, K1),
    "d2-17": (2, 17.0, 1.0, K1),
    "d3-2-clamp": (3, 2.0, 1.0, Kernel("clamp", lo=0.5, hi=2.0)),
    "d3-3": (3, 3.0, 1.0, K1),
    "d3-4": (3, 4.0, 1.0, K1),
}


@pytest.mark.parametrize(
    "case", sorted(LATTICES) + HAND_MADE + ["repeated-slot", "row-across-keys"]
)
def test_collision_index_matches_key_table_build(case):
    net = build_network(*LATTICES[case]) if case in LATTICES else _hand_made(case)
    got, want = net.collision_index, oracles.keyed_collision_index(net)
    for name in ("members", "rate", "K"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("C", "B"):
        for part in ("indptr", "indices", "data"):
            got_part, want_part = (getattr(getattr(x, name), part) for x in (got, want))
            assert np.array_equal(got_part, want_part), (name, part)


def test_kappa_is_per_copy():
    # one rate h^{2d} B_q per quadruple; a restricted copy derives its own
    net = build_network(2, 3.0, 1.0, Kernel("clamp", lo=0.5, hi=2.0))
    assert np.array_equal(net.kappa, net.h ** (2 * net.d) * net.B_q)
    assert len(np.unique(net.kappa)) > 1
    sub = restrict_quadruples(net, [0, 5, 17, 300])
    assert np.array_equal(sub.kappa, net.kappa[[0, 5, 17, 300]])
