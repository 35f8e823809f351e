"""The incidence matrix, the velocity-pair index and the per-pair kernels.

`S` and `rate_incidence` must equal their COO builds, the incidence
operators must give the CSR products of that build, and
`pair_products`, `collision_operator` and `dissipation` must return the
same bits as the quadruple-wise formulas in `oracles`: a product
f_i f_j rounds the same whichever array it sits in, and the sums keep
their order.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

import boltzflow.forward
import oracles
from boltzflow.forward import collision_operator, dissipation, solve_forward
from boltzflow.kinematics import Kernel
from boltzflow.network import (
    VelocityNetwork,
    build_network,
    maxent_project,
    restrict_quadruples,
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
    ref = oracles.incidence(network.quad, network.n_nodes)
    rated = ref @ scipy.sparse.diags(_rate(network))
    cases = (("S", network.S, ref.tocsc()), ("rate_incidence", network.rate_incidence, rated.tocsc()))
    for name, got, want in cases:
        assert got.format == "csc", name
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), (name, part)
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
        rate = _rate(network).reshape((Q,) + (1,) * len(cols))
        assert np.array_equal(network.div_bar(q), S @ q)
        assert np.array_equal(network.grad_bar(phi), S.T @ phi)
        assert np.array_equal(network.rate_incidence @ q, S @ (rate * q))


def test_pair_products_match_four_gathers(network):
    for f in _states(network):
        p, r = network.pair_products(f)
        p_ref, r_ref = oracles.quadruple_products(network, f)
        assert np.array_equal(p, p_ref) and np.array_equal(r, r_ref)


def test_collision_operator_matches_four_gathers(network):
    S = oracles.incidence(network.quad, network.n_nodes)
    for f in _states(network):
        p, r = oracles.quadruple_products(network, f)
        ref = S @ (_rate(network) * (p - r)) / network.node_weight
        assert np.array_equal(collision_operator(network, f), ref)


def test_collision_operator_builds_no_plain_incidence():
    net = build_network(2, 3.0, 1.0, K1)
    collision_operator(net, maxent_project(net))
    assert "rate_incidence" in vars(net) and "S" not in vars(net)


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
    fast = solve_forward(net, f0, 0.3)
    fast.D  # made on first read: read it before the kernels are swapped
    monkeypatch.setattr(VelocityNetwork, "pair_products", oracles.quadruple_products)
    monkeypatch.setattr(boltzflow.forward, "dissipation", oracles.quadruple_dissipation)
    slow = solve_forward(net, f0, 0.3)
    assert len(fast.times) > 3
    for name in ("times", "states", "H", "D", "moments"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name)), name


# -- the index itself ----------------------------------------------------------


def _distinct_pairs(quad):
    return sorted(set(map(tuple, quad[:, :2].tolist())) | set(map(tuple, quad[:, 2:].tolist())))


def test_pair_index_lists_each_pair_once(network):
    pairs, ids = network.pair_index
    assert pairs.shape[1] == len(_distinct_pairs(network.quad))
    assert sorted(map(tuple, pairs.T.tolist())) == _distinct_pairs(network.quad)
    assert np.array_equal(pairs[:, ids[0]].T, network.quad[:, :2])
    assert np.array_equal(pairs[:, ids[1]].T, network.quad[:, 2:])


def test_pair_index_is_lazy_and_per_copy():
    net = build_network(2, 3.0, 1.0, K1)
    assert "pair_index" not in vars(net)  # building the network does not build it
    full = net.pair_index
    sub = restrict_quadruples(net, [0, 5, 17, 300])
    assert "pair_index" not in vars(sub)
    pairs, ids = sub.pair_index
    assert pairs.shape[1] == len(_distinct_pairs(sub.quad)) < full[0].shape[1]
    assert np.array_equal(pairs[:, ids[0]].T, sub.quad[:, :2])
    assert np.array_equal(pairs[:, ids[1]].T, sub.quad[:, 2:])
    assert net.pair_index is full


def test_kappa_is_per_copy():
    # one rate h^{2d} B_q per quadruple; a restricted copy derives its own
    net = build_network(2, 3.0, 1.0, Kernel("clamp", lo=0.5, hi=2.0))
    assert np.array_equal(net.kappa, net.h ** (2 * net.d) * net.B_q)
    assert len(np.unique(net.kappa)) > 1
    sub = restrict_quadruples(net, [0, 5, 17, 300])
    assert np.array_equal(sub.kappa, net.kappa[[0, 5, 17, 300]])
