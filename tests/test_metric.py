import mpmath
import numpy as np
import pytest

import boltzflow.jko
import oracles
from oracles import action_density, boltzmann_flux, discrete_action, gradient_form_residual
from boltzflow.cli import _tilted_state
from boltzflow.errors import DomainError
from boltzflow.forward import dissipation, solve_forward
from boltzflow.metric import (
    FLOOR,
    MetricSolution,
    SolverOptions,
    _PathProblem,
    cre_residual,
    single_quadruple_oracle,
    solve_distance,
    w1_distance,
)
from boltzflow.kinematics import Kernel
from boltzflow.network import build_network, maxent_project, restrict_quadruples, tilt_to_moments


def test_discrete_action_zero_flux(net, tilted):
    assert discrete_action(net, tilted(0), np.zeros(net.n_quadruples)) == 0.0


def test_discrete_action_brute_force(net, tilted):
    rng = np.random.default_rng(1)
    f = tilted(1)
    J = 0.01 * rng.standard_normal(net.n_quadruples)
    p, r = oracles.quadruple_products(net, f)
    rate = net.h ** (2 * net.d) * net.B_q
    ref = sum(
        4.0 * rate[q] * action_density(J[q], p[q], r[q])
        for q in range(net.n_quadruples)
    )
    assert np.isclose(discrete_action(net, f, J), ref, rtol=1e-12)


def test_discrete_action_dead_quadruple(net):
    f = np.zeros(net.n_nodes)
    J = np.zeros(net.n_quadruples)
    assert discrete_action(net, f, J) == 0.0
    J[0] = 1.0
    assert discrete_action(net, f, J) == np.inf


def test_cre_residual_trivial(net, tilted):
    f = tilted(2)
    path = np.broadcast_to(f, (5, net.n_nodes)).copy()
    assert cre_residual(net, path, np.zeros((4, net.n_quadruples))) == 0.0
    with pytest.raises(ValueError):
        cre_residual(net, path[:3], np.zeros((4, net.n_quadruples)))


def test_cre_single_reaction_bookkeeping(net, tilted):
    # one interval, flux on one quadruple moves exactly the endpoint gap
    sub = restrict_quadruples(net, [0])
    i, j, k, l = sub.quad[0]
    f0 = np.full(net.n_nodes, 0.2)
    delta = 0.01
    s = np.zeros(net.n_nodes)
    s[[i, j]] += 1.0
    s[[k, l]] -= 1.0
    f1 = f0 - delta / sub.node_weight * s
    kappa = float(sub.h ** (2 * sub.d) * sub.B_q[0])
    J = np.array([[delta / kappa]])
    assert cre_residual(sub, np.stack([f0, f1]), J) <= 1e-15


def test_boltzmann_flux_satisfies_cre(net, tilted):
    # resample a forward trajectory; CRE residual vanishes with the slice width
    # (fine max_step so state interpolation error stays subdominant)
    traj = solve_forward(net, tilted(3), 0.2, max_step=0.2 / 256)
    res = []
    for K in (8, 16):
        ts = np.linspace(0.0, 0.2, K + 1)
        path = np.array([traj.state_at(t) for t in ts])
        flux = np.array(
            [boltzmann_flux(net, 0.5 * (path[m] + path[m + 1])) for m in range(K)]
        )
        # time rescaling: path on [0,1] carries dt = T/K worth of physical flux
        res.append(cre_residual(net, path, 0.2 * flux))
    assert res[1] <= 0.6 * res[0]  # at least first order in the slice width


def test_flux_action_equals_dissipation(net, tilted):
    f = tilted(4)
    J = boltzmann_flux(net, f)
    assert np.isclose(discrete_action(net, f, J), dissipation(net, f), rtol=1e-10)


def test_distance_zero_on_identical(net, tilted):
    f = tilted(5)
    sol = solve_distance(net, f, f, K=4)
    assert sol.value <= 1e-8
    assert np.max(np.abs(sol.flux)) <= 1e-8


def test_distance_symmetry_and_positivity(net, tilted):
    f0, f1 = tilted(6), tilted(7)
    a = solve_distance(net, f0, f1, K=4)
    b = solve_distance(net, f1, f0, K=4)
    assert a.value > 0
    assert abs(a.value - b.value) <= 2e-8
    assert a.kkt_residual <= 1e-8


def test_distance_path_properties(net, tilted):
    f0, f1 = tilted(6), tilted(7)
    sol = solve_distance(net, f0, f1, K=4)
    assert np.allclose(sol.path[0], f0) and np.allclose(sol.path[-1], f1)
    assert np.all(sol.path > 0)
    # moments conserved along the path
    for m in range(sol.path.shape[0]):
        assert np.max(np.abs(net.moments(sol.path[m]) - net.moments(f0))) <= 1e-7
    assert cre_residual(net, sol.path, sol.flux) <= 1e-9
    spread = np.std(sol.slice_actions) / np.mean(sol.slice_actions)
    assert spread <= 1e-3


@pytest.fixture(scope="module")
def d3():
    """d=3, V/h=2 network (n=125, Q=12222) and its seeded moment-matched tilts."""
    from boltzflow.kinematics import Kernel
    from boltzflow.network import build_network, maxent_project, tilt_to_moments

    net3 = build_network(3, 2.0, 1.0, Kernel("constant", b=1.0))
    feq3 = maxent_project(net3)

    def tilt(seed):
        rng = np.random.Generator(np.random.Philox(seed))
        pert = feq3 * np.exp(0.3 * rng.standard_normal(net3.n_nodes))
        return tilt_to_moments(net3, pert, net3.moments(feq3))

    return net3, tilt


def test_distance_d3(d3):
    net3, tilt = d3
    f0, f1 = tilt(1), tilt(2)
    a = solve_distance(net3, f0, f1, K=4)
    b = solve_distance(net3, f1, f0, K=4)
    assert a.value > 0 and a.kkt_residual <= 1e-8
    assert abs(a.value - b.value) <= 2e-8
    assert cre_residual(net3, a.path, a.flux) <= 1e-12
    assert gradient_form_residual(net3, a) <= 1e-4


def _geodesic_pair(net, feq, seed):
    """The geodesic benchmark's seeded pair of moment-matched tilts."""
    rng = np.random.Generator(np.random.Philox(seed).jumped(0))
    return [
        tilt_to_moments(
            net, feq * np.exp(0.25 * rng.standard_normal(net.n_nodes)), net.moments(feq)
        )
        for _ in range(2)
    ]


def test_floor_sensitivity_zero_when_nothing_is_clipped(net, feq):
    # the geodesic benchmark's pairs: their paths stay above 4.7e-6, so
    # clipping at 10 x FLOOR changes nothing and the sensitivity is 0
    for seed in range(1, 9):
        sol = solve_distance(net, *_geodesic_pair(net, feq, seed), K=8)
        assert np.min(sol.path) > 10.0 * FLOOR
        assert sol.floor_sensitivity == 0.0


@pytest.mark.parametrize("solver", ["solve_distance", "jko_step"])
def test_no_path_evaluation_after_newton(net, feq, tilted, monkeypatch, solver):
    # the Newton loop hands back the evaluation of its minimizer; with
    # nothing clipped, neither caller evaluates the path again
    real_solve = _PathProblem.solve
    real_evaluate = _PathProblem.evaluate
    calls = {"after": 0, "done": False}

    def solve(self, opts):
        out = real_solve(self, opts)
        calls["done"] = True
        return out

    def evaluate(self, *args, **kwargs):
        calls["after"] += calls["done"]
        return real_evaluate(self, *args, **kwargs)

    monkeypatch.setattr(_PathProblem, "solve", solve)
    monkeypatch.setattr(_PathProblem, "evaluate", evaluate)
    if solver == "solve_distance":
        for seed in (1, 2, 3):
            a, b = _geodesic_pair(net, feq, seed)
            for f0, f1 in ((a, b), (b, a)):
                calls["done"] = False
                sol = solve_distance(net, f0, f1, K=8)
                assert np.min(sol.path) > 10.0 * FLOOR
    else:
        boltzflow.jko.jko_step(net, tilted(1), 0.1, K=4)
    assert calls["done"] and calls["after"] == 0


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_solver_tolerance_rule(tol):
    # NaN would run every Newton iteration and return unchecked, +inf the
    # unsolved straight path, and 0 or less would end as a numerical stall
    with pytest.raises(DomainError, match="tol must be finite and positive"):
        SolverOptions(tol=tol)


def test_line_search_backs_off_from_the_cone_boundary(net, monkeypatch):
    # amplitude-1 tilts: a full Newton step takes the path below FLOOR, the
    # candidate is +inf, and the halved step goes on to converge
    real_call = _PathProblem.__call__
    seen = []

    def call(self, y):
        point = real_call(self, y)
        seen.append((point[0], np.min(self.path(y))))
        return point

    monkeypatch.setattr(_PathProblem, "__call__", call)
    sol = solve_distance(net, _tilted_state(net, 1.0, 1), _tilted_state(net, 1.0, 2), K=8)
    assert any(val == np.inf and low < FLOOR for val, low in seen)
    assert sol.kkt_residual <= SolverOptions().tol


def test_wide_lattice_distance_stops_at_its_roundoff_floor():
    # d=2, V/h=5, the default distance run with V: 5.0: two steps settle
    # the value to 12 digits; the path's smallest entries sit near 1e-12,
    # so the projected gradient's rounding noise (about 1e-5) stays above
    # tol, where a loop that knew no roundoff floor exited 4
    net = build_network(2, 5.0, 1.0, Kernel("constant"))
    f0, f1 = maxent_project(net), _tilted_state(net, 0.3, 0)
    sol = solve_distance(net, f0, f1, K=16)
    assert sol.stop == "roundoff floor"
    prob = _PathProblem(net, 16, f0, f1)
    assert sol.squared <= prob.evaluate(prob.base)[0]  # the straight path's action
    assert max(np.max(np.abs(net.moments(g) - net.moments(f0))) for g in sol.path) <= 1e-12
    # M's tails fall below 10 FLOOR here, so the floor sensitivity is the
    # value's move when the path is clipped there
    clipped = np.maximum(sol.path, 10.0 * FLOOR)
    assert not np.array_equal(clipped, sol.path)
    assert sol.floor_sensitivity > 0
    assert sol.floor_sensitivity == abs(float(np.sqrt(prob.evaluate(clipped)[0])) - sol.value)


def test_node_space_is_split_once_per_network(monkeypatch):
    # the network's one eigh gives both the invariants and the free basis
    # that every path problem on it reads; a distance and two JKO steps
    # used to take one more eigh each
    net = build_network(2, 3.0, 1.0, Kernel("constant"))
    f0, f1 = maxent_project(net), _tilted_state(net, 0.3, 0)
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    solve_distance(net, f0, f1, K=4)
    for tau in (0.1, 0.05):
        boltzflow.jko.jko_step(net, f1, tau, K=2)
    assert calls == [(net.n_nodes, net.n_nodes)]
    C, N = net.invariants, net.free_basis
    assert C.shape[1] + N.shape[1] == net.n_nodes
    assert np.allclose(np.hstack([C, N]).T @ np.hstack([C, N]), np.eye(net.n_nodes), atol=1e-13)


@pytest.mark.parametrize("K", [1, 0, -3, 2.5, 4.0, True, "4"])
def test_distance_slice_rule(net, tilted, K):
    # a distance path needs an integer K >= 2: an interior slice to move
    with pytest.raises(DomainError, match="K must be an integer of at least 2"):
        solve_distance(net, tilted(6), tilted(7), K=K)


def test_distance_moment_mismatch_rejected(net, feq, tilted):
    bad = feq * 1.01
    with pytest.raises(DomainError, match="endpoint moments differ"):
        solve_distance(net, feq, bad, K=4)
    with pytest.raises(ValueError):
        solve_distance(net, feq, np.zeros_like(feq), K=4)


@pytest.mark.parametrize(
    "solver, d",
    [
        pytest.param("solve_distance", 2, id="solve_distance"),
        pytest.param("jko_step", 2, id="jko_step"),
        pytest.param("solve_distance", 3, id="solve_distance-d3"),
        pytest.param("jko_step", 3, id="jko_step-d3"),
    ],
)
def test_reduced_hessian_matches_gradient_differences(net, tilted, d3, monkeypatch, solver, d):
    # capture the path problem the Newton solver runs on
    real = _PathProblem.solve
    seen = {}

    def spy(self, opts):
        out = real(self, opts)
        free = slice(1, self.nslices + 1)
        y_opt = ((out[0][free] - self.base[free]) @ self.N).ravel()
        seen.update(prob=self, points=(np.zeros_like(y_opt), y_opt))
        return out

    monkeypatch.setattr(_PathProblem, "solve", spy)
    g, tilt = (net, tilted) if d == 2 else d3
    if solver == "solve_distance":
        solve_distance(g, tilt(6), tilt(7), K=4)
    else:
        boltzflow.jko.jko_step(g, tilt(1), 0.1, K=4)
    prob = seen["prob"]
    rng = np.random.default_rng(5)
    h = 1e-8
    free = slice(1, prob.nslices + 1)
    for y in seen["points"]:  # the straight or constant start and the minimizer
        # the band's lower triangle mirrored onto the upper one matches the
        # oracle's dense Hessian, whose upper triangle is computed on its own
        H = oracles.band_to_dense(prob.hessian(prob(y)))
        dense = oracles.path_evaluate(prob, prob.path(y), True)[2][free, :, free]
        dense = dense.reshape(len(y), -1)
        assert np.max(np.abs(H - dense)) <= 1e-13 * np.max(np.abs(dense))
        for _ in range(3):
            v = rng.standard_normal(len(y))
            v /= np.linalg.norm(v)
            fd = (prob(y + h * v)[1] - prob(y - h * v)[1]) / (2 * h)
            assert np.linalg.norm(H @ v - fd) <= 1e-6 * np.linalg.norm(fd)


def test_gradient_form_residual_optimal_vs_circulated(net, tilted):
    f0, f1 = tilted(6), tilted(7)
    sol = solve_distance(net, f0, f1, K=4, opts=SolverOptions(tol=1e-10))
    assert gradient_form_residual(net, sol) <= 1e-4
    # corrupt the flux with a divergence-free circulation: residual jumps
    rng = np.random.default_rng(0)
    pert = rng.standard_normal(net.n_quadruples)
    # project onto the kernel of div_bar(W B .) by least squares
    i, j, k, l = net.quad.T
    S = np.zeros((net.n_nodes, net.n_quadruples))
    rate = net.h ** (2 * net.d) * net.B_q
    for q in range(net.n_quadruples):
        S[[k[q], l[q]], q] += rate[q]
        S[[i[q], j[q]], q] -= rate[q]
    pert -= np.linalg.lstsq(S, S @ pert, rcond=None)[0]
    bad = sol.flux.copy()
    bad[2] += 0.05 * pert
    from dataclasses import replace

    worse = replace(sol, flux=bad)
    assert gradient_form_residual(net, worse) > 1e-2


def test_gradient_form_residual_separates_gradients(net, tilted):
    sub = restrict_quadruples(net, [0, 5, 17, 300])
    rng = np.random.default_rng(3)
    path = np.array([tilted(s) for s in (1, 2, 3)])
    # an arbitrary flux is far from gradient form on the full network
    flux = rng.standard_normal((2, net.n_quadruples))
    trial = MetricSolution(0.0, 0.0, path, flux, np.zeros(2), 0.0, 0)
    assert 0.1 < gradient_form_residual(net, trial) < 1.0
    # four independent reactions: every flux is a gradient, up to roundoff
    flux = rng.standard_normal((2, sub.n_quadruples))
    trial = MetricSolution(0.0, 0.0, path, flux, np.zeros(2), 0.0, 0)
    assert gradient_form_residual(sub, trial) <= 1e-6


def test_single_quadruple_oracle_points(net):
    sub = restrict_quadruples(net, [0])
    i, j, k, l = sub.quad[0]
    f0 = np.full(net.n_nodes, 0.1)
    s = np.zeros(net.n_nodes)
    s[[i, j]] += 1.0
    s[[k, l]] -= 1.0
    f1 = f0 - 0.02 / sub.node_weight * s
    # int_0^m1 dm / sqrt(kappa Lambda(f_i f_j, f_k f_l)) along
    # f = f0 - (m / w) s, to 30 digits; Lambda = sqrt(p r) sinh(x/2) / (x/2)
    # with x = log(p / r) stays accurate where p and r nearly agree
    w = float(sub.node_weight)
    kappa = float(sub.h ** (2 * sub.d) * sub.B_q[0])
    m1 = float(w * (f0[i] - f1[i]))
    with mpmath.workdps(30):

        def integrand(m):
            f = [mpmath.mpf(f0[a]) - m / w * float(s[a]) for a in (i, j, k, l)]
            p, r = f[0] * f[1], f[2] * f[3]
            half = (mpmath.log(p) - mpmath.log(r)) / 2
            lam = mpmath.sqrt(p * r) * (mpmath.sinh(half) / half if half else 1)
            return 1 / mpmath.sqrt(kappa * lam)

        ref = float(abs(mpmath.quad(integrand, [0, m1])))
    assert abs(single_quadruple_oracle(sub, f0, f1) - ref) <= 1e-14 * ref


def test_single_quadruple_oracle_matches(net):
    sub = restrict_quadruples(net, [0])
    i, j, k, l = sub.quad[0]
    f0 = np.full(net.n_nodes, 0.1)
    s = np.zeros(net.n_nodes)
    s[[i, j]] += 1.0
    s[[k, l]] -= 1.0
    f1 = f0 - 0.02 / sub.node_weight * s
    ref = single_quadruple_oracle(sub, f0, f1)
    # Richardson in K: K-slice values converge from above at order K^-2
    sq = {K: solve_distance(sub, f0, f1, K=K).squared for K in (16, 32)}
    extrap = np.sqrt((4.0 * sq[32] - sq[16]) / 3.0)
    assert abs(extrap - ref) <= 1e-8 * ref


def test_single_quadruple_oracle_validation(net, tilted):
    with pytest.raises(ValueError):
        single_quadruple_oracle(net, tilted(0), tilted(1))
    sub = restrict_quadruples(net, [0])
    with pytest.raises(ValueError, match="not connected"):
        single_quadruple_oracle(sub, np.full(net.n_nodes, 0.1), np.full(net.n_nodes, 0.2))


def test_w1_distance():
    from boltzflow.kinematics import Kernel
    from boltzflow.network import build_network

    small = build_network(2, 1.0, 1.0, Kernel("constant", b=1.0))
    f0 = np.zeros(small.n_nodes)
    f1 = np.zeros(small.n_nodes)
    # move unit mass between two nodes a known distance apart
    a, b = 0, small.n_nodes - 1
    f0[a] = 1.0
    f1[b] = 1.0
    dist = np.linalg.norm(small.nodes[a] - small.nodes[b])
    assert np.isclose(w1_distance(small, f0, f1), small.node_weight * dist, rtol=1e-9)
    assert w1_distance(small, f0, f0) <= 1e-12


@pytest.mark.parametrize("scale", [0.5, 1.001, 1 + 1e-9, 1 - 1e-9])
def test_w1_distance_rejects_unequal_masses(net, tilted, scale):
    # the LP drops one column constraint, so a surplus mass would be absorbed
    a, b = tilted(0), tilted(1)
    with pytest.raises(DomainError, match="equal masses"):
        w1_distance(net, a, scale * b)
    # a difference at roundoff is no difference
    assert w1_distance(net, a, (1 + 1e-13) * b) > 0


def test_w1_distance_d3_small_masses():
    # d=3, V/h=3: node masses down to 3.5e-8, below HiGHS's default 1e-7
    # feasibility tolerance, which then calls this feasible LP infeasible
    from boltzflow.kinematics import Kernel
    from boltzflow.network import build_network, maxent_project

    net3 = build_network(3, 3.0, 1.0, Kernel("constant", b=1.0))
    feq3 = maxent_project(net3)
    rng = np.random.Generator(np.random.Philox(1))
    g = tilt_to_moments(net3, feq3 * np.exp(0.2 * rng.standard_normal(net3.n_nodes)),
                        net3.moments(feq3))
    assert net3.node_weight * g.min() < 1e-7
    ref = oracles.w1_dual(net3, feq3, g)
    assert abs(w1_distance(net3, feq3, g) - ref) <= 1e-12 * ref
