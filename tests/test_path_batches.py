"""The batched path objective and its Newton solve against slow oracles.

`_PathProblem.evaluate` handles up to BATCH_ROWS quadruple rows of
intervals at a time.  It must return the same bits as
`oracles.path_evaluate`, which evaluates one interval at a time, however
the intervals are split into batches: each slice of the gradient and
Hessian takes at most two interval terms onto a zero start.  The
Hessian is a LAPACK lower band, and the Newton step solved from it must
match a dense Cholesky solve of the expanded matrix.  The Newton loop,
which builds a Hessian only where a step uses it, must take the same
steps as `oracles.newton_solve`, which builds one at every candidate.
"""

import numpy as np
import pytest
import scipy.linalg

import boltzflow.metric
import oracles
from boltzflow.cli import bimodal_mixture, density_from_mixture
from boltzflow.forward import entropy
from boltzflow.jko import jko_step
from boltzflow.kinematics import Kernel
from boltzflow.metric import (
    BATCH_ROWS,
    FLOOR,
    SolverOptions,
    _newton_step,
    _PathProblem,
    solve_distance,
)
from boltzflow.network import build_network, maxent_project, restrict_quadruples, tilt_to_moments

K1 = Kernel("constant", b=1.0)
K = 8


@pytest.fixture(scope="module", params=["d2", "d3", "clamp", "restricted"])
def network(request):
    if request.param == "d3":
        return build_network(3, 2.0, 1.0, K1)
    if request.param == "clamp":
        return build_network(2, 3.0, 1.0, Kernel("clamp", lo=0.5, hi=2.0))
    net = build_network(2, 3.0, 1.0, K1)
    return restrict_quadruples(net, np.arange(0, net.n_quadruples, 5)) if (
        request.param == "restricted"
    ) else net


def _tilts(net, seed):
    """Two moment-matched tilts of the Maxwellian, as the geodesic benchmark draws them."""
    feq = maxent_project(net)
    rng = np.random.Generator(np.random.Philox(seed).jumped(0))
    return [
        tilt_to_moments(
            net, feq * np.exp(0.25 * rng.standard_normal(net.n_nodes)), net.moments(feq)
        )
        for _ in range(2)
    ]


def _problems(net):
    """The W_B problem on a straight path and the JKO problem from a tilt, each at a point y."""
    a, b = _tilts(net, 1)
    distance = _PathProblem(net, K, a, b)
    step = _PathProblem(net, K, a, tau=0.01)
    rng = np.random.default_rng(3)
    out = []
    for prob in (distance, step):
        # a bent path: moves of a few percent of the smallest density
        y = 0.05 * np.min(prob.base) * rng.standard_normal(prob.nslices * prob.N.shape[1])
        path = prob.path(y)
        assert np.min(path) > FLOOR
        out.append((prob, path))
    return out


def _assert_same(new, ref):
    new, ref = list(new), list(ref)
    if ref[2] is not None:
        # the band holds the lower triangle of the oracle's dense Hessian
        new[2] = np.tril(oracles.band_to_dense(new[2]))
        ref[2] = np.tril(ref[2].reshape(len(new[2]), -1))
    for x, r in zip(new, ref):
        assert (x is None and r is None) or np.array_equal(x, r)


@pytest.mark.parametrize("batch", ["default", "one", "three"])
def test_evaluate_matches_interval_loop(network, monkeypatch, batch):
    rows = {"default": BATCH_ROWS, "one": 1, "three": 3 * network.n_quadruples}[batch]
    monkeypatch.setattr(boltzflow.metric, "BATCH_ROWS", rows)
    for prob, path in _problems(network):
        for hessian in (False, True):
            _assert_same(prob.evaluate(path, hessian), oracles.path_evaluate(prob, path, hessian))


def test_batch_sizes(net, monkeypatch):
    # the geodesic benchmark's path (Q = 640, K = 8) is one batch, and
    # d = 3, V/h = 3 (Q = 136686) goes one interval at a time
    assert BATCH_ROWS // net.n_quadruples >= K
    assert max(1, BATCH_ROWS // 136686) == 1
    calls = []
    real = _PathProblem._add_intervals

    def spy(self, path, start, stop, *args):
        calls.append((start, stop))
        return real(self, path, start, stop, *args)

    monkeypatch.setattr(_PathProblem, "_add_intervals", spy)
    prob, path = _problems(net)[0]
    prob.evaluate(path, True)
    assert calls == [(0, K)]
    calls.clear()
    monkeypatch.setattr(boltzflow.metric, "BATCH_ROWS", 3 * net.n_quadruples)
    prob.evaluate(path, True)
    assert calls == [(0, 3), (3, 6), (6, 8)]


@pytest.mark.parametrize("rows", [BATCH_ROWS, 1])
def test_indefinite_interval_gives_inf(net, monkeypatch, rows):
    # the last two slices sit at the floor but for one quadruple's nodes:
    # the last interval's Laplacian spans 36 orders of magnitude and loses
    # definiteness in the Cholesky factorization; the others are fine
    monkeypatch.setattr(boltzflow.metric, "BATCH_ROWS", rows)
    prob = _PathProblem(net, K, _tilts(net, 1)[0], tau=0.5)  # scale 1 with the entropy
    base = prob.base
    base[K - 1 :] = FLOOR
    base[K - 1 :, net.quad[0]] = 1e6
    for hessian in (False, True):
        with pytest.raises(np.linalg.LinAlgError):
            oracles.path_interval(prob, base[K - 1], base[K], hessian)
        with pytest.raises(np.linalg.LinAlgError):
            prob.evaluate(base, hessian)
    value, grad, H, actions, fluxes = prob(np.zeros(K * prob.N.shape[1]))
    assert value == np.inf and not np.any(grad)
    assert H is None and actions is None and fluxes is None
    for m in range(K - 1):
        oracles.path_interval(prob, base[m], base[m + 1], True)


@pytest.mark.parametrize("jitter", [False, True], ids=["no-jitter", "forced-jitter"])
def test_banded_step_matches_dense_solve(network, jitter):
    # the step from the band equals the dense Cholesky solve of the expanded
    # matrix.  With the diagonal shifted to a smallest eigenvalue of
    # -1e-4 trace / N, both factorizations fail until the jitter reaches
    # 4^14 1e-12 trace / N = 2.7e-4 trace / N, and both solve that system
    for prob, _ in _problems(network):
        point = prob(np.zeros(prob.nslices * prob.N.shape[1]))
        g, H = point[1], prob.hessian(point)
        dense = oracles.band_to_dense(H)
        used = 0.0
        if jitter:
            H = H.copy()
            H[0] -= np.linalg.eigvalsh(dense)[0] + 1e-4 * np.trace(dense) / len(dense)
            dense = oracles.band_to_dense(H)
            with pytest.raises(np.linalg.LinAlgError):
                scipy.linalg.cho_factor(dense)
            used = 4.0**14 * 1e-12 * np.trace(dense) / len(dense)
        ref = oracles.newton_step(dense, g)
        step = _newton_step(H, g)
        # a backward-stable solve is accurate to about N eps cond
        cond = np.linalg.cond(dense + used * np.eye(len(dense)))
        bound = 10 * len(g) * np.finfo(float).eps * cond
        assert np.linalg.norm(step - ref) <= bound * np.linalg.norm(ref)


@pytest.fixture(scope="module")
def d3_net():
    return build_network(3, 2.0, 1.0, K1)


@pytest.mark.parametrize(
    "grid, solver, arg, batched",
    [
        *(
            pytest.param("d2", "distance", (seed, back), False, id=f"seed{seed}-{way}")
            for seed in (1, 2, 3)
            for back, way in ((False, "ab"), (True, "ba"))
        ),
        pytest.param("d2", "jko", 4e-3, False, id="bimodal-tau4e-3"),
        pytest.param("d2", "jko", 2e-3, False, id="bimodal-tau2e-3"),
        pytest.param("d3", "distance", (1, False), False, id="d3-distance"),
        pytest.param("d3", "jko", 0.1, False, id="d3-jko"),
        pytest.param("d2", "distance", (1, False), True, id="batches-distance"),
        pytest.param("d2", "jko", 4e-3, True, id="batches-jko"),
    ],
)
def test_newton_solve_matches_eager_oracle(net, d3_net, monkeypatch, grid, solver, arg, batched):
    # the geodesic benchmark's solves (d=2 tilts both ways, bimodal JKO
    # steps at K = 8), a d=3 pair at K = 4, and K = 8 intervals in 3
    # batches: the same path, value, KKT and iterations, bit for bit, as
    # the loop that evaluated every candidate with its Hessian through
    # SciPy's Cholesky wrappers, and one Hessian per Newton step
    g, K = (net, 8) if grid == "d2" else (d3_net, 4)
    if batched:
        monkeypatch.setattr(boltzflow.metric, "BATCH_ROWS", 3 * g.n_quadruples)
    opts = SolverOptions()
    if solver == "distance":
        seed, back = arg
        a, b = _tilts(g, seed)[:: -1 if back else 1]
        sol = solve_distance(g, a, b, K=K, opts=opts)
        path, kkt, iters, (value, _, _, actions, fluxes) = oracles.newton_solve(
            _PathProblem(g, K, a, b), opts.tol
        )
        assert np.array_equal(sol.flux, fluxes) and np.array_equal(sol.slice_actions, actions)
        assert sol.squared == value and sol.value == np.sqrt(value)
    else:
        if grid == "d2":  # the geodesic benchmark's bimodal state
            f = density_from_mixture(g, bimodal_mixture(2, 1.2, 1.0))
        else:
            f = _tilts(g, 1)[0]
        sol = jko_step(g, f, arg, K=K, opts=opts)
        prob = _PathProblem(g, K, f, tau=arg)
        path, kkt, iters, (_, _, _, actions, _) = oracles.newton_solve(prob, opts.tol)
        sq = float(prob.dt * actions.sum())
        assert sol.squared_distance == sq
        assert sol.objective == entropy(g, path[K]) + sq / (2.0 * arg)
    assert np.array_equal(sol.path, path)
    assert sol.kkt_residual == kkt and sol.iterations == iters
    assert sol.hessian_builds == iters
    if grid == "d2" and solver == "distance":
        # the loop before built 4 Hessians here, one at the converged point
        assert iters == 3
