"""Collision distance on the network via action minimization over paths.

The squared distance is the minimum of sum_m dt * A(fbar^m, J^m) over
time-sliced density paths and collision fluxes subject to the discrete
collision rate equation with fixed endpoints and conserved moments.

For a fixed path the optimal flux per interval is a weighted
least-squares problem whose solution is a potential gradient
J_q = Lambda_q * grad_bar(lambda)_q with L(fbar) lambda = w df/dt.  The
flux is eliminated and the remaining problem over interior slices is
solved by damped Newton iteration on its analytic Hessian in
moment-preserving coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from .network import SLOT_SIGN, MomentError, VelocityNetwork
from .scalars import action_density, log_mean, log_mean_and_partials


class ConvergenceError(RuntimeError):
    pass


FLOOR = 1e-12  # positivity barrier for densities


@dataclass
class SolverOptions:
    tol: float = 1e-8  # projected-gradient (KKT) target


@dataclass
class MetricSolution:
    value: float  # W_B
    squared: float  # minimized integrated action
    path: np.ndarray  # (K + 1, n)
    flux: np.ndarray  # (K, Q)
    slice_actions: np.ndarray  # (K,)
    kkt_residual: float
    iterations: int
    floor_sensitivity: float = 0.0  # |value - value at 10x floor shift|


def discrete_action(net: VelocityNetwork, f: np.ndarray, J: np.ndarray) -> float:
    """Action A(f, J) = sum_q W_q B_q J_q^2 / Lambda(f_i f_j, f_k f_l).

    Boundary conventions come from the convex integrand: zero flux over a
    dead quadruple costs nothing, nonzero flux costs +inf.  Each
    canonical quadruple carries multiplicity 4 in the collision manifold,
    hence the prefactor 4 on the integrand.
    """
    p, r = net.pair_products(np.asarray(f, dtype=float))
    dens = action_density(np.asarray(J, dtype=float), p, r)
    return float(np.sum(4.0 * net.W_q * net.B_q * dens))


def cre_residual(net: VelocityNetwork, path: np.ndarray, flux: np.ndarray) -> float:
    """Max node residual of the discrete collision rate equation.

    w (f^{m+1} - f^m) / dt = div_bar(W B J^m) per interval on [0, 1].
    """
    path = np.asarray(path, dtype=float)
    flux = np.asarray(flux, dtype=float)
    K = flux.shape[0]
    if path.shape != (K + 1, net.n_nodes) or flux.shape[1] != net.n_quadruples:
        raise ValueError("path/flux shapes are inconsistent")
    dt = 1.0 / K
    worst = 0.0
    for m in range(K):
        lhs = net.node_weight * (path[m + 1] - path[m]) / dt
        rhs = net.div_bar(net.W_q * net.B_q * flux[m])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def boltzmann_flux(net: VelocityNetwork, f: np.ndarray) -> np.ndarray:
    """The flux carried by the forward dynamics: J_q = f_i f_j - f_k f_l.

    Equals Lambda * grad_bar(-log f) and satisfies the CRE against
    df/dt = Q(f) exactly; its action equals the dissipation D(f).
    """
    p, r = net.pair_products(np.asarray(f, dtype=float))
    return p - r


class _PathProblem:
    """Reduced path objective, the flux eliminated.

    Slices 1..nslices of the path are base[m] + N y_{m-1}, the others stay
    at base.  The objective is scale * sum_m dt A_m, plus the entropy
    sum w g log g of the last slice g when `entropy` is set: scale 1 and
    nslices = K - 1 give W_B^2, scale 1/(2 tau), nslices = K and the
    entropy give the JKO step.
    """

    def __init__(self, net, base, nslices, scale=1.0, entropy=False):
        self.net = net
        self.base = np.array(base, dtype=float)
        self.nslices = nslices
        self.scale = scale
        self.entropy = entropy
        self.dt = 1.0 / (len(self.base) - 1)
        self.kappa = net.W_q * net.B_q
        self.C = net.invariants
        self.N = _orthonormal_complement(self.C)
        # kernel regularizer; exact on moment-conserving differences
        self.P = self.C @ self.C.T

    def path(self, y: np.ndarray) -> np.ndarray:
        path = self.base.copy()
        path[1 : self.nslices + 1] += y.reshape(self.nslices, -1) @ self.N.T
        return path

    def interval(self, fa: np.ndarray, fb: np.ndarray, hessian: bool = False):
        """Action, gradient, flux and Hessian of one interval.

        A = g' L^+ g with g = w (fb - fa) / dt and L = S diag(kappa
        Lambda(fbar)) S'.  With u = L^+ g (the potential), s = S' u
        (the optimal flux is J = Lambda s),
        c = kappa s^2, G the Q x n Jacobian of Lambda(fbar) and
        B = S diag(kappa s) G, the gradient in (fa, fb) is
        (-2 (w/dt) u - G'c / 2, 2 (w/dt) u - G'c / 2).  On request the
        Hessian in the coordinates (N' fa, N' fb) is
        2 M' L^+ M - (1/4) [[H2, H2], [H2, H2]], where
        M = [-(w/dt) N - B N / 2, (w/dt) N - B N / 2] is the Jacobian of
        g - L u at fixed u and H2 = N' (sum_q c_q Hess Lambda_q) N;
        otherwise None.  The regularized L + tr(L)/n C C' is SPD and is
        factored once; it acts as L^+ on the range of L.
        """
        net, kappa, N = self.net, self.kappa, self.N
        fs = (0.5 * (fa + fb))[net.quad]
        # u_a = d(f_i f_j or f_k f_l)/d(f_a): the partner slot's density
        u = fs[:, [1, 0, 3, 2]]
        lam, lam_p, lam_r, lam_pp, lam_pr, lam_rr = log_mean_and_partials(
            fs[:, 0] * fs[:, 1], fs[:, 2] * fs[:, 3]
        )
        L = net.laplacian(kappa * lam)
        L += np.trace(L) / len(L) * self.P
        cho = scipy.linalg.cho_factor(L)
        g = net.node_weight * (fb - fa) / self.dt
        pot = scipy.linalg.cho_solve(cho, g)
        act = g @ pot
        s = net.grad_bar(pot)
        slot_grad = np.stack([lam_p, lam_p, lam_r, lam_r], axis=1) * u  # dLambda/df_a
        c = kappa * s**2
        dbar = -0.5 * np.bincount(
            net.quad.ravel(), weights=(c[:, None] * slot_grad).ravel(), minlength=net.n_nodes
        )
        w = net.node_weight / self.dt
        grad = np.concatenate([-2.0 * w * pot + dbar, 2.0 * w * pot + dbar])
        flux = lam * s
        if not hessian:
            return act, grad, flux, None
        B = net.scatter_blocks(SLOT_SIGN[:, None] * ((kappa * s)[:, None] * slot_grad)[:, None])
        BN = B @ N
        BN -= self.C @ (self.C.T @ BN)  # the range of L
        M = np.hstack([-w * N - 0.5 * BN, w * N - 0.5 * BN])
        H = 2.0 * M.T @ scipy.linalg.cho_solve(cho, M)
        # Hess Lambda_q in the slots: Lambda_xy u_a u_b, with x and y the
        # products (p or r) of slots a and b, plus Lambda_p on (i, j), (j, i)
        # and Lambda_r on (k, l), (l, k) from the Hessians of p and r
        local = u[:, :, None] * u[:, None, :]
        local[:, :2, :2] *= lam_pp[:, None, None]
        local[:, :2, 2:] *= lam_pr[:, None, None]
        local[:, 2:, :2] *= lam_pr[:, None, None]
        local[:, 2:, 2:] *= lam_rr[:, None, None]
        local[:, 0, 1] += lam_p
        local[:, 1, 0] += lam_p
        local[:, 2, 3] += lam_r
        local[:, 3, 2] += lam_r
        H2 = N.T @ net.scatter_blocks(c[:, None, None] * local) @ N
        H -= 0.25 * np.tile(H2, (2, 2))
        return act, grad, flux, H

    def evaluate(self, path: np.ndarray, hessian: bool = False):
        """The objective on a whole path, interval by interval.

        Returns the value, the gradient in the path (K + 1, n), the
        Hessian in the slice coordinates N' f (K + 1, nfree, K + 1, nfree)
        or None, and the actions A_m and fluxes (K, Q) of the K intervals.
        """
        K, n = len(path) - 1, self.net.n_nodes
        nfree = self.N.shape[1]
        weight = self.scale * self.dt
        actions = np.zeros(K)
        fluxes = np.zeros((K, self.net.n_quadruples))
        grad = np.zeros((K + 1, n))
        H = np.zeros((K + 1, nfree, K + 1, nfree)) if hessian else None
        for m in range(K):
            actions[m], gm, fluxes[m], Hm = self.interval(path[m], path[m + 1], hessian)
            grad[m : m + 2] += weight * gm.reshape(2, n)
            if hessian:
                H[m : m + 2, :, m : m + 2] += weight * Hm.reshape(2, nfree, 2, nfree)
        value = weight * actions.sum()
        if self.entropy:
            w, g = self.net.node_weight, path[K]
            value += np.sum(w * g * np.log(g))
            grad[K] += w * (np.log(g) + 1.0)
            if hessian:
                H[K, :, K] += self.N.T @ (w / g[:, None] * self.N)
        return value, grad, H, actions, fluxes

    def __call__(self, y: np.ndarray, hessian: bool = False):
        """Value, reduced gradient, reduced Hessian, actions and fluxes at y.

        The Hessian is None unless requested.  Outside the positive cone
        the value is +inf and the rest is zero or None.
        """
        path = self.path(y)
        if np.any(path < FLOOR):
            return np.inf, np.zeros_like(y), None, None, None
        try:
            value, grad, H, actions, fluxes = self.evaluate(path, hessian)
        except np.linalg.LinAlgError:  # L lost definiteness at the barrier
            return np.inf, np.zeros_like(y), None, None, None
        free = slice(1, self.nslices + 1)
        if hessian:
            H = H[free, :, free].reshape(len(y), -1)
        return value, (grad[free] @ self.N).ravel(), H, actions, fluxes


def _minimize_smooth(evaluate, y0, opts: SolverOptions):
    """Damped Newton iteration on the exact Hessian, started at y0.

    evaluate(y, hessian) returns a tuple that starts with the value, the
    gradient and, when hessian is set, the Hessian at y.  Truncated-CG
    trust regions stall above the target tolerance on this objective, so
    each step factors the analytic Hessian and backtracks on the full
    Newton step.  Every candidate is evaluated with its Hessian, so an
    accepted point is never evaluated twice.  Returns the minimizer, its
    KKT residual, the iteration count and its whole evaluation.
    """
    y, point = y0, evaluate(y0, hessian=True)
    val, g, H = point[:3]
    if not np.isfinite(val):
        raise ConvergenceError("path solver left the positive cone")
    kkt = float(np.max(np.abs(g)))
    iters = 0
    for _ in range(60):
        if kkt <= 0.3 * opts.tol:
            break
        scale = np.trace(H) / len(H)
        jitter = 0.0
        for _ in range(16):
            try:
                cho = scipy.linalg.cho_factor(H + jitter * np.eye(len(H)))
                step = scipy.linalg.cho_solve(cho, g)
                break
            except np.linalg.LinAlgError:
                jitter = max(4.0 * jitter, 1e-12 * scale)
        else:
            raise ConvergenceError("path Hessian is numerically indefinite")
        accepted = False
        damp = 1.0
        while damp > 1e-8:
            cand = y - damp * step
            cand_point = evaluate(cand, hessian=True)
            val_c, g_c = cand_point[:2]
            if np.isfinite(val_c) and (
                val_c <= val + 1e-12 * (abs(val) + 1.0) or np.max(np.abs(g_c)) < kkt
            ):
                accepted = True
                break
            damp *= 0.5
        if not accepted:
            break
        y, point = cand, cand_point
        val, g, H = point[:3]
        kkt = float(np.max(np.abs(g)))
        iters += 1
    if kkt > opts.tol:
        raise ConvergenceError(
            f"path solver stalled: projected gradient {kkt:.2e} > tol {opts.tol:.2e}"
        )
    return y, kkt, iters, point


def _orthonormal_complement(C: np.ndarray) -> np.ndarray:
    n = C.shape[0]
    proj = np.eye(n) - C @ C.T
    vals, vecs = np.linalg.eigh(proj)
    return vecs[:, vals > 0.5]


def _check_moment_match(net: VelocityNetwork, f0, f1):
    m0, m1 = net.moments(f0), net.moments(f1)
    if np.max(np.abs(m0 - m1)) > 1e-10 * max(1.0, np.max(np.abs(m0))):
        raise MomentError(f"endpoint moments differ: {m0} vs {m1}")
    extra0 = net.invariants.T @ f0
    extra1 = net.invariants.T @ f1
    if np.max(np.abs(extra0 - extra1)) > 1e-8 * max(1.0, np.max(np.abs(extra0))):
        raise MomentError("endpoints differ in a conserved network invariant")


def solve_distance(
    net: VelocityNetwork,
    f0: np.ndarray,
    f1: np.ndarray,
    K: int = 16,
    opts: SolverOptions = None,
) -> MetricSolution:
    """Collision distance between strictly positive moment-matched states."""
    opts = opts or SolverOptions()
    f0 = np.asarray(f0, dtype=float)
    f1 = np.asarray(f1, dtype=float)
    if np.any(f0 <= 0) or np.any(f1 <= 0):
        raise ValueError("endpoints must be strictly positive")
    _check_moment_match(net, f0, f1)

    base = np.array([(1 - m / K) * f0 + (m / K) * f1 for m in range(K + 1)])
    prob = _PathProblem(net, base, K - 1)
    y_opt, kkt, iters, (squared, _, _, actions, flux) = _minimize_smooth(
        prob, np.zeros((K - 1) * prob.N.shape[1]), opts
    )
    path = prob.path(y_opt)
    value = float(np.sqrt(max(squared, 0.0)))
    # re-evaluate on the path clipped at a 10x larger floor to expose how
    # much the reported value leans on the positivity barrier
    clipped = np.maximum(path, 10.0 * FLOOR)
    sensitivity = 0.0
    if not np.array_equal(clipped, path):
        sq_hi = prob.evaluate(clipped)[0]
        sensitivity = abs(float(np.sqrt(max(sq_hi, 0.0))) - value)
    return MetricSolution(
        value=value,
        squared=float(squared),
        path=path,
        flux=flux,
        slice_actions=actions,
        kkt_residual=kkt,
        iterations=iters,
        floor_sensitivity=sensitivity,
    )


def gradient_form_residual(net: VelocityNetwork, solution: MetricSolution) -> float:
    """Max relative defect of U = J / Lambda from potential-gradient form.

    Projects U onto span{grad_bar(phi)} in the (W B Lambda)-weighted inner
    product, per slice; slices with vanishing flux norm are skipped.
    """
    K = solution.flux.shape[0]
    worst = 0.0
    for m in range(K):
        fbar = 0.5 * (solution.path[m] + solution.path[m + 1])
        p, r = net.pair_products(fbar)
        lam_q = log_mean(p, r)
        active = lam_q > 0
        U = np.zeros_like(lam_q)
        U[active] = solution.flux[m][active] / lam_q[active]
        wts = net.W_q * net.B_q * lam_q
        norm2 = float(np.sum(wts * U**2))
        if norm2 <= 1e-30:
            continue
        L = net.laplacian(wts)
        d = net.div_bar(wts * U)
        C = net.invariants
        phi = np.linalg.solve(L + np.trace(L) / len(L) * (C @ C.T), d)
        resid2 = max(norm2 - float(d @ phi), 0.0)
        worst = max(worst, np.sqrt(resid2 / norm2))
    return worst


def single_quadruple_oracle(
    net: VelocityNetwork, f0: np.ndarray, f1: np.ndarray, n_points: int = 256
) -> float:
    """Exhaustive 1-D oracle for a network with exactly one quadruple.

    The path space collapses to one reaction coordinate; the distance is
    the length integral int dm / sqrt(kappa * Lambda(m)) computed by
    Gauss-Legendre quadrature.
    """
    if net.n_quadruples != 1:
        raise ValueError("oracle applies to single-quadruple networks only")
    i, j, k, l = net.quad[0]
    kappa = float(net.W_q[0] * net.B_q[0])
    w = net.node_weight
    m1 = w * (f0[i] - f1[i])
    s_vec = net.div_bar(np.ones(1))  # the reaction's column of S
    if not np.allclose(w * (f1 - f0), m1 * s_vec, atol=1e-12):
        raise ValueError("endpoints are not connected by the single reaction")
    xs, ws = np.polynomial.legendre.leggauss(n_points)
    m = 0.5 * m1 * (xs + 1.0)
    scale = 0.5 * abs(m1)
    f = f0[None, :] + (m[:, None] / w) * s_vec[None, :]
    p = f[:, i] * f[:, j]
    r = f[:, k] * f[:, l]
    lam = log_mean(p, r)
    integrand = 1.0 / np.sqrt(kappa * lam)
    return float(scale * np.sum(ws * integrand))


def w1_distance(net: VelocityNetwork, f0: np.ndarray, f1: np.ndarray) -> float:
    """Exact L1-Wasserstein distance between node densities via an LP."""
    w = net.node_weight
    mu = w * np.asarray(f0, dtype=float)
    nu = w * np.asarray(f1, dtype=float)
    n = net.n_nodes
    cost = np.linalg.norm(net.nodes[:, None, :] - net.nodes[None, :, :], axis=2)
    # row sums = mu, col sums = nu (drop one redundant constraint); the
    # plan is flattened row-major, entry (a, c) at a * n + c
    ones = np.ones((1, n))
    A = scipy.sparse.vstack(
        [
            scipy.sparse.kron(scipy.sparse.eye(n), ones),
            scipy.sparse.kron(ones, scipy.sparse.eye(n), format="csr")[:-1],
        ],
        format="csr",
    )
    rhs = np.concatenate([mu, nu[:-1]])
    # HiGHS's default feasibility tolerance (1e-7) exceeds the smallest node
    # masses of d = 3 Maxwellians (below 1e-7 at V/h = 3)
    res = scipy.optimize.linprog(
        cost.ravel(), A_eq=A, b_eq=rhs, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise RuntimeError(f"W1 linear program failed: {res.message}")
    return float(res.fun)
