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

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from .network import MomentError, VelocityNetwork
from .scalars import action_density, log_mean, log_mean_and_partials


class ConvergenceError(RuntimeError):
    pass


@dataclass
class SolverOptions:
    tol: float = 1e-8  # projected-gradient (KKT) target
    floor: float = 1e-12  # positivity barrier for densities


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
    """Reduced objective over interior slices (flux eliminated)."""

    def __init__(self, net: VelocityNetwork, opts: SolverOptions):
        self.net = net
        self.opts = opts
        self.kappa = net.W_q * net.B_q
        C = net.invariants
        self.C = C
        self.N = _orthonormal_complement(C)
        self.N2 = scipy.linalg.block_diag(self.N, self.N)
        # kernel regularizer; exact on moment-conserving differences
        self.P = C @ C.T
        # flat (a, b) node index of every slot pair of every quadruple, for
        # summing per-quadruple 4x4 blocks into an n x n matrix
        n = net.n_nodes
        self._pairs = (net.quad[:, :, None] * n + net.quad[:, None, :]).ravel()

    def _scatter(self, blocks: np.ndarray) -> np.ndarray:
        """Sum per-quadruple (Q, 4, 4) slot blocks into a dense n x n matrix."""
        n = self.net.n_nodes
        flat = np.bincount(self._pairs, weights=blocks.ravel(), minlength=n * n)
        return flat.reshape(n, n)

    def _linearize(self, fa: np.ndarray, fb: np.ndarray, dt: float):
        """Slot Jacobian of (p, r), log-mean partials, regularized L and g.

        The Jacobian D has shape (Q, 2, 4): rows p = f_i f_j and
        r = f_k f_l of fbar, columns the slots i, j, k, l.
        """
        net = self.net
        fs = (0.5 * (fa + fb))[net.quad]
        D = np.zeros((len(fs), 2, 4))
        D[:, 0, 0], D[:, 0, 1] = fs[:, 1], fs[:, 0]
        D[:, 1, 2], D[:, 1, 3] = fs[:, 3], fs[:, 2]
        partials = log_mean_and_partials(fs[:, 0] * fs[:, 1], fs[:, 2] * fs[:, 3])
        L = net.laplacian(self.kappa * partials[0])
        L += np.trace(L) / len(L) * self.P
        g = net.node_weight * (fb - fa) / dt
        return D, partials, L, g

    def interval_action(self, fa: np.ndarray, fb: np.ndarray, dt: float):
        """(action, dA/dfa, dA/dfb, potential lambda) for one interval."""
        net = self.net
        D, (_, lam_p, lam_r, *_), L, g = self._linearize(fa, fb, dt)
        pot = np.linalg.solve(L, g)
        act = g @ pot
        # dA/dg and the -pot' dL pot term through Lambda(fbar)
        coef = self.kappa * net.grad_bar(pot) ** 2
        slot_grad = lam_p[:, None] * D[:, 0] + lam_r[:, None] * D[:, 1]
        dbar = -np.bincount(
            net.quad.ravel(), weights=(coef[:, None] * slot_grad).ravel(), minlength=net.n_nodes
        )
        dfa = -2.0 * net.node_weight / dt * pot + 0.5 * dbar
        dfb = 2.0 * net.node_weight / dt * pot + 0.5 * dbar
        return act, dfa, dfb, pot

    def interval_hessian(self, fa: np.ndarray, fb: np.ndarray, dt: float) -> np.ndarray:
        """2n x 2n Hessian in (fa, fb) of A = g' L^+ g, g = w (fb - fa) / dt.

        With u = L^+ g, s = grad_bar(u), c = kappa s^2, G the Q x n
        Jacobian of Lambda(fbar) and B = S diag(kappa s) G,
        M = [-(w/dt) I - B/2, (w/dt) I - B/2] is the Jacobian of g - L u
        at fixed u, and H = 2 M' L^+ M - (1/4) [[H2, H2], [H2, H2]] with
        H2 = sum_q c_q Hess Lambda_q(fbar).
        """
        net = self.net
        n = net.n_nodes
        D, (_, lam_p, lam_r, lam_pp, lam_pr, lam_rr), L, g = self._linearize(fa, fb, dt)
        s = net.grad_bar(np.linalg.solve(L, g))
        slot_grad = lam_p[:, None] * D[:, 0] + lam_r[:, None] * D[:, 1]
        sign = np.array([-1.0, -1.0, 1.0, 1.0])  # column q of S in the slots
        B = self._scatter((self.kappa * s)[:, None, None] * np.einsum("a,qb->qab", sign, slot_grad))
        w = net.node_weight / dt
        M = np.hstack([-w * np.eye(n) - 0.5 * B, w * np.eye(n) - 0.5 * B])
        M -= self.C @ (self.C.T @ M)  # L^+ = L_reg^-1 on the range of L
        H = 2.0 * M.T @ np.linalg.solve(L, M)
        # Hess Lambda_q in the slots: D' [[lam_pp, lam_pr], [lam_pr, lam_rr]] D
        # plus lam_p, lam_r times the Hessians of p and r, 1 on (i, j), (k, l)
        second = np.stack([lam_pp, lam_pr, lam_pr, lam_rr], axis=1).reshape(-1, 2, 2)
        local = D.transpose(0, 2, 1) @ (second @ D)
        local[:, 0, 1] += lam_p
        local[:, 1, 0] += lam_p
        local[:, 2, 3] += lam_r
        local[:, 3, 2] += lam_r
        H2 = self._scatter((self.kappa * s**2)[:, None, None] * local)
        H -= 0.25 * np.tile(H2, (2, 2))
        return H

    def path_hessian(self, path: np.ndarray, dt: float, nslices: int) -> np.ndarray:
        """Hessian of sum_m dt A_m in the coordinates of slices 1..nslices.

        Slice m moves as path[m] + N y_{m-1}; interval m couples slices m
        and m + 1 only, so the result is block tridiagonal.
        """
        K = len(path) - 1
        nfree = self.N.shape[1]
        H = np.zeros((K + 1, nfree, K + 1, nfree))
        for m in range(K):
            Hm = self.N2.T @ self.interval_hessian(path[m], path[m + 1], dt) @ self.N2
            H[m : m + 2, :, m : m + 2] += dt * Hm.reshape(2, nfree, 2, nfree)
        return H[1 : nslices + 1, :, 1 : nslices + 1].reshape(nslices * nfree, -1)

    def flux_from_potential(self, fa: np.ndarray, fb: np.ndarray, pot: np.ndarray):
        p, r = self.net.pair_products(0.5 * (fa + fb))
        return log_mean(p, r) * self.net.grad_bar(pot)


def _minimize_smooth(objective, hessian, y0, opts: SolverOptions):
    """Damped Newton iteration on the exact Hessian, started at y0.

    Truncated-CG trust regions stall above the target tolerance on this
    objective, so each step factors the analytic Hessian and backtracks
    on the full Newton step.
    """
    y = y0
    val, g = objective(y)
    if not np.isfinite(val):
        raise ConvergenceError("path solver left the positive cone")
    kkt = float(np.max(np.abs(g)))
    iters = 0
    for _ in range(60):
        if kkt <= 0.3 * opts.tol:
            break
        H = hessian(y)
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
            val_c, g_c = objective(cand)
            if np.isfinite(val_c) and (
                val_c <= val + 1e-12 * (abs(val) + 1.0) or np.max(np.abs(g_c)) < kkt
            ):
                accepted = True
                break
            damp *= 0.5
        if not accepted:
            break
        y, val, g = cand, val_c, g_c
        kkt = float(np.max(np.abs(g)))
        iters += 1
    if kkt > opts.tol:
        raise ConvergenceError(
            f"path solver stalled: projected gradient {kkt:.2e} > tol {opts.tol:.2e}"
        )
    return y, kkt, iters


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

    prob = _PathProblem(net, opts)
    n = net.n_nodes
    dt = 1.0 / K
    base = np.array([(1 - m / K) * f0 + (m / K) * f1 for m in range(K + 1)])
    nfree = prob.N.shape[1]

    def unpack(y):
        path = base.copy()
        path[1:K] += y.reshape(K - 1, nfree) @ prob.N.T
        return path

    def objective(y):
        path = unpack(y)
        if np.any(path < opts.floor):
            return np.inf, np.zeros_like(y)
        total = 0.0
        grad = np.zeros((K + 1, n))
        for m in range(K):
            act, dfa, dfb, _ = prob.interval_action(path[m], path[m + 1], dt)
            total += dt * act
            grad[m] += dt * dfa
            grad[m + 1] += dt * dfb
        gy = (grad[1:K] @ prob.N).ravel()
        return total, gy

    def hessian(y):
        return prob.path_hessian(unpack(y), dt, K - 1)

    y0 = np.zeros((K - 1) * nfree)
    y_opt, kkt, iters = _minimize_smooth(objective, hessian, y0, opts)
    path = unpack(y_opt)
    flux = np.zeros((K, net.n_quadruples))
    actions = np.zeros(K)
    for m in range(K):
        act, _, _, pot = prob.interval_action(path[m], path[m + 1], dt)
        actions[m] = act
        flux[m] = prob.flux_from_potential(path[m], path[m + 1], pot)
    squared = float(dt * actions.sum())
    value = float(np.sqrt(max(squared, 0.0)))
    # re-evaluate on the path clipped at a 10x larger floor to expose how
    # much the reported value leans on the positivity barrier
    clipped = np.maximum(path, 10.0 * opts.floor)
    sq_hi = float(
        dt * sum(prob.interval_action(clipped[m], clipped[m + 1], dt)[0] for m in range(K))
    )
    sensitivity = abs(float(np.sqrt(max(sq_hi, 0.0))) - value)
    return MetricSolution(
        value=value,
        squared=squared,
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
    consistent = np.allclose(
        w * (f1 - f0),
        -(m1) * _signed_indicator(net.n_nodes, net.quad[0]),
        atol=1e-12,
    )
    if not consistent:
        raise ValueError("endpoints are not connected by the single reaction")
    xs, ws = np.polynomial.legendre.leggauss(n_points)
    m = 0.5 * m1 * (xs + 1.0)
    scale = 0.5 * abs(m1)
    s_vec = _signed_indicator(net.n_nodes, net.quad[0])
    f = f0[None, :] - (m[:, None] / w) * s_vec[None, :]
    p = f[:, i] * f[:, j]
    r = f[:, k] * f[:, l]
    lam = log_mean(p, r)
    integrand = 1.0 / np.sqrt(kappa * lam)
    return float(scale * np.sum(ws * integrand))


def _signed_indicator(n: int, quad_row: np.ndarray) -> np.ndarray:
    s = np.zeros(n)
    i, j, k, l = quad_row
    s[[i, j]] += 1.0
    s[[k, l]] -= 1.0
    return s


def w1_distance(net: VelocityNetwork, f0: np.ndarray, f1: np.ndarray) -> float:
    """Exact L1-Wasserstein distance between node densities via an LP."""
    w = net.node_weight
    mu = w * np.asarray(f0, dtype=float)
    nu = w * np.asarray(f1, dtype=float)
    n = net.n_nodes
    cost = np.linalg.norm(net.nodes[:, None, :] - net.nodes[None, :, :], axis=2)
    # row sums = mu, col sums = nu (drop one redundant constraint)
    data, rows, cols = [], [], []
    for a in range(n):
        for c in range(n):
            idx = a * n + c
            rows.append(a)
            cols.append(idx)
            data.append(1.0)
    for c in range(n - 1):
        for a in range(n):
            idx = a * n + c
            rows.append(n + c)
            cols.append(idx)
            data.append(1.0)
    A = scipy.sparse.csr_matrix((data, (rows, cols)), shape=(2 * n - 1, n * n))
    rhs = np.concatenate([mu, nu[:-1]])
    res = scipy.optimize.linprog(
        cost.ravel(), A_eq=A, b_eq=rhs, bounds=(0, None), method="highs"
    )
    if not res.success:
        raise RuntimeError(f"W1 linear program failed: {res.message}")
    return float(res.fun)
