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

import contextlib
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from .errors import DomainError, NumericalError
from .network import SLOT_SIGN, VelocityNetwork, _state
from .scalars import log_mean, log_mean_and_partials


FLOOR = 1e-12  # positivity barrier for densities
# quadruple rows per batch of path intervals: a whole d = 2 path in one
# batch, d = 3, V/h = 3 (Q = 136686) one interval at a time
BATCH_ROWS = 1 << 15


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


def cre_residual(net: VelocityNetwork, path: np.ndarray, flux: np.ndarray) -> float:
    """Max node residual of the discrete collision rate equation.

    w (f^{m+1} - f^m) / dt = div_bar(W B J^m) per interval on [0, 1].
    """
    path = np.asarray(path, dtype=float)
    flux = np.asarray(flux, dtype=float)
    K = flux.shape[0]
    if path.shape != (K + 1, net.n_nodes) or flux.shape[1] != net.n_quadruples:
        raise DomainError("path/flux shapes are inconsistent")
    dt = 1.0 / K
    lhs = net.node_weight * (path[1:] - path[:-1]) / dt
    rhs = net.div_bar(net.kappa[:, None] * flux.T).T
    return float(np.max(np.abs(lhs - rhs)))


class _PathProblem:
    """Reduced path objective, the flux eliminated.

    Slices 1..nslices of the path are base[m] + N y_{m-1}, the others stay
    at base.  The objective is scale * sum_m dt A_m, plus the entropy
    sum w g log g of the last slice g for a JKO step.  Without `tau` it is
    W_B^2 between f0 and f1: base is the straight path, scale 1 and
    nslices = K - 1.  With `tau` it is the JKO step from f0: base is the
    constant path, scale 1/(2 tau), nslices = K and the entropy.  K must
    be an integer, at least 2 for a distance (an interior slice to move)
    and at least 1 for a JKO step.
    """

    def __init__(self, net, K, f0, f1=None, tau=None):
        self.entropy = tau is not None
        least = 1 if self.entropy else 2
        if not isinstance(K, numbers.Integral) or isinstance(K, bool) or K < least:
            raise DomainError(f"K must be an integer of at least {least}, got {K!r}")
        self.net = net
        if self.entropy:
            self.base = np.tile(f0, (K + 1, 1))
        else:
            self.base = np.array([(1 - m / K) * f0 + (m / K) * f1 for m in range(K + 1)])
        self.nslices = K if self.entropy else K - 1
        self.scale = 1.0 / (2.0 * tau) if self.entropy else 1.0
        self.dt = 1.0 / K
        self.C = net.invariants
        self.N = _orthonormal_complement(self.C)
        # kernel regularizer; exact on moment-conserving differences
        self.P = self.C @ self.C.T

    def path(self, y: np.ndarray) -> np.ndarray:
        path = self.base.copy()
        path[1 : self.nslices + 1] += y.reshape(self.nslices, -1) @ self.N.T
        return path

    def evaluate(self, path: np.ndarray, hessian: bool = False):
        """The objective on a whole path, its intervals in batches.

        Returns the value, the gradient in the path (K + 1, n), the
        Hessian in the slice coordinates N' f as a LAPACK lower band (entry
        (i, j) at H[i - j, j]) or None, and the actions A_m and fluxes (K, Q).
        A batch holds up to BATCH_ROWS quadruple rows, and at least one
        interval.  Each slice of the gradient and Hessian takes at most two
        interval terms onto a zero start, so the result does not depend on
        how the intervals are batched.
        """
        K, n, Q = len(path) - 1, self.net.n_nodes, self.net.n_quadruples
        nfree = self.N.shape[1]
        actions = np.zeros(K)
        fluxes = np.zeros((K, Q))
        grad = np.zeros((K + 1, n))
        H = np.zeros((2 * nfree, (K + 1) * nfree)) if hessian else None
        size = max(1, BATCH_ROWS // Q)
        for m in range(0, K, size):
            self._add_intervals(path, m, min(m + size, K), actions, fluxes, grad, H)
        value = self.scale * self.dt * actions.sum()
        if self.entropy:
            w, g = self.net.node_weight, path[K]
            value += np.sum(w * g * np.log(g))
            grad[K] += w * (np.log(g) + 1.0)
            if hessian:
                r, c = np.tril_indices(nfree)
                H[r - c, K * nfree + c] += (self.N.T @ (w / g[:, None] * self.N))[r, c]
        return value, grad, H, actions, fluxes

    def _add_intervals(self, path, start, stop, actions, fluxes, grad, H):
        """Add the terms of intervals start..stop - 1 to the outputs of `evaluate`.

        Per interval, A = g' L^+ g with g = w (fb - fa) / dt and
        L = S diag(kappa Lambda(fbar)) S'.  With u = L^+ g (the
        potential), s = S' u (the optimal flux is J = Lambda s),
        c = kappa s^2, G the Q x n Jacobian of Lambda(fbar) and
        B = S diag(kappa s) G, the gradient in (fa, fb) is
        (-2 (w/dt) u - G'c / 2, 2 (w/dt) u - G'c / 2).  The Hessian in the
        coordinates (N' fa, N' fb) is 2 M' L^+ M - (1/4) [[H2, H2], [H2, H2]],
        where M = [-(w/dt) N - B N / 2, (w/dt) N - B N / 2] is the Jacobian
        of g - L u at fixed u and H2 = N' (sum_q c_q Hess Lambda_q) N; it
        is built only when H is not None.  The regularized
        L + tr(L)/n C C' is SPD and is factored once; it acts as L^+ on
        the range of L.  Every array carries a leading interval axis, and
        the batched LAPACK calls factor and solve one interval at a time.
        """
        net, kappa, N = self.net, self.net.kappa, self.N
        k, n, nfree = stop - start, net.n_nodes, N.shape[1]
        fa, fb = path[start:stop], path[start + 1 : stop + 1]
        fbar = 0.5 * (fa + fb)
        # slot arrays are (k, 4, Q) and slot blocks (k, 4, 4, Q), so every
        # elementwise step runs along the quadruples
        # u_a = d(f_i f_j or f_k f_l)/d(f_a): the partner slot's density;
        # the products p = f_i f_j and r = f_k f_l come from the same gathers
        u = np.take(fbar, net.quad.T[[1, 0, 3, 2]], axis=-1)
        lam, lam_p, lam_r, lam_pp, lam_pr, lam_rr = log_mean_and_partials(
            u[:, 1] * u[:, 0], u[:, 3] * u[:, 2]
        )
        L = net.laplacian(kappa * lam)
        L += (np.trace(L, axis1=1, axis2=2) / n)[:, None, None] * self.P
        # batched, cho_factor returns one `lower` flag per slice
        cho = scipy.linalg.cho_factor(L)[0], False
        g = net.node_weight * (fb - fa) / self.dt
        pot = scipy.linalg.cho_solve(cho, g[:, :, None])[:, :, 0]
        # one dot per interval, as BLAS sums it
        actions[start:stop] = [gm @ um for gm, um in zip(g, pot)]
        s = net.grad_bar(pot.T).T
        slot_grad = np.stack([lam_p, lam_p, lam_r, lam_r], axis=1) * u  # dLambda/df_a
        c = kappa * s**2
        # node sums in quadruple-major order, as the bins run
        bins = (net.quad.ravel() + n * np.arange(k)[:, None]).ravel()
        dbar = -0.5 * np.bincount(
            bins, weights=(c[:, None] * slot_grad).transpose(0, 2, 1).ravel(), minlength=k * n
        ).reshape(k, n)
        w = net.node_weight / self.dt
        weight = self.scale * self.dt
        grad[start:stop] += weight * (-2.0 * w * pot + dbar)
        grad[start + 1 : stop + 1] += weight * (2.0 * w * pot + dbar)
        fluxes[start:stop] = lam * s
        if H is None:
            return
        B = SLOT_SIGN[:, None, None] * ((kappa * s)[:, None] * slot_grad)[:, None]
        B = net.scatter_blocks(B)
        BN = B @ N
        BN -= self.C @ (self.C.T @ BN)  # the range of L
        M = np.concatenate([-w * N - 0.5 * BN, w * N - 0.5 * BN], axis=2)
        Hm = 2.0 * M.transpose(0, 2, 1) @ scipy.linalg.cho_solve(cho, M)
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
        local *= c[:, None, None]
        H2 = N.T @ net.scatter_blocks(local) @ N
        Hm = Hm.reshape(k, 2, nfree, 2, nfree)
        Hm -= 0.25 * H2[:, None, :, None, :]
        Hm *= weight
        r, c = np.tril_indices(2 * nfree)  # each block's lower triangle goes into the band
        band, block = (r - c) * H.shape[1] + c, r * 2 * nfree + c
        for m in range(start, stop):
            H.reshape(-1)[band + m * nfree] += Hm[m - start].reshape(-1)[block]

    def __call__(self, y: np.ndarray):
        """Value, reduced gradient, reduced Hessian, actions and fluxes at y.

        Outside the positive cone the value is +inf and the rest is zero or
        None.
        """
        path = self.path(y)
        if np.any(path < FLOOR):
            return np.inf, np.zeros_like(y), None, None, None
        try:
            value, grad, H, actions, fluxes = self.evaluate(path, hessian=True)
        except np.linalg.LinAlgError:  # L lost definiteness at the barrier
            return np.inf, np.zeros_like(y), None, None, None
        free = slice(1, self.nslices + 1)
        H = H[:, self.N.shape[1] : len(y) + self.N.shape[1]]  # LAPACK reads none past the end
        return value, (grad[free] @ self.N).ravel(), H, actions, fluxes

    def solve(self, opts: SolverOptions):
        """Damped Newton iteration on the exact Hessian, started at y = 0.

        Truncated-CG trust regions stall above the target tolerance on this
        objective, so each step factors the analytic Hessian and backtracks
        on the full Newton step.  Every candidate is evaluated with its
        Hessian, so an accepted point is never evaluated twice.  Returns the
        minimizing path, its KKT residual, the iteration count and its whole
        evaluation `self(y)`.
        """
        y = np.zeros(self.nslices * self.N.shape[1])
        point = self(y)
        val, g, H = point[:3]
        if not np.isfinite(val):
            raise NumericalError("path solver left the positive cone")
        kkt = float(np.max(np.abs(g)))
        iters = 0
        for _ in range(60):
            if kkt <= 0.3 * opts.tol:
                break
            step = _newton_step(H, g)
            accepted = False
            damp = 1.0
            while damp > 1e-8:
                cand = y - damp * step
                cand_point = self(cand)
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
            raise NumericalError(
                f"path solver stalled: projected gradient {kkt:.2e} > tol {opts.tol:.2e}"
            )
        return self.path(y), kkt, iters, point


def _newton_step(H, g):
    """H^-1 g for the lower band H, its diagonal (row 0) jittered until H factors."""
    for jitter in 1e-12 * np.mean(H[0]) * np.array([0.0] + [4.0**k for k in range(15)]):
        with contextlib.suppress(np.linalg.LinAlgError):
            return scipy.linalg.solveh_banded(np.vstack([H[:1] + jitter, H[1:]]), g, lower=True)
    raise NumericalError("path Hessian is numerically indefinite")


def _orthonormal_complement(C: np.ndarray) -> np.ndarray:
    n = C.shape[0]
    proj = np.eye(n) - C @ C.T
    vals, vecs = np.linalg.eigh(proj)
    return vecs[:, vals > 0.5]


def _check_moment_match(net: VelocityNetwork, f0, f1):
    m0, m1 = net.moments(f0), net.moments(f1)
    if np.max(np.abs(m0 - m1)) > 1e-10 * max(1.0, np.max(np.abs(m0))):
        raise DomainError(f"endpoint moments differ: {m0} vs {m1}")
    extra0 = net.invariants.T @ f0
    extra1 = net.invariants.T @ f1
    if np.max(np.abs(extra0 - extra1)) > 1e-8 * max(1.0, np.max(np.abs(extra0))):
        raise DomainError("endpoints differ in a conserved network invariant")


def solve_distance(
    net: VelocityNetwork,
    f0: np.ndarray,
    f1: np.ndarray,
    K: int = 16,
    opts: SolverOptions = None,
) -> MetricSolution:
    """Collision distance between strictly positive moment-matched states."""
    opts = opts or SolverOptions()
    f0, f1 = (_state(net, f, "solve_distance") for f in (f0, f1))
    if f0.min() <= 0 or f1.min() <= 0:
        raise DomainError("endpoints must be strictly positive")
    _check_moment_match(net, f0, f1)

    prob = _PathProblem(net, K, f0, f1)
    path, kkt, iters, (squared, _, _, actions, flux) = prob.solve(opts)
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


def single_quadruple_oracle(
    net: VelocityNetwork, f0: np.ndarray, f1: np.ndarray, n_points: int = 256
) -> float:
    """Exhaustive 1-D oracle for a network with exactly one quadruple.

    The path space collapses to one reaction coordinate; the distance is
    the length integral int dm / sqrt(kappa * Lambda(m)) computed by
    Gauss-Legendre quadrature.
    """
    if net.n_quadruples != 1:
        raise DomainError("oracle applies to single-quadruple networks only")
    i, j, k, l = net.quad[0]
    kappa = float(net.kappa[0])
    w = net.node_weight
    m1 = w * (f0[i] - f1[i])
    s_vec = net.div_bar(np.ones(1))  # the reaction's column of S
    if not np.allclose(w * (f1 - f0), m1 * s_vec, atol=1e-12):
        raise DomainError("endpoints are not connected by the single reaction")
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
    """Exact L1-Wasserstein distance between node densities of equal mass, via an LP.

    The masses must agree within 1e-10 relative, else DomainError.
    """
    w = net.node_weight
    mu = w * _state(net, f0, "w1_distance")
    nu = w * _state(net, f1, "w1_distance")
    m0, m1 = mu.sum(), nu.sum()
    if abs(m0 - m1) > 1e-10 * max(m0, m1):
        raise DomainError(f"w1_distance requires equal masses, got {m0!r} and {m1!r}")
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
        raise NumericalError(f"W1 linear program failed: {res.message}")
    return float(res.fun)
