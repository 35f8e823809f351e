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

from ._newton import damped_newton
from .errors import DomainError, NumericalError
from .network import SIDE_SIGN, SLOT_SIDE, VelocityNetwork, _positive_state, _state
from .scalars import log_mean, log_mean_and_partials


FLOOR = 1e-12  # positivity barrier for densities
# quadruple rows per batch of path intervals: a whole d = 2 path in one
# batch, d = 3, V/h = 3 (Q = 136686) one interval at a time
BATCH_ROWS = 1 << 15
# the LAPACK routines behind scipy.linalg.cho_factor and cho_solve
_POTRF, _POTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


@dataclass
class SolverOptions:
    tol: float = 1e-8  # projected-gradient (KKT) target

    def __post_init__(self):
        if not 0 < self.tol < np.inf:  # also false for NaN
            raise DomainError(f"tol must be finite and positive, got {self.tol!r}")


@dataclass
class MetricSolution:
    value: float  # W_B
    squared: float  # minimized integrated action
    path: np.ndarray  # (K + 1, n)
    flux: np.ndarray  # (K, Q)
    slice_actions: np.ndarray  # (K,)
    kkt_residual: float
    iterations: int
    stop: str = "target"  # or "roundoff floor", see damped_newton
    hessian_builds: int = 0  # one per Newton step
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
    and at least 1 for a JKO step.  `hessian_builds` counts the calls of
    `hessian`.
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
        self.C, self.N = net.invariants, net.free_basis
        # kernel regularizer; exact on moment-conserving differences
        self.P = self.C @ self.C.T
        nfree = self.N.shape[1]
        # each interval block's lower triangle goes into the band: flat
        # band positions (those of interval 0) and flat block positions
        r, c = np.tril_indices(2 * nfree)
        self.band_map = (r - c) * (K + 1) * nfree + c, r * 2 * nfree + c
        self.entropy_tril = np.tril_indices(nfree)
        self.hessian_builds = 0

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
        how the intervals are batched.  The value and gradient are one pass
        over the batches and the Hessian a second pass over the factors the
        first one kept.
        """
        value, grad, kept, actions, fluxes = self._value(path)
        return value, grad, self._band(path, kept) if hessian else None, actions, fluxes

    def _value(self, path):
        """Value, gradient, kept factors, actions and fluxes of `evaluate`.

        The kept factors hold one `(start, stop, part)` per batch, `part`
        being what `_add_intervals` returns for it.
        """
        K, n, Q = len(path) - 1, self.net.n_nodes, self.net.n_quadruples
        actions = np.zeros(K)
        fluxes = np.zeros((K, Q))
        grad = np.zeros((K + 1, n))
        size = max(1, BATCH_ROWS // Q)
        kept = []
        for m in range(0, K, size):
            stop = min(m + size, K)
            kept.append((m, stop, self._add_intervals(path, m, stop, actions, fluxes, grad)))
        value = self.scale * self.dt * actions.sum()
        if self.entropy:
            w, g = self.net.node_weight, path[K]
            value += np.sum(w * g * np.log(g))
            grad[K] += w * (np.log(g) + 1.0)
        return value, grad, kept, actions, fluxes

    def _band(self, path, kept):
        """The Hessian band of `evaluate` from the factors `_value` kept."""
        K, nfree = len(path) - 1, self.N.shape[1]
        H = np.zeros((2 * nfree, (K + 1) * nfree))
        for start, stop, part in kept:
            self._add_hessian(path, start, stop, part, H)
        if self.entropy:
            w, g = self.net.node_weight, path[K]
            r, c = self.entropy_tril
            H[r - c, K * nfree + c] += (self.N.T @ (w / g[:, None] * self.N))[r, c]
        return H

    def _add_intervals(self, path, start, stop, actions, fluxes, grad):
        """Add the value and gradient terms of intervals start..stop - 1.

        Per interval, A = g' L^+ g with g = w (fb - fa) / dt and
        L = S diag(kappa Lambda(fbar)) S'.  With u = L^+ g (the
        potential), s = S' u (the optimal flux is J = Lambda s) and
        c = kappa s^2, the gradient in (fa, fb) is
        (-2 (w/dt) u + dbar, 2 (w/dt) u + dbar) with dbar = -sigma / (2 fbar):
        Lambda depends on f through a = log p and b = log r, so
        dLambda/df = G / fbar with G_qv the sum of Lambda_a over the slots
        of q on its side p at node v and of Lambda_b over those on r, and
        sigma = G'c.  The regularized L + tr(L)/n C C' is SPD and is
        factored once; it acts as L^+ on the range of L.  Every array
        carries a leading interval axis.  Returns what `_add_hessian`
        cannot rebuild cheaply: the log-mean partials, sigma, the Cholesky
        factors and the potentials.
        """
        net, kappa = self.net, self.net.kappa
        k, n = stop - start, net.n_nodes
        fbar = 0.5 * (path[start:stop] + path[start + 1 : stop + 1])
        f = np.take(fbar, net.quad.T, axis=-1)  # (k, 4, Q), slot by slot
        lam, lam_a, lam_b, lam_ab = log_mean_and_partials(f[:, 0] * f[:, 1], f[:, 2] * f[:, 3])
        L = net.laplacian(kappa * lam)
        L += (np.trace(L, axis1=1, axis2=2) / n)[:, None, None] * self.P
        factors = _cholesky(L)
        g = net.node_weight * (path[start + 1 : stop + 1] - path[start:stop]) / self.dt
        pot = _cho_solve(factors, g[:, :, None])[:, :, 0]
        # one dot per interval, as BLAS sums it
        actions[start:stop] = [gm @ um for gm, um in zip(g, pot)]
        s = net.grad_bar(pot.T).T
        lam1 = np.stack([lam_a, lam_b], axis=1)  # Lambda's log partials by side
        c = kappa * s**2
        # node sums in quadruple-major order, as the bins run
        bins = (net.quad.ravel() + n * np.arange(k)[:, None]).ravel()
        sigma = np.bincount(
            bins, weights=(c[:, None] * lam1)[:, SLOT_SIDE].transpose(0, 2, 1).ravel(),
            minlength=k * n,
        ).reshape(k, n)
        dbar = -sigma / (2.0 * fbar)
        w = net.node_weight / self.dt
        weight = self.scale * self.dt
        grad[start:stop] += weight * (-2.0 * w * pot + dbar)
        grad[start + 1 : stop + 1] += weight * (2.0 * w * pot + dbar)
        fluxes[start:stop] = lam * s
        return lam1, lam_ab, sigma, factors, pot

    def _add_hessian(self, path, start, stop, part, H):
        """Add the Hessian terms of intervals start..stop - 1 to the band H.

        With the quantities of `_add_intervals`, D = diag(fbar) and
        B = S diag(kappa s) G D^-1, the Hessian in the coordinates
        (N' fa, N' fb) is 2 M' L^+ M - (1/4) [[H2, H2], [H2, H2]], where
        M = [-(w/dt) N - B N / 2, (w/dt) N - B N / 2] is the Jacobian of
        g - L u at fixed u and H2 = N' (sum_q c_q Hess Lambda_q) N.  In
        log f the Hessian of Lambda_q is its (a, b) Hessian
        [[Lambda_a - Lambda_ab, Lambda_ab], [Lambda_ab, Lambda_b - Lambda_ab]]
        on the slots of each side, so
        sum_q c_q Hess Lambda_q = D^-1 (X - diag sigma) D^-1 with X the
        scattered side blocks c times that Hessian; -diag sigma is the
        chain rule's term d(1/f)/df, and a slot repeated in a quadruple
        (i == j) sums its blocks on one node.  `part` is what
        `_add_intervals` returned for these intervals; s and c are rebuilt
        from the potentials, and nothing is gathered per slot.
        """
        net, kappa, N = self.net, self.net.kappa, self.N
        k, n, nfree = stop - start, net.n_nodes, N.shape[1]
        lam1, lam_ab, sigma, factors, pot = part
        fbar = 0.5 * (path[start:stop] + path[start + 1 : stop + 1])
        DN = N / fbar[:, :, None]  # D^-1 N
        s = net.grad_bar(pot.T).T
        c = kappa * s**2
        w = net.node_weight / self.dt
        B = net.scatter_blocks(SIDE_SIGN[:, None, None] * ((kappa * s)[:, None] * lam1)[:, None])
        BN = B @ DN
        BN -= self.C @ (self.C.T @ BN)  # the range of L
        M = np.concatenate([-w * N - 0.5 * BN, w * N - 0.5 * BN], axis=2)
        Hm = 2.0 * M.transpose(0, 2, 1) @ _cho_solve(factors, M)
        # c times the (a, b) Hessian diag(lam_a, lam_b) - lam_ab sign sign'
        hess = -np.outer(SIDE_SIGN, SIDE_SIGN)[:, :, None] * lam_ab[:, None, None]
        hess[:, [0, 1], [0, 1]] += lam1
        hess *= c[:, None, None]
        X = net.scatter_blocks(hess)
        X.reshape(k, n * n)[:, :: n + 1] -= sigma  # the diagonal of each interval's X
        H2 = DN.transpose(0, 2, 1) @ X @ DN
        Hm = Hm.reshape(k, 2, nfree, 2, nfree)
        Hm -= 0.25 * H2[:, None, :, None, :]
        Hm *= self.scale * self.dt
        band, block = self.band_map
        flat, Hm = H.reshape(-1), np.take(Hm.reshape(k, -1), block, axis=1)
        for first in (start, start + 1):  # even, then odd: no entry twice in one fill
            flat[band + nfree * np.arange(first, stop, 2)[:, None]] += Hm[first - start :: 2]

    def __call__(self, y: np.ndarray):
        """Value, reduced gradient, kept factors, actions and fluxes at y.

        The third entry is what `hessian` builds the reduced Hessian from.
        Outside the positive cone the value is +inf and the rest is zero or
        None.
        """
        path = self.path(y)
        if np.any(path < FLOOR):
            return np.inf, np.zeros_like(y), None, None, None
        try:
            value, grad, kept, actions, fluxes = self._value(path)
        except np.linalg.LinAlgError:  # L lost definiteness at the barrier
            return np.inf, np.zeros_like(y), None, None, None
        free = slice(1, self.nslices + 1)
        return value, (grad[free] @ self.N).ravel(), (path, kept), actions, fluxes

    def hessian(self, point) -> np.ndarray:
        """The reduced Hessian at a finite point `self(y)`, a LAPACK lower band."""
        self.hessian_builds += 1
        nfree = self.N.shape[1]
        H = self._band(*point[2])
        return H[:, nfree : (self.nslices + 1) * nfree]  # LAPACK reads none past the end

    def solve(self, opts: SolverOptions):
        """Damped Newton iteration on the exact Hessian, started at y = 0.

        Truncated-CG trust regions stall above the target tolerance on this
        objective, so each step factors the analytic Hessian and backtracks
        on the full Newton step, in `damped_newton` with the KKT target
        0.3 tol.  Points are evaluated without their Hessian, which is built
        only where a Newton step starts: line-search candidates and the
        converged point get none, and no point is evaluated twice.  Returns
        the minimizing path, its KKT residual, the iteration count, the stop
        reason and its whole evaluation `self(y)`.
        """
        y = np.zeros(self.nslices * self.N.shape[1])
        point = self(y)
        if not np.isfinite(point[0]):
            raise NumericalError("path solver left the positive cone")
        y, point, kkt, iters, stop = damped_newton(
            self, lambda p: _newton_step(self.hessian(p), p[1]), y, point,
            0.3 * opts.tol, opts.tol, "path solver",
        )
        return self.path(y), kkt, iters, stop, point


def _cholesky(L):
    """Upper Cholesky factors of a stack of SPD matrices, as cho_factor makes them.

    One LAPACK call per matrix: SciPy's batched wrappers loop in Python
    with a finiteness check and a LAPACK lookup on every slice.  A
    non-finite stack raises ValueError and a matrix that is not positive
    definite LinAlgError, as in cho_factor.
    """
    if not np.all(np.isfinite(L)):
        raise ValueError("array must not contain infs or NaNs")
    factors = []
    for Lm in L:
        factor, info = _POTRF(Lm, lower=False, clean=False)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor of the array is not positive definite"
            )
        factors.append(factor)
    return factors


def _cho_solve(factors, b):
    """Each slice of b solved with its factor from `_cholesky`, stacked as cho_solve stacks them.

    A non-finite b raises ValueError, as in cho_solve.
    """
    if not np.all(np.isfinite(b)):
        raise ValueError("array must not contain infs or NaNs")
    return np.stack([_POTRS(factor, bm, lower=False)[0] for factor, bm in zip(factors, b)])


def _newton_step(H, g):
    """H^-1 g for the lower band H, its diagonal (row 0) jittered until H factors."""
    for jitter in 1e-12 * np.mean(H[0]) * np.array([0.0] + [4.0**k for k in range(15)]):
        with contextlib.suppress(np.linalg.LinAlgError):
            return scipy.linalg.solveh_banded(np.vstack([H[:1] + jitter, H[1:]]), g, lower=True)
    raise NumericalError("path Hessian is numerically indefinite")


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
    f0 = _positive_state(net, f0, "solve_distance", "f0")
    f1 = _positive_state(net, f1, "solve_distance", "f1")
    _check_moment_match(net, f0, f1)

    prob = _PathProblem(net, K, f0, f1)
    path, kkt, iters, stop, (squared, _, _, actions, flux) = prob.solve(opts)
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
        stop=stop,
        hessian_builds=prob.hessian_builds,
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
