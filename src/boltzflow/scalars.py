"""Numerically stable scalar kernels and the Gaussian mixture.

The logarithmic mean is the building block of the collision metric.
It and its partials in the log coordinates a = log s, b = log t share
one kernel, psi(x) = sinh(x/2) / (x/2) with x = a - b: a 12-term
Taylor series below |x| = 2 and the closed form above, so no branch
cancels and values stay accurate to a few ulp for every pair of
positive arguments.  The collision metric differentiates through log f
(notes/decisions.md, D27), so no partial in s or t is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import DomainError

# Taylor coefficients in t = x^2 / 4 of psi(x) = sinh(x/2) / (x/2),
# psi'(x) / x and chi(x) = psi / 4 - psi''; all positive, so no term
# cancels.  Twelve terms leave a truncation error below 1e-25 for |x| < 2.
_K = np.arange(12)
_FACT = np.array([float(factorial(m)) for m in range(2 * len(_K) + 2)])
_PSI = 1.0 / _FACT[2 * _K + 1]
_DPSI = (_K + 1) / (2.0 * _FACT[2 * _K + 3])
_CHI = 1.0 / (2.0 * _FACT[2 * _K] * (2 * _K + 1) * (2 * _K + 3))
_PSI_CUT = 2.0
_polyval = np.polynomial.polynomial.polyval


def _psi(x: np.ndarray):
    """psi(x) = sinh(x/2) / (x/2) and the mask of its series branch."""
    small = np.abs(x) < _PSI_CUT
    psi = np.empty_like(x)
    psi[small] = _polyval(0.25 * x[small] ** 2, _PSI)
    h = 0.5 * x[~small]
    psi[~small] = np.sinh(h) / h
    return psi, small


def log_mean(s, t):
    """Logarithmic mean L(s, t) = (s - t) / (log s - log t).

    L(s, s) = s and L(s, 0) = L(0, t) = 0.  Vectorized; negative input
    raises.  For s, t > 0 it is sqrt(s t) psi(log(s/t)) through the same
    psi kernel as log_mean_and_partials, so both return the same bits.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(t < 0):
        raise DomainError("log_mean requires nonnegative arguments")
    scalar = s.ndim == 0 and t.ndim == 0
    s, t = np.broadcast_arrays(np.atleast_1d(s), np.atleast_1d(t))
    out = np.zeros(s.shape)
    pos = (s > 0) & (t > 0)
    sp, tp = s[pos], t[pos]
    out[pos] = np.sqrt(sp * tp) * _psi(np.log(sp / tp))[0]
    return float(out[0]) if scalar else out


def log_mean_and_partials(p: np.ndarray, r: np.ndarray):
    """Logarithmic mean and its partials in a = log p and b = log r, p, r > 0.

    Returns (lam, lam_a, lam_b, lam_ab).  With E = sqrt(p r),
    x = log(p / r) and psi(x) = sinh(x/2) / (x/2), lam = E psi(x),
    lam_a = E (psi/2 + psi'), lam_b = E (psi/2 - psi') and
    lam_ab = E chi with chi = psi/4 - psi''.  Degree-1 homogeneity gives
    lam_a + lam_b = lam and lam_aa = lam_a - lam_ab,
    lam_bb = lam_b - lam_ab, so these four values are the whole second
    order jet.  psi, psi' and chi come from their Taylor series below
    |x| = 2 and from cancellation-free closed forms above it.
    """
    x = np.log(p / r)
    E = np.sqrt(p * r)
    psi, small = _psi(x)
    up = np.empty_like(x)  # psi/2 + psi'
    down = np.empty_like(x)  # psi/2 - psi'
    chi = np.empty_like(x)
    xs = x[small]
    t = 0.25 * xs**2
    dpsi = xs * _polyval(t, _DPSI)
    up[small] = 0.5 * psi[small] + dpsi
    down[small] = 0.5 * psi[small] - dpsi
    chi[small] = _polyval(t, _CHI)
    xl = x[~small]
    up[~small] = (np.exp(0.5 * xl) - psi[~small]) / xl
    down[~small] = (psi[~small] - np.exp(-0.5 * xl)) / xl
    chi[~small] = 2.0 * (np.cosh(0.5 * xl) - psi[~small]) / xl**2
    return E * psi, E * up, E * down, E * chi


@dataclass(frozen=True)
class GaussianMixture:
    """Finite Gaussian mixture: weights (m,), means (m, d), covs (m, d, d)."""

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.covs, dtype=float)
        if not np.isclose(w.sum(), 1.0, atol=1e-10):
            raise DomainError("mixture weights must sum to 1")
        if np.any(w <= 0):
            raise DomainError("mixture weights must be positive")
        for c in cov:
            np.linalg.cholesky(c)  # raises if not SPD
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covs", cov)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Density at points x of shape (n, d)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        total = np.zeros(x.shape[0])
        for w, m, c in zip(self.weights, self.means, self.covs):
            diff = x - m
            chol = np.linalg.cholesky(c)
            y = np.linalg.solve(chol, diff.T)
            quad = np.sum(y**2, axis=0)
            logdet = 2.0 * np.sum(np.log(np.diag(chol)))
            total += w * np.exp(
                -0.5 * quad - 0.5 * logdet - 0.5 * self.dim * np.log(2.0 * np.pi)
            )
        return total
