"""Binary collision kinematics and collision kernels.

Velocities are plain numpy arrays of shape (d,) with d in {2, 3}.  All
functions here are pure and vectorize over leading axes where noted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_UNIT_TOL = 1e-12

SPHERE_SURFACE = {2: 2.0 * np.pi, 3: 4.0 * np.pi}


def _check_unit(omega: np.ndarray) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    norm = np.linalg.norm(omega, axis=-1)
    if not np.all(np.abs(norm - 1.0) <= _UNIT_TOL):
        raise ValueError(f"omega must be a unit vector (|omega| = 1 within {_UNIT_TOL:g})")
    return omega


def collide(v: np.ndarray, v_star: np.ndarray, omega: np.ndarray):
    """Apply the elastic collision map to a velocity pair.

    Returns (v', v'_*) with v' = v - s and v'_* = v_* + s, where the
    shift s = <v-v_*, omega> omega is computed once and shared.  Each
    output is one correctly rounded operation, fl(v - s) and
    fl(v_* + s), so per component the exact momentum defect obeys

        |(v' + v'_*) - (v + v_*)| <= ulp(v')/2 + ulp(v'_*)/2,

    with ulp(x) = np.spacing(|x|), the gap from |x| to the next larger
    binary64 number.  Equality of the rounded sums, fl(v' + v'_*) ==
    fl(v + v_*), is not guaranteed: no binary64 map can keep it (see
    notes/decisions.md).  Broadcasts over leading axes.
    """
    omega = _check_unit(omega)
    return _collide(np.asarray(v, dtype=float), np.asarray(v_star, dtype=float), omega)


def _collide(v: np.ndarray, v_star: np.ndarray, omega: np.ndarray):
    """The arithmetic of collide, for float arrays and checked unit omega."""
    ip = np.sum((v - v_star) * omega, axis=-1, keepdims=True)
    shift = ip * omega
    return v - shift, v_star + shift


@dataclass(frozen=True)
class Kernel:
    """Collision kernel B(k, omega), even in omega and bounded.

    kind "constant": B = b everywhere.
    kind "clamp": B = clip(|k|, lo, hi), a bounded continuous profile.
    """

    kind: str
    b: float = 1.0
    lo: float = 0.5
    hi: float = 2.0

    def __post_init__(self):
        if self.kind not in ("constant", "clamp"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "constant":
            if self.b <= 0:
                raise ValueError("constant kernel requires b > 0")
        else:
            if not (0 < self.lo <= self.hi):
                raise ValueError("clamp kernel requires 0 < lo <= hi")

    @property
    def lower(self) -> float:
        return self.b if self.kind == "constant" else self.lo

    @property
    def upper(self) -> float:
        return self.b if self.kind == "constant" else self.hi

    def angular_bound(self, d: int) -> float:
        """Upper bound on the angular integral of B over the sphere."""
        return self.upper * SPHERE_SURFACE[d]

    def __call__(self, k: np.ndarray, omega: np.ndarray = None) -> np.ndarray:
        """Evaluate B(k, omega).  Vectorizes over leading axes of k."""
        k = np.asarray(k, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(np.float64(self.b), k.shape[:-1]).copy()
        speed = np.linalg.norm(k, axis=-1)
        return np.clip(speed, self.lo, self.hi)


def angular_integral(kernel: Kernel, k: np.ndarray, d: int = None) -> float:
    """Integral of B(k, .) over the unit sphere S^{d-1}."""
    k = np.asarray(k, dtype=float)
    if d is None:
        d = k.shape[-1]
    # both kernel kinds are independent of omega
    return float(kernel(k)) * SPHERE_SURFACE[d]


def povzner_gap(v, v_star, omega, R: float):
    """Truncated-moment gap (lhs, rhs); the estimate is lhs <= 4 * rhs.

    lhs = |phi_R(v')^2 + phi_R(v'_*)^2 - phi_R(v)^2 - phi_R(v_*)^2| with
    phi_R(u) = min(|u|, R); rhs = |v||v_*| + |v'||v'_*|.
    """
    R = np.asarray(R, dtype=float)
    if np.any(R <= 0):
        raise ValueError("R must be positive")
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    vp, vp_star = collide(v, v_star, omega)

    def phi2(u):
        return np.minimum(np.linalg.norm(u, axis=-1), R) ** 2

    lhs = np.abs(phi2(vp) + phi2(vp_star) - phi2(v) - phi2(v_star))
    rhs = np.linalg.norm(v, axis=-1) * np.linalg.norm(v_star, axis=-1) + np.linalg.norm(
        vp, axis=-1
    ) * np.linalg.norm(vp_star, axis=-1)
    return lhs, rhs
