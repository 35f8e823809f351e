"""Binary collision kinematics and collision kernels.

Velocities are plain numpy arrays of shape (d,) with d in {2, 3}.  All
functions here are pure and vectorize over leading axes where noted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_UNIT_TOL = 1e-12

SPHERE_SURFACE = {2: 2.0 * np.pi, 3: 4.0 * np.pi}


def _check_unit(omega: np.ndarray) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    norm = np.linalg.norm(omega, axis=-1)
    if not np.all(np.abs(norm - 1.0) <= _UNIT_TOL):
        raise DomainError(f"omega must be a unit vector (|omega| = 1 within {_UNIT_TOL:g})")
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
    ip = np.add.reduce((v - v_star) * omega, axis=-1, keepdims=True)
    shift = ip * omega
    return v - shift, v_star + shift


@dataclass(frozen=True)
class Kernel:
    """Collision kernel B(k), bounded, of the relative velocity k alone.

    kind "constant": B = b everywhere.
    kind "clamp": B = clip(|k|, lo, hi), a bounded continuous profile.
    Both kinds depend on |k| only, so neither takes the collision
    direction omega.
    """

    kind: str
    b: float = 1.0
    lo: float = 0.5
    hi: float = 2.0

    def __post_init__(self):
        if self.kind not in ("constant", "clamp"):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if not all(-np.inf < x < np.inf for x in (self.b, self.lo, self.hi)):
            raise DomainError(
                f"kernel parameters must be finite, got b={self.b!r}, lo={self.lo!r}, hi={self.hi!r}"
            )
        if self.kind == "constant":
            if self.b <= 0:
                raise DomainError("constant kernel requires b > 0")
        else:
            if not (0 < self.lo <= self.hi):
                raise DomainError("clamp kernel requires 0 < lo <= hi")

    @property
    def lower(self) -> float:
        return self.b if self.kind == "constant" else self.lo

    @property
    def upper(self) -> float:
        return self.b if self.kind == "constant" else self.hi

    def angular_bound(self, d: int) -> float:
        """Upper bound on the angular integral of B over the sphere."""
        return self.upper * SPHERE_SURFACE[d]

    def __call__(self, k: np.ndarray) -> np.ndarray:
        """Evaluate B(k).  Vectorizes over leading axes of k."""
        k = np.asarray(k, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(np.float64(self.b), k.shape[:-1]).copy()
        # |k| as np.linalg.norm computes it, clipped as np.clip does
        speed = np.sqrt(np.add.reduce(k * k, axis=-1))
        return np.minimum(np.maximum(speed, self.lo), self.hi)

