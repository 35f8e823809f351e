"""Forward ODE integration of the network collision dynamics.

The right-hand side is the finite reaction-network form of the collision
operator; mass, momentum and energy are conserved quadruple by
quadruple.  The integrator is an embedded Dormand-Prince 4(5) pair with
a positivity guard and a hard entropy-monotonicity assertion.  It is
"first same as last" (FSAL): the last stage of an accepted step is the
new state, so its rate Q(f5) is the next step's first stage, and each
step attempt evaluates Q six times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._table import csv_table
from .errors import DomainError, NumericalError
from .network import VelocityNetwork, _positive_state, _state


def collision_operator(net: VelocityNetwork, f: np.ndarray) -> np.ndarray:
    """Rate of change Q(f) per node; sum_v w Q(f)_v = 0 up to roundoff.

    Summed by conservation class (`VelocityNetwork.collision_index`):
    the gain B (C g), with g = f_i f_j per member pair, less the loss
    f (K f).  O(n^2 + pairs) per call; no per-quadruple array.
    """
    f = _state(net, f, "collision_operator")
    idx = net.collision_index
    i, j = idx.members
    g = np.take(f, i) * np.take(f, j)
    return (idx.B @ (idx.C @ g) - f * (idx.K @ f)) / net.node_weight


def entropy(net: VelocityNetwork, f: np.ndarray) -> float:
    """H(f) = sum_v w f_v log f_v with 0 log 0 = 0."""
    f = _state(net, f, "entropy")
    out = np.zeros_like(f)
    pos = f > 0
    out[pos] = f[pos] * np.log(f[pos])
    return float(net.node_weight * out.sum())


def dissipation(net: VelocityNetwork, f: np.ndarray) -> float:
    """D(f) = sum_q h^{2d} B_q (r - p)(log r - log p) >= 0; may be +inf.

    One term per quadruple, from four gathers and one log of each
    product.  A quadruple with both products 0 adds 0 and one with
    exactly one product 0 adds +inf: log 0 = -inf gives the inf, and
    r == p the 0.
    """
    f = _state(net, f, "dissipation")
    i, j, k, l = net.quad.T
    p, r = f[i] * f[j], f[k] * f[l]
    # log 0 = -inf; where both are 0 the product is 0 * nan
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = (r - p) * (np.log(r) - np.log(p))
    dens[r == p] = 0.0
    return float(np.sum(net.kappa * dens))


# Dormand-Prince 4(5) tableau; row 6 of _DP_A is the 5th-order weights b5,
# so the last stage state is the step's solution
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


@dataclass
class ForwardTrajectory:
    net: VelocityNetwork
    times: np.ndarray  # (m,)
    states: np.ndarray  # (m, n)
    H: np.ndarray  # (m,) entropies, checked non-increasing by the solve

    @cached_property
    def D(self) -> np.ndarray:
        """(m,) dissipation D(f) of each state, made on first read."""
        return np.array([dissipation(self.net, f) for f in self.states])

    @cached_property
    def moments(self) -> np.ndarray:
        """(m, d + 2) mass, momentum and energy of each state, made on first read."""
        return np.array([self.net.moments(f) for f in self.states])

    def state_at(self, t: float) -> np.ndarray:
        """State at time t by linear interpolation between accepted steps."""
        t = float(t)
        if not self.times[0] - 1e-12 <= t <= self.times[-1] + 1e-12:
            raise DomainError("time outside trajectory range")
        idx = np.searchsorted(self.times, t)
        if idx == 0:
            return self.states[0].copy()
        if idx >= len(self.times):
            return self.states[-1].copy()
        t0, t1 = self.times[idx - 1], self.times[idx]
        lam = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        return (1 - lam) * self.states[idx - 1] + lam * self.states[idx]

    def to_csv(self) -> str:
        header = ["time", "H", "D", "mass", *(f"p{ax}" for ax in "xyz"[: self.net.d]), "energy"]
        return csv_table(header, ["%.17g"] * len(header),
                         [self.times, self.H, self.D, *self.moments.T])


def solve_forward(
    net: VelocityNetwork,
    f0: np.ndarray,
    T: float,
    dt_init: float = 1e-2,
    tol: float = 1e-10,
    max_step: float = np.inf,
) -> ForwardTrajectory:
    """Integrate df/dt = Q(f) to time T with adaptive RK4(5).

    Steps producing negative entries are rejected and halved; entropy must
    be non-increasing across every accepted step (hard assertion at
    1e-12 relative).  The trajectory's D and moments are made when read.
    T may be 0, and max_step +inf (no cap).
    """
    if not 0 <= T < np.inf:
        raise DomainError(f"T must be finite and nonnegative, got {T!r}")
    if not (0 < tol < np.inf and 0 < dt_init < np.inf):
        raise DomainError(f"tol and dt_init must be finite and positive, got {tol!r}, {dt_init!r}")
    if not max_step > 0:
        raise DomainError(f"max_step must be positive, got {max_step!r}")
    f = _positive_state(net, f0, "solve_forward", "f0")
    t = 0.0
    dt = min(dt_init, max_step, T) if T > 0 else dt_init
    times, states, Hs = [0.0], [f.copy()], [entropy(net, f)]

    scale_ref = np.abs(f) + 1e-8
    # roundoff-sized remainder after many accumulated steps counts as done
    t_end = T - 1e-12 * max(1.0, T)
    k = np.empty((7, f.size))
    k[0] = collision_operator(net, f)
    while t < t_end:
        dt = min(dt, T - t, max_step)
        if dt < 1e-13 * max(1.0, T):
            raise NumericalError(f"step size underflow at t = {t:.6g}")
        for s in range(1, 7):
            fs = f + dt * (_DP_A[s, :s] @ k[:s])
            if np.any(~np.isfinite(fs)):
                raise NumericalError(f"non-finite state at t = {t:.6g}")
            k[s] = collision_operator(net, np.maximum(fs, 0.0))  # clip stages only
        f5 = fs
        f4 = f + dt * (_DP_B4 @ k)
        if np.any(f5 < 0):
            dt *= 0.5
            continue
        err = np.max(np.abs(f5 - f4) / (scale_ref + np.abs(f5)))
        if err > tol:
            dt *= max(0.2, 0.9 * (tol / err) ** 0.2)
            continue
        H_new = entropy(net, f5)
        if H_new > Hs[-1] + 1e-12 * abs(Hs[-1]):
            raise NumericalError(
                f"entropy increased across a step at t = {t:.6g} "
                f"({Hs[-1]:.12g} -> {H_new:.12g})"
            )
        t += dt
        f = f5
        k[0] = k[6]  # first same as last: Q(f5) starts the next step
        times.append(t)
        states.append(f.copy())
        Hs.append(H_new)
        if err > 0:
            dt *= min(5.0, 0.9 * (tol / err) ** 0.2)
        else:
            dt *= 5.0
    return ForwardTrajectory(
        net=net,
        times=np.array(times),
        states=np.array(states),
        H=np.array(Hs),
    )


def _simpson_triple(t0, t1, t2, y0, y1, y2) -> float:
    """Exact integral over [t0, t2] of the quadratic through three points."""
    # Lagrange basis integrals on a possibly non-uniform triple
    h = t2 - t0

    def basis_integral(ta, tb, tc):
        # integral of (t - tb)(t - tc) / ((ta - tb)(ta - tc)) over [t0, t2]
        denom = (ta - tb) * (ta - tc)
        p2 = (t2**3 - t0**3) / 3.0
        p1 = (t2**2 - t0**2) / 2.0
        return (p2 - (tb + tc) * p1 + tb * tc * h) / denom

    return y0 * basis_integral(t0, t1, t2) + y1 * basis_integral(t1, t0, t2) + y2 * basis_integral(
        t2, t0, t1
    )


def energy_identity_report(traj: ForwardTrajectory) -> dict:
    """Residuals of H(f_b) - H(f_a) + int_a^b D dt along the trajectory.

    Uses quadratic (Simpson-type) quadrature of the recorded dissipation
    on consecutive step triples; returns the largest per-triple residual,
    the global residual, and the relative dH/dt + D defect at interior times.
    """
    m = len(traj.times)
    if m < 3:
        raise DomainError("need at least 3 recorded samples")
    residuals = []
    total = 0.0
    for i in range(0, m - 2, 2):
        i2 = i + 2
        quad = _simpson_triple(
            traj.times[i], traj.times[i + 1], traj.times[i2],
            traj.D[i], traj.D[i + 1], traj.D[i2],
        )
        residuals.append(abs(traj.H[i2] - traj.H[i] + quad))
        total += quad
    if (m - 1) % 2 == 1:  # trapezoid tail for an odd interval count
        total += 0.5 * (traj.D[-2] + traj.D[-1]) * (traj.times[-1] - traj.times[-2])
    global_resid = abs(traj.H[-1] - traj.H[0] + total)

    # centered finite difference of H against recorded D at interior times
    dH = (traj.H[2:] - traj.H[:-2]) / (traj.times[2:] - traj.times[:-2])
    rel = np.abs(dH + traj.D[1:-1]) / np.maximum(np.abs(traj.D[1:-1]), 1e-14)
    return {
        "max_interval_residual": float(np.max(residuals)),
        "global_residual": float(global_resid),
        "dHdt_defect": rel,
    }
