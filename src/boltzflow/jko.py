"""Minimizing-movement (implicit Euler) scheme for the entropy.

One step from f_prev minimizes H(g) + W_B(g, f_prev)^2 / (2 tau).  The
step is posed as a single program over the whole discrete path with the
left endpoint pinned and the right endpoint free; the flux is
eliminated exactly as in the metric solver, so the unknowns are the K
free slices in moment-preserving coordinates.  The program is not
proved convex; its reduced Hessian was positive definite at every point
sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import csv_table
from .errors import DomainError, NumericalError
from .forward import ForwardTrajectory, entropy
from .metric import SolverOptions, _PathProblem, w1_distance
from .network import VelocityNetwork, _positive_state


@dataclass
class JkoStep:
    state: np.ndarray  # right endpoint of the proximal path
    path: np.ndarray  # (K + 1, n) inner geodesic discretization
    squared_distance: float  # integrated action of the inner path
    entropy: float  # H at the new state
    objective: float  # H + squared_distance / (2 tau)
    kkt_residual: float
    iterations: int
    stop: str  # "target" or "roundoff floor", see damped_newton
    hessian_builds: int  # one per Newton step


@dataclass
class JkoTrajectory:
    net: VelocityNetwork
    tau: float
    states: np.ndarray  # (n_steps + 1, n)
    entropies: np.ndarray
    squared_moves: np.ndarray  # (n_steps,) squared distance per step
    residuals: np.ndarray  # (n_steps,) inner KKT residuals

    @property
    def n_steps(self) -> int:
        return len(self.squared_moves)

    def interpolant(self, t: float) -> np.ndarray:
        """Piecewise-constant interpolant: f^tau_n on ((n-1) tau, n tau]."""
        if not -1e-12 <= t < np.inf:  # also false for NaN
            raise DomainError(f"time must be finite and nonnegative, got {t!r}")
        idx = int(np.ceil(max(t, 0.0) / self.tau - 1e-12))
        idx = min(idx, len(self.states) - 1)
        return self.states[idx]

    def to_csv(self) -> str:
        n = np.arange(len(self.states))
        return csv_table(
            ["n", "t", "H", "step_distance", "residual"], ["%d"] + ["%.17g"] * 4,
            [n, n * self.tau, self.entropies, np.sqrt(np.append(0.0, self.squared_moves)),
             np.append(0.0, self.residuals)],
        )


def jko_step(
    net: VelocityNetwork,
    f_prev: np.ndarray,
    tau: float,
    K: int = 8,
    opts: SolverOptions = None,
) -> JkoStep:
    """One proximal step of the entropy in the collision metric.

    Jointly optimizes the K-slice inner path and its (eliminated) flux;
    the objective at the minimizer may not exceed the value at the
    constant competitor g = f_prev beyond 10x the solver tolerance
    (NumericalError otherwise).
    """
    opts = opts or SolverOptions()
    f_prev = _positive_state(net, f_prev, "jko_step", "f_prev")
    if not 0 < tau < np.inf:  # also false for NaN
        raise DomainError(f"tau must be finite and positive, got {tau!r}")

    prob = _PathProblem(net, K, f_prev, tau=tau)
    path, kkt, iters, stop, (_, _, _, actions, _) = prob.solve(opts)
    g = path[K]
    sq = float(prob.dt * actions.sum())
    H_new = entropy(net, g)
    obj = H_new + sq / (2.0 * tau)
    H_prev = entropy(net, f_prev)
    if obj > H_prev + 10.0 * opts.tol:
        raise NumericalError(
            f"proximal objective {obj:.12g} exceeds competitor value {H_prev:.12g}"
        )
    return JkoStep(
        state=g,
        path=path,
        squared_distance=sq,
        entropy=H_new,
        objective=obj,
        kkt_residual=kkt,
        iterations=iters,
        stop=stop,
        hessian_builds=prob.hessian_builds,
    )


def jko_trajectory(
    net: VelocityNetwork,
    f0: np.ndarray,
    tau: float,
    T: float,
    K: int = 8,
    opts: SolverOptions = None,
) -> JkoTrajectory:
    """Iterate jko_step ceil(T / tau) times from f0; T = 0 takes no step."""
    if not 0 < tau < np.inf:
        raise DomainError(f"tau must be finite and positive, got {tau!r}")
    if not 0 <= T < np.inf:
        raise DomainError(f"T must be finite and nonnegative, got {T!r}")
    f0 = _positive_state(net, f0, "jko_trajectory", "f0")
    n_steps = int(np.ceil(T / tau - 1e-12))
    states = [f0.copy()]
    Hs = [entropy(net, f0)]
    moves, resids = [], []
    f = f0
    for _ in range(n_steps):
        step = jko_step(net, f, tau, K=K, opts=opts)
        f = step.state
        states.append(f.copy())
        Hs.append(step.entropy)
        moves.append(step.squared_distance)
        resids.append(step.kkt_residual)
    return JkoTrajectory(
        net=net,
        tau=tau,
        states=np.array(states),
        entropies=np.array(Hs),
        squared_moves=np.array(moves),
        residuals=np.array(resids),
    )


def compare_to_forward(
    jko: JkoTrajectory, fwd: ForwardTrajectory, probe_times
) -> dict:
    """L1 and network-W1 gaps between the interpolant and the forward flow."""
    if jko.net is not fwd.net and (
        jko.net.d != fwd.net.d
        or jko.net.n_nodes != fwd.net.n_nodes
        or not np.allclose(jko.net.nodes, fwd.net.nodes)
    ):
        raise DomainError("trajectories live on different networks")
    w = jko.net.node_weight
    rows = []
    for t in probe_times:
        fj = jko.interpolant(t)
        ff = fwd.state_at(t)
        rows.append(
            {
                "time": float(t),
                "l1": float(w * np.sum(np.abs(fj - ff))),
                "w1": w1_distance(jko.net, fj, ff),
            }
        )
    return {
        "tau": jko.tau,
        "rows": rows,
        "max_l1": max(r["l1"] for r in rows),
        "max_w1": max(r["w1"] for r in rows),
    }
