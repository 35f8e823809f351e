"""Minimizing-movement (implicit Euler) scheme for the entropy.

One step from f_prev minimizes H(g) + W_B(g, f_prev)^2 / (2 tau).  The
step is posed as a single convex program over the whole discrete path
with the left endpoint pinned and the right endpoint free; the flux is
eliminated exactly as in the metric solver, so the unknowns are the K
free slices in moment-preserving coordinates.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .forward import ForwardTrajectory, NumericalError, entropy
from .metric import SolverOptions, _minimize_smooth, _PathProblem
from .network import VelocityNetwork


@dataclass
class JkoStep:
    state: np.ndarray  # right endpoint of the proximal path
    path: np.ndarray  # (K + 1, n) inner geodesic discretization
    squared_distance: float  # integrated action of the inner path
    entropy: float  # H at the new state
    objective: float  # H + squared_distance / (2 tau)
    kkt_residual: float
    iterations: int


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
        if t < -1e-12:
            raise ValueError("time must be nonnegative")
        idx = int(np.ceil(max(t, 0.0) / self.tau - 1e-12))
        idx = min(idx, len(self.states) - 1)
        return self.states[idx]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,t,H,step_distance,residual\n")
        for m in range(len(self.states)):
            dist = np.sqrt(self.squared_moves[m - 1]) if m > 0 else 0.0
            resid = self.residuals[m - 1] if m > 0 else 0.0
            buf.write(
                f"{m},{m * self.tau:.17g},{self.entropies[m]:.17g},"
                f"{dist:.17g},{resid:.17g}\n"
            )
        return buf.getvalue()


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
    f_prev = np.asarray(f_prev, dtype=float)
    if np.any(f_prev <= 0):
        raise ValueError("jko_step requires strictly positive f_prev")
    if tau <= 0:
        raise ValueError("tau must be positive")

    prob = _PathProblem(
        net, np.broadcast_to(f_prev, (K + 1, len(f_prev))), K, 1.0 / (2.0 * tau), entropy=True
    )
    y_opt, kkt, iters, (_, _, _, actions, _) = _minimize_smooth(
        prob, np.zeros(K * prob.N.shape[1]), opts
    )
    path = prob.path(y_opt)
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
    )


def jko_trajectory(
    net: VelocityNetwork,
    f0: np.ndarray,
    tau: float,
    T: float,
    K: int = 8,
    opts: SolverOptions = None,
) -> JkoTrajectory:
    """Iterate jko_step ceil(T / tau) times from f0."""
    f0 = np.asarray(f0, dtype=float)
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
    from .metric import w1_distance

    if jko.net is not fwd.net and (
        jko.net.d != fwd.net.d
        or jko.net.n_nodes != fwd.net.n_nodes
        or not np.allclose(jko.net.nodes, fwd.net.nodes)
    ):
        raise ValueError("trajectories live on different networks")
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
