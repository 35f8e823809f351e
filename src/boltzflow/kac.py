"""Kac's N-particle random walk with event-driven Monte Carlo.

Collisions of uniformly chosen pairs are proposed on a global Poisson
clock at the dominating rate and accepted by thinning against the
kernel bound, which realizes per-pair rates (1/N) B(v_i - v_j, omega)
d omega exactly.  Replicates use jumped streams of a counter-based
generator so runs are independent and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .kinematics import SPHERE_SURFACE, Kernel, _check_unit, _collide
from .scalars import GaussianMixture


@dataclass
class ParticleState:
    velocities: np.ndarray  # (N, d)

    def __post_init__(self):
        v = np.asarray(self.velocities, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] not in (2, 3):
            raise ValueError("velocities must be (N >= 2, d in {2, 3})")
        self.velocities = v

    @property
    def N(self) -> int:
        return self.velocities.shape[0]

    @property
    def d(self) -> int:
        return self.velocities.shape[1]

    def momentum(self) -> np.ndarray:
        return self.velocities.sum(axis=0)

    def energy(self) -> float:
        return float(np.sum(self.velocities**2))

    def sphere_defects(self) -> tuple:
        """(momentum defect / N, relative energy defect) from the Kac sphere."""
        target = self.N * self.d
        return (
            float(np.max(np.abs(self.momentum())) / self.N),
            float(abs(self.energy() - target) / target),
        )


@dataclass
class EventLog:
    times: np.ndarray  # (M,) increasing proposal times
    pairs: np.ndarray  # (M, 2) with i < j
    omegas: np.ndarray  # (M, d)
    accepted: np.ndarray  # (M,) bool
    seed: int
    kernel: Kernel

    @property
    def n_events(self) -> int:
        return len(self.times)

    @property
    def n_accepted(self) -> int:
        return int(np.sum(self.accepted))

    def to_csv(self) -> str:
        d = self.omegas.shape[1]
        cols = ["t", "i", "j"] + [f"omega{ax}" for ax in "xyz"[:d]] + ["accepted"]
        row = ",".join(["{:.17g}", "{:d}", "{:d}"] + ["{:.17g}"] * d + ["{:d}"]) + "\n"
        columns = [self.times, *self.pairs.T, *self.omegas.T, self.accepted]
        body = "".join(row.format(*r) for r in zip(*(c.tolist() for c in columns)))
        return ",".join(cols) + "\n" + body


def stream(seed: int) -> np.random.Generator:
    """Counter-based generator; use .jumped offsets for replicates."""
    return np.random.Generator(np.random.Philox(seed))


def _sample_mixture(mix: GaussianMixture, n: int, rng: np.random.Generator) -> np.ndarray:
    comp = rng.choice(len(mix.weights), size=n, p=mix.weights)
    out = np.empty((n, mix.dim))
    for c in range(len(mix.weights)):
        sel = comp == c
        m = int(sel.sum())
        if m == 0:
            continue
        chol = np.linalg.cholesky(mix.covs[c])
        out[sel] = mix.means[c] + rng.standard_normal((m, mix.dim)) @ chol.T
    return out


def sample_initial(N: int, mixture: GaussianMixture, seed) -> ParticleState:
    """Draw N i.i.d. velocities and project onto the Kac sphere.

    The projection subtracts the empirical mean and rescales so that
    sum |v_i|^2 = N d; both invariants then hold by construction.
    """
    if N < 2:
        raise ValueError("need at least 2 particles")
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed)
    v = _sample_mixture(mixture, N, rng)
    v = v - v.mean(axis=0)
    norm2 = np.sum(v**2)
    if norm2 <= 0:
        raise ValueError("degenerate sample: zero total energy after centering")
    v *= np.sqrt(N * v.shape[1] / norm2)
    return ParticleState(v)


def _unit_vectors(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    if d == 2:
        theta = rng.uniform(0.0, 2.0 * np.pi, m)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    g = rng.standard_normal((m, 3))
    norm = np.linalg.norm(g, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    return g / norm


def _pair_from_index(N: int, pick: np.ndarray):
    """Pairs (i, j), i < j, at the given positions of np.triu_indices(N, 1).

    Row i of the upper triangle starts at position i (2N - i - 1) / 2;
    the N - 1 row starts replace the N (N - 1) / 2 pair table.
    """
    rows = np.arange(N - 1)
    starts = rows * (2 * N - rows - 1) // 2
    i = np.searchsorted(starts, pick, side="right") - 1
    return i, pick - starts[i] + i + 1


def simulate(
    state: ParticleState,
    kernel: Kernel,
    T: float,
    seed,
    record_times=None,
):
    """Run the walk to time T; returns (final state, event log[, snapshots]).

    Proposal clock rate: (1/N) * N(N-1)/2 * c2 * |S^{d-1}| with c2 the
    kernel upper bound; acceptance probability B/c2 per proposal.  If
    record_times is given, state snapshots at those times are returned
    as a third element.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    N, d = state.N, state.d
    c2 = kernel.upper
    rate = 0.5 * (N - 1) * c2 * SPHERE_SURFACE[d]
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed)
    seed_tag = seed if isinstance(seed, (int, np.integer)) else -1

    record = np.sort(np.asarray([] if record_times is None else record_times, dtype=float))
    if np.any(record < 0) or np.any(record > T + 1e-12):
        raise ValueError("record times must lie in [0, T]")
    snapshots = []

    n_pairs = N * (N - 1) // 2
    v = state.velocities.copy()
    t = 0.0
    chunks = []
    rec_ptr = 0
    chunk = 4096
    while True:
        gaps = rng.exponential(1.0 / rate, chunk)
        pick_i, pick_j = _pair_from_index(N, rng.integers(0, n_pairs, chunk))
        om = _check_unit(_unit_vectors(rng, chunk, d))
        u = rng.random(chunk)
        # sequential sums t + gaps[0] + ... + gaps[e], as the event clock runs
        times = np.cumsum(np.append(t, gaps))[1:]
        m = int(np.searchsorted(times, T, side="right"))
        accepted = np.zeros(m, dtype=bool)
        for e in range(m):
            while rec_ptr < len(record) and record[rec_ptr] <= times[e]:
                snapshots.append(ParticleState(v.copy()))
                rec_ptr += 1
            i, j = pick_i[e], pick_j[e]
            if u[e] * c2 < float(kernel(v[i] - v[j])):
                accepted[e] = True
                v[i], v[j] = _collide(v[i], v[j], om[e])
        chunks.append((times[:m], np.column_stack([pick_i[:m], pick_j[:m]]), om[:m], accepted))
        if m < chunk:
            break
        t = times[-1]
    snapshots += [ParticleState(v.copy()) for _ in record[rec_ptr:]]
    times, pairs, omegas, accepted = (np.concatenate(c) for c in zip(*chunks))
    log = EventLog(times, pairs, omegas, accepted, seed=int(seed_tag), kernel=kernel)
    final = ParticleState(v)
    if record_times is not None:
        return final, log, snapshots
    return final, log


def empirical_moments(state: ParticleState) -> dict:
    """Mass-normalized empirical moments of the particle cloud."""
    v = state.velocities
    speed2 = np.sum(v**2, axis=1)
    return {
        "mean": v.mean(axis=0),
        "second": float(speed2.mean()),
        "fourth": float(np.mean(speed2**2)),
        "coord_fourth": np.mean(v**4, axis=0),
    }


def empirical_entropy(
    state: ParticleState, ou_time: float, n_samples: int = 100000, seed=0
) -> tuple:
    """Entropy of the OU-smoothed empirical measure, by Monte Carlo.

    The smoothed measure is the exact mixture with means e^{-delta} v_i
    and covariance (1 - e^{-2 delta}) I at equal weights; H = E[log f]
    under f itself.  Returns (estimate, standard error).
    """
    if ou_time <= 0:
        raise ValueError("ou_time must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed)
    N, d = state.N, state.d
    decay = np.exp(-ou_time)
    var = 1.0 - decay**2
    means = decay * state.velocities
    comp = rng.integers(0, N, n_samples)
    x = means[comp] + np.sqrt(var) * rng.standard_normal((n_samples, d))
    const = -0.5 * d * np.log(2.0 * np.pi * var) - np.log(N)
    m2 = np.sum(means**2, axis=1)
    vals = np.empty(n_samples)
    step = 2000
    for a in range(0, n_samples, step):
        xa = x[a : a + step]
        # |x - m_i|^2 expanded so the inner loop is a single matmul
        q = np.sum(xa**2, axis=1)[:, None] - 2.0 * xa @ means.T + m2[None, :]
        vals[a : a + step] = logsumexp(-0.5 * q / var, axis=1) + const
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))


def fourth_moment_of_density(net, f: np.ndarray) -> float:
    """Mass-normalized E|v|^4 of a network density, for mean-field checks."""
    speed2 = np.sum(net.nodes**2, axis=1)
    w = net.node_weight
    return float(np.sum(w * f * speed2**2) / np.sum(w * f))


def consistency_report(runs: dict, fwd, probe_times) -> dict:
    """Mean-field consistency of replicate-averaged moments vs the forward flow.

    runs maps N to a list (one entry per replicate) of snapshot lists
    aligned with probe_times.  The headline statistic is the max over
    probe times of |replicate-averaged E|v|^4 - forward E|v|^4| per N,
    with a normal-theory confidence radius at the maximizing time.
    """
    probe_times = np.asarray(probe_times, dtype=float)
    fwd_m4 = np.array(
        [fourth_moment_of_density(fwd.net, fwd.state_at(t)) for t in probe_times]
    )
    rows = []
    for N in sorted(runs):
        reps = runs[N]
        for snaps in reps:
            if len(snaps) != len(probe_times):
                raise ValueError("snapshot count does not match probe times")
            if snaps[0].d != fwd.net.d:
                raise ValueError("dimension mismatch between particles and network")
        m4 = np.array(
            [[empirical_moments(s)["fourth"] for s in snaps] for snaps in reps]
        )  # (reps, times)
        mean = m4.mean(axis=0)
        se = m4.std(axis=0, ddof=1) / np.sqrt(m4.shape[0])
        gap = np.abs(mean - fwd_m4)
        at = int(np.argmax(gap))
        rows.append(
            {
                "N": int(N),
                "discrepancy": float(gap[at]),
                "ci": float(1.96 * se[at]),
                "per_time_gap": gap,
                "per_time_se": se,
                "kac_mean": mean,
                "fwd": fwd_m4,
            }
        )
    disc = [r["discrepancy"] for r in rows]
    monotone = all(disc[a] > disc[a + 1] for a in range(len(disc) - 1))
    separated = (
        rows[0]["discrepancy"] - rows[0]["ci"] > rows[-1]["discrepancy"] + rows[-1]["ci"]
        if len(rows) >= 2
        else True
    )
    return {
        "probe_times": probe_times,
        "rows": rows,
        "monotone": monotone,
        "separated": separated,
    }
