"""Kac's N-particle random walk with event-driven Monte Carlo.

Collisions of uniformly chosen pairs are proposed on a global Poisson
clock at the dominating rate and accepted by thinning against the
kernel bound, which realizes per-pair rates (1/N) B(v_i - v_j, omega)
d omega exactly.  Replicates use jumped streams of a counter-based
generator so runs are independent and reproducible.

Proposals are drawn in chunks of 4096 and applied by dependency level:
the proposals of one level touch disjoint particles, so each level is
one batch (one thinning test, one collision call), and every particle
sees the operations of the one-at-a-time walk in the same order.  Record
times split a chunk into pieces that are levelled one after another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kinematics import SPHERE_SURFACE, Kernel, _check_unit, _collide
from .scalars import GaussianMixture


@dataclass
class ParticleState:
    velocities: np.ndarray  # (N, d)

    def __post_init__(self):
        v = np.asarray(self.velocities, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] not in (2, 3):
            raise DomainError("velocities must be (N >= 2, d in {2, 3})")
        if not np.all(np.isfinite(v)):
            raise DomainError("velocities must be finite")
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
        # one printf-style template per row: the bytes of str.format's
        # "{:.17g}" and "{:d}", at less cost per call
        row = ",".join(["%.17g", "%d", "%d"] + ["%.17g"] * d + ["%d"]) + "\n"
        columns = [self.times, *self.pairs.T, *self.omegas.T, self.accepted]
        body = "".join(row % r for r in zip(*(c.tolist() for c in columns)))
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
        raise DomainError("need at least 2 particles")
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed)
    v = _sample_mixture(mixture, N, rng)
    v = v - v.mean(axis=0)
    norm2 = np.sum(v**2)
    if norm2 <= 0:
        raise DomainError("degenerate sample: zero total energy after centering")
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


def _levels(pick_i, pick_j, N: int):
    """Dependency level of each event of a chunk piece, and the highest level.

    An event's level is one more than the latest level of its two
    particles in the piece, so events of one level touch disjoint particles.
    """
    last = [0] * N
    levels = []
    for a, b in zip(pick_i, pick_j):
        # max(last[a], last[b]) + 1, spelled out: faster than max()
        lv = last[a]
        if last[b] > lv:
            lv = last[b]
        lv += 1
        last[a] = last[b] = lv
        levels.append(lv)
    return np.array(levels, dtype=np.int64), max(levels, default=0)


def _apply_chunk(v, pick_i, pick_j, om, uc, kernel: Kernel):
    """Apply a chunk piece's proposals to v in place, level by level.

    `uc` is u * c2 per proposal.  Returns the acceptance flags in the
    piece's order.
    """
    # memoryviews yield one Python int at a time, where tolist() would
    # hold the whole piece's
    levels, top = _levels(memoryview(pick_i), memoryview(pick_j), len(v))
    order = np.argsort(levels, kind="stable")
    ends = np.searchsorted(levels[order], np.arange(1, top + 1), side="right")
    # the chunk permuted by level: level n is the slice ends[n-1]:ends[n]
    I, J, W, uc = pick_i[order], pick_j[order], om[order], uc[order]
    # exact pre-accept: B >= kernel.lower everywhere
    acc = uc < kernel.lower
    undecided = np.flatnonzero(~acc)
    und_ends = np.searchsorted(undecided, ends)
    s, k0 = 0, 0
    for e, ke in zip(ends.tolist(), und_ends.tolist()):
        if k0 < ke:
            k = undecided[k0:ke]
            acc[k] = uc[k] < kernel(v[I[k]] - v[J[k]])
            rows = s + acc[s:e].nonzero()[0]
        else:
            rows = slice(s, e)
        a, b = I[rows], J[rows]
        v[a], v[b] = _collide(v[a], v[b], W[rows])
        s, k0 = e, ke
    accepted = np.empty(len(acc), dtype=bool)
    accepted[order] = acc
    return accepted


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

    Each chunk of proposals, split at the record times, is applied piece
    by piece and level by level (`_apply_chunk`).
    The events of one level touch disjoint particles, so one thinning test
    for the level's undecided proposals and one `_collide` on its
    accepted rows give every particle the operations of the sequential
    walk, in its order, on the same inputs (notes/decisions.md, D7).
    """
    if not 0 <= T < np.inf:
        raise DomainError("T must be finite and nonnegative")
    N, d = state.N, state.d
    c2 = kernel.upper
    rate = 0.5 * (N - 1) * c2 * SPHERE_SURFACE[d]
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed)
    seed_tag = seed if isinstance(seed, (int, np.integer)) else -1

    record = np.sort(np.asarray([] if record_times is None else record_times, dtype=float))
    if not np.all((record >= 0) & (record <= T + 1e-12)):
        raise DomainError("record times must lie in [0, T]")
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
        # record r is taken before the first event at or after it; the
        # records split the chunk into pieces, applied one after another
        at = np.searchsorted(times[:m], record[rec_ptr:], side="left")
        at = at[at < m].tolist()
        uc = u * c2
        flags, s = [], 0
        for e in at:
            flags.append(_apply_chunk(v, pick_i[s:e], pick_j[s:e], om[s:e], uc[s:e], kernel))
            snapshots.append(ParticleState(v.copy()))
            s = e
        flags.append(_apply_chunk(v, pick_i[s:m], pick_j[s:m], om[s:m], uc[s:m], kernel))
        rec_ptr += len(at)
        chunks.append((times[:m], np.column_stack([pick_i[:m], pick_j[:m]]), om[:m],
                       np.concatenate(flags)))
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
    }


def _logsumexp_rows(a: np.ndarray, diff=None, tied=None) -> np.ndarray:
    """log sum_k exp(a[:, k]) per row, by scipy.special.logsumexp's algorithm.

    The row maximum is shifted out and its tied entries are kept out of
    the sum and counted: log1p(sum exp(a - max) / m) + log(m) + max.
    Same operations in the same order as scipy's, for finite a.  `diff`
    (float) and `tied` (bool), of a's shape, are optional scratch
    buffers; `a` is never written.
    """
    if diff is None:
        diff = np.empty_like(a)
    if tied is None:
        tied = np.empty(a.shape, dtype=bool)
    top = a[np.arange(len(a)), a.argmax(axis=1)]
    np.subtract(a, top[:, None], out=diff)
    # for finite doubles x - y == 0 exactly when x == y
    np.equal(diff, 0.0, out=tied)
    terms = np.exp(diff, out=diff)
    terms[tied] = 0.0
    # each row ties at its argmax; more ties than rows are rare
    m = np.add.reduce(tied, axis=1, dtype=float) if np.count_nonzero(tied) > len(a) else 1.0
    s = np.add.reduce(terms, axis=1)
    s /= m
    np.log1p(s, out=s)
    s += np.log(m)
    s += top
    return s


def empirical_entropy(
    state: ParticleState, ou_time: float, n_samples: int = 100000, seed=0
) -> tuple:
    """Entropy of the OU-smoothed empirical measure, by Monte Carlo.

    The smoothed measure is the exact mixture with means e^{-delta} v_i
    and covariance (1 - e^{-2 delta}) I at equal weights; H = E[log f]
    under f itself.  Returns (estimate, standard error).

    The log densities are taken in blocks of 2000 samples, each block's
    steps in buffers allocated once per call.  The block size is part of
    the result: BLAS rounds `(2 x) @ means.T` differently for other row
    counts (notes/decisions.md, D17).
    """
    decay = np.exp(-ou_time)
    var = 1.0 - decay**2
    # false for ou_time <= 0, NaN, and ou_time so small that var rounds to 0
    if not var > 0:
        raise DomainError("ou_time must be positive, with 1 - e^{-2 ou_time} > 0")
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 2:
        raise DomainError("n_samples must be an integer of at least 2")
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed)
    N, d = state.N, state.d
    means = decay * state.velocities
    comp = rng.integers(0, N, n_samples)
    x = rng.standard_normal((n_samples, d))
    x *= np.sqrt(var)
    x += means[comp]
    const = -0.5 * d * np.log(2.0 * np.pi * var) - np.log(N)
    with np.errstate(over="ignore"):  # reported below
        m2 = np.sum(means**2, axis=1)
    if not np.all(np.isfinite(m2)):
        raise DomainError("velocities too large: |e^{-ou_time} v|^2 overflows")
    vals = np.empty(n_samples)
    step = min(2000, n_samples)
    x2, sq = np.empty((step, d)), np.empty(step)
    q, diff, tied = np.empty((step, N)), np.empty((step, N)), np.empty((step, N), dtype=bool)
    for a in range(0, n_samples, step):
        xa = x[a : a + step]
        n = len(xa)
        # |x - m_i|^2 expanded so the inner loop is a single matmul
        qa = np.matmul(np.multiply(xa, 2.0, out=x2[:n]), means.T, out=q[:n])
        np.sum(np.square(xa, out=x2[:n]), axis=1, out=sq[:n])
        if not np.all(np.isfinite(sq[:n])):
            raise DomainError("velocities too large: |x|^2 of a sample overflows")
        np.subtract(sq[:n, None], qa, out=qa)
        qa += m2
        qa *= -0.5
        qa /= var
        np.add(_logsumexp_rows(qa, diff[:n], tied[:n]), const, out=vals[a : a + step])
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
                raise DomainError("snapshot count does not match probe times")
            if snaps[0].d != fwd.net.d:
                raise DomainError("dimension mismatch between particles and network")
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
