"""Slow reference implementations that the fast paths are tested against.

Each function spells out one formula directly: quadruple enumeration by
brute force or by a dict join over pair keys, the incidence operators
as per-slot `np.add.at` scatters, the W1 distance by its
Kantorovich-Rubinstein dual, and the Kac walk and its CSV log one event
and one row at a time.  None of them share code with the functions they
check.
"""

import numpy as np
import scipy.optimize
import scipy.sparse

from boltzflow.kac import EventLog, ParticleState, _pair_from_index, _unit_vectors, stream
from boltzflow.kinematics import SPHERE_SURFACE, collide
from boltzflow.scalars import log_mean


def lattice(d: int, M: int) -> np.ndarray:
    axes = np.arange(-M, M + 1)
    z = np.stack(np.meshgrid(*([axes] * d), indexing="ij"), axis=-1).reshape(-1, d)
    return z[np.lexsort(z.T[::-1])]


def brute_force_quadruples(d: int, V: float, h: float) -> np.ndarray:
    """O(n^4) enumeration of canonical conservative quadruples."""
    z = lattice(d, int(round(V / h)))
    n = len(z)
    sq = np.sum(z**2, axis=1)
    out = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                for l in range(k, n):
                    if (i, j) >= (k, l) or {i, j} == {k, l}:
                        continue
                    if np.array_equal(z[i] + z[j], z[k] + z[l]) and (
                        sq[i] + sq[j] == sq[k] + sq[l]
                    ):
                        out.append((i, j, k, l))
    return np.array(sorted(out), dtype=np.int64)


def dict_join_quadruples(d: int, M: int) -> np.ndarray:
    """O(n^2) join of pairs i <= j on the tuple key (z_i + z_j, |z_i|^2 + |z_j|^2)."""
    z = lattice(d, M)
    n = len(z)
    sq = np.sum(z**2, axis=1)
    groups = {}
    for i in range(n):
        for j in range(i, n):
            key = tuple(z[i] + z[j]) + (int(sq[i] + sq[j]),)
            groups.setdefault(key, []).append((i, j))
    quads = []
    for pairs in groups.values():
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                quads.append(pairs[a] + pairs[b])
    return np.array(sorted(quads), dtype=np.int64)


_SLOTS = ((0, -1.0), (1, -1.0), (2, 1.0), (3, 1.0))


def div_bar(quad: np.ndarray, n: int, q_values: np.ndarray) -> np.ndarray:
    out = np.zeros(n)
    for a, sa in _SLOTS:
        np.add.at(out, quad[:, a], sa * q_values)
    return out


def grad_bar(quad: np.ndarray, phi: np.ndarray) -> np.ndarray:
    i, j, k, l = quad.T
    return phi[k] + phi[l] - phi[i] - phi[j]


def laplacian(quad: np.ndarray, n: int, weights: np.ndarray) -> np.ndarray:
    """sum_q w_q s_q s_q^T by 16 scatters, s_q the signed indicator of q."""
    L = np.zeros((n, n))
    for a, sa in _SLOTS:
        for b, sb in _SLOTS:
            np.add.at(L, (quad[:, a], quad[:, b]), sa * sb * weights)
    return L


def scatter_blocks(quad: np.ndarray, n: int, blocks: np.ndarray) -> np.ndarray:
    """sum_q of block q's entry (a, b) on (quad[q, a], quad[q, b]), by np.add.at."""
    out = np.zeros((n, n))
    for a in range(4):
        for b in range(4):
            np.add.at(out, (quad[:, a], quad[:, b]), blocks[:, a, b])
    return out


def invariant_basis(quad: np.ndarray, n: int) -> np.ndarray:
    vals, vecs = np.linalg.eigh(laplacian(quad, n, np.ones(len(quad))))
    return vecs[:, vals < 1e-9 * max(vals.max(), 1.0)]


def collision_operator(net, f: np.ndarray) -> np.ndarray:
    i, j, k, l = net.quad.T
    flux = net.W_q * net.B_q * (f[i] * f[j] - f[k] * f[l])
    return div_bar(net.quad, net.n_nodes, flux) / net.node_weight


def gradient_form_residual(net, solution) -> float:
    """Per-slice projection of U = J / Lambda onto potential gradients."""
    worst = 0.0
    for m in range(solution.flux.shape[0]):
        fbar = 0.5 * (solution.path[m] + solution.path[m + 1])
        i, j, k, l = net.quad.T
        lam_q = log_mean(fbar[i] * fbar[j], fbar[k] * fbar[l])
        active = lam_q > 0
        U = np.zeros_like(lam_q)
        U[active] = solution.flux[m][active] / lam_q[active]
        wts = net.W_q * net.B_q * lam_q
        norm2 = float(np.sum(wts * U**2))
        if norm2 <= 1e-30:
            continue
        L = laplacian(net.quad, net.n_nodes, wts)
        d = div_bar(net.quad, net.n_nodes, wts * U)
        C = net.invariants
        phi = np.linalg.solve(L + np.trace(L) / len(L) * (C @ C.T), d)
        worst = max(worst, np.sqrt(max(norm2 - float(d @ phi), 0.0) / norm2))
    return worst


def w1_dual(net, f0: np.ndarray, f1: np.ndarray) -> float:
    """W1 as max sum phi (mu - nu) over phi_a - phi_c <= |v_a - v_c|, phi_0 = 0."""
    diff = net.node_weight * (np.asarray(f0, dtype=float) - np.asarray(f1, dtype=float))
    n = net.n_nodes
    cost = np.linalg.norm(net.nodes[:, None, :] - net.nodes[None, :, :], axis=2)
    a, c = np.nonzero(~np.eye(n, dtype=bool))
    rows = np.tile(np.arange(len(a)), 2)
    vals = np.concatenate([np.ones(len(a)), -np.ones(len(a))])
    A = scipy.sparse.csr_matrix((vals, (rows, np.concatenate([a, c]))), shape=(len(a), n))
    res = scipy.optimize.linprog(
        -diff, A_ub=A, b_ub=cost[a, c], bounds=[(0, 0)] + [(None, None)] * (n - 1),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success, res.message
    return -float(res.fun)


def simulate(state, kernel, T, seed, record_times=None):
    """The Kac walk one event at a time, appending each event to lists.

    Same draws per 4096-event chunk as `boltzflow.kac.simulate`; each
    event adds its gap to the clock, snapshots the records it passes,
    and applies the public `collide` (with its unit check) if accepted.
    """
    N, d = state.N, state.d
    c2 = kernel.upper
    rate = 0.5 * (N - 1) * c2 * SPHERE_SURFACE[d]
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed)
    seed_tag = seed if isinstance(seed, (int, np.integer)) else -1
    record = None if record_times is None else np.sort(np.asarray(record_times, dtype=float))
    snapshots = []
    n_pairs = N * (N - 1) // 2
    v = state.velocities.copy()
    t = 0.0
    times, prs, oms, accs = [], [], [], []
    rec_ptr = 0
    chunk = 4096
    done = False
    while not done:
        gaps = rng.exponential(1.0 / rate, chunk)
        pick_i, pick_j = _pair_from_index(N, rng.integers(0, n_pairs, chunk))
        om = _unit_vectors(rng, chunk, d)
        u = rng.random(chunk)
        for e in range(chunk):
            t_next = t + gaps[e]
            if record is not None:
                while rec_ptr < len(record) and record[rec_ptr] <= min(t_next, T):
                    snapshots.append(ParticleState(v.copy()))
                    rec_ptr += 1
            if t_next > T:
                done = True
                break
            t = t_next
            i, j = pick_i[e], pick_j[e]
            b = float(kernel(v[i] - v[j]))
            acc = u[e] * c2 < b
            if acc:
                vi, vj = collide(v[i], v[j], om[e])
                v[i] = vi
                v[j] = vj
            times.append(t)
            prs.append((i, j))
            oms.append(om[e])
            accs.append(acc)
    if record is not None:
        while rec_ptr < len(record):
            snapshots.append(ParticleState(v.copy()))
            rec_ptr += 1
    log = EventLog(
        times=np.array(times),
        pairs=np.array(prs, dtype=np.int64).reshape(-1, 2),
        omegas=np.array(oms).reshape(-1, d),
        accepted=np.array(accs, dtype=bool),
        seed=int(seed_tag),
        kernel=kernel,
    )
    final = ParticleState(v)
    if record is not None:
        return final, log, snapshots
    return final, log


def event_log_csv(log) -> str:
    """The event log as CSV, written row by row with per-cell f-strings."""
    d = log.omegas.shape[1]
    lines = [",".join(["t", "i", "j"] + [f"omega{ax}" for ax in "xyz"[:d]] + ["accepted"])]
    for m in range(log.n_events):
        row = [f"{log.times[m]:.17g}", str(int(log.pairs[m, 0])), str(int(log.pairs[m, 1]))]
        row += [f"{x:.17g}" for x in log.omegas[m]]
        row.append("1" if log.accepted[m] else "0")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
