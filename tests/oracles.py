"""Slow reference implementations that the network operators are tested against.

Each function spells out one formula directly: quadruple enumeration by
brute force or by a dict join over pair keys, and the incidence
operators as per-slot `np.add.at` scatters.  None of them share code
with `boltzflow.network`.
"""

import numpy as np

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
