"""Finite collision network on a velocity lattice.

Nodes are h * z for integer vectors z with |h z|_inf <= V.  Collision
quadruples (i, j) -> (k, l) are enumerated exactly with integer
conservation keys; each quadruple carries a kernel value B_q and a
quadrature weight W_q = h^{2d}.  Densities are arrays over nodes with
node weight w = h^d.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse

from .kinematics import Kernel, collide


# a quadruple's column of S, in its slots (i, j, k, l)
SLOT_SIGN = np.array([-1.0, -1.0, 1.0, 1.0])


class BuildError(RuntimeError):
    pass


class MomentError(ValueError):
    pass


class NewtonError(RuntimeError):
    pass


@dataclass
class VelocityNetwork:
    d: int
    V: float
    h: float
    kernel: Kernel
    lattice: np.ndarray  # (n, d) integer coordinates
    nodes: np.ndarray  # (n, d) velocities, h * lattice
    quad: np.ndarray  # (Q, 4) node indices (i, j, k, l)
    omega: np.ndarray  # (Q, d) representative collision directions
    B_q: np.ndarray  # (Q,)
    W_q: np.ndarray  # (Q,)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_quadruples(self) -> int:
        return self.quad.shape[0]

    @property
    def node_weight(self) -> float:
        return self.h**self.d

    # -- density functionals -------------------------------------------------

    def mass(self, f: np.ndarray) -> float:
        return float(self.node_weight * np.sum(f))

    def momentum(self, f: np.ndarray) -> np.ndarray:
        return self.node_weight * (f @ self.nodes)

    def energy(self, f: np.ndarray) -> float:
        return float(self.node_weight * np.sum(f * np.sum(self.nodes**2, axis=1)))

    def moments(self, f: np.ndarray) -> np.ndarray:
        """(mass, momentum..., energy) as a flat vector of length d + 2."""
        return np.concatenate(
            [[self.mass(f)], self.momentum(f), [self.energy(f)]]
        )

    def pair_products(self, f: np.ndarray):
        """Forward and backward products (f_i f_j, f_k f_l) per quadruple."""
        i, j, k, l = self.quad.T
        return f[i] * f[j], f[k] * f[l]

    @cached_property
    def S(self) -> scipy.sparse.csr_matrix:
        """Signed (n, Q) incidence: +1 on (k, l), -1 on (i, j) per quadruple.

        Assembled from COO entries in slot order (i, j, k, l); a slot
        repeated within a quadruple (i == j or k == l) sums to +-2.
        """
        Q = self.n_quadruples
        rows = self.quad.T.ravel()
        cols = np.tile(np.arange(Q), 4)
        vals = np.concatenate([-np.ones(2 * Q), np.ones(2 * Q)])
        return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(self.n_nodes, Q))

    @cached_property
    def invariants(self) -> np.ndarray:
        """(n, m) orthonormal basis of node functions conserved by every quadruple."""
        vals, vecs = np.linalg.eigh(self.laplacian(np.ones(self.n_quadruples)))
        return vecs[:, vals < 1e-9 * max(vals.max(), 1.0)]

    def grad_bar(self, phi: np.ndarray) -> np.ndarray:
        """Discrete collision gradient: phi_k + phi_l - phi_i - phi_j."""
        return self.S.T @ phi

    def div_bar(self, q_values: np.ndarray) -> np.ndarray:
        """Adjoint of grad_bar: +q on (k, l), -q on (i, j), summed per node."""
        return self.S @ q_values

    def scatter_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Sum per-quadruple (Q, 4, 4) slot blocks into a dense n x n matrix.

        Entry (a, b) of block q lands on (quad[q, a], quad[q, b]).  One
        bincount per slot pair keeps every temporary Q-sized.
        """
        n = self.n_nodes
        out = np.zeros(n * n)
        for a in range(4):
            rows = self.quad[:, a] * n
            for b in range(4):
                out += np.bincount(
                    rows + self.quad[:, b], weights=blocks[:, a, b], minlength=n * n
                )
        return out.reshape(n, n)

    def laplacian(self, weights: np.ndarray) -> np.ndarray:
        """Dense weighted network Laplacian S diag(weights) S^T."""
        return self.scatter_blocks(weights[:, None, None] * np.outer(SLOT_SIGN, SLOT_SIGN))

    # -- export --------------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "d": self.d,
            "V": self.V,
            "h": self.h,
            "kernel": {
                "kind": self.kernel.kind,
                "b": self.kernel.b,
                "lo": self.kernel.lo,
                "hi": self.kernel.hi,
            },
            "lattice": self.lattice.tolist(),
            "quadruples": [
                {
                    "nodes": q.tolist(),
                    "omega": om.tolist(),
                    "B": float(b),
                    "W": float(wq),
                }
                for q, om, b, wq in zip(self.quad, self.omega, self.B_q, self.W_q)
            ],
        }
        return json.dumps(payload, indent=1, sort_keys=True)


def _join_quadruples(lattice: np.ndarray, M: int) -> np.ndarray:
    """All canonical conservative quadruples, sorted lexicographically.

    Each pair i <= j gets one integer key, a mixed-radix encoding of the
    exact pair (|z_i|^2 + |z_j|^2, z_i + z_j); any two pairs sharing a
    key form a quadruple, the lexicographically smaller pair first.
    """
    i, j = np.triu_indices(len(lattice))
    sq = np.sum(lattice**2, axis=1)
    key = sq[i] + sq[j]
    for c in (lattice[i] + lattice[j] + 2 * M).T:  # each digit in [0, 4M]
        key = key * (4 * M + 1) + c
    # the stable sort keeps each key group in (i, j) order
    order = np.argsort(key, kind="stable")
    _, start, size = np.unique(key[order], return_index=True, return_counts=True)
    # match every sorted position with each later position of its group
    pos = np.arange(len(order))
    count = np.repeat(start + size, size) - pos - 1
    first = np.repeat(pos, count)
    rank = np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count)
    lo, hi = order[first], order[first + 1 + rank]
    quad = np.column_stack([i[lo], j[lo], i[hi], j[hi]])
    return quad[np.lexsort(quad.T[::-1])]


def build_network(d: int, V: float, h: float, kernel: Kernel) -> VelocityNetwork:
    """Enumerate lattice nodes and all conservative collision quadruples.

    The join key is the exact integer pair (z_i + z_j, |z_i|^2 + |z_j|^2)
    (see _join_quadruples); quadruples are kept in canonical form
    i <= j, k <= l, (i, j) < (k, l), {i, j} != {k, l}, sorted for
    reproducible output.
    """
    if d not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    M = V / h
    if abs(M - round(M)) > 1e-9 or round(M) < 1:
        raise ValueError("V/h must be a positive integer")
    M = int(round(M))
    axes = np.arange(-M, M + 1)
    lattice = np.stack(np.meshgrid(*([axes] * d), indexing="ij"), axis=-1).reshape(-1, d)
    # deterministic node order: lexicographic in lattice coordinates
    order = np.lexsort(lattice.T[::-1])
    lattice = lattice[order]
    nodes = h * lattice.astype(float)

    quad = _join_quadruples(lattice, M)
    if len(quad) == 0:
        raise BuildError(
            f"no conservative quadruples on this grid (V/h = {M}); "
            "the smallest usable grid has V/h = 1 in d = 2"
        )

    vi, vk = nodes[quad[:, 0]], nodes[quad[:, 2]]
    diff = vi - vk
    omega = diff / np.linalg.norm(diff, axis=1, keepdims=True)
    rel = nodes[quad[:, 0]] - nodes[quad[:, 1]]
    B_q = kernel(rel)
    W_q = np.full(len(quad), h ** (2 * d))

    net = VelocityNetwork(
        d=d,
        V=float(V),
        h=float(h),
        kernel=kernel,
        lattice=lattice,
        nodes=nodes,
        quad=quad,
        omega=omega,
        B_q=B_q,
        W_q=W_q,
    )

    # every emitted quadruple must reproduce (v_k, v_l) under the collision map
    vp, vp_star = collide(nodes[quad[:, 0]], nodes[quad[:, 1]], omega)
    err = max(
        np.max(np.abs(vp - nodes[quad[:, 2]])), np.max(np.abs(vp_star - nodes[quad[:, 3]]))
    )
    if err > 1e-12:
        raise BuildError(f"quadruple collision-consistency failed (max error {err:.2e})")
    return net


def restrict_quadruples(net: VelocityNetwork, indices) -> VelocityNetwork:
    """Copy of the network keeping only the selected quadruples.

    Useful for single-reaction tests; S and the invariant basis are
    derived anew from the kept quadruples.
    """
    indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
    return replace(net, quad=net.quad[indices], omega=net.omega[indices],
                   B_q=net.B_q[indices], W_q=net.W_q[indices])


# -- moment-matched densities ----------------------------------------------


def _exponential_fit(
    net: VelocityNetwork,
    log_base: np.ndarray,
    targets: np.ndarray,
    max_iter: int = 200,
    tol: float = 1e-12,
) -> np.ndarray:
    """Fit f = base * exp(a.v + b|v|^2) to (mass, momentum, energy) targets.

    Damped Newton on the normalized moment map; the Hessian is the
    feature covariance, positive definite on feasible interiors.
    """
    mass_t = targets[0]
    if mass_t <= 0:
        raise MomentError("target mass must be positive")
    feats = np.column_stack([net.nodes, np.sum(net.nodes**2, axis=1)])  # (n, d+1)
    want = targets[1:] / mass_t  # per-unit-mass momentum and energy
    lo, hi = feats.min(axis=0), feats.max(axis=0)
    if np.any(want <= lo) or np.any(want >= hi):
        raise MomentError(
            f"moment targets {targets} are not strictly inside the attainable range"
        )
    theta = np.zeros(net.d + 1)
    for _ in range(max_iter):
        logits = log_base + feats @ theta
        logits = logits - logits.max()
        p = np.exp(logits)
        p /= p.sum()
        mean = p @ feats
        resid = mean - want
        if np.max(np.abs(resid)) < tol:
            break
        cov = feats.T @ (p[:, None] * feats) - np.outer(mean, mean)
        try:
            step = np.linalg.solve(cov, resid)
        except np.linalg.LinAlgError as exc:
            raise NewtonError("singular moment covariance") from exc
        # backtracking on the dual objective log Z - theta . want
        def dual(th):
            z = log_base + feats @ th
            m = z.max()
            return m + np.log(np.sum(np.exp(z - m))) - th @ want

        base_val = dual(theta)
        scale = 1.0
        while scale > 1e-8:
            cand = theta - scale * step
            if dual(cand) < base_val + 1e-12:
                theta = cand
                break
            scale *= 0.5
        else:
            theta = theta - 1e-8 * step
    else:
        raise NewtonError(
            f"moment Newton did not converge in {max_iter} iterations "
            f"(residual {np.max(np.abs(resid)):.2e})"
        )
    logits = log_base + feats @ theta
    logits = logits - logits.max()
    p = np.exp(logits)
    p /= p.sum()
    return mass_t * p / net.node_weight


def maxent_project(
    net: VelocityNetwork,
    mass: float = 1.0,
    momentum: np.ndarray = None,
    energy: float = None,
) -> np.ndarray:
    """Discrete Maxwellian: f ~ exp(a.v + b|v|^2) with prescribed moments.

    Defaults: unit mass, zero momentum, energy = d (per-coordinate unit
    variance).  This is the entropy minimizer and the network equilibrium.
    """
    if momentum is None:
        momentum = np.zeros(net.d)
    if energy is None:
        energy = float(net.d)
    targets = np.concatenate([[mass], np.asarray(momentum, dtype=float), [energy]])
    return _exponential_fit(net, np.zeros(net.n_nodes), targets)


def tilt_to_moments(net: VelocityNetwork, f0: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Minimal exponential tilt of f0 matching (mass, momentum, energy)."""
    f0 = np.asarray(f0, dtype=float)
    if np.any(f0 <= 0):
        raise MomentError("tilt_to_moments requires strictly positive f0")
    targets = np.asarray(targets, dtype=float)
    return _exponential_fit(net, np.log(f0), targets)
