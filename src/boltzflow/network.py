"""Finite collision network on a velocity lattice.

Nodes are h * z for integer vectors z with |h z|_inf <= V.  Collision
quadruples (i, j) -> (k, l) are enumerated exactly with integer
conservation keys; each quadruple has a kernel value B_q and the
quadrature weight h^{2d}.  Densities are arrays over nodes with node
weight w = h^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse

from ._newton import damped_newton
from .errors import DomainError, NumericalError
from .kinematics import Kernel, collide


# a quadruple's two sides, p = f_i f_j lost and r = f_k f_l gained, with
# their signs in its column of S; its slots (i, j, k, l) and their sides
SIDE_SIGN = np.array([-1.0, 1.0])
SLOT_SIDE = np.array([0, 0, 1, 1])
SLOT_SIGN = SIDE_SIGN[SLOT_SIDE]

# the most lattice nodes a network may have, 11^3: a d = 3, V/h = 5 build
# already has 3.4 million quadruples and takes about 1 s at a peak RSS
# of about 300 MiB (D19), and the count grows about as (V/h)^6.3
MAX_NODES = 1331

# the rows build_network checks against the collision map at a time
CHECK_ROWS = 1 << 15


@dataclass(frozen=True)
class CollisionIndex:
    """The quadruples as cliques of velocity pairs, each clique at one rate.

    A clique of s member pairs stands for the s (s - 1) / 2 quadruples
    that join any two of its members, each at the clique's rate
    kappa_C.  With g = f_i f_j per member (i, j), the net rate into a
    member a is kappa_C sum_b (g_b - g_a) = kappa_C (C g - s_C g_a), so

        w Q(f) = B @ (C @ g) - f * (K @ f),

    the gain less the loss f_v (K f)_v.  C (cliques x members) sums each
    clique's members; B (n x cliques) holds kappa_C times the number of
    slots node v has among the members of C; K (n x n, dense and
    symmetric) holds the sum of kappa_C s_C over the members (i, j) at
    (i, j) and at (j, i).
    """

    members: np.ndarray  # (2, m) node pairs (i, j), clique after clique
    rate: np.ndarray  # (c,) each clique's rate kappa_C
    C: scipy.sparse.csr_matrix  # (c, m) ones; C.indptr delimits the cliques
    B: scipy.sparse.csr_matrix  # (n, c)
    K: np.ndarray  # (n, n)


@dataclass
class VelocityNetwork:
    """The lattice and its quadruples; every other array is derived from them."""

    d: int
    V: float
    h: float
    kernel: Kernel
    lattice: np.ndarray  # (n, d) integer coordinates, lexicographic
    quad: np.ndarray  # (Q, 4) node indices (i, j, k, l)

    @cached_property
    def nodes(self) -> np.ndarray:
        """(n, d) velocities, h * lattice."""
        return self.h * self.lattice.astype(float)

    @property
    def omega(self) -> np.ndarray:
        """(Q, d) collision directions (v_i - v_k) / |v_i - v_k|, made on each read."""
        diff = self.nodes[self.quad[:, 0]] - self.nodes[self.quad[:, 2]]
        return diff / np.linalg.norm(diff, axis=1, keepdims=True)

    @property
    def B_q(self) -> np.ndarray:
        """(Q,) kernel values B(v_i - v_j), made on each read."""
        return self.kernel(self.nodes[self.quad[:, 0]] - self.nodes[self.quad[:, 1]])

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

    @cached_property
    def kappa(self) -> np.ndarray:
        """The rate h^{2d} B_q of every quadruple."""
        return self.h ** (2 * self.d) * self.B_q

    @cached_property
    def S(self) -> scipy.sparse.csc_matrix:
        """Signed (n, Q) incidence: +1 on (k, l), -1 on (i, j) per quadruple.

        Written down in CSC form, column q holding the four slots of
        quadruple q; a slot repeated within a quadruple (i == j or
        k == l) sums to -2 or +2, exactly.
        """
        Q = self.n_quadruples
        S = scipy.sparse.csc_matrix(
            (np.tile(SLOT_SIGN, Q), self.quad.ravel(), np.arange(0, 4 * Q + 1, 4)),
            shape=(self.n_nodes, Q),
        )
        S.sum_duplicates()  # sorts each column's nodes; sums a repeated slot
        return S

    @cached_property
    def collision_index(self) -> CollisionIndex:
        """A clique cover of the pair graph, for Q(f) by conservation class.

        The quadruples of one conservation key are one clique when they
        join each two of the key's s >= 2 pairs exactly once, all at
        bitwise equal rates; build_network emits every class so.  Every
        other quadruple is its own two-pair clique: rows of a restricted
        copy that miss part of their class, repeated rows, rows that are
        not conservative, and classes whose rates differ by rounding.
        The cover is exact for any quad.  The distinct pairs (i, j) of
        the quadruples are marked by their codes i n + j in an n^2
        bitmap, and only those m pairs are keyed and sorted, stably, so
        each key's pairs stay in code order; the pairs that no
        conservative row joins are then dropped, so a row that is not
        conservative adds no member to a class.  The index keeps none of it,
        so a forward run holds no per-quadruple array (notes/decisions.md,
        D18, D20 and D21).
        """
        n = self.n_nodes
        codes = self.quad[:, [0, 2]].T * n + self.quad[:, [1, 3]].T
        used = np.zeros(n * n, dtype=bool)
        used[codes] = True
        code = np.flatnonzero(used)
        pairs = np.stack(np.divmod(code, n))
        keys = _pair_keys(self.lattice, int(np.abs(self.lattice).max()), *pairs)
        order = np.argsort(keys, kind="stable")
        pairs, keys = pairs[:, order], keys[order]
        pos = np.empty(n * n, dtype=np.intp)  # from codes to pair ids
        pos[code[order]] = np.arange(len(order))
        a, b = pos[codes]
        del codes, used, code, order, pos  # so they do not raise the build's peak
        kappa = self.kappa
        cons = keys[a] == keys[b]
        kc = kappa
        if not cons.all():  # never for a build_network row; no copies then
            # key only the pairs of conservative rows, in the same order
            a, b, kc = a[cons], b[cons], kappa[cons]
            keep = np.zeros(len(keys), dtype=bool)
            keep[a] = keep[b] = True
            renum = np.cumsum(keep) - 1
            a, b, pairs, keys = renum[a], renum[b], pairs[:, keep], keys[keep]
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        size = np.diff(np.r_[first, len(keys)])
        cls = np.repeat(np.arange(len(first)), size)[a]
        # a class is a clique if its rows are s (s - 1) / 2 distinct
        # edges between distinct members, all at one rate
        base = first[cls]
        lo, hi = np.minimum(a, b) - base, np.maximum(a, b) - base
        area = size * size
        edge = (np.cumsum(area) - area)[cls] + lo * size[cls] + hi
        rate = np.zeros(len(first))
        rate[cls] = kc
        bad = (lo == hi) | (kc != rate[cls])
        bad |= np.bincount(edge, minlength=int(area.sum()))[edge] > 1
        clique = np.bincount(cls, minlength=len(first)) == size * (size - 1) // 2
        clique[cls[bad]] = False
        split = ~cons
        split[cons] = ~clique[cls]
        rows = np.flatnonzero(split)

        # the cliques: whole classes, then one per split row with the
        # members (i, j) and (k, l)
        sizes = np.concatenate([size[clique], np.full(len(rows), 2)])
        rates = np.concatenate([rate[clique], kappa[rows]])
        i, j = pairs[:, np.repeat(clique, size)]
        split_quad = self.quad[rows]
        i = np.concatenate([i, split_quad[:, [0, 2]].ravel()])
        j = np.concatenate([j, split_quad[:, [1, 3]].ravel()])
        m, c = len(i), len(sizes)
        start = np.concatenate([[0], np.cumsum(sizes)])
        owner = np.repeat(np.arange(c), sizes)
        C = scipy.sparse.csr_matrix((np.ones(m), np.arange(m), start), shape=(c, m))
        B = scipy.sparse.csr_matrix(
            (np.ones(2 * m), (np.concatenate([i, j]), np.concatenate([owner, owner]))),
            shape=(n, c),
        )
        B.sum_duplicates()  # slot counts, exact
        B.data *= rates[B.indices]
        A = np.bincount(i * n + j, weights=(rates * sizes)[owner], minlength=n * n)
        A = A.reshape(n, n)
        return CollisionIndex(members=np.stack([i, j]), rate=rates, C=C, B=B, K=A + A.T)

    @cached_property
    def invariants(self) -> np.ndarray:
        """(n, m) orthonormal basis of node functions conserved by every quadruple."""
        # one eigh of S S', laplacian(ones(Q)) by exact integer sums, splits node space
        vals, vecs = np.linalg.eigh((self.S @ self.S.T).toarray())
        null = vals < 1e-9 * max(vals.max(), 1.0)
        self.free_basis = vecs[:, ~null]
        return vecs[:, null]

    @cached_property
    def free_basis(self) -> np.ndarray:
        """(n, n - m) orthonormal basis of the rest of node space, the collision modes."""
        self.invariants  # whose eigh sets this attribute
        return vars(self)["free_basis"]

    def grad_bar(self, phi: np.ndarray) -> np.ndarray:
        """Discrete collision gradient: phi_k + phi_l - phi_i - phi_j."""
        return self.S.T @ phi

    def div_bar(self, q_values: np.ndarray) -> np.ndarray:
        """Adjoint of grad_bar: +q on (k, l), -q on (i, j), summed per node."""
        return self.S @ q_values

    def scatter_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Sum per-quadruple (..., 2, 2, Q) side blocks into dense (..., n, n).

        Entry (x, y) of block q lands on (quad[q, a], quad[q, b]) of its
        own slice for every slot a on side x and b on side y (SLOT_SIDE).
        One bincount per slot pair, over every slice at once with each
        slice's bins offset by n^2, keeps every temporary the size of one
        entry of the blocks; each slice sums in the order of an unbatched
        call.
        """
        n = self.n_nodes
        batch = blocks.shape[:-3]
        offset = n * n * np.arange(int(np.prod(batch))).reshape(batch + (1,))
        out = np.zeros(n * n * offset.size)
        for a, x in enumerate(SLOT_SIDE):
            rows = self.quad[:, a] * n + offset
            for b, y in enumerate(SLOT_SIDE):
                out += np.bincount(
                    (rows + self.quad[:, b]).ravel(),
                    weights=blocks[..., x, y, :].ravel(),
                    minlength=out.size,
                )
        return out.reshape(batch + (n, n))

    def laplacian(self, weights: np.ndarray) -> np.ndarray:
        """Dense weighted network Laplacian S diag(weights) S^T.

        weights is (..., Q) and the Laplacians (..., n, n).
        """
        signs = np.outer(SIDE_SIGN, SIDE_SIGN)[:, :, None]
        return self.scatter_blocks(signs * np.expand_dims(weights, (-3, -2)))

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict:
        """The lattice, kernel and quadruples as JSON-ready Python values."""
        W = float(self.h ** (2 * self.d))
        return {
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
                    "W": W,
                }
                for q, om, b in zip(self.quad, self.omega, self.B_q)
            ],
        }


def _state(net: VelocityNetwork, f, name: str) -> np.ndarray:
    """f as a float array, checked to be one finite, nonnegative state."""
    f = np.asarray(f, dtype=float)
    if f.shape != (net.n_nodes,):
        raise DomainError(f"{name} requires a state of shape ({net.n_nodes},), got {f.shape}")
    if not (f.min() >= 0 and f.max() < np.inf):  # a NaN fails the first test
        raise DomainError(f"{name} requires finite f >= 0")
    return f


def _positive_state(net: VelocityNetwork, f, name: str, arg: str) -> np.ndarray:
    """f as a float array, checked to be one finite, strictly positive state."""
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise DomainError(f"{name} requires strictly positive {arg}")
    return _state(net, f, name)


def _pair_keys(lattice: np.ndarray, M: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The conservation key of each velocity pair (i, j), an exact integer.

    A mixed-radix encoding of (|z_i|^2 + |z_j|^2, z_i + z_j) for lattice
    coordinates within [-M, M]: two pairs share a key exactly when they
    share momentum and energy.  i and j are index arrays that broadcast.
    """
    sq = np.sum(lattice**2, axis=1)
    key = sq[i] + sq[j]
    for c in np.moveaxis(lattice[i] + lattice[j] + 2 * M, -1, 0):  # each digit in [0, 4M]
        key = key * (4 * M + 1) + c
    return key


def _join_quadruples(lattice: np.ndarray, M: int) -> np.ndarray:
    """All canonical conservative quadruples, in lexicographic order.

    Each pair i <= j gets its conservation key (`_pair_keys`); any two
    pairs sharing a key form a quadruple, the lexicographically smaller
    pair first.  np.triu_indices lists the pairs in lexicographic order
    and the stable key sort keeps each key group in that order, so the
    partners of pair p are the later members of its group, in pair
    order.  Emitting the rows pair by pair, each pair's partners in
    group order, lists the table already sorted (notes/decisions.md,
    D19).
    """
    i, j = np.triu_indices(len(lattice))
    P = len(i)
    key = _pair_keys(lattice, M, i, j)
    order = np.argsort(key, kind="stable")
    skey = key[order]
    edges = np.concatenate([[0], np.flatnonzero(skey[1:] != skey[:-1]) + 1, [P]])
    rank = np.empty(P, dtype=np.intp)  # each pair's position in the sorted keys
    rank[order] = np.arange(P)
    # pair p has its group's members after position rank[p] as partners
    count = np.repeat(edges[1:], np.diff(edges))[rank] - rank - 1
    offset = np.cumsum(count) - count  # the first row of each pair
    Q = int(offset[-1] + count[-1])
    quad = np.empty((Q, 4), dtype=np.intp)
    row = np.repeat(np.arange(P), count)  # the pair (i, j) of each row
    np.take(i, row, out=quad[:, 0])
    np.take(j, row, out=quad[:, 1])
    # row r of pair p pairs it with the sorted position rank[p] + 1 + r - offset[p]
    np.take(rank + 1 - offset, row, out=row)
    row += np.arange(Q)
    np.take(order, row, out=row)
    np.take(i, row, out=quad[:, 2])
    np.take(j, row, out=quad[:, 3])
    return quad


def lattice_ratio(d: int, V: float, h: float) -> int:
    """The lattice half-width M = V/h, checked for a network of dimension d.

    V and h must be finite and positive, and V/h a whole number (within
    1e-9) of at least 1.  The lattice has (2M + 1)^d nodes, at most
    MAX_NODES: V/h <= 17 at d = 2 and V/h <= 5 at d = 3.
    """
    if not (0 < V < math.inf and 0 < h < math.inf):
        raise DomainError(f"V and h must be finite and positive, got V = {V!r}, h = {h!r}")
    ratio = V / h  # inf if the quotient overflows
    # (the first test keeps round() finite; any such ratio has too many nodes)
    if not ratio < MAX_NODES or (2 * round(ratio) + 1) ** d > MAX_NODES:
        raise DomainError(
            f"V/h must be at most 17 at d = 2 and 5 at d = 3 (at most {MAX_NODES} "
            f"lattice nodes), got {ratio:.17g} at d = {d}"
        )
    M = int(round(ratio))
    if abs(ratio - M) > 1e-9 or M < 1:
        raise DomainError(f"V/h must be a positive integer, got {ratio:.17g}")
    return M


def build_network(d: int, V: float, h: float, kernel: Kernel) -> VelocityNetwork:
    """Enumerate lattice nodes and all conservative collision quadruples.

    The join key is the exact integer pair (z_i + z_j, |z_i|^2 + |z_j|^2)
    (see _join_quadruples); quadruples are kept in canonical form
    i <= j, k <= l, (i, j) < (k, l), {i, j} != {k, l}, in lexicographic
    order as the join emits them.  Every row must map (v_i, v_j) to
    (v_k, v_l) under `collide` within 1e-12, else DomainError.
    """
    if d not in (2, 3):
        raise DomainError("dimension must be 2 or 3")
    M = lattice_ratio(d, V, h)
    axes = np.arange(-M, M + 1)
    # "ij" indexing lists the nodes in lexicographic order of their coordinates
    lattice = np.stack(np.meshgrid(*([axes] * d), indexing="ij"), axis=-1).reshape(-1, d)
    quad = _join_quadruples(lattice, M)
    if len(quad) == 0:
        raise DomainError(
            f"no conservative quadruples on this grid (V/h = {M}); "
            "the smallest usable grid has V/h = 1 in d = 2"
        )
    net = VelocityNetwork(d=d, V=float(V), h=float(h), kernel=kernel, lattice=lattice, quad=quad)

    # every emitted quadruple must reproduce (v_k, v_l) under the collision
    # map with omega = (v_i - v_k) / |v_i - v_k|, checked CHECK_ROWS rows at
    # a time; `not err <= tol` fails a NaN error too
    nodes = net.nodes
    for a in range(0, len(quad), CHECK_ROWS):
        vi, vj, vk, vl = (nodes[c] for c in quad[a : a + CHECK_ROWS].T)
        diff = vi - vk
        vp, vp_star = collide(vi, vj, diff / np.linalg.norm(diff, axis=1, keepdims=True))
        err = np.maximum(np.max(np.abs(vp - vk)), np.max(np.abs(vp_star - vl)))
        if not err <= 1e-12:
            raise DomainError(f"quadruple collision-consistency failed (max error {err:.2e})")
    return net


def restrict_quadruples(net: VelocityNetwork, indices) -> VelocityNetwork:
    """Copy of the network keeping the quadruples at the given row indices.

    indices is an integer or one sequence of integers in [0, Q); a row
    may be kept more than once.  A boolean mask, an index out of range
    or a nested sequence raises DomainError.  Useful for
    single-reaction tests; every array derived from the rows (omega,
    B_q, kappa, S, the collision index, the invariant basis) is derived
    anew from the kept rows.
    """
    rows = np.atleast_1d(np.asarray(indices))
    Q = net.n_quadruples
    if rows.ndim != 1 or rows.dtype.kind not in "iu" or np.any(rows < 0) or np.any(rows >= Q):
        raise DomainError(f"quadruple indices must be integers in [0, {Q}), in one sequence")
    return replace(net, quad=net.quad[rows])


# -- moment-matched densities ----------------------------------------------


def _exponential_fit(
    net: VelocityNetwork, log_base: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Fit f = base * exp(a.v + b|v|^2) to (mass, momentum, energy) targets.

    Damped Newton (`damped_newton`) on the dual objective log Z - th.want,
    whose gradient is the moment residual and whose Hessian is the feature
    covariance, positive definite on feasible interiors.  The per-mass
    targets must lie strictly inside the convex hull of the features
    (v, |v|^2), else DomainError: each momentum coordinate inside the box,
    and the energy below d V^2 and above its least value at that momentum.
    Stops when every moment residual is below 1e-12 or at the loop's
    roundoff floor; otherwise (a failed line search, or 60 iterations)
    NumericalError.
    """
    if targets.shape != (net.d + 2,) or not np.all(np.isfinite(targets)):
        raise DomainError(f"moment targets must be {net.d + 2} finite numbers, got {targets}")
    mass_t = targets[0]
    if mass_t <= 0:
        raise DomainError("target mass must be positive")
    feats = np.column_stack([net.nodes, np.sum(net.nodes**2, axis=1)])  # (n, d+1)
    want = targets[1:] / mass_t  # per-unit-mass momentum and energy
    lo, hi = feats.min(axis=0), feats.max(axis=0)
    # the least energy at momentum u: sum_k of |v|^2 interpolated linearly
    # between the grid points around u_k, as the lattice's hull is
    # separable; u clipped to the box, which the first two tests check
    u = np.clip(want[:-1], lo[:-1], hi[:-1]) / net.h
    a = np.floor(u)
    least = net.h**2 * np.sum(a**2 + (2 * a + 1) * (u - a))
    if np.any(want <= lo) or np.any(want >= hi) or not want[-1] > least:
        raise DomainError(
            f"moment targets {targets} are not strictly inside the attainable range"
        )

    def dual(th):
        """The dual objective, its gradient (the moment residual), the weights and their mean."""
        z = log_base + feats @ th
        m = z.max()
        e = np.exp(z - m)
        total = e.sum()
        p = e / total
        mean = p @ feats
        return m + np.log(total) - th @ want, mean - want, p, mean

    def newton_step(point):
        _, resid, p, mean = point
        cov = feats.T @ (p[:, None] * feats) - np.outer(mean, mean)
        try:
            return np.linalg.solve(cov, resid)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular moment covariance") from exc

    theta = np.zeros(net.d + 1)
    tol = np.nextafter(1e-12, 0.0)  # every residual below 1e-12
    point = damped_newton(dual, newton_step, theta, dual(theta), tol, tol, "moment fit")[1]
    return mass_t * point[2] / net.node_weight


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
    f0 = _positive_state(net, f0, "tilt_to_moments", "f0")
    targets = np.asarray(targets, dtype=float)
    return _exponential_fit(net, np.log(f0), targets)
