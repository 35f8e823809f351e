"""Slow reference implementations that the fast paths are tested against.

Each function spells out one formula directly: quadruple enumeration by
brute force, by a dict join over pair keys or by a key join sorted
afterwards with one lexsort, the pair products by four
gathers per quadruple and the dissipation quadruple by quadruple, the
collision operator quadruple by quadruple through the COO incidence,
the velocity pairs by np.unique and the clique cover through an n^2
key table, the incidence matrix from COO triplets and the incidence
operators as per-slot `np.add.at` scatters, the W_B and JKO path
objective one interval at a time with a dense Hessian (and once more
with the mobility differentiated in f, on 4 x 4 slot blocks), the
Newton loop with every candidate's Hessian built, the Newton step by a dense
Cholesky factorization, the moment fit by its own damped Newton loop,
the W1 distance by its Kantorovich-Rubinstein dual, the Kac walk, its
CSV log and its dependency levels one event and one row at a time, the
OU entropy estimate through scipy's logsumexp, and the Dormand-Prince
loop with all seven stages evaluated on every step attempt.  None of
them share code with the functions they check, but for the Newton loop:
it takes its steps with the fast path's banded solve, which is checked
on its own.

It also holds the test-only diagnostics that no run calls: the action
A(f, J) of a flux and its integrand, the Boltzmann flux
f_i f_j - f_k f_l, the gradient-form residual of a W_B solution, the
Povzner gap and the angular integral of a kernel, and the Gaussian
mixture calculus of the OU commutation identity (the standard mixture,
linear push-forwards, the OU flow and the collision involution).
"""

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.special

from boltzflow.forward import collision_operator as forward_rhs
from boltzflow.errors import DomainError, NumericalError
from boltzflow.forward import dissipation, entropy
from boltzflow.kac import EventLog, ParticleState, _pair_from_index, _unit_vectors, stream
from boltzflow.kinematics import SPHERE_SURFACE, Kernel, collide
from boltzflow.metric import FLOOR, _newton_step
from boltzflow.network import SIDE_SIGN, SLOT_SIDE, CollisionIndex
from boltzflow.scalars import GaussianMixture, log_mean, log_mean_and_partials


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


def sorted_join_quadruples(d: int, M: int) -> np.ndarray:
    """The key join of pairs i <= j, its rows put in order by one lexsort.

    Pairs share the mixed-radix key of (|z_i|^2 + |z_j|^2, z_i + z_j);
    each sorted position is matched with every later position of its key
    group, and the (Q, 4) table is then sorted lexicographically.
    """
    z = lattice(d, M)
    i, j = np.triu_indices(len(z))
    key = np.sum(z[i] ** 2, axis=1) + np.sum(z[j] ** 2, axis=1)
    for c in (z[i] + z[j] + 2 * M).T:
        key = key * (4 * M + 1) + c
    order = np.argsort(key, kind="stable")
    _, start, size = np.unique(key[order], return_index=True, return_counts=True)
    pos = np.arange(len(order))
    count = np.repeat(start + size, size) - pos - 1
    first = np.repeat(pos, count)
    rank = np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count)
    lo, hi = order[first], order[first + 1 + rank]
    quad = np.column_stack([i[lo], j[lo], i[hi], j[hi]])
    return quad[np.lexsort(quad.T[::-1])]


_SLOTS = ((0, -1.0), (1, -1.0), (2, 1.0), (3, 1.0))


def incidence(quad: np.ndarray, n: int) -> scipy.sparse.csr_matrix:
    """The signed (n, Q) incidence S from COO triplets in slot order (i, j, k, l)."""
    Q = len(quad)
    rows = quad.T.ravel()
    cols = np.tile(np.arange(Q), 4)
    vals = np.concatenate([-np.ones(2 * Q), np.ones(2 * Q)])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, Q))


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
    """sum_q of entry (a, b, q) of (4, 4, Q) blocks on (quad[q, a], quad[q, b]), by np.add.at."""
    out = np.zeros((n, n))
    for a in range(4):
        for b in range(4):
            np.add.at(out, (quad[:, a], quad[:, b]), blocks[a, b])
    return out


def invariant_basis(quad: np.ndarray, n: int) -> np.ndarray:
    vals, vecs = np.linalg.eigh(laplacian(quad, n, np.ones(len(quad))))
    return vecs[:, vals < 1e-9 * max(vals.max(), 1.0)]


def quadruple_products(net, f: np.ndarray):
    """(f_i f_j, f_k f_l) per quadruple, from four gathers."""
    i, j, k, l = net.quad.T
    return f[i] * f[j], f[k] * f[l]


def quadruple_collision_operator(net, f: np.ndarray) -> np.ndarray:
    """Q(f) = S @ (kappa (f_i f_j - f_k f_l)) / w, one term per quadruple slot.

    S is the COO-built `incidence`; its CSR product adds each node's
    terms in the order of `net.div_bar`.
    """
    p, r = quadruple_products(net, f)
    return incidence(net.quad, net.n_nodes) @ (net.kappa * (p - r)) / net.node_weight


def keyed_collision_index(net) -> CollisionIndex:
    """The clique cover of `VelocityNetwork.collision_index`, from an n^2 key table.

    Every pair (i, j) of nodes gets its conservation key; the rows that
    are not conservative are dropped first, and the pairs of the others
    are mapped to ids through an n^2 position map.
    """
    n = net.n_nodes
    kappa = net.kappa
    # the mixed-radix key of (|z_i|^2 + |z_j|^2, z_i + z_j), every digit in [0, 4M]
    z = net.lattice
    M = int(np.abs(z).max())
    sq = np.sum(z**2, axis=1)
    table = sq[:, None] + sq[None, :]
    for c in np.moveaxis(z[:, None, :] + z[None, :, :] + 2 * M, -1, 0):
        table = table * (4 * M + 1) + c
    table = table.ravel()
    a = net.quad[:, 0] * n + net.quad[:, 1]
    b = net.quad[:, 2] * n + net.quad[:, 3]
    cons = table[a] == table[b]
    a, b, kc = a[cons], b[cons], kappa[cons]
    used = np.zeros(n * n, dtype=bool)
    used[a] = used[b] = True
    pairs = np.flatnonzero(used)
    pairs = pairs[np.argsort(table[pairs], kind="stable")]
    pos = np.empty(n * n, dtype=np.intp)
    pos[pairs] = np.arange(len(pairs))
    a, b = pos[a], pos[b]
    pkey = table[pairs]
    first = np.flatnonzero(np.r_[True, pkey[1:] != pkey[:-1]])
    size = np.diff(np.r_[first, len(pairs)])
    cls = np.repeat(np.arange(len(first)), size)[a]
    base = first[cls]
    lo, hi = np.minimum(a, b) - base, np.maximum(a, b) - base
    area = size * size
    edge = (np.cumsum(area) - area)[cls] + lo * size[cls] + hi
    rate = np.empty(len(first))
    rate[cls] = kc
    bad = (lo == hi) | (kc != rate[cls])
    bad |= np.bincount(edge, minlength=int(area.sum()))[edge] > 1
    clique = np.bincount(cls, minlength=len(first)) == size * (size - 1) // 2
    clique[cls[bad]] = False
    split = ~cons
    split[cons] = ~clique[cls]
    rows = np.flatnonzero(split)
    sizes = np.concatenate([size[clique], np.full(len(rows), 2)])
    rates = np.concatenate([rate[clique], kappa[rows]])
    i, j = np.divmod(pairs[np.repeat(clique, size)], n)
    split_quad = net.quad[rows]
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
    B.sum_duplicates()
    B.data *= rates[B.indices]
    A = np.bincount(i * n + j, weights=(rates * sizes)[owner], minlength=n * n).reshape(n, n)
    return CollisionIndex(members=np.stack([i, j]), rate=rates, C=C, B=B, K=A + A.T)


def dissipation_density(s, t):
    """Entropy dissipation integrand (t - s)(log t - log s).

    Returns +inf if exactly one argument is zero, 0 if both are.
    Equal to (log t - log s)^2 * L(s, t); vectorized.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(t < 0):
        raise DomainError("dissipation_density requires nonnegative arguments")
    scalar = s.ndim == 0 and t.ndim == 0
    s, t = np.broadcast_arrays(np.atleast_1d(s), np.atleast_1d(t))
    out = np.zeros(s.shape)
    both = (s > 0) & (t > 0)
    one = (s > 0) ^ (t > 0)
    d = np.log(t[both]) - np.log(s[both])
    out[both] = (t[both] - s[both]) * d
    out[one] = np.inf
    return float(out[0]) if scalar else out


def quadruple_dissipation(net, f: np.ndarray) -> float:
    """D(f) with two logs per quadruple, through `dissipation_density`."""
    p, r = quadruple_products(net, np.asarray(f, dtype=float))
    return float(np.sum(net.h ** (2 * net.d) * net.B_q * dissipation_density(p, r)))


def boltzmann_flux(net, f: np.ndarray) -> np.ndarray:
    """The flux carried by the forward dynamics: J_q = f_i f_j - f_k f_l.

    Equals Lambda * grad_bar(-log f) and satisfies the CRE against
    df/dt = Q(f) exactly; its action equals the dissipation D(f).
    """
    p, r = quadruple_products(net, np.asarray(f, dtype=float))
    return p - r


def discrete_action(net, f: np.ndarray, J: np.ndarray) -> float:
    """Action A(f, J) = sum_q h^{2d} B_q J_q^2 / Lambda(f_i f_j, f_k f_l).

    Boundary conventions come from the convex integrand: zero flux over a
    dead quadruple costs nothing, nonzero flux costs +inf.  Each
    canonical quadruple carries multiplicity 4 in the collision manifold,
    hence the prefactor 4 on the integrand.
    """
    p, r = quadruple_products(net, np.asarray(f, dtype=float))
    dens = action_density(np.asarray(J, dtype=float), p, r)
    return float(np.sum(4.0 * net.h ** (2 * net.d) * net.B_q * dens))


def action_density(u, s, t):
    """Convex action integrand alpha(u, s, t) = u^2 / (4 L(s, t)).

    Returns 0 when L = 0 and u = 0, +inf when L = 0 and u != 0.
    Vectorized.
    """
    u = np.asarray(u, dtype=float)
    lam = np.asarray(log_mean(s, t))
    scalar = u.ndim == 0 and lam.ndim == 0
    u, lam = np.atleast_1d(u), np.atleast_1d(lam)
    u, lam = np.broadcast_arrays(u, lam)
    out = np.empty(u.shape)
    pos = lam > 0
    out[pos] = u[pos] ** 2 / (4.0 * lam[pos])
    out[~pos] = np.where(u[~pos] == 0.0, 0.0, np.inf)
    return float(out[0]) if scalar else out


def standard_mixture(d: int) -> GaussianMixture:
    """The standard Gaussian on R^d as a one-component mixture."""
    return GaussianMixture(np.array([1.0]), np.zeros((1, d)), np.eye(d)[None])


def linear_map(mix: GaussianMixture, A: np.ndarray) -> GaussianMixture:
    """Push-forward of the mixture under x -> A x."""
    return GaussianMixture(
        mix.weights,
        mix.means @ A.T,
        np.einsum("ij,mjk,lk->mil", A, mix.covs, A),
    )


def ou_evolve(mix: GaussianMixture, time: float) -> GaussianMixture:
    """Ornstein-Uhlenbeck flow toward the standard Gaussian, in closed form.

    Each component (w, m, S) maps to (w, e^{-t} m, e^{-2t} S + (1 - e^{-2t}) I).
    """
    if time < 0:
        raise DomainError("time must be nonnegative")
    decay = np.exp(-float(time))
    d = mix.dim
    covs = decay**2 * mix.covs + (1.0 - decay**2) * np.eye(d)[None]
    return GaussianMixture(mix.weights, decay * mix.means, covs)


def collision_involution_matrix(omega: np.ndarray) -> np.ndarray:
    """Matrix of the pair collision map (v, v_*) -> (v', v'_*) on R^{2d}."""
    omega = np.asarray(omega, dtype=float)
    d = omega.shape[0]
    P = np.outer(omega, omega)
    top = np.hstack([np.eye(d) - P, P])
    bot = np.hstack([P, np.eye(d) - P])
    return np.vstack([top, bot])


def ou_commutation_residual(
    mix: GaussianMixture, omega: np.ndarray, time: float, probes: np.ndarray
) -> float:
    """Max pointwise gap between S_t(F o T) and (S_t F) o T on probe points.

    Both sides are closed-form Gaussian mixtures; T is the orthogonal
    collision involution on the doubled space R^{2d}.
    """
    omega = np.asarray(omega, dtype=float)
    if mix.dim != 2 * omega.shape[0]:
        raise DomainError("mixture must live on the doubled space R^{2d}")
    T = collision_involution_matrix(omega)
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    # F o T is the push-forward of the mixture by T (T is an involution
    # with unit Jacobian), so S_t(F o T) = ou_evolve(T_# mix, t).
    lhs = ou_evolve(linear_map(mix, T), time).pdf(probes)
    rhs = ou_evolve(mix, time).pdf(probes @ T.T)
    return float(np.max(np.abs(lhs - rhs)))


def angular_integral(kernel: Kernel, k: np.ndarray, d: int = None) -> float:
    """Integral of B(k, .) over the unit sphere S^{d-1}."""
    k = np.asarray(k, dtype=float)
    if d is None:
        d = k.shape[-1]
    # both kernel kinds are independent of omega
    return float(kernel(k)) * SPHERE_SURFACE[d]


def povzner_gap(v, v_star, omega, R: float):
    """Truncated-moment gap (lhs, rhs); the estimate is lhs <= 4 * rhs.

    lhs = |phi_R(v')^2 + phi_R(v'_*)^2 - phi_R(v)^2 - phi_R(v_*)^2| with
    phi_R(u) = min(|u|, R); rhs = |v||v_*| + |v'||v'_*|.
    """
    R = np.asarray(R, dtype=float)
    if np.any(R <= 0):
        raise DomainError("R must be positive")
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    vp, vp_star = collide(v, v_star, omega)

    def phi2(u):
        return np.minimum(np.linalg.norm(u, axis=-1), R) ** 2

    lhs = np.abs(phi2(vp) + phi2(vp_star) - phi2(v) - phi2(v_star))
    rhs = np.linalg.norm(v, axis=-1) * np.linalg.norm(v_star, axis=-1) + np.linalg.norm(
        vp, axis=-1
    ) * np.linalg.norm(vp_star, axis=-1)
    return lhs, rhs


def collision_operator(net, f: np.ndarray) -> np.ndarray:
    p, r = quadruple_products(net, f)
    rate = net.h ** (2 * net.d) * net.B_q
    return div_bar(net.quad, net.n_nodes, rate * (p - r)) / net.node_weight


def path_interval(prob, fa: np.ndarray, fb: np.ndarray, hessian: bool = False):
    """Action, gradient, flux and Hessian (or None) of one interval of `prob`.

    The formulas of `boltzflow.metric._PathProblem._add_intervals` and
    `_add_hessian` for a single interval, each array without an interval
    axis: the mobility differentiated through log fbar.
    """
    net, kappa, N = prob.net, prob.net.h ** (2 * prob.net.d) * prob.net.B_q, prob.N
    n = net.n_nodes
    fbar = 0.5 * (fa + fb)
    lam, lam_a, lam_b, lam_ab = log_mean_and_partials(*quadruple_products(net, fbar))
    L = net.laplacian(kappa * lam)
    L += np.trace(L) / len(L) * prob.P
    cho = scipy.linalg.cho_factor(L)
    g = net.node_weight * (fb - fa) / prob.dt
    pot = scipy.linalg.cho_solve(cho, g)
    act = g @ pot
    s = net.grad_bar(pot)
    c = kappa * s**2
    lam1 = np.stack([lam_a, lam_b], axis=1)  # (Q, 2)
    sigma = np.bincount(
        net.quad.ravel(), weights=(c[:, None] * lam1[:, SLOT_SIDE]).ravel(), minlength=n
    )
    dbar = -sigma / (2.0 * fbar)
    w = net.node_weight / prob.dt
    grad = np.concatenate([-2.0 * w * pot + dbar, 2.0 * w * pot + dbar])
    flux = lam * s
    if not hessian:
        return act, grad, flux, None
    DN = N / fbar[:, None]
    # side blocks (2, 2, Q): sign of side x times kappa s Lambda_y
    B = SIDE_SIGN[:, None, None] * ((kappa * s) * lam1.T)[None]
    BN = net.scatter_blocks(B) @ DN
    BN -= prob.C @ (prob.C.T @ BN)
    M = np.hstack([-w * N - 0.5 * BN, w * N - 0.5 * BN])
    H = 2.0 * M.T @ scipy.linalg.cho_solve(cho, M)
    hess = np.array([[lam_a - lam_ab, lam_ab], [lam_ab, lam_b - lam_ab]])
    X = net.scatter_blocks(c * hess)
    X[np.diag_indices(n)] -= sigma
    H2 = DN.T @ X @ DN
    H -= 0.25 * np.tile(H2, (2, 2))
    return act, grad, flux, H


def path_interval_pspace(prob, fa: np.ndarray, fb: np.ndarray, hessian: bool = False):
    """`path_interval` with the mobility differentiated in f itself.

    The partials in p = f_i f_j and r = f_k f_l are the log-coordinate
    ones divided by p and r (lam_pp = -lam_ab / p^2, lam_pr = lam_ab /
    (p r), lam_rr = -lam_ab / r^2, by homogeneity), each slot's partial is
    the side's partial times its partner's density, and the second
    partials are 4 x 4 slot blocks per quadruple, the partner term added
    from the Hessians of p and r, summed by `scatter_blocks`.
    """
    net, kappa, N = prob.net, prob.net.h ** (2 * prob.net.d) * prob.net.B_q, prob.N
    fbar = 0.5 * (fa + fb)
    u = fbar[net.quad[:, [1, 0, 3, 2]]]
    p, r = quadruple_products(net, fbar)
    lam, lam_a, lam_b, lam_ab = log_mean_and_partials(p, r)
    lam_p, lam_r = lam_a / p, lam_b / r
    lam_pp, lam_pr, lam_rr = -lam_ab / p**2, lam_ab / (p * r), -lam_ab / r**2
    L = net.laplacian(kappa * lam)
    L += np.trace(L) / len(L) * prob.P
    cho = scipy.linalg.cho_factor(L)
    g = net.node_weight * (fb - fa) / prob.dt
    pot = scipy.linalg.cho_solve(cho, g)
    act = g @ pot
    s = net.grad_bar(pot)
    slot_grad = np.stack([lam_p, lam_p, lam_r, lam_r], axis=1) * u
    c = kappa * s**2
    dbar = -0.5 * np.bincount(
        net.quad.ravel(), weights=(c[:, None] * slot_grad).ravel(), minlength=net.n_nodes
    )
    w = net.node_weight / prob.dt
    grad = np.concatenate([-2.0 * w * pot + dbar, 2.0 * w * pot + dbar])
    flux = lam * s
    if not hessian:
        return act, grad, flux, None
    sign = np.array([-1.0, -1.0, 1.0, 1.0])
    B = sign[:, None] * ((kappa * s)[:, None] * slot_grad)[:, None]
    B = scatter_blocks(net.quad, net.n_nodes, B.transpose(1, 2, 0))
    BN = B @ N
    BN -= prob.C @ (prob.C.T @ BN)
    M = np.hstack([-w * N - 0.5 * BN, w * N - 0.5 * BN])
    H = 2.0 * M.T @ scipy.linalg.cho_solve(cho, M)
    local = u[:, :, None] * u[:, None, :]
    local[:, :2, :2] *= lam_pp[:, None, None]
    local[:, :2, 2:] *= lam_pr[:, None, None]
    local[:, 2:, :2] *= lam_pr[:, None, None]
    local[:, 2:, 2:] *= lam_rr[:, None, None]
    local[:, 0, 1] += lam_p
    local[:, 1, 0] += lam_p
    local[:, 2, 3] += lam_r
    local[:, 3, 2] += lam_r
    H2 = N.T @ scatter_blocks(
        net.quad, net.n_nodes, (c[:, None, None] * local).transpose(1, 2, 0)
    ) @ N
    H -= 0.25 * np.tile(H2, (2, 2))
    return act, grad, flux, H


def path_evaluate(prob, path: np.ndarray, hessian: bool = False, interval=path_interval):
    """`_PathProblem.evaluate` by a loop over the intervals, one `interval` call each."""
    K, n = len(path) - 1, prob.net.n_nodes
    nfree = prob.N.shape[1]
    weight = prob.scale * prob.dt
    actions = np.zeros(K)
    fluxes = np.zeros((K, prob.net.n_quadruples))
    grad = np.zeros((K + 1, n))
    H = np.zeros((K + 1, nfree, K + 1, nfree)) if hessian else None
    for m in range(K):
        actions[m], gm, fluxes[m], Hm = interval(prob, path[m], path[m + 1], hessian)
        grad[m : m + 2] += weight * gm.reshape(2, n)
        if hessian:
            H[m : m + 2, :, m : m + 2] += weight * Hm.reshape(2, nfree, 2, nfree)
    value = weight * actions.sum()
    if prob.entropy:
        w, g = prob.net.node_weight, path[K]
        value += np.sum(w * g * np.log(g))
        grad[K] += w * (np.log(g) + 1.0)
        if hessian:
            H[K, :, K] += prob.N.T @ (w / g[:, None] * prob.N)
    return value, grad, H, actions, fluxes


def path_point(prob, y: np.ndarray):
    """`_PathProblem.__call__` with the reduced Hessian built on every call.

    The path goes through `path_evaluate` (one interval at a time, with
    SciPy's cho_factor and cho_solve), and the third entry is the reduced
    Hessian in the fast path's band storage with 2 nfree rows; entries
    past the last row stay zero.
    """
    path = prob.path(y)
    if np.any(path < FLOOR):
        return np.inf, np.zeros_like(y), None, None, None
    try:
        value, grad, H, actions, fluxes = path_evaluate(prob, path, True)
    except np.linalg.LinAlgError:
        return np.inf, np.zeros_like(y), None, None, None
    free = slice(1, prob.nslices + 1)
    dense = H[free, :, free].reshape(len(y), len(y))
    band = np.zeros((2 * prob.N.shape[1], len(y)))
    for d in range(min(len(band), len(y))):
        band[d, : len(y) - d] = np.diagonal(dense, -d)
    return value, (grad[free] @ prob.N).ravel(), band, actions, fluxes


def newton_solve(prob, tol: float):
    """`_PathProblem.solve` with every candidate evaluated with its Hessian.

    The damped Newton loop as it stood before the Hessian was built only
    where a step uses it: `path_point` on every candidate, so the
    converged point's Hessian is built too.  The step is the fast path's
    `_newton_step`, which `test_banded_step_matches_dense_solve` checks
    against `newton_step`.  Returns the path, the KKT residual, the
    iteration count and the minimizer's `path_point`.
    """
    y = np.zeros(prob.nslices * prob.N.shape[1])
    point = path_point(prob, y)
    val, g, H = point[:3]
    if not np.isfinite(val):
        raise NumericalError("path solver left the positive cone")
    kkt = float(np.max(np.abs(g)))
    iters = 0
    for _ in range(60):
        if kkt <= 0.3 * tol:
            break
        step = _newton_step(H, g)
        accepted = False
        damp = 1.0
        while damp > 1e-8:
            cand = y - damp * step
            cand_point = path_point(prob, cand)
            val_c, g_c = cand_point[:2]
            if np.isfinite(val_c) and (
                val_c <= val + 1e-12 * (abs(val) + 1.0) or np.max(np.abs(g_c)) < kkt
            ):
                accepted = True
                break
            damp *= 0.5
        if not accepted:
            break
        y, point = cand, cand_point
        val, g, H = point[:3]
        kkt = float(np.max(np.abs(g)))
        iters += 1
    if kkt > tol:
        raise NumericalError(f"path solver stalled: projected gradient {kkt:.2e} > tol {tol:.2e}")
    return prob.path(y), kkt, iters, point


def band_to_dense(band: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower band, in LAPACK storage, is `band`.

    band[i - j, j] is entry (i, j), i >= j; entries that would lie past the
    last row are not read, as LAPACK does not read them.
    """
    n = band.shape[1]
    H = np.zeros((n, n))
    for d in range(min(len(band), n)):
        j = np.arange(n - d)
        H[j + d, j] = H[j, j + d] = band[d, : n - d]
    return H


def newton_step(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """H^-1 g by a dense Cholesky factorization of H + jitter I.

    The jitter starts at 0 and grows to 1e-12 trace(H) / N, then 4x per
    failed factorization, for at most 16 tries.
    """
    scale = np.trace(H) / len(H)
    jitter = 0.0
    for _ in range(16):
        try:
            return scipy.linalg.cho_solve(scipy.linalg.cho_factor(H + jitter * np.eye(len(H))), g)
        except np.linalg.LinAlgError:
            jitter = max(4.0 * jitter, 1e-12 * scale)
    raise np.linalg.LinAlgError("path Hessian is numerically indefinite")


def exponential_fit(net, log_base: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """f = base * exp(a.v + b|v|^2) with the targets' (mass, momentum, energy).

    The moment fit's own damped Newton loop as it stood before it shared
    the path solver's: on the dual log Z - th.want, accepting a step whose
    value is below value + 1e-12, taking a 1e-8 step when no halving down
    to 1e-8 is accepted, and stopping once every residual is below 1e-12,
    within 200 iterations.  The targets must be feasible.
    """
    feats = np.column_stack([net.nodes, np.sum(net.nodes**2, axis=1)])
    want = targets[1:] / targets[0]

    def dual(th):
        z = log_base + feats @ th
        m = z.max()
        e = np.exp(z - m)
        total = e.sum()
        return m + np.log(total) - th @ want, e / total

    theta = np.zeros(net.d + 1)
    val, p = dual(theta)
    for _ in range(200):
        mean = p @ feats
        resid = mean - want
        if np.max(np.abs(resid)) < 1e-12:
            return targets[0] * p / net.node_weight
        cov = feats.T @ (p[:, None] * feats) - np.outer(mean, mean)
        try:
            step = np.linalg.solve(cov, resid)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular moment covariance") from exc
        scale = 1.0
        while scale > 1e-8:
            cand = theta - scale * step
            val_c, p_c = dual(cand)
            if val_c < val + 1e-12:
                break
            scale *= 0.5
        else:
            cand = theta - 1e-8 * step
            val_c, p_c = dual(cand)
        theta, val, p = cand, val_c, p_c
    raise NumericalError(f"moment Newton did not converge (residual {np.max(np.abs(resid)):.2e})")


def gradient_form_residual(net, solution) -> float:
    """Per-slice projection of U = J / Lambda onto potential gradients."""
    worst = 0.0
    for m in range(solution.flux.shape[0]):
        fbar = 0.5 * (solution.path[m] + solution.path[m + 1])
        lam_q = log_mean(*quadruple_products(net, fbar))
        active = lam_q > 0
        U = np.zeros_like(lam_q)
        U[active] = solution.flux[m][active] / lam_q[active]
        wts = net.h ** (2 * net.d) * net.B_q * lam_q
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


def thinning_uniforms(N, d, kernel, seed, n):
    """The thinning uniforms u of a walk's first n proposals, drawn as `simulate` draws them."""
    rate = 0.5 * (N - 1) * kernel.upper * SPHERE_SURFACE[d]
    rng = stream(seed)
    us = []
    while 4096 * len(us) < n:
        rng.exponential(1.0 / rate, 4096)
        rng.integers(0, N * (N - 1) // 2, 4096)
        _unit_vectors(rng, 4096, d)
        us.append(rng.random(4096))
    return np.concatenate(us)[:n] if us else np.zeros(0)


def kac_levels(log, N, record_times=None) -> int:
    """Number of dependency levels of a walk, counted from its event log.

    The log is cut into the walk's chunks of 4096 proposals, and each chunk
    again before the first event at or after each record time.  In each
    piece an event's level is one more than the latest level of either of
    its particles, and the piece adds its highest level to the count.
    """
    record = [] if record_times is None else sorted(record_times)
    total, top, last, r = 0, 0, [0] * N, 0
    for e in range(log.n_events):
        cut = e % 4096 == 0
        while r < len(record) and record[r] <= log.times[e]:
            cut = True
            r += 1
        if cut:
            total, top, last = total + top, 0, [0] * N
        i, j = log.pairs[e]
        level = 1 + max(last[i], last[j])
        last[i] = last[j] = level
        top = max(top, level)
    return total + top


def empirical_entropy(state, ou_time, n_samples=100000, seed=0):
    """The OU-smoothed entropy estimate with scipy.special.logsumexp per block."""
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
    for a in range(0, n_samples, 2000):
        xa = x[a : a + 2000]
        q = np.sum(xa**2, axis=1)[:, None] - 2.0 * xa @ means.T + m2[None, :]
        vals[a : a + 2000] = scipy.special.logsumexp(-0.5 * q / var, axis=1) + const
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))


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


def solve_forward(net, f0, T, dt_init=1e-2, tol=1e-10, max_step=np.inf):
    """Dormand-Prince 4(5) with all seven stages evaluated on every attempt.

    Returns (times, states, H, D, moments, attempts, rejected for a
    negative entry).
    """
    b = [
        [1 / 5],
        [3 / 40, 9 / 40],
        [44 / 45, -56 / 15, 32 / 9],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
    b5 = np.array(b[-1] + [0.0])
    b4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
    f = np.array(f0, dtype=float)
    t, dt = 0.0, min(dt_init, max_step, T)
    rows = [(t, f.copy(), entropy(net, f), dissipation(net, f), net.moments(f))]
    scale_ref = np.abs(f) + 1e-8
    attempts = negative = 0
    while t < T - 1e-12 * max(1.0, T):
        dt = min(dt, T - t, max_step)
        attempts += 1
        k = np.empty((7, f.size))
        k[0] = forward_rhs(net, f)
        for s in range(1, 7):
            k[s] = forward_rhs(net, np.maximum(f + dt * (np.array(b[s - 1]) @ k[:s]), 0.0))
        f5 = f + dt * (b5 @ k)
        f4 = f + dt * (b4 @ k)
        if np.any(f5 < 0):
            negative += 1
            dt *= 0.5
            continue
        err = np.max(np.abs(f5 - f4) / (scale_ref + np.abs(f5)))
        if err > tol:
            dt *= max(0.2, 0.9 * (tol / err) ** 0.2)
            continue
        t += dt
        f = f5
        rows.append((t, f.copy(), entropy(net, f), dissipation(net, f), net.moments(f)))
        dt *= min(5.0, 0.9 * (tol / err) ** 0.2) if err > 0 else 5.0
    return (*(np.array(c) for c in zip(*rows)), attempts, negative)
