import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    action_density,
    collision_involution_matrix,
    dissipation_density,
    ou_commutation_residual,
    ou_evolve,
    standard_mixture,
)
from boltzflow.scalars import GaussianMixture, log_mean, log_mean_and_partials

pos = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False)


@given(pos, pos)
@settings(max_examples=500, deadline=None)
def test_log_mean_between_geometric_and_arithmetic(s, t):
    lam = log_mean(s, t)
    assert np.sqrt(s * t) <= lam <= 0.5 * (s + t)


@given(pos)
def test_log_mean_diagonal(s):
    assert log_mean(s, s) == s


def test_log_mean_boundary():
    assert log_mean(0.0, 3.0) == 0.0
    assert log_mean(2.0, 0.0) == 0.0
    assert log_mean(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        log_mean(-1.0, 1.0)


def test_log_mean_quadrature_oracle():
    # Lambda(s, t) = int_0^1 s^a t^(1-a) da, by 200-point Gauss-Legendre
    xs, ws = np.polynomial.legendre.leggauss(200)
    a = 0.5 * (xs + 1.0)

    def oracle(s, t):
        return 0.5 * np.sum(ws * np.exp(a * np.log(s) + (1 - a) * np.log(t)))

    rng = np.random.default_rng(0)
    for _ in range(200):
        s, t = 10.0 ** rng.uniform(-12, 12, 2)
        ref = oracle(s, t)
        assert abs(log_mean(s, t) - ref) <= 1e-12 * ref
    # near the diagonal, deep in the series branch
    for s in (1.0, 1e6, 1e-9):
        t = s * (1 - 1e-9)
        ref = oracle(s, t)
        assert abs(log_mean(s, t) - ref) <= 1e-12 * ref


def test_log_mean_is_the_partials_kernel():
    # one psi kernel: the same bits on both sides of its series cut at
    # |log(s/t)| = 2, near the diagonal and across decades of scale
    rng = np.random.default_rng(7)
    x = rng.choice([-1, 1], 4000) * 10.0 ** rng.uniform(-12, np.log10(30.0), 4000)
    x = np.concatenate([x, [0.0, 2.0, -2.0, np.nextafter(2.0, 0.0), -np.nextafter(2.0, 0.0)]])
    t = 10.0 ** rng.uniform(-12, 12, len(x))
    s = t * np.exp(x)
    assert np.array_equal(log_mean(s, t), log_mean_and_partials(s, t)[0])


def _log_mean_jet_reference(p, r):
    """(L, L_a, L_b, L_ab) of L = (p - r) / log(p / r) in a = log p, b = log r, at 50 digits."""
    with mpmath.workdps(50):
        a, b = mpmath.log(mpmath.mpf(p)), mpmath.log(mpmath.mpf(r))

        def L(a, b):
            return (mpmath.exp(a) - mpmath.exp(b)) / (a - b)

        return [
            float(mpmath.diff(L, (a, b), order)) for order in ((0, 0), (1, 0), (0, 1), (1, 1))
        ]


def test_log_mean_partials_mpmath():
    rng = np.random.default_rng(1)
    # |x| = |log(p/r)| from 1e-12 to 6 on both sides of the series cut at 2,
    # at scales r from 1e-3 to 1e3
    x = rng.choice([-1, 1], 400) * 10.0 ** rng.uniform(-12, np.log10(6.0), 400)
    x = np.concatenate([x, [2.0, -2.0, np.nextafter(2.0, 0.0), -np.nextafter(2.0, 0.0)]])
    r = 10.0 ** rng.uniform(-3, 3, len(x))
    p = r * np.exp(x)
    got = np.array(log_mean_and_partials(p, r))
    ref = np.array([_log_mean_jet_reference(a, b) for a, b in zip(p, r)]).T
    assert np.all(np.abs(got / ref - 1.0) <= 1e-14)
    # degree-1 homogeneity: lam_a + lam_b = lam to a few ulps, on both branches
    lam, lam_a, lam_b, _ = got
    assert np.any(np.abs(x) < 2.0) and np.any(np.abs(x) >= 2.0)
    assert np.all(np.abs(lam_a + lam_b - lam) <= 4 * np.spacing(lam))
    # symmetric point: both first partials are exactly half the mean
    lam, lam_a, lam_b, _ = log_mean_and_partials(np.array([2.0]), np.array([2.0]))
    assert lam[0] == 2.0 and lam_a[0] == 1.0 and lam_b[0] == 1.0


def test_action_density_cases():
    assert action_density(0.0, 0.0, 0.0) == 0.0
    assert action_density(1.0, 0.0, 0.0) == np.inf
    assert np.isclose(action_density(2.0, 1.0, 1.0), 1.0)  # u^2 / (4 * 1)


@given(st.floats(-5, 5), st.floats(-5, 5), pos, pos)
@settings(max_examples=200, deadline=None)
def test_action_density_convex_in_u(u1, u2, s, t):
    mid = action_density(0.5 * (u1 + u2), s, t)
    avg = 0.5 * (action_density(u1, s, t) + action_density(u2, s, t))
    assert mid <= avg + 1e-9 * max(avg, 1.0)


def test_dissipation_density():
    assert dissipation_density(1.0, 1.0) == 0.0
    assert dissipation_density(0.0, 0.0) == 0.0
    assert dissipation_density(0.0, 1.0) == np.inf
    s, t = 0.7, 2.3
    # (t - s)(log t - log s) = (log t - log s)^2 * Lambda
    assert np.isclose(
        dissipation_density(s, t), (np.log(t) - np.log(s)) ** 2 * log_mean(s, t)
    )
    assert dissipation_density(s, t) > 0


def test_mixture_pdf_normalized():
    rng = np.random.default_rng(2)
    mix = GaussianMixture(
        np.array([0.3, 0.7]),
        rng.standard_normal((2, 2)),
        np.array([np.eye(2) * 0.5, np.eye(2) * 1.5]),
    )
    # quadrature on a wide grid
    xs = np.linspace(-10, 10, 401)
    X, Y = np.meshgrid(xs, xs)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    total = mix.pdf(pts).sum() * (xs[1] - xs[0]) ** 2
    assert abs(total - 1.0) < 1e-6


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture(np.array([0.5, 0.6]), np.zeros((2, 2)), np.array([np.eye(2)] * 2))
    with pytest.raises(np.linalg.LinAlgError):
        GaussianMixture(np.array([1.0]), np.zeros((1, 2)), -np.eye(2)[None])


def test_ou_evolve_semigroup():
    mix = GaussianMixture(
        np.array([1.0]), np.array([[2.0, -1.0]]), (0.3 * np.eye(2))[None]
    )
    a = ou_evolve(ou_evolve(mix, 0.4), 0.6)
    b = ou_evolve(mix, 1.0)
    assert np.allclose(a.means, b.means)
    assert np.allclose(a.covs, b.covs)
    # t -> inf limit is the standard Gaussian
    far = ou_evolve(mix, 50.0)
    std = standard_mixture(2)
    assert np.allclose(far.means, std.means, atol=1e-15)
    assert np.allclose(far.covs, std.covs)


def test_involution_matrix_orthogonal():
    om = np.array([0.6, 0.8])
    T = collision_involution_matrix(om)
    assert np.allclose(T @ T, np.eye(4), atol=1e-14)
    assert np.allclose(T, T.T)


def test_ou_commutation_small():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        om = rng.standard_normal(d)
        om /= np.linalg.norm(om)
        m = 2
        A = rng.standard_normal((m, 2 * d, 2 * d))
        covs = np.einsum("mij,mkj->mik", A, A) + np.eye(2 * d)[None]
        w = rng.random(m)
        mix = GaussianMixture(w / w.sum(), rng.standard_normal((m, 2 * d)), covs)
        probes = rng.standard_normal((50, 2 * d))
        assert ou_commutation_residual(mix, om, 0.7, probes) <= 1e-10


def test_ou_commutation_dimension_check():
    mix = standard_mixture(3)
    with pytest.raises(ValueError):
        ou_commutation_residual(mix, np.array([1.0, 0.0]), 0.1, np.zeros((1, 3)))
