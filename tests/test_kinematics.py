from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltzflow.errors import DomainError

from boltzflow.kinematics import SPHERE_SURFACE, Kernel, collide
from oracles import angular_integral, povzner_gap

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def unit(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(d)
    return g / np.linalg.norm(g)


@given(st.lists(finite, min_size=2, max_size=2),
       st.lists(finite, min_size=2, max_size=2),
       st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_involution_2d(v, vs, seed):
    v, vs = np.array(v), np.array(vs)
    om = unit(2, seed)
    vp, vps = collide(v, vs, om)
    vb, vsb = collide(vp, vps, om)
    assert np.max(np.abs(vb - v)) <= 1e-12
    assert np.max(np.abs(vsb - vs)) <= 1e-12


@given(st.lists(finite, min_size=3, max_size=3),
       st.lists(finite, min_size=3, max_size=3),
       st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_conservation_3d(momentum_bound, v, vs, seed):
    v, vs = np.array(v), np.array(vs)
    om = unit(3, seed)
    vp, vps = collide(v, vs, om)
    within, _ = momentum_bound(v, vs, vp, vps)
    assert within.all()
    e0 = np.sum(v**2) + np.sum(vs**2)
    e1 = np.sum(vp**2) + np.sum(vps**2)
    assert abs(e1 - e0) <= 1e-12 * max(e0, 1.0)


def momentum_defect_exact(v, vs, vp, vps):
    """Rational-arithmetic reference for the momentum_bound fixture."""
    within, ratio = [], []
    for a, b, c, e in zip(*(np.ravel(x) for x in (v, vs, vp, vps))):
        defect = abs(Fraction(c) + Fraction(e) - Fraction(a) - Fraction(b))
        bound = (Fraction(np.spacing(abs(c))) + Fraction(np.spacing(abs(e)))) / 2
        within.append(defect <= bound)
        ratio.append(float(defect / bound))
    return np.array(within), np.array(ratio)


def test_momentum_counterexample():
    # fl(v_x + v*_x) is an odd multiple of 2^-54, while v'_x and v'*_x lie
    # in [0.5, 1) with opposite signs: their sum is exact (Sterbenz) and a
    # multiple of 2^-53, so fl sums cannot agree; the half-ulp bound holds.
    v, vs = np.array([0.3, 1.0]), np.array([-0.28, -1.0])
    om = np.array([0.6, 0.8])
    assert np.hypot(*om) == 1.0
    vp, vps = collide(v, vs, om)
    assert Fraction(v[0] + vs[0]) * 2**54 % 2 == 1
    assert 0.5 <= -vp[0] < 1.0 and 0.5 <= vps[0] < 1.0
    assert vp[0] + vps[0] != v[0] + vs[0]
    within, _ = momentum_defect_exact(v, vs, vp, vps)
    assert within.all()


def _collide_skewed(v, vs, om):
    """collide with the shift applied to v_* scaled by 1 + 2^-40."""
    shift = np.sum((v - vs) * om, axis=-1, keepdims=True) * om
    return v - shift, vs + shift * (1.0 + 2.0**-40)


def test_momentum_bound_detects_skewed_shift(momentum_bound):
    v, vs = np.array([0.3, 1.0]), np.array([-0.28, -1.0])
    within, _ = momentum_bound(v, vs, *_collide_skewed(v, vs, np.array([0.6, 0.8])))
    assert not within.any()
    # the skew adds |s| 2^-40 against a bound near 2^-53 |v'|, so it shows
    # in every component but those where |s| < 2^-13 |v'|
    rng = np.random.default_rng(7)
    v, vs, om = rng.standard_normal((3, 1000, 3))
    om /= np.linalg.norm(om, axis=1, keepdims=True)
    within, _ = momentum_bound(v, vs, *collide(v, vs, om))
    assert within.all()
    within, _ = momentum_bound(v, vs, *_collide_skewed(v, vs, om))
    assert np.mean(within) < 0.01


def test_momentum_bound_matches_rational_reference(momentum_bound):
    rng = np.random.default_rng(11)
    m = 600
    scale = 2.0 ** rng.integers(-40, 40, (4, m))
    v, vs = scale[:2] * rng.standard_normal((2, m))
    vp, vps = scale[2:] * rng.standard_normal((2, m))
    # outputs of collide sit at or inside the bound; nudge them across it
    g = rng.standard_normal((m, 2))
    om = g / np.linalg.norm(g, axis=1, keepdims=True)
    cv, cvs = rng.standard_normal((2, m, 2))
    cp, cps = collide(cv, cvs, om)
    nudged = cps + rng.integers(-3, 4, cps.shape) * np.spacing(np.abs(cps))
    for args in ((v, vs, vp, vps), (cv, cvs, cp, cps), (cv, cvs, cp, nudged)):
        within, ratio = momentum_bound(*args)
        ref_within, ref_ratio = momentum_defect_exact(*args)
        assert np.array_equal(within.ravel(), ref_within)
        assert np.allclose(ratio.ravel(), ref_ratio, rtol=1e-12)
    assert 0 < np.sum(~ref_within) < ref_within.size


def test_collide_broadcasts():
    rng = np.random.default_rng(0)
    v, vs = rng.standard_normal((2, 100, 3))
    om = rng.standard_normal((100, 3))
    om /= np.linalg.norm(om, axis=1, keepdims=True)
    vp, vps = collide(v, vs, om)
    assert vp.shape == (100, 3)
    assert np.allclose(vp + vps, v + vs, atol=1e-12)


def test_relative_speed_preserved():
    rng = np.random.default_rng(5)
    v, vs = rng.standard_normal((2, 2))
    om = unit(2, 1)
    vp, vps = collide(v, vs, om)
    assert np.isclose(np.linalg.norm(vp - vps), np.linalg.norm(v - vs))


def test_non_unit_omega_rejected():
    with pytest.raises(ValueError, match="unit"):
        collide(np.zeros(2), np.ones(2), np.array([1.0, 1.0]))


def test_kernel_constant():
    k = Kernel("constant", b=2.5)
    assert k.lower == k.upper == 2.5
    assert float(k(np.array([3.0, 0.0]))) == 2.5
    assert np.isclose(k.angular_bound(2), 2.5 * 2 * np.pi)


def test_kernel_clamp_bounds():
    k = Kernel("clamp", lo=0.5, hi=2.0)
    speeds = np.array([[0.1, 0.0], [1.0, 0.0], [5.0, 0.0]])
    vals = k(speeds)
    assert np.allclose(vals, [0.5, 1.0, 2.0])
    assert np.all(vals >= k.lower) and np.all(vals <= k.upper)


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel("bogus")
    with pytest.raises(ValueError):
        Kernel("constant", b=0.0)
    with pytest.raises(ValueError):
        Kernel("clamp", lo=2.0, hi=1.0)
    # every parameter must be finite, whichever the kind reads
    for kind in ("constant", "clamp"):
        for field in ("b", "lo", "hi"):
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(DomainError, match="finite"):
                    Kernel(kind, **{field: value})


def test_angular_integral_constant():
    for d in (2, 3):
        k = Kernel("constant", b=1.5)
        assert np.isclose(angular_integral(k, np.zeros(d)), 1.5 * SPHERE_SURFACE[d])
        assert angular_integral(k, np.zeros(d)) <= k.angular_bound(d) + 1e-12


@given(st.integers(0, 10**6), st.floats(min_value=1e-3, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_povzner_bound(seed, R):
    rng = np.random.default_rng(seed)
    v, vs = rng.standard_normal((2, 3))
    om = unit(3, seed + 1)
    lhs, rhs = povzner_gap(v, vs, om, R)
    assert lhs <= 4.0 * rhs + 1e-12


def test_povzner_near_speed_truncation():
    rng = np.random.default_rng(2)
    v, vs = rng.standard_normal((2, 2))
    om = unit(2, 3)
    # R grazing each of the four speeds involved
    vp, vps = collide(v, vs, om)
    for u in (v, vs, vp, vps):
        R = np.linalg.norm(u) * (1 + 1e-6)
        lhs, rhs = povzner_gap(v, vs, om, R)
        assert lhs <= 4.0 * rhs

    with pytest.raises(ValueError):
        povzner_gap(v, vs, om, 0.0)
