"""The damped Newton loop on synthetic objectives, one per way it can end."""

import numpy as np
import pytest

from boltzflow._newton import damped_newton
from boltzflow.errors import NumericalError

A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
B = np.array([1.0, -2.0, 0.5])


def quadratic(x):
    return 0.5 * x @ A @ x - B @ x, A @ x - B


def test_exact_quadratic_stops_at_target():
    x0 = np.zeros(3)
    x, point, kkt, iters, stop = damped_newton(
        quadratic, lambda p: np.linalg.solve(A, p[1]), x0, quadratic(x0), 1e-10, 1e-8, "q"
    )
    assert stop == "target" and iters == 1 and kkt <= 1e-10
    assert np.allclose(x, np.linalg.solve(A, B), rtol=1e-14, atol=0)
    assert point[0] == quadratic(x)[0]


def test_quantized_value_stops_at_roundoff_floor():
    # (x - 1)^2 / 2 rounded to 4 ulps of 1, its gradient off by a noise
    # that flips sign and grows at every evaluation: after the first step
    # the value cannot drop, the gradient does not shrink, and the Newton
    # decrement (below 1e-15) lies within the floor's slack
    ulps = 4 * np.finfo(float).eps
    calls = []

    def fun(x):
        calls.append(x)
        noise = (-1) ** len(calls) * 1e-8 * len(calls)
        return 1.0 + ulps * np.round(0.5 * (x[0] - 1.0) ** 2 / ulps), x - 1.0 + noise

    x0 = np.zeros(1)
    x, point, kkt, iters, stop = damped_newton(fun, lambda p: p[1], x0, fun(x0), 1e-12, 1e-6, "q")
    assert stop == "roundoff floor" and iters == 2 and len(calls) == 3
    assert point[0] == 1.0 and 1e-8 < kkt < 1e-7 and abs(x[0] - 1.0) < 1e-7


def test_ascent_direction_raises():
    # a step that climbs fails the line search down to the smallest damping:
    # a stall above the roundoff floor is never reported as solved
    x0 = np.zeros(3)
    with pytest.raises(NumericalError, match="q stalled: projected gradient"):
        damped_newton(
            quadratic, lambda p: -np.linalg.solve(A, p[1]), x0, quadratic(x0), 1e-10, 1e-8, "q"
        )


def test_iteration_cap_raises_above_tol():
    # a tenth of the Newton step on x^2 / 2 cuts the gradient by 0.9 per
    # iteration: after 60 it is 0.9^60 = 1.8e-3, above tol
    def fun(x):
        return 0.5 * x @ x, x.copy()

    x0 = np.ones(1)
    with pytest.raises(NumericalError, match="q stalled: projected gradient 1.80e-03"):
        damped_newton(fun, lambda p: 0.1 * p[1], x0, fun(x0), 1e-10, 1e-8, "q")
