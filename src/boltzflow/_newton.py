"""The one damped Newton loop: the W_B path solver and the moment fit."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# the rounding slack of the floor test, in units of eps (|value| + 1)
FLOOR_ULPS = 8.0


def damped_newton(fun, newton_step, x, point, target, tol, name):
    """Minimize from x, whose evaluation `fun(x)` is `point`, by damped Newton.

    `fun(x)` returns (value, gradient, ...), the value +inf outside the
    domain, and `newton_step(point)` the Newton step H^-1 g at a point.
    Each iteration backtracks from the full step, halving it, until the
    value is at most value + 1e-12 (|value| + 1).  With kkt the largest
    gradient entry, the loop stops with reason
    - "target" once kkt <= target;
    - "roundoff floor" after an accepted full step that lowered the value
      by at most FLOOR_ULPS eps (|value| + 1), did not shrink kkt, and had
      a Newton decrement step.g / 2 within that slack too (Boyd and
      Vandenberghe, Convex Optimization, 9.5): the value is resolved to
      working precision and what is left of the gradient is rounding.
    A failed line search or 60 iterations end the loop with NumericalError
    if kkt > tol, else with reason "target".  Returns the point x, its
    evaluation, kkt, the iteration count and the reason.
    """
    kkt = float(np.max(np.abs(point[1])))
    iters = 0
    while iters < 60 and kkt > target:
        val, g = point[:2]
        step = newton_step(point)
        damp = 1.0
        while damp > 1e-8:
            cand = x - damp * step
            cand_point = fun(cand)
            if np.isfinite(cand_point[0]) and cand_point[0] <= val + 1e-12 * (abs(val) + 1.0):
                break
            damp *= 0.5
        else:
            break
        kkt_c = float(np.max(np.abs(cand_point[1])))
        slack = FLOOR_ULPS * np.finfo(float).eps * (abs(val) + 1.0)
        floor = (damp == 1.0 and val - cand_point[0] <= slack and kkt_c >= kkt
                 and step @ g / 2 <= slack)
        x, point, kkt = cand, cand_point, kkt_c
        iters += 1
        if floor:
            return x, point, kkt, iters, "roundoff floor"
    if kkt > tol:
        raise NumericalError(f"{name} stalled: projected gradient {kkt:.2e} > tol {tol:.2e}")
    return x, point, kkt, iters, "target"
