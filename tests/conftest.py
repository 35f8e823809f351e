import os

# one BLAS thread, set before numpy loads (OpenBLAS and OpenMP read these
# once, at import): the dense per-interval solves of the W_B and JKO tests
# run many times slower on two threads when another process holds a CPU
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from boltzflow.kinematics import Kernel  # noqa: E402
from boltzflow.network import build_network, maxent_project, tilt_to_moments  # noqa: E402


@pytest.fixture(scope="session")
def net():
    return build_network(2, 3.0, 1.0, Kernel("constant", b=1.0))


@pytest.fixture(scope="session")
def feq(net):
    return maxent_project(net)


@pytest.fixture(scope="session")
def tilted(net, feq):
    """Seeded moment-matched perturbations of the equilibrium."""

    def make(seed: int, amplitude: float = 0.3) -> np.ndarray:
        rng = np.random.Generator(np.random.Philox(seed))
        pert = feq * np.exp(amplitude * rng.standard_normal(net.n_nodes))
        return tilt_to_moments(net, pert, net.moments(feq))

    return make


def _two_sum(a, b):
    """Knuth's error-free sum: a + b == s + err exactly, elementwise."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _grow(expansion, b):
    """Shewchuk's Grow-Expansion: add b to a nonoverlapping expansion.

    Terms stay nonoverlapping and in increasing magnitude (zeros aside)
    under round-to-nearest-even, and their exact sum is unchanged.
    """
    out = []
    for e in expansion:
        b, h = _two_sum(b, e)
        out.append(h)
    return out + [b]


def _exact_sign(expansion):
    """Sign of a nonoverlapping expansion: that of its largest nonzero term."""
    sign = np.zeros(np.shape(expansion[0]))
    for e in expansion:
        sign = np.where(e != 0, np.sign(e), sign)
    return sign


def momentum_defect(v, v_star, vp, vp_star):
    """Exact per-component check of collide's momentum contract.

    Returns (within, ratio): within is True where the real-number defect
    |(v' + v'_*) - (v + v_*)| <= ulp(v')/2 + ulp(v'_*)/2, decided without
    rounding; ratio is defect / bound in binary64, for reports only.
    ulp(x) is np.spacing(|x|).  Both sides are doubled, which is exact
    for |x| < 2**1023, so the bound has no half-ulp underflow.
    """
    twice = [2.0 * vp]
    for b in (2.0 * vp_star, -2.0 * v, -2.0 * v_star):
        twice = _grow(twice, b)
    sign = _exact_sign(twice)
    ulps = np.spacing(np.abs(vp)), np.spacing(np.abs(vp_star))
    excess = [sign * e for e in twice]  # |2 defect|, still exact
    for u in ulps:
        excess = _grow(excess, -u)
    within = _exact_sign(excess) <= 0
    ratio = np.abs(sum(twice)) / (ulps[0] + ulps[1])
    return within, ratio


@pytest.fixture(scope="session")
def momentum_bound():
    """The exact momentum-defect check shared by unit and acceptance tests."""
    return momentum_defect
