import numpy as np
import pytest

from boltzflow.cli import bimodal_mixture
from boltzflow.kac import (
    ParticleState,
    _pair_from_index,
    empirical_entropy,
    empirical_moments,
    fourth_moment_of_density,
    sample_initial,
    simulate,
    stream,
)
from boltzflow.kinematics import SPHERE_SURFACE, Kernel
from boltzflow.scalars import standard_mixture

K1 = Kernel("constant", b=1.0)


def test_particle_state_validation():
    with pytest.raises(ValueError):
        ParticleState(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        ParticleState(np.zeros((4, 5)))


def test_sample_initial_on_kac_sphere():
    for d in (2, 3):
        st = sample_initial(50, standard_mixture(d), 0)
        mom_def, en_def = st.sphere_defects()
        assert mom_def <= 1e-13
        assert en_def <= 1e-13
        assert st.N == 50 and st.d == d


def test_sample_initial_deterministic():
    a = sample_initial(20, standard_mixture(2), 7)
    b = sample_initial(20, standard_mixture(2), 7)
    assert np.array_equal(a.velocities, b.velocities)


def test_simulate_deterministic_and_conservative():
    s0 = sample_initial(16, standard_mixture(2), 3)
    f1, log1 = simulate(s0, K1, 1.0, 42)
    f2, log2 = simulate(s0, K1, 1.0, 42)
    assert np.array_equal(f1.velocities, f2.velocities)
    assert np.array_equal(log1.times, log2.times)
    # invariants preserved over the whole run
    assert np.max(np.abs(f1.momentum() - s0.momentum())) <= 1e-12
    assert abs(f1.energy() - s0.energy()) <= 1e-10 * s0.energy()


@pytest.mark.parametrize("N", [2, 3, 64, 1024])
def test_pair_from_index_matches_triu(N):
    i, j = _pair_from_index(N, np.arange(N * (N - 1) // 2))
    ti, tj = np.triu_indices(N, 1)
    assert np.array_equal(i, ti) and np.array_equal(j, tj)


def test_event_count_matches_poisson_rate():
    N, T = 32, 4.0
    s0 = sample_initial(N, standard_mixture(2), 1)
    _, log = simulate(s0, K1, T, 5)
    mean = 0.5 * (N - 1) * 1.0 * SPHERE_SURFACE[2] * T
    # 5 sigma window around the Poisson mean
    assert abs(log.n_events - mean) <= 5.0 * np.sqrt(mean)
    # constant kernel: every proposal is accepted
    assert log.n_accepted == log.n_events


def test_thinning_rejects_for_clamp_kernel():
    k = Kernel("clamp", lo=0.5, hi=2.0)
    st = ParticleState(np.array([[0.5, 0.0], [-0.5, 0.0]]))  # relative speed 1
    _, log = simulate(st, k, 200.0, 9)
    frac = log.n_accepted / log.n_events
    # acceptance probability is B/c2 = 1/2 (relative speed is invariant)
    assert abs(frac - 0.5) <= 5.0 * np.sqrt(0.25 / log.n_events)


def test_snapshots(net):
    s0 = sample_initial(16, standard_mixture(2), 2)
    final, log, snaps = simulate(s0, K1, 1.0, 11, record_times=[0.0, 0.5, 1.0])
    assert len(snaps) == 3
    assert np.array_equal(snaps[0].velocities, s0.velocities)
    assert np.array_equal(snaps[-1].velocities, final.velocities)
    with pytest.raises(ValueError):
        simulate(s0, K1, 1.0, 11, record_times=[2.0])


def test_event_log_csv():
    s0 = sample_initial(8, standard_mixture(2), 4)
    _, log = simulate(s0, K1, 0.2, 13)
    lines = log.to_csv().strip().split("\n")
    assert lines[0] == "t,i,j,omegax,omegay,accepted"
    assert len(lines) == log.n_events + 1


def test_empirical_moments_hand_formula():
    st = ParticleState(np.array([[1.0, 0.0], [0.0, 2.0]]))
    m = empirical_moments(st)
    assert np.allclose(m["mean"], [0.5, 1.0])
    assert np.isclose(m["second"], (1.0 + 4.0) / 2)
    assert np.isclose(m["fourth"], (1.0 + 16.0) / 2)


def test_empirical_entropy_gaussian_reference():
    # large standard-normal cloud: smoothed entropy near the Gaussian value
    rng = stream(0)
    st = ParticleState(rng.standard_normal((4000, 2)))
    est, se = empirical_entropy(st, 0.05, n_samples=40000, seed=1)
    exact = -np.log(2 * np.pi) - 1.0  # E[log phi] for the standard 2-d Gaussian
    assert abs(est - exact) <= 0.05
    assert se < 0.02
    with pytest.raises(ValueError):
        empirical_entropy(st, 0.0)


def test_fourth_moment_of_density(net, feq):
    # unit-variance Maxwellian on the grid: E|v|^4 close to d(d+2) = 8
    m4 = fourth_moment_of_density(net, feq)
    assert abs(m4 - 8.0) < 0.5


def test_bimodal_mixture_energy():
    mix = bimodal_mixture(2, 1.3)
    # total energy d: sigma2*d + speed^2 = 2
    assert np.isclose(np.trace(mix.covs[0]) + np.sum(mix.means[0] ** 2), 2.0)
    with pytest.raises(ValueError):
        bimodal_mixture(2, 1.5)
