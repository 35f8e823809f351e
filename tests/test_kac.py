import numpy as np
import pytest
import scipy.special
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import boltzflow.kac
import oracles
from oracles import standard_mixture
from boltzflow.cli import bimodal_mixture
from boltzflow.errors import DomainError
from boltzflow.kac import (
    ParticleState,
    _logsumexp_rows,
    _pair_from_index,
    empirical_entropy,
    empirical_moments,
    fourth_moment_of_density,
    sample_initial,
    simulate,
    stream,
)
from boltzflow.kinematics import SPHERE_SURFACE, Kernel

K1 = Kernel("constant", b=1.0)
KC = Kernel("clamp", lo=0.5, hi=2.0)


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


def _expected_T(N, d, kernel, events):
    return events / (0.5 * (N - 1) * kernel.upper * SPHERE_SURFACE[d])


def _assert_bit_identical(got, ref):
    """Same event log, final state and snapshots, compared bit for bit."""
    assert len(got) == len(ref)
    log, ref_log = got[1], ref[1]
    assert log.pairs.dtype == np.int64 and log.accepted.dtype == bool
    for name in ("times", "pairs", "omegas", "accepted"):
        a, b = getattr(log, name), getattr(ref_log, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert log.seed == ref_log.seed and log.kernel == ref_log.kernel
    states = [got[0], *(got[2] if len(got) == 3 else [])]
    ref_states = [ref[0], *(ref[2] if len(ref) == 3 else [])]
    assert len(states) == len(ref_states)
    for s, r in zip(states, ref_states):
        assert s.velocities.tobytes() == r.velocities.tobytes()


@pytest.mark.parametrize("kernel", [K1, KC], ids=["constant", "clamp"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("N", [2, 7, 64, 4096])
def test_simulate_matches_per_event_oracle(N, d, kernel):
    # about 5000 proposals: every walk crosses the 4096-event chunk boundary
    T = _expected_T(N, d, kernel, 5000)
    s0 = sample_initial(N, standard_mixture(d), 100 + N)
    ref = oracles.simulate(s0, kernel, T, 21)
    assert ref[1].n_events > 4097
    _assert_bit_identical(simulate(s0, kernel, T, 21), ref)
    # the same walk cut exactly at its last event time, with records at that
    # end time and at event times on both sides of the chunk boundary
    times = ref[1].times
    end = times[-1]
    records = [end, 0.0, times[100], times[4095], times[4096], end / 3]
    _assert_bit_identical(
        simulate(s0, kernel, end, 21, record_times=records),
        oracles.simulate(s0, kernel, end, 21, record_times=records),
    )


@pytest.mark.parametrize("records", [None, [0.0]])
def test_simulate_at_time_zero_matches_oracle(records):
    s0 = sample_initial(7, standard_mixture(3), 5)
    got = simulate(s0, KC, 0.0, 3, record_times=records)
    _assert_bit_identical(got, oracles.simulate(s0, KC, 0.0, 3, record_times=records))
    assert got[1].n_events == 0 and got[1].omegas.shape == (0, 3)


@pytest.mark.parametrize("kernel", [K1, KC], ids=["constant", "clamp"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("N", [64, 4096])
def test_simulate_record_dense_matches_oracle(N, d, kernel):
    # 40 records inside the first chunk: at event times, duplicated, and
    # between two events, so many barriers cut the chunk's levels
    T = _expected_T(N, d, kernel, 5000)
    s0 = sample_initial(N, standard_mixture(d), 200 + N)
    times = oracles.simulate(s0, kernel, T, 23)[1].times
    pos = np.sort(np.random.default_rng(N + d).choice(np.arange(1, 4095), 25, replace=False))
    records = [*times[pos], *times[pos[::5]], *(0.5 * (times[pos[:10]] + times[pos[:10] + 1]))]
    assert len(records) == 40 and max(records) < times[4095]
    _assert_bit_identical(
        simulate(s0, kernel, T, 23, record_times=records),
        oracles.simulate(s0, kernel, T, 23, record_times=records),
    )


@seed(9)
@settings(max_examples=25, deadline=None)
@given(
    N=st.integers(2, 300),
    d=st.sampled_from([2, 3]),
    kernel=st.sampled_from([K1, KC]),
    events=st.floats(0.0, 9000.0),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=8),
    walk=st.integers(0, 2**32 - 1),
)
def test_simulate_matches_oracle_property(N, d, kernel, events, fractions, walk):
    T = _expected_T(N, d, kernel, events)
    s0 = sample_initial(N, standard_mixture(d), walk)
    records = [f * T for f in fractions]
    _assert_bit_identical(
        simulate(s0, kernel, T, walk, record_times=records),
        oracles.simulate(s0, kernel, T, walk, record_times=records),
    )


@pytest.mark.parametrize("records", [None, [0.5, 0.5, 1.0, 2.0]])
def test_simulate_applies_one_collide_per_level(monkeypatch, records):
    # a kac-dense-sized walk: N=4096, constant kernel, about 32k proposals
    rows = []
    collide = boltzflow.kac._collide

    def spy(v, v_star, omega):
        rows.append(len(omega))
        return collide(v, v_star, omega)

    monkeypatch.setattr(boltzflow.kac, "_collide", spy)
    s0 = sample_initial(4096, bimodal_mixture(2, 1.3), 7)
    log = simulate(s0, K1, 2.5, 8, record_times=records)[1]
    assert 30000 < log.n_events and sum(rows) == log.n_accepted
    assert len(rows) == oracles.kac_levels(log, 4096, records)
    assert 100 * len(rows) < log.n_events


@pytest.mark.parametrize("kernel", [K1, KC], ids=["constant", "clamp"])
def test_kernel_sees_only_undecided_proposals(monkeypatch, kernel):
    s0 = sample_initial(64, standard_mixture(3), 12)
    T = _expected_T(64, 3, kernel, 9000)
    ref = oracles.simulate(s0, kernel, T, 14)
    rows = []
    call = Kernel.__call__

    def spy(self, k):
        rows.append(len(k))
        return call(self, k)

    monkeypatch.setattr(Kernel, "__call__", spy)
    got = simulate(s0, kernel, T, 14)
    _assert_bit_identical(got, ref)
    u = oracles.thinning_uniforms(64, 3, kernel, 14, got[1].n_events)
    undecided = int(np.sum(u * kernel.upper >= kernel.lower))
    assert len(u) > 8192 and sum(rows) == undecided
    # the constant kernel is never evaluated: u * b < b for every draw
    assert (rows == []) == (kernel.kind == "constant")


def test_simulate_checks_directions_once_per_chunk(monkeypatch):
    shapes = []
    check = boltzflow.kac._check_unit

    def spy(omega):
        shapes.append(np.shape(omega))
        return check(omega)

    monkeypatch.setattr(boltzflow.kac, "_check_unit", spy)
    s0 = sample_initial(64, standard_mixture(2), 6)
    _, log = simulate(s0, K1, _expected_T(64, 2, K1, 9000), 8)
    assert 8192 < log.n_events
    assert shapes == [(4096, 2)] * (log.n_events // 4096 + 1)


@pytest.mark.parametrize("d, kernel, T", [(2, K1, 0.5), (3, KC, 0.5), (3, KC, 0.0)])
def test_event_log_csv_matches_row_writer(d, kernel, T):
    s0 = sample_initial(16, standard_mixture(d), 9)
    _, log = simulate(s0, kernel, T, 17)
    assert log.to_csv().encode() == oracles.event_log_csv(log).encode()


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


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_empirical_entropy_rejects_clouds_too_large_for_binary64(scale):
    # |v|^2 overflows: the estimate would be (nan, nan)
    st = ParticleState(scale * stream(4).standard_normal((16, 3)))
    with pytest.raises(DomainError, match="too large"):
        empirical_entropy(st, 0.1, n_samples=1000)


def test_logsumexp_rows_matches_scipy():
    rng = stream(3)
    for scale in (0.1, 1.0, 30.0, 300.0):
        a = -scale * rng.random((2000, 64))
        a[::7, 5] = a[::7].max(axis=1)  # a tie with the row maximum
        a[::11, :4] = 0.25  # four tied maxima
        a[3] = -1.0  # a row of equal entries
        got, ref = _logsumexp_rows(a), scipy.special.logsumexp(a, axis=1)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("N, d", [(64, 2), (64, 3), (500, 3)])
def test_empirical_entropy_matches_scipy_reference(N, d):
    state = sample_initial(N, bimodal_mixture(d, 1.3), 40 + N)
    got = empirical_entropy(state, 0.1, n_samples=9000, seed=5)
    assert got == oracles.empirical_entropy(state, 0.1, n_samples=9000, seed=5)



@pytest.mark.parametrize(
    "N, d, n_samples, duplicated",
    [
        (64, 3, 100000, False),  # the kac command's size
        (500, 3, 4001, False),  # BLAS rounds by block rows here; a partial last block
        (500, 2, 2001, True),  # every row ties
        (64, 3, 3, True),
    ],
)
def test_empirical_entropy_bitwise_oracle(N, d, n_samples, duplicated):
    state = sample_initial(N, bimodal_mixture(d, 1.3), 40 + N)
    if duplicated:
        half = state.velocities[: N // 2]
        state = ParticleState(np.concatenate([half, half]))
    ours, theirs = stream(5), stream(5)
    got = empirical_entropy(state, 0.1, n_samples=n_samples, seed=ours)
    assert got == oracles.empirical_entropy(state, 0.1, n_samples=n_samples, seed=theirs)
    assert ours.random() == theirs.random()  # the same draws were taken


def test_logsumexp_rows_leaves_input_unchanged():
    rng = stream(4)
    a = -30.0 * rng.random((500, 64))
    a[::3, :2] = 0.5  # two tied maxima
    for scratch in ({}, {"diff": np.full_like(a, np.nan), "tied": np.ones(a.shape, dtype=bool)}):
        for rows in (a, a[::3]):
            before = rows.copy()
            got = _logsumexp_rows(rows, **{k: b[: len(rows)] for k, b in scratch.items()})
            assert rows.tobytes() == before.tobytes()
            assert got.tobytes() == scipy.special.logsumexp(rows, axis=1).tobytes()


@pytest.mark.parametrize("ou_time", [0.0, -1.0, np.nan, -np.inf, 1e-20])
def test_empirical_entropy_rejects_ou_time(ou_time):
    with pytest.raises(DomainError):
        empirical_entropy(sample_initial(8, standard_mixture(2), 1), ou_time)


@pytest.mark.parametrize("n_samples", [1, 0, -5, 2.0, True, "100"])
def test_empirical_entropy_rejects_n_samples(n_samples):
    with pytest.raises(DomainError):
        empirical_entropy(sample_initial(8, standard_mixture(2), 1), 0.1, n_samples=n_samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_particle_state_rejects_non_finite(bad):
    v = np.zeros((4, 3))
    v[2, 1] = bad
    with pytest.raises(DomainError):
        ParticleState(v)


@pytest.mark.parametrize(
    "T, records", [(np.inf, None), (np.nan, None), (-1.0, None), (1.0, [0.5, np.nan]), (1.0, [np.inf])]
)
def test_simulate_rejects_non_finite_times(T, records):
    with pytest.raises(DomainError):
        simulate(sample_initial(8, standard_mixture(2), 1), K1, T, 3, record_times=records)

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
