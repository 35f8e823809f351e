import numpy as np
import pytest

import boltzflow.forward
import oracles
from oracles import boltzmann_flux
from boltzflow.errors import DomainError
from boltzflow.forward import (
    ForwardTrajectory,
    collision_operator,
    dissipation,
    energy_identity_report,
    entropy,
    solve_forward,
)
from boltzflow.jko import jko_step, jko_trajectory
from boltzflow.metric import solve_distance, w1_distance
from boltzflow.network import VelocityNetwork, maxent_project, restrict_quadruples, tilt_to_moments


def test_collision_operator_conserves(net, tilted):
    f = tilted(0)
    q = collision_operator(net, f)
    w = net.node_weight
    assert abs(w * q.sum()) <= 1e-12
    assert np.max(np.abs(w * (q @ net.nodes))) <= 1e-12
    assert abs(w * np.sum(q * np.sum(net.nodes**2, axis=1))) <= 1e-12


def test_collision_operator_vanishes_at_equilibrium(net, feq):
    assert np.max(np.abs(collision_operator(net, feq))) <= 1e-12


def test_collision_operator_is_flux_divergence(net, tilted):
    f = tilted(4)
    q = collision_operator(net, f)
    rhs = net.div_bar(net.h ** (2 * net.d) * net.B_q * boltzmann_flux(net, f)) / net.node_weight
    assert np.allclose(q, rhs, atol=1e-15)


def test_collision_operator_matches_scatter_oracle(net, tilted):
    sub = restrict_quadruples(net, [0, 5, 17, 300])
    for g in (net, sub):
        for seed in (0, 1, 2):
            f = tilted(seed)
            ref = oracles.collision_operator(g, f)
            got = collision_operator(g, f)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_collision_operator_rejects_negative(net):
    with pytest.raises(ValueError):
        collision_operator(net, -np.ones(net.n_nodes))


def test_entropy_and_dissipation(net, feq, tilted):
    f = tilted(1)
    assert entropy(net, f) > entropy(net, feq)  # equilibrium minimizes H
    assert dissipation(net, f) > 0
    assert abs(dissipation(net, feq)) <= 1e-14
    # 0 log 0 convention
    g = np.zeros(net.n_nodes)
    g[0] = 1.0 / net.node_weight
    assert np.isfinite(entropy(net, g))


def test_forward_conservation_and_monotonicity(net, tilted):
    traj = solve_forward(net, tilted(2), 2.0)
    drift = np.max(np.abs(traj.moments - traj.moments[0]))
    assert drift <= 1e-10
    assert np.all(np.diff(traj.H) <= 1e-12)
    assert np.all(traj.D >= 0)


def test_forward_equilibrium_fixed_point(net, feq):
    traj = solve_forward(net, feq, 1.0)
    assert np.max(np.abs(traj.states[-1] - feq)) <= 1e-10


def test_forward_relaxes_toward_equilibrium(net, feq, tilted):
    traj = solve_forward(net, tilted(3), 8.0)
    l1_start = net.node_weight * np.sum(np.abs(traj.states[0] - feq))
    l1_end = net.node_weight * np.sum(np.abs(traj.states[-1] - feq))
    assert l1_end < 0.02 * l1_start


def test_forward_input_validation(net):
    with pytest.raises(ValueError):
        solve_forward(net, np.zeros(net.n_nodes), 1.0)


@pytest.mark.parametrize(
    "name, value",
    [
        ("T", np.inf), ("T", np.nan), ("T", -1.0),
        ("tol", np.nan), ("tol", 0.0), ("tol", np.inf),
        ("dt_init", -1.0), ("dt_init", np.nan), ("dt_init", np.inf),
        ("max_step", np.nan), ("max_step", 0.0), ("max_step", -1.0),
    ],
)
def test_forward_rejects_bad_times_and_tolerances(net, feq, name, value):
    with pytest.raises(DomainError):
        solve_forward(net, feq, **{"T": 0.5, name: value})


def _bad_states(net, feq):
    """States outside the domain: not finite, negative, or not one per node."""
    out = {
        "all-nan": np.full(net.n_nodes, np.nan),
        "all-inf": np.full(net.n_nodes, np.inf),
        "long": np.concatenate([feq, np.ones(5)]),
        "short": feq[:-1],
        "batched": feq[None],
        "scalar": np.array(1.0),
    }
    for name, value in (("one-nan", np.nan), ("one-inf", np.inf), ("negative", -1e-300)):
        out[name] = feq.copy()
        out[name][3] = value
    return out


# every public entry point that takes a state, the bad state in each slot
_STATE_FUNCTIONS = {
    "collision_operator": collision_operator,
    "entropy": entropy,
    "dissipation": dissipation,
    "solve_forward": lambda net, f: solve_forward(net, f, 0.1),
    "solve_distance-f0": lambda net, f: solve_distance(net, f, maxent_project(net), K=2),
    "solve_distance-f1": lambda net, f: solve_distance(net, maxent_project(net), f, K=2),
    "jko_step": lambda net, f: jko_step(net, f, 0.1, K=1),
    "jko_trajectory": lambda net, f: jko_trajectory(net, f, 0.1, 0.0),
    "w1_distance-f0": lambda net, f: w1_distance(net, f, maxent_project(net)),
    "w1_distance-f1": lambda net, f: w1_distance(net, maxent_project(net), f),
    "tilt_to_moments": lambda net, f: tilt_to_moments(net, f, [1.0, 0.0, 0.0, 2.0]),
}


@pytest.mark.parametrize(
    "case",
    ["all-nan", "one-nan", "all-inf", "one-inf", "negative", "long", "short", "batched", "scalar"],
)
@pytest.mark.parametrize("function", sorted(_STATE_FUNCTIONS))
def test_state_must_be_finite_nonnegative_and_one_per_node(net, feq, function, case):
    with pytest.raises(DomainError):
        _STATE_FUNCTIONS[function](net, _bad_states(net, feq)[case])


# the entry points that need a strictly positive state: the call, and the
# name its error gives the state
_POSITIVE_FUNCTIONS = {
    "solve_forward": (_STATE_FUNCTIONS["solve_forward"], "f0"),
    "solve_distance-f0": (_STATE_FUNCTIONS["solve_distance-f0"], "f0"),
    "solve_distance-f1": (_STATE_FUNCTIONS["solve_distance-f1"], "f1"),
    "jko_step": (_STATE_FUNCTIONS["jko_step"], "f_prev"),
    "jko_trajectory": (_STATE_FUNCTIONS["jko_trajectory"], "f0"),
    "tilt_to_moments": (_STATE_FUNCTIONS["tilt_to_moments"], "f0"),
}


@pytest.mark.parametrize("function", sorted(_POSITIVE_FUNCTIONS))
def test_state_must_be_strictly_positive(net, feq, function):
    # one zero entry; jko_trajectory checks f0 even when T = 0 takes no step
    call, arg = _POSITIVE_FUNCTIONS[function]
    f = feq.copy()
    f[3] = 0.0
    name = function.split("-")[0]
    with pytest.raises(DomainError, match=f"^{name} requires strictly positive {arg}$"):
        call(net, f)


def test_state_at_interpolates(net, tilted):
    traj = solve_forward(net, tilted(5), 1.0)
    assert np.array_equal(traj.state_at(0.0), traj.states[0])
    assert np.array_equal(traj.state_at(1.0), traj.states[-1])
    mid = traj.state_at(0.5)
    assert np.all(mid > 0)
    with pytest.raises(ValueError):
        traj.state_at(2.0)



def test_state_at_rejects_non_finite_time(net, tilted):
    traj = solve_forward(net, tilted(5), 0.5)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            traj.state_at(t)

def test_trajectory_csv(net, tilted):
    traj = solve_forward(net, tilted(6), 0.5)
    lines = traj.to_csv().strip().split("\n")
    assert lines[0] == "time,H,D,mass,px,py,energy"
    assert len(lines) == len(traj.times) + 1


def test_energy_identity_small_run(net, tilted):
    traj = solve_forward(net, tilted(7), 3.0, max_step=0.05)
    rep = energy_identity_report(traj)
    assert rep["global_residual"] <= 1e-6
    assert rep["max_interval_residual"] <= 1e-6


def test_energy_identity_odd_interval_count(net, tilted):
    # an odd number of steps: Simpson over the step pairs, then the
    # trapezoid rule on the last step
    full = solve_forward(net, tilted(7), 1.0, max_step=0.05)
    m = len(full.times) - (len(full.times) % 2 == 1)  # an even sample count
    traj = ForwardTrajectory(net, full.times[:m], full.states[:m], full.H[:m])
    t, D = traj.times, traj.D
    total = 0.0
    for a in range(0, m - 2, 2):  # Simpson's rule on a non-uniform triple
        h0, h1 = t[a + 1] - t[a], t[a + 2] - t[a + 1]
        total += (h0 + h1) / 6.0 * ((2.0 - h1 / h0) * D[a]
                                    + (h0 + h1) ** 2 / (h0 * h1) * D[a + 1]
                                    + (2.0 - h0 / h1) * D[a + 2])
    total += 0.5 * (D[-2] + D[-1]) * (t[-1] - t[-2])
    expected = abs(traj.H[-1] - traj.H[0] + total)
    rep = energy_identity_report(traj)
    assert (m - 1) % 2 == 1
    assert abs(rep["global_residual"] - expected) <= 1e-15
    assert rep["global_residual"] <= 1e-6


@pytest.mark.parametrize("dt_init", [1e-2, 2.0], ids=["no-rejection", "rejections"])
def test_forward_reuses_last_stage(net, tilted, monkeypatch, dt_init):
    # FSAL: bit for bit the seven-stage loop, with six Q(f) calls per attempt
    *ref, attempts, negative = oracles.solve_forward(net, tilted(2), 2.0, dt_init=dt_init)
    calls = []

    def spy(g, f):
        calls.append(1)
        return collision_operator(g, f)

    monkeypatch.setattr(boltzflow.forward, "collision_operator", spy)
    traj = solve_forward(net, tilted(2), 2.0, dt_init=dt_init)
    assert len(calls) == 1 + 6 * attempts
    if dt_init > 1:  # both rejection branches taken: negative entry and error
        assert negative >= 1 and attempts - negative > len(traj.times) - 1
    for got, want in zip((traj.times, traj.states, traj.H, traj.D, traj.moments), ref):
        assert np.array_equal(got, want)


def test_forward_derives_dissipation_and_moments_on_read(net, tilted, monkeypatch):
    # the solve integrates and checks the entropy; D and the moments wait
    # for their first read, which takes one call per state
    calls = {"dissipation": 0, "moments": 0}
    moments = VelocityNetwork.moments

    def count_dissipation(g, f):
        calls["dissipation"] += 1
        return dissipation(g, f)

    def count_moments(g, f):
        calls["moments"] += 1
        return moments(g, f)

    f0 = tilted(2)
    monkeypatch.setattr(boltzflow.forward, "dissipation", count_dissipation)
    monkeypatch.setattr(VelocityNetwork, "moments", count_moments)
    traj = solve_forward(net, f0, 1.0)
    assert calls == {"dissipation": 0, "moments": 0}
    m = len(traj.times)
    D, mom = traj.D, traj.moments
    assert calls == {"dissipation": m, "moments": m}
    assert traj.D is D and traj.moments is mom and calls == {"dissipation": m, "moments": m}
    assert np.array_equal(D, [dissipation(net, f) for f in traj.states])
    assert np.array_equal(mom, [moments(net, f) for f in traj.states])


def test_max_step_is_respected(net, tilted):
    traj = solve_forward(net, tilted(8), 1.0, max_step=0.01)
    assert np.max(np.diff(traj.times)) <= 0.01 + 1e-12
