import numpy as np
import pytest

from boltzflow.errors import DomainError
from boltzflow.forward import collision_operator, entropy, solve_forward
from boltzflow.jko import compare_to_forward, jko_step, jko_trajectory
from boltzflow.metric import SolverOptions


def test_equilibrium_is_fixed_point(net, feq):
    step = jko_step(net, feq, 0.1, K=4)
    assert np.max(np.abs(step.state - feq)) <= 1e-6
    assert step.squared_distance <= 1e-10


def test_step_decreases_objective_and_entropy(net, tilted):
    f = tilted(1)
    step = jko_step(net, f, 0.1, K=4)
    H_prev = entropy(net, f)
    assert step.entropy <= H_prev
    assert step.objective <= H_prev + 1e-7
    assert step.squared_distance > 0
    assert np.all(step.state > 0)
    # moments preserved by the proximal step
    assert np.max(np.abs(net.moments(step.state) - net.moments(f))) <= 1e-7


def test_single_step_consistency(net, tilted):
    # (f_step - f_prev)/tau approximates Q(f_prev) to first order in tau
    f = tilted(2)
    Q = collision_operator(net, f)
    w = net.node_weight
    defects = []
    for tau in (2e-2, 1e-2):
        step = jko_step(net, f, tau, K=4)
        defects.append(w * np.sum(np.abs((step.state - f) / tau - Q)))
    assert defects[1] <= 0.7 * defects[0]


def test_step_validation(net, tilted):
    with pytest.raises(ValueError):
        jko_step(net, np.zeros(net.n_nodes), 0.1)
    with pytest.raises(ValueError):
        jko_step(net, tilted(0), -0.1)


@pytest.mark.parametrize("tau", [0.0, -0.1, np.nan, np.inf])
def test_step_tau_rule(net, tilted, tau):
    with pytest.raises(DomainError, match="tau must be finite and positive"):
        jko_step(net, tilted(0), tau, K=4)


@pytest.mark.parametrize("tau, T, field", [
    (0.0, 0.2, "tau"), (-0.1, 0.2, "tau"), (np.nan, 0.2, "tau"), (np.inf, 0.2, "tau"),
    (0.1, -0.1, "T"), (0.1, np.nan, "T"), (0.1, np.inf, "T"),
])
def test_trajectory_input_rule(net, tilted, tau, T, field):
    # nothing is stepped, or silently skipped, for a time outside the rule
    with pytest.raises(DomainError, match=f"^{field} must be finite"):
        jko_trajectory(net, tilted(0), tau, T, K=4)


def test_trajectory_of_zero_time_has_no_steps(net, tilted):
    traj = jko_trajectory(net, tilted(0), 0.1, 0.0, K=4)
    assert traj.n_steps == 0 and np.array_equal(traj.states, [tilted(0)])


@pytest.mark.parametrize("K", [0, -1, 2.5, 1.0, True])
def test_step_slice_rule(net, tilted, K):
    # a JKO step needs an integer K >= 1: its free last slice
    with pytest.raises(DomainError, match="K must be an integer of at least 1"):
        jko_step(net, tilted(0), 0.1, K=K)


def test_trajectory_entropy_monotone(net, tilted):
    traj = jko_trajectory(net, tilted(3), 0.1, 0.3, K=4)
    assert traj.n_steps == 3
    assert np.all(np.diff(traj.entropies) <= 1e-10)
    assert np.all(traj.residuals <= 1e-8)


def test_interpolant_piecewise_constant(net, tilted):
    traj = jko_trajectory(net, tilted(4), 0.1, 0.2, K=4)
    assert np.array_equal(traj.interpolant(0.0), traj.states[0])
    assert np.array_equal(traj.interpolant(0.05), traj.states[1])
    assert np.array_equal(traj.interpolant(0.1), traj.states[1])
    assert np.array_equal(traj.interpolant(0.15), traj.states[2])
    assert np.array_equal(traj.interpolant(5.0), traj.states[-1])
    with pytest.raises(ValueError):
        traj.interpolant(-0.5)


def test_interpolant_rejects_non_finite_time(net, tilted):
    traj = jko_trajectory(net, tilted(5), 0.1, 0.2, K=4)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="time must be finite and nonnegative"):
            traj.interpolant(t)


def test_csv_shape(net, tilted):
    traj = jko_trajectory(net, tilted(5), 0.1, 0.2, K=4)
    lines = traj.to_csv().strip().split("\n")
    assert lines[0] == "n,t,H,step_distance,residual"
    assert len(lines) == len(traj.states) + 1


def test_csv_matches_per_step_rows(net, tilted):
    # the columns are formed whole; each row as it was written one step at a time
    traj = jko_trajectory(net, tilted(5), 0.07, 0.2, K=4)
    rows = ["n,t,H,step_distance,residual"]
    for m in range(len(traj.states)):
        dist = np.sqrt(traj.squared_moves[m - 1]) if m > 0 else 0.0
        resid = traj.residuals[m - 1] if m > 0 else 0.0
        rows.append(f"{m},{m * traj.tau:.17g},{traj.entropies[m]:.17g},{dist:.17g},{resid:.17g}")
    assert traj.to_csv() == "\n".join(rows) + "\n"


def test_compare_to_forward(net, tilted):
    f0 = tilted(6)
    traj = jko_trajectory(net, f0, 0.1, 0.2, K=4)
    fwd = solve_forward(net, f0, 0.2)
    rep = compare_to_forward(traj, fwd, [0.1, 0.2])
    assert rep["max_l1"] < 0.1
    assert rep["max_w1"] <= rep["max_l1"] * 10  # sanity scale only
    assert len(rep["rows"]) == 2


def test_compare_network_mismatch(net, tilted):
    from boltzflow.kinematics import Kernel
    from boltzflow.network import build_network, maxent_project

    other = build_network(2, 1.0, 1.0, Kernel("constant", b=1.0))
    g = maxent_project(other, energy=1.0)
    fwd = solve_forward(other, g, 0.1)
    traj = jko_trajectory(net, tilted(7), 0.1, 0.1, K=4, opts=SolverOptions(tol=1e-8))
    with pytest.raises(ValueError, match="different networks"):
        compare_to_forward(traj, fwd, [0.1])
