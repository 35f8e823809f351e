import numpy as np
import pytest

from boltzflow.cli import _tilted_state
from boltzflow.errors import DomainError
from boltzflow.forward import collision_operator, entropy, solve_forward
from boltzflow.jko import compare_to_forward, jko_step, jko_trajectory
from boltzflow.kinematics import Kernel
from boltzflow.metric import SolverOptions
from boltzflow.network import build_network

# jko_step(V/h = 4, tilt 0.25 seed 1, tau 0.1, K = 8) as solved before the
# Hessian was banded: 46 Newton iterations down to a KKT residual of 2.5e-9
WIDE_REFERENCE_STATE = [
    2.065886168952132e-08, 5.024189456101985e-07, 7.701365424799517e-06, 3.0360617795552374e-05,
    7.225994370697509e-05, 3.1833618195567136e-05, 8.210066994080779e-06, 4.405822299932347e-07,
    1.9685921784378012e-08, 8.22860182688025e-07, 2.4790321201748713e-05, 0.0002466750416209094,
    0.0018040778911183962, 0.001956291793318129, 0.0011453365594784098, 0.0003323867950124762,
    1.530065558411085e-05, 4.906084484468737e-07, 5.313966213876818e-06, 0.00022884293106038598,
    0.003116633386436401, 0.01159970584590689, 0.025087481969402376, 0.012407941765538152,
    0.003434800557863708, 0.00019764168416550894, 5.434427267300103e-06, 3.1164147879455475e-05,
    0.0010310733994569085, 0.017406268481478138, 0.05600952173473073, 0.09958687652949544,
    0.0488519955219534, 0.011064109471979132, 0.0007636285151182099, 2.2571587018587935e-05,
    7.173916310458393e-05, 0.002063917388101272, 0.016817947963355454, 0.09276574514963522,
    0.17623765811851944, 0.0765426670777148, 0.023981158813887783, 0.001929992288864076,
    3.959902461478404e-05, 1.9070813123440655e-05, 0.001028826730652708, 0.021577671716967062,
    0.046869359490758315, 0.10417683140103784, 0.07327494659271752, 0.017671375622497754,
    0.0012064108537339824, 2.19448946146927e-05, 6.601532457457945e-06, 0.00019322122039825763,
    0.0028666104459594203, 0.00870885097501278, 0.016180970170298764, 0.012719575047871088,
    0.0025207291069296663, 0.00018432876228737197, 5.101011330855231e-06, 4.774281054961498e-07,
    1.8715270106700647e-05, 0.00022847857436961082, 0.0009371847910911704, 0.0013404583135259642,
    0.0009626724241022828, 0.0001529699011476305, 1.254032009977853e-05, 6.866377535180569e-07,
    1.277672990170259e-08, 4.0710603921263696e-07, 4.900705868437485e-06, 3.925080257530542e-05,
    5.777870286435492e-05, 2.5701582511884628e-05, 5.944702385589122e-06, 4.3106454627569776e-07,
    1.0112724509321952e-08,
]
WIDE_REFERENCE_OBJECTIVE = -2.8220941588207893


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


@pytest.fixture(scope="module")
def wide():
    net = build_network(2, 4.0, 1.0, Kernel("constant"))
    return net, _tilted_state(net, 0.25, 1)


@pytest.mark.parametrize("tau", [4e-3, 1e-2, 0.1])
def test_wide_lattice_step_stops_at_its_roundoff_floor(wide, tau):
    # d=2, V/h=4: a few steps solve these problems, after which the
    # projected gradient wanders between 1e-9 and 3e-7 as rounding noise,
    # above the KKT target 0.3 tol; a loop that knew no roundoff floor ran
    # its 60 iterations and exited 4
    net, f = wide
    step = jko_step(net, f, tau, K=8)
    assert step.stop == "roundoff floor"
    assert step.objective <= entropy(net, f)
    assert np.max(np.abs(net.moments(step.state) - net.moments(f))) <= 1e-12


def test_wide_lattice_step_matches_its_reference(wide):
    # the tau = 0.1 step stops after a few iterations where the solve before
    # the banded Hessian took 46, at the same state to roundoff
    net, f = wide
    step = jko_step(net, f, 0.1, K=8)
    ref = np.array(WIDE_REFERENCE_STATE)
    assert np.max(np.abs(step.state - ref)) <= 1e-15 * np.max(ref)
    assert abs(step.objective - WIDE_REFERENCE_OBJECTIVE) <= 1e-15 * abs(WIDE_REFERENCE_OBJECTIVE)
