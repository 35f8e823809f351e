"""Each benchmark check passes on real output and fails on a corrupted copy.

    python3 -m pytest perfbench/test_checks.py

The corruptions are the smallest that a check should see: one velocity
off by one ulp, one event row dropped, a distance or a state perturbed.
Inputs are small (d=2, V/h=2 lattice; a few particles) so this runs in
seconds.
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run as runner  # noqa: E402
from boltzflow.cli import bimodal_mixture, run  # noqa: E402
from boltzflow.config import parse_config_dict  # noqa: E402
from boltzflow.forward import collision_operator, solve_forward  # noqa: E402
from boltzflow.jko import jko_step  # noqa: E402
from boltzflow.kac import EventLog, sample_initial, simulate  # noqa: E402
from boltzflow.kinematics import Kernel  # noqa: E402
from boltzflow.metric import solve_distance, w1_distance  # noqa: E402
from boltzflow.network import build_network, maxent_project, tilt_to_moments  # noqa: E402

TOL = 1e-8


@pytest.fixture(scope="module")
def lattice():
    net = build_network(2, 2.0, 1.0, Kernel("constant", b=1.0))
    feq = maxent_project(net)
    rng = np.random.Generator(np.random.Philox(3))

    def tilt():
        pert = feq * np.exp(0.25 * rng.standard_normal(net.n_nodes))
        return tilt_to_moments(net, pert, net.moments(feq))

    return net, feq, tilt(), tilt()


@pytest.fixture(scope="module")
def geodesic(lattice):
    net, _, a, b = lattice
    return solve_distance(net, a, b, K=4), solve_distance(net, b, a, K=4)


def test_cre_residual_sees_a_perturbed_path(lattice, geodesic):
    net = lattice[0]
    sol = geodesic[0]
    assert checks.check_cre(net, sol) == []
    path = sol.path.copy()
    path[1, 0] += 1e-9
    assert checks.check_cre(net, dataclasses.replace(sol, path=path))


def test_symmetry_sees_a_perturbed_distance(geodesic):
    ab, ba = geodesic
    assert checks.check_symmetry(ab.value, ba.value, TOL) == []
    assert checks.check_symmetry(ab.value, ba.value + 3 * TOL, TOL)


def test_w1_bound_sees_a_perturbed_distance(lattice, geodesic):
    net, _, a, b = lattice
    w1 = w1_distance(net, a, b)
    wb = geodesic[0].value
    assert checks.check_w1_bound(w1, wb, net.kernel, net.d) == []
    assert checks.check_w1_bound(w1, 1e-3 * wb, net.kernel, net.d)


def test_oracle_sees_a_perturbed_distance(lattice):
    pair = checks.oracle_pair(lattice[0], 5)
    value = checks.oracle_value(*pair)
    assert checks.check_oracle(*pair, value) == []
    assert checks.check_oracle(*pair, value * (1 + 1e-3))


def test_jko_checks_see_a_perturbed_step(lattice):
    net, _, a, _ = lattice
    tau = 4e-3
    steps = [jko_step(net, a, t, K=4) for t in (tau, tau / 2)]
    assert checks.check_jko(net, a, steps[0], tau) == []
    too_far = dataclasses.replace(steps[0], squared_distance=1.0)
    assert checks.check_jko(net, a, too_far, tau)
    moved = steps[0].state.copy()
    moved[0] *= 1 + 1e-6
    assert checks.check_jko(net, a, dataclasses.replace(steps[0], state=moved), tau)

    Q = collision_operator(net, a)
    defects = [checks.jko_defect(net, a, s.state, t, Q) for s, t in zip(steps, (tau, tau / 2))]
    assert checks.check_halving(*defects) == []
    assert checks.check_halving(defects[0], 0.9 * defects[0])


def test_collision_operator_check_sees_a_perturbed_rate(lattice):
    net, _, a, _ = lattice
    Q = collision_operator(net, a)
    assert checks.check_collision_operator(net, Q) == []
    Q[3] += 1e-9
    assert checks.check_collision_operator(net, Q)


def test_network_check_sees_a_broken_or_missing_quadruple(lattice):
    net = lattice[0]
    assert checks.check_network(net) == []
    quad = net.quad.copy()
    quad[0, 3] = (quad[0, 3] + 1) % net.n_nodes
    assert checks.check_network(dataclasses.replace(net, quad=quad))
    assert checks.check_network(dataclasses.replace(net, quad=net.quad[1:]))


def test_relaxation_check_sees_perturbed_states(lattice):
    net, feq, a, _ = lattice
    traj = solve_forward(net, a, 20.0)
    assert checks.check_relaxation(net, traj, feq, 1e-4) == []

    drift = traj.states.copy()
    drift[-1] *= 1 + 1e-8
    assert checks.check_relaxation(net, dataclasses.replace(traj, states=drift), feq, 1e-4)
    rising = traj.states.copy()
    rising[[1, -1]] = rising[[-1, 1]]
    assert checks.check_relaxation(net, dataclasses.replace(traj, states=rising), feq, 1e-4)
    short = solve_forward(net, a, 0.5)
    assert checks.check_relaxation(net, short, feq, 1e-4)


@pytest.fixture(scope="module")
def walk():
    kernel = Kernel("constant", b=1.0)
    state = sample_initial(16, bimodal_mixture(2, 1.3), 5)
    final, log = simulate(state, kernel, 20.0, 6)
    return state, final, log, kernel


def test_replay_sees_one_ulp_and_a_dropped_event(walk):
    state, final, log, _ = walk
    assert checks.check_replay(state.velocities, log, final.velocities) == []

    off = final.velocities.copy()
    off[7, 1] = np.nextafter(off[7, 1], np.inf)
    assert checks.check_replay(state.velocities, log, off)

    keep = np.ones(log.n_events, dtype=bool)
    keep[np.flatnonzero(log.accepted)[log.n_accepted // 2]] = False
    dropped = EventLog(log.times[keep], log.pairs[keep], log.omegas[keep],
                       log.accepted[keep], log.seed, log.kernel)
    assert checks.check_replay(state.velocities, dropped, final.velocities)


def test_sphere_and_clock_checks_see_corrupted_walks(walk):
    _, final, log, kernel = walk
    assert checks.check_sphere(final) == []
    assert checks.check_all_accepted(log) == []
    assert checks.check_poisson_clock(log.n_events, log.times, 16, 2, kernel, 20.0) == []

    scaled = type(final)(final.velocities * (1 + 1e-6))
    assert checks.check_sphere(scaled)
    rejected = log.accepted.copy()
    rejected[0] = False
    assert checks.check_all_accepted(dataclasses.replace(log, accepted=rejected))
    assert checks.check_poisson_clock(log.n_events, log.times, 16, 2, kernel, 10.0)
    assert checks.check_poisson_clock(log.n_events, log.times[::-1], 16, 2, kernel, 20.0)


def _kac_run(out: pathlib.Path):
    cfg = parse_config_dict({
        "network": {"d": 3},
        "kernel": {"kind": "clamp", "lo": 0.5, "hi": 2.0},
        "experiment": {"type": "kac", "N": 8, "T": 4.0, "replicates": 2, "ou_time": 0.1},
        "out": str(out),
        "seed": 11,
    })
    run(cfg)
    return lambda: checks.check_kac_run(str(out), 3, 8, 1.3, cfg.kernel.build(), 4.0)


def _drop_accepted_row(path: pathlib.Path):
    lines = path.read_text().splitlines(keepends=True)
    row = next(n for n, line in enumerate(lines[1:], 1) if line.rstrip().endswith(",1"))
    path.write_text("".join(lines[:row] + lines[row + 1:]))


def test_kac_run_check_sees_a_dropped_event_row(tmp_path):
    check = _kac_run(tmp_path)
    assert check() == []
    events = tmp_path / "events_001.csv"
    _drop_accepted_row(events)
    errors = check()
    assert any("sha256 of events_001.csv" in e for e in errors)
    assert any("replicate 1: replayed" in e for e in errors)

    # with the manifest rewritten to match, the replay alone still fails
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["files"]["events_001.csv"] = hashlib.sha256(events.read_bytes()).hexdigest()
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    errors = check()
    assert errors and not any("sha256" in e for e in errors)
    assert any("replicate 1: replayed" in e for e in errors)


def test_kac_run_check_sees_a_changed_file(tmp_path):
    check = _kac_run(tmp_path)
    with open(os.path.join(tmp_path, "summary.json"), "a", encoding="utf-8") as fh:
        fh.write(" ")
    assert any("sha256 of summary.json" in e for e in check())


class _OneOp:
    """A workload whose round is one operation, as in the Kac workloads."""

    def __init__(self, fn, check):
        self.fn, self.check = fn, check

    def round(self, ops):
        ops.run("op", self.fn, self.check)


def _slow_raise():
    runner.time.sleep(0.01)
    raise FloatingPointError("entropy rose")


def test_a_raised_or_wrong_operation_makes_the_run_incorrect():
    ops = runner.Ops(None)
    ops.round(_OneOp(lambda: 1.0, lambda v: []))
    assert ops.result({}) == {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}

    ops.round(_OneOp(_slow_raise, lambda v: []))
    result = ops.result({})
    assert result["correct"] is False and result["failed"] == 1
    assert ops.round_times[-1] >= 0.01  # a raising operation's time is still counted

    ops.round(_OneOp(lambda: 1.0, lambda v: ["wrong value"]))
    result = ops.result({})
    assert result["correct"] is False and result["failed"] == 2 and result["attempted"] == 3
