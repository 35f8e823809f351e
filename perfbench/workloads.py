"""The four benchmark workloads, driven through boltzflow's public API.

A workload builds its inputs from the seed in `setup`, which the runner
times `setup_runs` times before each `round`; the last build is used.  A
round is a fixed list of operations, each timed and followed by its
checks (see checks.py).  Functions are looked up on their modules at
call time, so the traced run sees every call the workload makes.

Why these four: `geodesic` loads the W_B path solver and JKO, `relax-3d`
the lattice build and the collision operator, `kac-dense` the Kac walk
with every proposal accepted, and `kac-thinned` the walk with state-
dependent thinning behind the CLI, which also writes and hashes files.
"""

from __future__ import annotations

import json
import os

import numpy as np

import boltzflow.cli as cli
import boltzflow.config as config
import boltzflow.forward as forward
import boltzflow.jko as jko
import boltzflow.kac as kac
import boltzflow.metric as metric
import boltzflow.network as network
from boltzflow.kinematics import Kernel

import checks


def _stream(seed: int, jump: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed).jumped(jump))


def _tilted(net, feq, rng, amplitude):
    """Seeded positive perturbation of the Maxwellian, moments restored."""
    pert = feq * np.exp(amplitude * rng.standard_normal(net.n_nodes))
    return network.tilt_to_moments(net, pert, net.moments(feq))


class Geodesic:
    """W_B between seeded moment-matched tilts, both ways, and two JKO steps.

    d=2, V/h=3 (n=49, Q=640), constant kernel.  The JKO steps start from
    the bimodal state at tau and tau/2, so the first-order defect of the
    scheme can be checked to halve.
    """

    setup_runs = 5
    K = 8
    TOL = 1e-8
    TAU = 4e-3

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def setup(self):
        self.kernel = Kernel("constant", b=1.0)
        self.net = network.build_network(2, 3.0, 1.0, self.kernel)
        feq = network.maxent_project(self.net)
        rng = _stream(self.seed, 0)
        self.a = _tilted(self.net, feq, rng, 0.25)
        self.b = _tilted(self.net, feq, rng, 0.25)
        self.f_jko = cli.density_from_mixture(self.net, cli.bimodal_mixture(2, 1.2, 1.0))
        self.oracle_quad = int(rng.integers(self.net.n_quadruples))

    def round(self, ops):
        net, a, b, f = self.net, self.a, self.b, self.f_jko
        opts = metric.SolverOptions(tol=self.TOL)

        def check_ab(s):
            # the one-quadruple network is built here, untimed, not in set-up
            oracle = checks.oracle_pair(net, self.oracle_quad)
            return checks.check_cre(net, s) + checks.check_oracle(
                *oracle, checks.oracle_value(*oracle))

        ab = ops.run(
            "solve_distance",
            lambda: metric.solve_distance(net, a, b, K=self.K, opts=opts),
            check_ab,
        )
        ops.run(
            "solve_distance",
            lambda: metric.solve_distance(net, b, a, K=self.K, opts=opts),
            lambda s: checks.check_cre(net, s)
            + checks.check_symmetry(ab.value, s.value, self.TOL),
        )
        ops.run(
            "w1_distance",
            lambda: metric.w1_distance(net, a, b),
            lambda w1: checks.check_w1_bound(w1, ab.value, self.kernel, net.d),
        )
        Q = ops.run(
            "collision_operator",
            lambda: forward.collision_operator(net, f),
            lambda q: checks.check_collision_operator(net, q),
        )
        step = ops.run(
            "jko_step",
            lambda: jko.jko_step(net, f, self.TAU, K=self.K, opts=opts),
            lambda s: checks.check_jko(net, f, s, self.TAU),
        )
        half = self.TAU / 2
        ops.run(
            "jko_step",
            lambda: jko.jko_step(net, f, half, K=self.K, opts=opts),
            lambda s: checks.check_jko(net, f, s, half)
            + checks.check_halving(
                checks.jko_defect(net, f, step.state, self.TAU, Q),
                checks.jko_defect(net, f, s.state, half, Q),
            ),
        )


class Relax3d:
    """Forward relaxation of a seeded tilt to the Maxwellian.

    d=3, V/h=3 (n=343, Q=136686), constant kernel.  Set-up builds the
    lattice, the Maxwellian and the tilted state.
    """

    setup_runs = 1
    T = 6.0
    L1_TOL = 1e-4

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def setup(self):
        self.net = network.build_network(3, 3.0, 1.0, Kernel("constant", b=1.0))
        self.feq = network.maxent_project(self.net)
        self.f0 = _tilted(self.net, self.feq, _stream(self.seed, 0), 0.3)

    def round(self, ops):
        net, f0 = self.net, self.f0
        ops.run(
            "collision_operator",
            lambda: forward.collision_operator(net, f0),
            lambda q: checks.check_network(net) + checks.check_collision_operator(net, q),
        )
        ops.run(
            "solve_forward",
            lambda: forward.solve_forward(net, f0, self.T),
            lambda traj: checks.check_relaxation(net, traj, self.feq, self.L1_TOL),
        )


class KacDense:
    """Kac walk, N=4096, d=2, constant kernel: every proposal is accepted.

    Each round replays the same seeded walk (about 32k proposals), so
    rounds differ only in machine noise.
    """

    setup_runs = 5
    N = 4096
    T = 2.5

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.kernel = Kernel("constant", b=1.0)

    def setup(self):
        self.state = kac.sample_initial(self.N, cli.bimodal_mixture(2, 1.3), _stream(self.seed, 0))

    def round(self, ops):
        state = self.state

        def check(out):
            final, log = out
            return (
                checks.check_sphere(final)
                + checks.check_poisson_clock(log.n_events, log.times, self.N, 2, self.kernel, self.T)
                + checks.check_all_accepted(log)
                + checks.check_replay(state.velocities, log, final.velocities)
            )

        ops.run(
            "simulate",
            lambda: kac.simulate(state, self.kernel, self.T, _stream(self.seed, 1)),
            check,
        )


class KacThinned:
    """`boltzflow kac` through cli.run: d=3, clamp kernel, N=64, 4 replicates.

    About 12 % of proposals are rejected, disjoint runs are short,
    and each run writes event logs, a summary and a sha256 manifest.
    Set-up reads and validates the config file.
    """

    setup_runs = 21
    N = 64
    T = 8.0
    SPEED = 1.3

    def __init__(self, seed: int, out_dir: str):
        self.kernel = Kernel("clamp", lo=0.5, hi=2.0)
        self.path = os.path.join(out_dir, "kac.json")
        raw = {
            "network": {"d": 3, "V": 3.0, "h": 1.0},
            "kernel": {"kind": "clamp", "lo": 0.5, "hi": 2.0},
            "experiment": {"type": "kac", "N": self.N, "T": self.T, "replicates": 4,
                           "bimodal_speed": self.SPEED, "ou_time": 0.1},
            "out": os.path.join(out_dir, "kac"),
            "seed": seed,
            "threads": 1,
        }
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)

    def setup(self):
        self.cfg = config.parse_config(self.path)

    def round(self, ops):
        ops.run(
            "cli_run",
            lambda: cli.run(self.cfg),
            lambda _: checks.check_kac_run(self.cfg.out, 3, self.N, self.SPEED, self.kernel, self.T),
        )

    def bytes_written(self) -> int:
        return sum(e.stat().st_size for e in os.scandir(self.cfg.out) if e.is_file())


WORKLOADS = {
    "geodesic": Geodesic,
    "relax-3d": Relax3d,
    "kac-dense": KacDense,
    "kac-thinned": KacThinned,
}
