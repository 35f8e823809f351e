"""Command-line surface and reproducible run artifacts.

Each subcommand dispatches one experiment, writes CSV/JSON outputs to
the run directory, and finishes with a manifest recording the config
hash, a checksum inventory of every emitted file and what the solvers
report.

Exit codes: 0 success, 2 configuration error, 3 domain error,
4 numerical failure, one per class in `errors`; any other exception
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from ._table import csv_table
from .config import RunConfig, config_to_dict, parse_config, parse_config_dict
from .errors import ConfigError, DomainError, NumericalError
from .forward import energy_identity_report, solve_forward
from .jko import compare_to_forward, jko_trajectory
from .kac import (
    consistency_report,
    empirical_entropy,
    empirical_moments,
    sample_initial,
    simulate,
)
from .kinematics import Kernel
from .metric import SolverOptions, solve_distance
from .network import VelocityNetwork, build_network, maxent_project, tilt_to_moments
from .scalars import GaussianMixture

EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4


@dataclass
class RunManifest:
    config_hash: str
    version: str
    wall_clock: float
    config: dict  # config_to_dict(cfg), the dict config_hash is computed over
    files: dict  # name -> sha256
    stats: dict  # what the run's solvers report, kept out of the data files


def _config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _net(cfg: RunConfig) -> VelocityNetwork:
    return build_network(cfg.network.d, cfg.network.V, cfg.network.h,
                         cfg.kernel.build())


def _tilted_state(net: VelocityNetwork, amplitude: float, seed: int) -> np.ndarray:
    """Seeded positive perturbation of the equilibrium, moments restored."""
    feq = maxent_project(net)
    rng = np.random.Generator(np.random.Philox(seed))
    pert = feq * np.exp(amplitude * rng.standard_normal(net.n_nodes))
    return tilt_to_moments(net, pert, net.moments(feq))


def bimodal_mixture(d: int, speed: float, sigma2: float = None) -> GaussianMixture:
    """Symmetric two-bump mixture at +-speed e_1.

    With sigma2 = None the component variance is set so the mixture has
    energy d exactly (needed when particles are drawn from it); pass an
    explicit variance when only the lattice shape matters.
    """
    if sigma2 is None:
        if speed**2 >= d:
            raise DomainError(
                f"bimodal speed {speed} exceeds the energy budget for d={d}"
            )
        sigma2 = (d - speed**2) / d
    u = np.zeros(d)
    u[0] = speed
    return GaussianMixture(
        np.array([0.5, 0.5]), np.array([u, -u]),
        np.array([sigma2 * np.eye(d)] * 2),
    )


def density_from_mixture(net: VelocityNetwork, mix: GaussianMixture) -> np.ndarray:
    """Mixture pdf restricted to the nodes, tilted to (1, 0, d) moments."""
    pdf = mix.pdf(net.nodes)
    base = pdf / (net.node_weight * pdf.sum())
    targets = np.concatenate([[1.0], np.zeros(net.d), [float(net.d)]])
    return tilt_to_moments(net, base, targets)


# -- experiment runners ------------------------------------------------------


def _probe_times(times, T: float) -> list:
    """The probe times in [0, T] to report at; with none left, the final time T."""
    return [t for t in times if t <= T + 1e-12] or [T]


def _run_forward(cfg: RunConfig, write):
    net = _net(cfg)
    exp = cfg.experiment
    f0 = _tilted_state(net, exp["perturbation"], cfg.seed)
    max_step = exp["max_step"] if exp["max_step"] > 0 else np.inf
    traj = solve_forward(net, f0, exp["T"], dt_init=exp["dt_init"],
                         tol=exp["tol"], max_step=max_step)
    write("trajectory.csv", traj.to_csv())
    report = energy_identity_report(traj)
    write("report.json", {
        "steps": len(traj.times) - 1,
        "H_initial": traj.H[0],
        "H_final": traj.H[-1],
        "dissipation_final": traj.D[-1],
        "energy_identity_global_residual": report["global_residual"],
        "energy_identity_max_interval_residual": report["max_interval_residual"],
    })


def _run_distance(cfg: RunConfig, write):
    net = _net(cfg)
    exp = cfg.experiment
    feq = maxent_project(net)
    f1 = _tilted_state(net, exp["perturbation"], cfg.seed)
    sol = solve_distance(net, feq, f1, K=exp["K"],
                         opts=SolverOptions(tol=exp["tol"]))
    write("solution.json", {
        "value": sol.value,
        "squared": sol.squared,
        "kkt_residual": sol.kkt_residual,
        "iterations": sol.iterations,
        "floor_sensitivity": sol.floor_sensitivity,
        "slice_actions": sol.slice_actions.tolist(),
    })
    write("path.csv", csv_table(
        ["slice", *(f"node{v}" for v in range(net.n_nodes))],
        ["%d"] + ["%.17g"] * net.n_nodes,
        [np.arange(len(sol.path)), *sol.path.T],
    ))
    return {"distance": _solve_stats(sol.stop, sol.iterations, sol.hessian_builds)}


def _run_jko(cfg: RunConfig, write):
    net = _net(cfg)
    exp = cfg.experiment
    # unit-variance bumps keep the tails above metric.FLOOR only up to V = 4:
    # at d = 2, h = 1 the smallest entry is 4e-10 there and 2e-15 at V = 5
    f0 = density_from_mixture(net, bimodal_mixture(net.d, exp["bimodal_speed"], 1.0))
    opts = SolverOptions(tol=exp["tol"])
    traj = jko_trajectory(net, f0, exp["tau"], exp["T"], K=exp["K"], opts=opts)
    write("jko.csv", traj.to_csv())
    fwd = solve_forward(net, f0, exp["T"])
    probes = _probe_times(exp["probe_times"], exp["T"])
    write("comparison.json", compare_to_forward(traj, fwd, probes))
    return {"jko_steps": [_solve_stats(*step) for step in
                          zip(traj.stops, traj.iterations, traj.hessian_builds)]}


def _solve_stats(stop: str, iterations: int, hessian_builds: int) -> dict:
    """How one path solve stopped, for the manifest's stats block."""
    return {"stop": stop, "iterations": iterations, "hessian_builds": hessian_builds}


def _bimodal_walk(d, speed, N, T, kernel, seed, jump, record_times=None):
    """N particles drawn from the bimodal mixture and walked to T.

    The draw and the walk use Philox(seed) jumped `jump` times; returns
    that stream and what `simulate` returns.
    """
    rng = np.random.Generator(np.random.Philox(seed).jumped(jump))
    state = sample_initial(N, bimodal_mixture(d, speed), rng)
    return rng, simulate(state, kernel, T, rng, record_times=record_times)


def _kac_replicate(args):
    *walk, ou_time = args
    rng, (final, log) = _bimodal_walk(*walk)
    est, se = empirical_entropy(final, ou_time, seed=rng) if ou_time > 0 else (0.0, 0.0)
    mom = empirical_moments(final)
    return {
        "events": log.n_events,
        "accepted": log.n_accepted,
        "fourth": mom["fourth"],
        "second": mom["second"],
        "entropy": est,
        "entropy_se": se,
        "log_csv": log.to_csv(),
    }


def _parallel_map(fn, jobs, threads):
    if threads <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))


def _run_kac(cfg: RunConfig, write):
    exp = cfg.experiment
    kernel = cfg.kernel.build()
    jobs = [
        (cfg.network.d, exp["bimodal_speed"], exp["N"], exp["T"], kernel,
         cfg.seed, rep, exp["ou_time"])
        for rep in range(exp["replicates"])
    ]
    results = _parallel_map(_kac_replicate, jobs, cfg.threads)
    for rep, res in enumerate(results):
        write(f"events_{rep:03d}.csv", res.pop("log_csv"))
    write("summary.json", {
        "replicates": exp["replicates"],
        "derived_streams": [f"philox({cfg.seed}).jumped({r})"
                            for r in range(exp["replicates"])],
        "results": results,
    })


def _consistency_replicate(args):
    _, (_, _, snaps) = _bimodal_walk(*args)
    return snaps


def _run_consistency(cfg: RunConfig, write):
    exp = cfg.experiment
    kernel = cfg.kernel.build()
    d = cfg.network.d
    ref = build_network(d, cfg.network.V, exp["reference_h"], kernel)
    f0 = density_from_mixture(ref, bimodal_mixture(d, exp["bimodal_speed"]))
    probes = _probe_times(exp["probe_times"], exp["T"])
    fwd = solve_forward(ref, f0, max(max(probes), 1e-6))
    R = exp["replicates"]
    runs = {}
    for a, N in enumerate(exp["Ns"]):
        jobs = [(d, exp["bimodal_speed"], N, exp["T"], kernel, cfg.seed, a * R + r, probes)
                for r in range(R)]
        runs[N] = _parallel_map(_consistency_replicate, jobs, cfg.threads)
    report = consistency_report(runs, fwd, probes)
    rows = report["rows"]
    cells = [(t, r["N"], r["kac_mean"][a], 1.96 * r["per_time_se"][a], r["fwd"][a])
             for r in rows for a, t in enumerate(report["probe_times"])]
    write("report.csv", csv_table(
        ["time", "N", "kac_mean", "kac_ci", "fwd_value"], ["%.17g", "%d", "%.17g", "%.17g", "%.17g"],
        zip(*cells),
    ))
    write("report.json", {
        "monotone": report["monotone"],
        "separated": report["separated"],
        "discrepancies": [
            {"N": r["N"], "discrepancy": r["discrepancy"], "ci": r["ci"]}
            for r in rows
        ],
    })


def _run_network_build(cfg: RunConfig, write):
    write("network.json", _net(cfg).to_dict())


_RUNNERS = {
    "network": _run_network_build,
    "forward": _run_forward,
    "distance": _run_distance,
    "jko": _run_jko,
    "kac": _run_kac,
    "consistency": _run_consistency,
}


def _write(out: str, name: str, payload) -> str:
    """Write one run file, a CSV text as it is and anything else as JSON; its sha256."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=1, sort_keys=True)
    data = text.encode("utf-8")
    with open(os.path.join(out, name), "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def run(cfg: RunConfig, experiment_kind: str = None) -> RunManifest:
    """Dispatch the configured experiment and write outputs plus manifest."""
    kind = experiment_kind or cfg.experiment["type"]
    if kind != "network" and cfg.experiment["type"] != kind:
        raise ConfigError(
            f"config experiment.type {cfg.experiment['type']!r} does not match "
            f"requested command {kind!r}"
        )
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out}: {exc}") from exc
    files = {}

    def write(name: str, payload):
        files[name] = _write(cfg.out, name, payload)

    start = time.monotonic()
    stats = _RUNNERS[kind](cfg, write) or {}
    manifest = RunManifest(
        config_hash=_config_hash(cfg),
        version=__version__,
        wall_clock=time.monotonic() - start,
        config=config_to_dict(cfg),
        files=files,
        stats=stats,
    )
    _write(cfg.out, "manifest.json", asdict(manifest))
    return manifest


# -- selftest ----------------------------------------------------------------


def selftest() -> list:
    """Fast invariant battery; returns (name, ok, detail) triples."""
    from .forward import collision_operator, dissipation, entropy
    from .kinematics import collide
    from .metric import single_quadruple_oracle
    from .network import restrict_quadruples

    checks = []
    rng = np.random.default_rng(0)

    v, vs = rng.standard_normal((2, 100, 3))
    om = rng.standard_normal((100, 3))
    om /= np.linalg.norm(om, axis=1, keepdims=True)
    vp, vps = collide(v, vs, om)
    vb, vsb = collide(vp, vps, om)
    err = max(np.max(np.abs(vb - v)), np.max(np.abs(vsb - vs)))
    checks.append(("collision involution", err <= 1e-12, f"max error {err:.2e}"))

    net = build_network(2, 3, 1, Kernel("constant", b=1.0))
    checks.append(("network invariant count", net.invariants.shape[1] == net.d + 2,
                   f"dim {net.invariants.shape[1]}"))
    feq = maxent_project(net)
    q = collision_operator(net, feq)
    checks.append(("detailed balance", np.max(np.abs(q)) <= 1e-12,
                   f"|Q(f_eq)| {np.max(np.abs(q)):.2e}"))

    f0 = _tilted_state(net, 0.3, 1)
    traj = solve_forward(net, f0, 1.0)
    checks.append(("entropy monotone", bool(np.all(np.diff(traj.H) <= 1e-12)),
                   f"H: {traj.H[0]:.6f} -> {traj.H[-1]:.6f}"))
    drift = np.max(np.abs(traj.moments - traj.moments[0]))
    checks.append(("moment conservation", drift <= 1e-10, f"drift {drift:.2e}"))

    sub = restrict_quadruples(net, [0])
    i, j, k, l = sub.quad[0]
    g0 = np.full(net.n_nodes, 0.1)
    s = np.zeros(net.n_nodes)
    s[[i, j]] += 1.0
    s[[k, l]] -= 1.0
    g1 = g0 - 0.02 / sub.node_weight * s
    oracle = single_quadruple_oracle(sub, g0, g1)
    sol = solve_distance(sub, g0, g1, K=16)
    gap = abs(sol.value - oracle)
    checks.append(("metric vs 1-d oracle", gap <= 1e-4, f"gap {gap:.2e}"))

    D = dissipation(net, f0)
    H0 = entropy(net, f0)
    checks.append(("dissipation positive off equilibrium", D > 0,
                   f"D {D:.3e}, H {H0:.3f}"))
    return checks


# -- argument parsing --------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", type=str, default=None, help="JSON config path")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="overrides config seed")
    p.add_argument("--threads", type=int, default=None,
                   help="replicate-level worker count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boltzflow",
        description="Kinetic gradient-flow toolkit on finite velocity networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    net_cmd = sub.add_parser("network", help="velocity network utilities")
    net_sub = net_cmd.add_subparsers(dest="network_command", required=True)
    build_cmd = net_sub.add_parser("build", help="enumerate and export the network")
    _add_common(build_cmd)

    for name, desc in (
        ("forward", "integrate the collision dynamics"),
        ("distance", "collision distance between two states"),
        ("jko", "minimizing-movement scheme vs forward flow"),
        ("kac", "Kac N-particle random walk"),
        ("consistency", "Kac mean-field consistency report"),
    ):
        cmd = sub.add_parser(name, help=desc)
        _add_common(cmd)

    sub.add_parser("selftest", help="run the invariant battery")
    return parser


def _load_config(args, default_experiment: str) -> RunConfig:
    """The config file (or the default experiment) with the flags laid over it."""
    if args.config is not None:
        raw = config_to_dict(parse_config(args.config))
    else:
        raw = {"experiment": {"type": default_experiment}}
    for key in ("out", "seed", "threads"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    return parse_config_dict(raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            ok = True
            for name, passed, detail in selftest():
                ok &= bool(passed)
                print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
            return 0 if ok else EXIT_NUMERICAL
        if args.command == "network":
            cfg = _load_config(args, "forward")
            run(cfg, experiment_kind="network")
            print(f"network written to {cfg.out}")
            return 0
        cfg = _load_config(args, args.command)
        manifest = run(cfg, experiment_kind=args.command)
        print(f"{args.command} run complete in {manifest.wall_clock:.2f}s; "
              f"outputs in {cfg.out}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
