"""boltzflow benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload geodesic --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; boltzflow is imported from its
`src/` directory, never from an installed copy.  With --trace 0 the last
stdout line holds the end-to-end metrics, with --trace 1 the per-layer
metrics taken from spans around boltzflow's public functions (see
tracing.py).  Progress and failures go to stderr.  BLAS runs on one
thread and the benchmark starts no threads or processes of its own.
"""

import os

# pinned before numpy loads: OpenBLAS and OpenMP read these once, at import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAMES = ("geodesic", "relax-3d", "kac-dense", "kac-thinned")


class Ops:
    """Times a round's operations and counts attempts and failures.

    An operation fails if it raises or if its check reports a problem;
    checks run untimed and, in a traced run, untraced.  A raised
    operation's time still counts in its round.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.round_times = []
        self._round = 0.0

    def round(self, workload):
        self._round = 0.0
        workload.round(self)
        self.round_times.append(self._round)

    def run(self, name, fn, check):
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = fn()
        except Exception:  # a failed operation is counted, the run goes on
            self._round += time.perf_counter() - start
            self.failed += 1
            print(f"{name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        self._round += time.perf_counter() - start
        paused = self.tracer.paused() if self.tracer else contextlib.nullcontext()
        with paused:
            try:
                errors = check(value)
            except Exception:
                errors = [f"check raised:\n{traceback.format_exc()}"]
        if errors:
            self.failed += 1
            print(f"{name} failed its checks: {'; '.join(errors)}", file=sys.stderr)
        return value

    def result(self, metrics: dict) -> dict:
        """The run's result line: correct only if no operation failed."""
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer, workload) -> dict:
    """Per-layer figures from the spans; 0 for layers the workload skips."""
    dur = lambda name: [s.duration for s in tracer.named(name)]  # noqa: E731
    solves = tracer.named("forward.solve_forward")
    sims = tracer.named("kac.simulate")
    runs = tracer.named("cli.run")
    proposals = sum(s.counts["proposals"] for s in sims)
    accepted = sum(s.counts["accepted"] for s in sims)
    collides = [tracer.child_spans(s, "kinematics.collide") for s in sims]
    net = getattr(workload, "net", None)
    out = {
        "network.build_s": (_median(dur("network.build_network")), "s"),
        "network.maxent_s": (_median(dur("network.maxent_project")), "s"),
        "network.quadruples": (net.n_quadruples if net is not None else 0, "count"),
        "forward.solve_s": (_median([s.duration for s in solves]), "s"),
        "forward.steps_accepted": (_median([s.counts["steps"] for s in solves]), "count"),
        "forward.steps_per_s": (
            _median([s.counts["steps"] / s.duration for s in solves]), "1/s"),
        "forward.dissipation_s": (_median(
            [sum(c.duration for c in tracer.child_spans(s, "forward.dissipation"))
             for s in solves]), "s"),
        "forward.collision_operator_ms": (
            1e3 * _median(dur("forward.collision_operator")), "ms"),
        "metric.solve_distance_s": (_median(dur("metric.solve_distance")), "s"),
        "metric.iterations": (_median(
            [s.counts["iterations"] for s in tracer.named("metric.solve_distance")]), "count"),
        "metric.kkt_residual": (max(
            [s.counts["kkt"] for s in tracer.named("metric.solve_distance")], default=0.0), "1"),
        "metric.w1_distance_s": (_median(dur("metric.w1_distance")), "s"),
        "jko.step_s": (_median(dur("jko.jko_step")), "s"),
        "jko.iterations": (_median(
            [s.counts["iterations"] for s in tracer.named("jko.jko_step")]), "count"),
        "kac.simulate_s": (_median([s.duration for s in sims]), "s"),
        "kac.proposals": (_median([s.counts["proposals"] for s in sims]), "count"),
        "kac.accepted": (_median([s.counts["accepted"] for s in sims]), "count"),
        "kac.acceptance_ratio": (accepted / proposals if proposals else 0.0, "1"),
        "kac.sample_initial_s": (_median(dur("kac.sample_initial")), "s"),
        "kac.event_log_csv_s": (_median(dur("kac.EventLog.to_csv")), "s"),
        "kac.entropy_estimate_s": (_median(dur("kac.empirical_entropy")), "s"),
        "kinematics.collide_calls": (_median([len(c) for c in collides]), "count"),
        "kinematics.collide_s": (
            _median([sum(s.duration for s in c) for c in collides]), "s"),
        "cli.run_s": (_median([s.duration for s in runs]), "s"),
        "cli.self_s": (_median([tracer.self_time(s) for s in runs]), "s"),
        "cli.bytes_written": (
            workload.bytes_written() if hasattr(workload, "bytes_written") else 0, "B"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def _import_boltzflow() -> bool:
    """Import boltzflow from this checkout's src/; False if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import boltzflow
    except ImportError as exc:
        print(f"cannot import boltzflow from {src}: {exc}", file=sys.stderr)
        return False
    where = pathlib.Path(boltzflow.__file__).resolve()
    if src.resolve() not in where.parents:
        print(f"boltzflow was imported from {where}, not from {src}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not _import_boltzflow():
        return 2
    import tracing
    import workloads

    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
        tracer = tracing.Tracer() if args.trace else None
        ops = Ops(tracer)
        setup_times = []
        with tracer.installed() if tracer else contextlib.nullcontext():
            # set-up is repeated before every round, so that its samples
            # spread over the run like the rounds' samples do
            start = time.perf_counter()
            while not ops.round_times or time.perf_counter() - start < args.seconds:
                for _ in range(workload.setup_runs):
                    begin = time.perf_counter()
                    workload.setup()
                    setup_times.append(time.perf_counter() - begin)
                ops.round(workload)
        if tracer:
            metrics = layer_metrics(tracer, workload)
        else:
            metrics = {
                "setup_s": {"value": _median(setup_times), "unit": "s"},
                "run_s": {"value": _median(ops.round_times), "unit": "s"},
                "peak_rss_mib": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MiB",
                },
            }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {len(ops.round_times)} rounds, "
        f"run_s {_median(ops.round_times):.4f}, setup_s {_median(setup_times):.4f}; "
        f"rounds {' '.join(f'{t:.3f}' for t in ops.round_times)}",
        file=sys.stderr,
    )
    print(json.dumps(ops.result(metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
