import hashlib
import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import boltzflow.cli
import boltzflow.metric
from boltzflow._table import csv_table
from boltzflow.cli import (
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_NUMERICAL,
    _config_hash,
    _probe_times,
    main,
    run,
    selftest,
)
from boltzflow.config import parse_config_dict


def _cfg(tmp_path, etype, **kw):
    return parse_config_dict(
        {"experiment": {"type": etype, **kw}, "out": str(tmp_path / "out")}
    )


_KAC_THINNED = {
    "network": {"d": 3, "V": 3.0, "h": 1.0},
    "kernel": {"kind": "clamp", "lo": 0.5, "hi": 2.0},
    "experiment": {"type": "kac", "N": 64, "T": 8.0, "replicates": 4,
                   "bimodal_speed": 1.3, "ou_time": 0.1},
    "seed": 1,
    "threads": 1,
}


@pytest.mark.parametrize("raw, digest", [
    ({"experiment": {"type": "forward"}},
     "82b77338f97df5e5f419fa8be238c39515cc8863156179e2501f8b41bcbe209d"),
    ({"experiment": {"type": "distance"}},
     "5d065b088da26254d4c4074d36447c530ba59530b6f105c7b07c159fb846f101"),
    ({"experiment": {"type": "jko"}},
     "aeafdba293b49feae73432f3d1555bb9d96971e69adfe29c46640a88c86ecbef"),
    ({"experiment": {"type": "kac"}},
     "179a06707bc323a13e86d1384cfb669db61bbae9bb7e97fc4bb1e8e363bf4e09"),
    ({"experiment": {"type": "consistency"}},
     "8e30f42439d4a188239fae674bc46c5abc2a7968113405f43f1e37b9ba475716"),
    (_KAC_THINNED, "d596a75724561f751c90b8bff0a9cbb2f8952f5a5eddcaf7855d07474867350a"),
], ids=["forward", "distance", "jko", "kac", "consistency", "kac-clamp-d3"])
def test_config_hash_is_pinned(raw, digest):
    # manifests of earlier runs stay comparable: the hash of a config never moves
    assert _config_hash(parse_config_dict(raw)) == digest


def test_selftest_all_pass():
    checks = selftest()
    assert all(ok for _, ok, _ in checks)


@pytest.mark.parametrize("flag", ["--config", "--out", "--seed", "--threads"])
def test_selftest_takes_no_run_flags(capsys, flag):
    # the battery reads no config and writes nothing, so argparse rejects
    # the run flags with its usage error
    with pytest.raises(SystemExit) as exc:
        main(["selftest", flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, etype, fields, files", [
    ("network", "forward", {}, {"network.json"}),
    ("forward", "forward", {"T": 0.5}, {"trajectory.csv", "report.json"}),
    ("distance", "distance", {"K": 4}, {"path.csv", "solution.json"}),
    ("jko", "jko", {"T": 0.2, "K": 2}, {"jko.csv", "comparison.json"}),
    ("kac", "kac", {"N": 8, "T": 0.2, "replicates": 2},
     {"events_000.csv", "events_001.csv", "summary.json"}),
    ("consistency", "consistency", {"Ns": [4, 8], "replicates": 2, "T": 0.05},
     {"report.csv", "report.json"}),
], ids=["network", "forward", "distance", "jko", "kac", "consistency"])
def test_run_forward_writes_manifest(tmp_path, command, etype, fields, files):
    # each manifest digest is the sha256 of the bytes on disk
    cfg = _cfg(tmp_path, etype, **fields)
    manifest = run(cfg, experiment_kind=command)
    out = cfg.out
    assert set(manifest.files) == files
    for name, digest in manifest.files.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
    with open(os.path.join(out, "manifest.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk["config_hash"] == manifest.config_hash
    assert on_disk["files"] == manifest.files
    assert on_disk["version"]
    # the manifest keeps the config its hash is computed over
    assert set(on_disk) == {"config", "config_hash", "files", "version", "wall_clock"}
    canon = json.dumps(on_disk["config"], sort_keys=True)
    assert hashlib.sha256(canon.encode()).hexdigest() == on_disk["config_hash"]
    assert parse_config_dict(on_disk["config"]) == cfg
    if command == "forward":
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["H_final"] <= report["H_initial"]


def test_csv_table_writes_per_cell_format_bytes():
    # one row template over .tolist() scalars writes the bytes that
    # per-cell f-strings write, on signed zeros, subnormals, non-finite
    # values and integers past 2^53
    x = np.array([0.0, -0.0, 5e-324, 1.0 / 3.0, -1e300, np.inf, -np.inf, np.nan])
    k = np.array([0, -7, 1, 2**62 + 1, 3, 4, 5, 6])
    b = np.arange(8) % 3 == 0
    expected = "x,k,b\n" + "".join(f"{u:.17g},{int(v)},{int(w)}\n" for u, v, w in zip(x, k, b))
    assert csv_table(["x", "k", "b"], ["%.17g", "%d", "%d"], [x, k, b]) == expected


def test_run_is_reproducible(tmp_path):
    m1 = run(_cfg(tmp_path / "a", "forward", T=0.2))
    m2 = run(_cfg(tmp_path / "b", "forward", T=0.2))
    assert m1.files == m2.files  # byte-identical outputs for equal configs


def test_run_kac_replicates(tmp_path):
    cfg = _cfg(tmp_path, "kac", N=8, T=0.2, replicates=2)
    manifest = run(cfg)
    assert "events_000.csv" in manifest.files and "events_001.csv" in manifest.files
    summary = json.load(open(os.path.join(cfg.out, "summary.json")))
    assert len(summary["results"]) == 2
    # replicates use distinct jumped streams
    assert manifest.files["events_000.csv"] != manifest.files["events_001.csv"]


def test_run_type_mismatch(tmp_path):
    cfg = _cfg(tmp_path, "forward")
    from boltzflow.config import ConfigError

    with pytest.raises(ConfigError, match="does not match"):
        run(cfg, experiment_kind="kac")


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": {"type": "forward", "bogus": 1}}))
    assert main(["forward", "--config", str(bad)]) == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err

    # domain error: bimodal speed outside the energy budget
    dom = tmp_path / "dom.json"
    dom.write_text(
        json.dumps(
            {
                "experiment": {"type": "kac", "N": 4, "T": 0.1, "bimodal_speed": 1.9},
                "out": str(tmp_path / "out"),
            }
        )
    )
    assert main(["kac", "--config", str(dom)]) == EXIT_DOMAIN

    assert main(["forward", "--config", str(tmp_path / "none.json")]) == EXIT_CONFIG

    # ill-typed experiment fields: each must have its default's type
    for etype, key, value in (
        ("consistency", "Ns", 5),
        ("forward", "perturbation", "big"),
        ("jko", "probe_times", 0.5),
        ("kac", "ou_time", "x"),
    ):
        typed = tmp_path / f"typed_{etype}.json"
        typed.write_text(json.dumps({"experiment": {"type": etype, key: value},
                                     "out": str(tmp_path / "typed")}))
        capsys.readouterr()
        assert main([etype, "--config", str(typed)]) == EXIT_CONFIG
        assert f"experiment.{key}" in capsys.readouterr().err

    # numerical failure: a proximal step worse than staying put
    def ascend(prob, opts):
        y0 = np.zeros(prob.nslices * prob.N.shape[1])
        g = prob(y0)[1]
        y = y0 + 1e-4 * g / (g @ g)
        return prob.path(y), 0.0, 0, "target", prob(y)

    monkeypatch.setattr(boltzflow.metric._PathProblem, "solve", ascend)
    capsys.readouterr()
    assert main(["jko", "--out", str(tmp_path / "jko")]) == EXIT_NUMERICAL
    assert "exceeds competitor" in capsys.readouterr().err


@pytest.mark.parametrize("etype, V", [("jko", 4.0), ("distance", 5.0)])
def test_wide_lattice_runs_exit_0(tmp_path, etype, V):
    # default runs with only V widened: both exited 4 on problems they had
    # solved while the Newton loop stopped on its KKT target alone
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"network": {"V": V}, "experiment": {"type": etype},
                                "out": str(tmp_path / "out")}))
    assert main([etype, "--config", str(path)]) == 0


@pytest.mark.parametrize("raw, message", [
    ({"experiment": {"type": "forward", "T": 0.001}}, "need at least 3 recorded samples"),
    ({"network": {"V": 1.0}, "experiment": {"type": "forward"}},
     "not strictly inside the attainable range"),
    ({"experiment": {"type": "consistency", "bimodal_speed": 1.5}},
     "exceeds the energy budget"),
    ({"experiment": {"type": "kac", "ou_time": 1e-20}}, "ou_time must be positive"),
], ids=["forward-short", "forward-moments", "consistency-speed", "kac-tiny-ou-time"])
def test_domain_errors_exit_3(tmp_path, capsys, raw, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**raw, "out": str(tmp_path / "out")}))
    assert main([raw["experiment"]["type"], "--config", str(path)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("domain error: ")
    assert re.search(message, err)


@pytest.mark.parametrize("etype, fields", [
    ("kac", {"ou_time": -1}),
    ("forward", {"max_step": -1}),
    ("kac", {"N": 1}),
    ("consistency", {"Ns": [16.7, 64]}),
    ("consistency", {"Ns": [1, 64]}),
    ("consistency", {"replicates": 1}),
    ("consistency", {"reference_h": 0.7}),
    ("consistency", {"reference_h": 0}),
    ("jko", {"probe_times": [-0.1, 0.5]}),
    ("consistency", {"probe_times": [-0.05, 0.05]}),
    ("consistency", {"Ns": [8, 8]}),
    # json.dumps writes NaN and Infinity, and json.load reads them back
    ("forward", {"network.V": float("nan")}),
    ("distance", {"tol": float("nan")}),
    ("jko", {"tau": float("inf")}),
    ("forward", {"network.V": 1e308, "network.h": 1e-10}),
    ("consistency", {"reference_h": 1e-320}),
    ("forward", {"network.V": 18}),
    ("forward", {"network.d": 3, "network.V": 6}),
    ("forward", {"network.d": 2.0}),
    ("kac", {"kernel.lo": "abc"}),
    ("kac", {"kernel.kind": "clamp", "kernel.b": None}),
    ("kac", {"kernel.hi": [1]}),
    ("kac", {"kernel.hi": float("nan")}),
    ("kac", {"kernel.lo": 3.0}),
], ids=["kac-ou-time", "forward-max-step", "kac-one-particle", "consistency-fractional-N",
        "consistency-one-particle", "consistency-one-replicate", "consistency-reference-h",
        "consistency-zero-reference-h", "jko-negative-probe", "consistency-negative-probe",
        "consistency-repeated-N", "network-V-nan", "distance-tol-nan", "jko-tau-infinity",
        "network-ratio-overflow", "consistency-reference-h-overflow", "network-d2-nodes",
        "network-d3-nodes", "network-float-d", "kernel-string-lo", "clamp-null-b",
        "kernel-list-hi", "constant-nan-hi", "constant-lo-above-hi"])
def test_config_ranges_exit_2(tmp_path, capsys, etype, fields):
    # every range is checked at parse time, before the experiment starts; the
    # message names the last field set
    raw = {"experiment": {"type": etype}, "out": str(tmp_path / "out")}
    for key, value in fields.items():
        block, name = key.split(".") if "." in key else ("experiment", key)
        raw.setdefault(block, {})[name] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main([etype, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and f"{block}.{name}" in err
    assert not (tmp_path / "out").exists()


def test_probes_past_T_are_dropped(tmp_path):
    # both runners report at the probes in [0, T], or at T when none is left
    assert _probe_times([0.25, 0.5, 1.0], 0.3) == [0.25]
    assert _probe_times([0.5], 0.3) == _probe_times([], 0.3) == [0.3]
    # the default consistency probes [0, 0.05, 0.1] against T = 0.05
    path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    path.write_text(json.dumps({
        "experiment": {"type": "consistency", "Ns": [4, 8], "replicates": 2, "T": 0.05},
        "out": str(out),
    }))
    assert main(["consistency", "--config", str(path)]) == 0
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [
        ["0", "4"], ["0.050000000000000003", "4"], ["0", "8"], ["0.050000000000000003", "8"]
    ]


def test_distance_needs_two_slices(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": {"type": "distance", "K": 1},
                                "out": str(tmp_path / "out")}))
    assert main(["distance", "--config", str(path)]) == EXIT_CONFIG
    assert "experiment.K must be at least 2 for distance" in capsys.readouterr().err
    # one JKO slice is a valid proximal step
    path.write_text(json.dumps({"experiment": {"type": "jko", "K": 1, "T": 0.1},
                                "out": str(tmp_path / "jko")}))
    assert main(["jko", "--config", str(path)]) == 0


def test_consistency_without_probe_times_reports_at_T(tmp_path):
    path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    path.write_text(json.dumps({
        "experiment": {"type": "consistency", "Ns": [4, 8], "replicates": 2,
                       "T": 0.05, "probe_times": []},
        "out": str(out),
    }))
    assert main(["consistency", "--config", str(path)]) == 0
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["0.050000000000000003", "4"],
                                                   ["0.050000000000000003", "8"]]


def test_w1_failure_exits_4(tmp_path, capsys, monkeypatch):
    def failed_lp(*args, **kwargs):
        return SimpleNamespace(success=False, message="forced failure")

    monkeypatch.setattr(boltzflow.metric.scipy.optimize, "linprog", failed_lp)
    assert main(["jko", "--out", str(tmp_path / "jko")]) == EXIT_NUMERICAL
    assert "numerical failure: W1 linear program failed: forced failure" in capsys.readouterr().err


def test_bug_shows_its_traceback(tmp_path, monkeypatch):
    # only the three boltzflow error classes map to exit codes
    def buggy(cfg, write):
        raise ValueError("a bug")

    monkeypatch.setitem(boltzflow.cli._RUNNERS, "forward", buggy)
    with pytest.raises(ValueError, match="a bug"):
        main(["forward", "--out", str(tmp_path / "out")])


def test_unusable_out_exits_2(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setitem(boltzflow.cli._RUNNERS, "forward", lambda cfg, write: calls.append(1))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")
    assert main(["forward", "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: cannot create output directory {out}" in err
    assert calls == []  # rejected before the experiment starts


def test_main_flag_overrides(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"experiment": {"type": "kac", "N": 8, "T": 0.1}}))
    out = tmp_path / "o"
    code = main(["kac", "--config", str(cfgfile), "--out", str(out), "--seed", "5"])
    assert code == 0
    assert (out / "manifest.json").exists()
    assert main(["kac", "--config", str(cfgfile), "--seed", "-3"]) == EXIT_CONFIG
    assert main(["kac", "--config", str(cfgfile), "--threads", "0"]) == EXIT_CONFIG


def test_flags_hash_like_file_values(tmp_path):
    # --out, --seed and --threads are parsed as the config values they replace
    base = {"experiment": {"type": "kac", "N": 8, "T": 0.1}}
    bare, full = tmp_path / "bare.json", tmp_path / "full.json"
    bare.write_text(json.dumps(base))
    out = str(tmp_path / "o")
    full.write_text(json.dumps({**base, "out": out, "seed": 5, "threads": 2}))
    assert main(["kac", "--config", str(bare), "--out", out, "--seed", "5",
                 "--threads", "2"]) == 0
    flagged = json.load(open(os.path.join(out, "manifest.json")))
    assert main(["kac", "--config", str(full)]) == 0
    from_file = json.load(open(os.path.join(out, "manifest.json")))
    assert flagged["config_hash"] == from_file["config_hash"]
    assert flagged["config_hash"] == _config_hash(parse_config_dict(json.loads(full.read_text())))
    assert flagged["files"] == from_file["files"]


def test_network_build(tmp_path):
    out = tmp_path / "net"
    assert main(["network", "build", "--out", str(out)]) == 0
    payload = json.load(open(out / "network.json"))
    assert payload["d"] == 2 and len(payload["quadruples"]) > 0


def test_threads_do_not_change_results(tmp_path):
    m1 = run(_cfg(tmp_path / "a", "kac", N=8, T=0.2, replicates=3))
    cfg = _cfg(tmp_path / "b", "kac", N=8, T=0.2, replicates=3)
    cfg.threads = 3
    m2 = run(cfg)
    assert m1.files == m2.files


def test_blas_threads_do_not_change_files(tmp_path):
    # every default run writes the same files on one and on two OpenBLAS
    # threads (Q(f) takes a dense K @ f).  On a one-CPU machine OpenBLAS
    # runs one thread either way, and this test passes without showing
    # anything
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    files = {"1": {}, "2": {}}
    for threads, written in files.items():
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": src}
        for command in (["network", "build"], ["forward"], ["distance"], ["jko"], ["kac"],
                        ["consistency"]):
            out = tmp_path / threads / command[0]
            subprocess.run([sys.executable, "-m", "boltzflow", *command, "--out", str(out)],
                           env=env, check=True, capture_output=True)
            written[command[0]] = json.loads((out / "manifest.json").read_text())["files"]
    assert len(files["1"]) == 6
    assert files["1"] == files["2"]
