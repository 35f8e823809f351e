import hashlib
import json
import os

import pytest

import boltzflow.jko
from boltzflow.cli import (
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_NUMERICAL,
    _config_hash,
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


def test_run_forward_writes_manifest(tmp_path):
    cfg = _cfg(tmp_path, "forward", T=0.5)
    manifest = run(cfg)
    out = cfg.out
    assert set(manifest.files) == {"trajectory.csv", "report.json"}
    for name, digest in manifest.files.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
    with open(os.path.join(out, "manifest.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk["config_hash"] == manifest.config_hash
    assert on_disk["version"]
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["H_final"] <= report["H_initial"]


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
    def ascend(evaluate, y0, opts):
        g = evaluate(y0)[1]
        y = y0 + 1e-4 * g / (g @ g)
        return y, 0.0, 0, evaluate(y)

    monkeypatch.setattr(boltzflow.jko, "_minimize_smooth", ascend)
    capsys.readouterr()
    assert main(["jko", "--out", str(tmp_path / "jko")]) == EXIT_NUMERICAL
    assert "exceeds competitor" in capsys.readouterr().err


def test_main_flag_overrides(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"experiment": {"type": "kac", "N": 8, "T": 0.1}}))
    out = tmp_path / "o"
    code = main(["kac", "--config", str(cfgfile), "--out", str(out), "--seed", "5"])
    assert code == 0
    assert (out / "manifest.json").exists()
    assert main(["kac", "--config", str(cfgfile), "--seed", "-3"]) == EXIT_CONFIG
    assert main(["kac", "--config", str(cfgfile), "--threads", "0"]) == EXIT_CONFIG


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
