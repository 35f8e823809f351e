import hashlib
import json
import os

import pytest

import boltzflow.jko
from boltzflow.cli import (
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_NUMERICAL,
    main,
    run,
    selftest,
)
from boltzflow.config import parse_config_dict


def _cfg(tmp_path, etype, **kw):
    return parse_config_dict(
        {"experiment": {"type": etype, **kw}, "out": str(tmp_path / "out")}
    )


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

    # numerical failure: a proximal step worse than staying put
    def ascend(evaluate, y0, opts):
        _, g, _ = evaluate(y0)
        return y0 + 1e-4 * g / (g @ g), 0.0, 0

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
