"""Run configuration: strict JSON schema with documented defaults.

Unknown keys are rejected with the offending field named; numeric
ranges are validated at parse time so experiment code can assume a
well-formed configuration.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .kinematics import Kernel


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class NetworkConfig:
    d: int = 2
    V: float = 3.0
    h: float = 1.0


@dataclass(frozen=True)
class KernelConfig:
    kind: str = "constant"
    b: float = 1.0
    lo: float = 0.5
    hi: float = 2.0

    def build(self) -> Kernel:
        return Kernel(kind=self.kind, b=self.b, lo=self.lo, hi=self.hi)


@dataclass
class RunConfig:
    network: NetworkConfig
    kernel: KernelConfig
    experiment: dict  # type plus type-specific parameters, validated
    out: str = "runs"
    seed: int = 0
    threads: int = 1


# block defaults, read once from the dataclasses that hold them
_NETWORK_FIELDS = asdict(NetworkConfig())
_KERNEL_FIELDS = asdict(KernelConfig())

# experiment parameter schema: name -> default; a value must have the type of
# its default (a number, or a list of numbers)
_EXPERIMENT_FIELDS = {
    "forward": {
        "T": 10.0,
        "tol": 1e-10,
        "dt_init": 1e-2,
        "max_step": 0.0,  # 0 means unlimited
        "perturbation": 0.3,
    },
    "distance": {
        "K": 16,
        "tol": 1e-8,
        "perturbation": 0.3,
    },
    "jko": {
        "tau": 0.1,
        "T": 1.0,
        "K": 8,
        "tol": 1e-8,
        "bimodal_speed": 1.2,
        "probe_times": [0.25, 0.5, 1.0],
    },
    "kac": {
        "N": 64,
        "T": 1.0,
        "replicates": 1,
        "bimodal_speed": 1.3,
        "ou_time": 0.1,
    },
    "consistency": {
        "Ns": [16, 64, 256],
        "T": 0.1,
        "replicates": 32,
        "probe_times": [0.0, 0.05, 0.1],
        "bimodal_speed": 1.3,
        "reference_h": 0.5,
    },
}


def _take(block: dict, context: str, fields: dict) -> dict:
    unknown = set(block) - set(fields)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"unknown key {context}.{name!r}")
    out = dict(fields)
    out.update(block)
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive(value, name):
    if not _is_number(value) or value <= 0:
        raise ConfigError(f"{name} must be a positive number, got {value!r}")
    return value


def parse_config_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    top_fields = {"network": {}, "kernel": {}, "experiment": None, "out": "runs",
                  "seed": 0, "threads": 1}
    unknown = set(raw) - set(top_fields)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r}")

    net_raw = raw.get("network", {})
    net = _take(net_raw if isinstance(net_raw, dict) else {}, "network", _NETWORK_FIELDS)
    if net["d"] not in (2, 3):
        raise ConfigError("network.d must be 2 or 3")
    _positive(net["V"], "network.V")
    _positive(net["h"], "network.h")
    ratio = net["V"] / net["h"]
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ConfigError("network.V / network.h must be a positive integer")
    network = NetworkConfig(d=int(net["d"]), V=float(net["V"]), h=float(net["h"]))

    ker_raw = raw.get("kernel", {})
    ker = _take(ker_raw if isinstance(ker_raw, dict) else {}, "kernel", _KERNEL_FIELDS)
    if ker["kind"] not in ("constant", "clamp"):
        raise ConfigError("kernel.kind must be 'constant' or 'clamp'")
    if ker["kind"] == "constant":
        _positive(ker["b"], "kernel.b")
    else:
        _positive(ker["lo"], "kernel.lo")
        _positive(ker["hi"], "kernel.hi")
        if ker["lo"] > ker["hi"]:
            raise ConfigError("kernel.lo must not exceed kernel.hi")
    kernel = KernelConfig(kind=ker["kind"], b=float(ker["b"]),
                          lo=float(ker["lo"]), hi=float(ker["hi"]))

    exp_raw = raw.get("experiment")
    if exp_raw is None:
        raise ConfigError("missing required block 'experiment'")
    if not isinstance(exp_raw, dict) or "type" not in exp_raw:
        raise ConfigError("experiment.type is required")
    etype = exp_raw["type"]
    if etype not in _EXPERIMENT_FIELDS:
        raise ConfigError(
            f"experiment.type must be one of {sorted(_EXPERIMENT_FIELDS)}, got {etype!r}"
        )
    body = {k: v for k, v in exp_raw.items() if k != "type"}
    exp = _take(body, f"experiment({etype})", _EXPERIMENT_FIELDS[etype])
    for key, default in _EXPERIMENT_FIELDS[etype].items():
        value = exp[key]
        if isinstance(default, list):
            if not isinstance(value, list) or not all(map(_is_number, value)):
                raise ConfigError(f"experiment.{key} must be a list of numbers, got {value!r}")
        elif not _is_number(value):
            raise ConfigError(f"experiment.{key} must be a number, got {value!r}")
    exp["type"] = etype
    for key in ("T", "tau", "tol", "dt_init"):
        if key in exp:
            _positive(exp[key], f"experiment.{key}")
    for key in ("K", "N", "replicates"):
        if key in exp:
            if not isinstance(exp[key], int) or exp[key] < 1:
                raise ConfigError(f"experiment.{key} must be a positive integer")

    out = raw.get("out", "runs")
    if not isinstance(out, str):
        raise ConfigError("out must be a string path")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0 or seed >= 2**64:
        raise ConfigError("seed must be an unsigned 64-bit integer")
    threads = raw.get("threads", 1)
    if not isinstance(threads, int) or threads < 1:
        raise ConfigError("threads must be a positive integer")
    return RunConfig(network=network, kernel=kernel, experiment=exp,
                     out=out, seed=seed, threads=threads)


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config_dict(raw)


def config_to_dict(cfg: RunConfig) -> dict:
    return asdict(cfg)
