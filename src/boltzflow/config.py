"""Run configuration: strict JSON schema with documented defaults.

Unknown keys are rejected with the offending field named; numeric
ranges are validated at parse time so experiment code can assume a
well-formed configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .errors import ConfigError
from .kinematics import Kernel


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

# lower bounds: x >= _POSITIVE holds exactly when x > 0 (it is the least
# positive float), and every number is at least _ANY
_POSITIVE = math.ulp(0.0)
_ANY = -math.inf

# experiment parameter schema: name -> (default, least).  A value must have
# its default's type (an int default takes only ints, a float default any
# number, a list default a list checked entry by entry) and each value or
# entry must be at least `least`
_EXPERIMENT_FIELDS = {
    "forward": {
        "T": (10.0, _POSITIVE),
        "tol": (1e-10, _POSITIVE),
        "dt_init": (1e-2, _POSITIVE),
        "max_step": (0.0, 0),  # 0 means unlimited
        "perturbation": (0.3, _ANY),
    },
    "distance": {
        "K": (16, 2),  # W_B needs an interior slice of the path to minimize over
        "tol": (1e-8, _POSITIVE),
        "perturbation": (0.3, _ANY),
    },
    "jko": {
        "tau": (0.1, _POSITIVE),
        "T": (1.0, _POSITIVE),
        "K": (8, 1),
        "tol": (1e-8, _POSITIVE),
        "bimodal_speed": (1.2, _ANY),
        "probe_times": ([0.25, 0.5, 1.0], 0),
    },
    "kac": {
        "N": (64, 2),  # a Kac walk needs a pair of particles
        "T": (1.0, _POSITIVE),
        "replicates": (1, 1),
        "bimodal_speed": (1.3, _ANY),
        "ou_time": (0.1, 0),  # 0 means no entropy estimate
    },
    "consistency": {
        "Ns": ([16, 64, 256], 2),
        "T": (0.1, _POSITIVE),
        "replicates": (32, 2),  # a confidence interval needs two replicates
        "probe_times": ([0.0, 0.05, 0.1], 0),
        "bimodal_speed": (1.3, _ANY),
        "reference_h": (0.5, _POSITIVE),
    },
}
_EXPERIMENT_DEFAULTS = {
    etype: {key: default for key, (default, _) in fields.items()}
    for etype, fields in _EXPERIMENT_FIELDS.items()
}


def _take(block, context: str, fields: dict) -> dict:
    """The JSON object `block` with each key of `fields` it omits set to its default."""
    if not isinstance(block, dict):
        raise ConfigError(f"{context} must be a JSON object, got {block!r}")
    unknown = set(block) - set(fields)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"unknown key {context}.{name!r}")
    return {**fields, **block}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive(value, name):
    # JSON's NaN and Infinity parse to floats; neither passes `0 < value < inf`
    if not _is_number(value) or not 0 < value < math.inf:
        raise ConfigError(f"{name} must be a finite positive number, got {value!r}")
    return value


def _lattice_ratio(V, h, name):
    ratio = V / h
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ConfigError(f"{name} must be a positive integer")


def parse_config_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    top_fields = {"network": {}, "kernel": {}, "experiment": None, "out": "runs",
                  "seed": 0, "threads": 1}
    unknown = set(raw) - set(top_fields)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r}")

    net = _take(raw.get("network", {}), "network", _NETWORK_FIELDS)
    if net["d"] not in (2, 3):
        raise ConfigError("network.d must be 2 or 3")
    _positive(net["V"], "network.V")
    _positive(net["h"], "network.h")
    _lattice_ratio(net["V"], net["h"], "network.V / network.h")
    network = NetworkConfig(d=int(net["d"]), V=float(net["V"]), h=float(net["h"]))

    ker = _take(raw.get("kernel", {}), "kernel", _KERNEL_FIELDS)
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
    exp = _take(body, f"experiment({etype})", _EXPERIMENT_DEFAULTS[etype])
    for key, (default, least) in _EXPERIMENT_FIELDS[etype].items():
        value = exp[key]
        listed = isinstance(default, list)
        if listed and not isinstance(value, list):
            raise ConfigError(f"experiment.{key} must be a list, got {value!r}")
        integer = _is_int(default[0] if listed else default)
        for x in value if listed else (value,):
            if not (_is_int(x) if integer else _is_number(x)):
                want = "an integer" if integer else "a number"
            elif not -math.inf < x < math.inf:  # NaN or an infinity
                want = "finite"
            elif x < least:
                want = "positive" if least == _POSITIVE else f"at least {least} for {etype}"
            else:
                continue
            name = f"each entry of experiment.{key}" if listed else f"experiment.{key}"
            raise ConfigError(f"{name} must be {want}, got {value!r}")
    exp["type"] = etype
    if etype == "consistency":
        if len(set(exp["Ns"])) < len(exp["Ns"]):
            raise ConfigError(f"experiment.Ns must not repeat an entry, got {exp['Ns']!r}")
        _lattice_ratio(network.V, exp["reference_h"], "network.V / experiment.reference_h")

    out = raw.get("out", "runs")
    if not isinstance(out, str):
        raise ConfigError("out must be a string path")
    seed = raw.get("seed", 0)
    if not _is_int(seed) or seed < 0 or seed >= 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    threads = raw.get("threads", 1)
    if not _is_int(threads) or threads < 1:
        raise ConfigError(f"threads must be a positive integer, got {threads!r}")
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
