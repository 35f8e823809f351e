"""Run configuration: strict JSON schema with documented defaults.

Unknown keys are rejected with the offending field named; numeric
ranges are validated at parse time so experiment code can assume a
well-formed configuration.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass

from .errors import ConfigError, DomainError
from .kinematics import Kernel
from .network import lattice_ratio


@dataclass(frozen=True)
class NetworkConfig:
    d: int
    V: float
    h: float


@dataclass(frozen=True)
class KernelConfig:
    kind: str
    b: float
    lo: float
    hi: float

    def build(self) -> Kernel:
        return Kernel(kind=self.kind, b=self.b, lo=self.lo, hi=self.hi)


@dataclass
class RunConfig:
    network: NetworkConfig
    kernel: KernelConfig
    experiment: dict  # type plus type-specific parameters, validated
    out: str
    seed: int
    threads: int


# lower bounds: x >= _POSITIVE holds exactly when x > 0 (it is the least
# positive float), and every number is at least _ANY
_POSITIVE = math.ulp(0.0)
_ANY = -math.inf

# block schemas: name -> (default, least).  A value must have its default's
# type (a str default takes only strings, an int default only ints, a float
# default any number, a list default a list checked entry by entry), and
# each number or entry must be finite and at least `least`
_NETWORK_FIELDS = {"d": (2, 2), "V": (3.0, _POSITIVE), "h": (1.0, _POSITIVE)}
_KERNEL_FIELDS = {
    "kind": ("constant", None),
    "b": (1.0, _POSITIVE),
    "lo": (0.5, _POSITIVE),
    "hi": (2.0, _POSITIVE),
}
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
# the top-level keys besides the three blocks, with their defaults
_TOP_DEFAULTS = {"out": "runs", "seed": 0, "threads": 1}
# what a value of each default's type must be, and the types that qualify
_TYPES = {str: ("a string", str), int: ("an integer", int), float: ("a number", (int, float))}
_MAX = sys.float_info.max


def _check_block(block, name: str, fields: dict, etype: str = "") -> dict:
    """The JSON object `block` checked against `fields`, omitted keys set to their defaults.

    Values are named `name.key`; an experiment block names its `etype`.
    """
    context = f"{name}({etype})" if etype else name
    if not isinstance(block, dict):
        raise ConfigError(f"{context} must be a JSON object, got {block!r}")
    unknown = set(block) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key {context}.{sorted(unknown)[0]!r}")
    values = {}
    suffix = f" for {etype}" if etype else ""
    for key, (default, least) in fields.items():
        value = values[key] = block.get(key, default)
        listed = isinstance(default, list)
        if listed and not isinstance(value, list):
            raise ConfigError(f"{name}.{key} must be a list, got {value!r}")
        noun, types = _TYPES[type(default[0] if listed else default)]
        for x in value if listed else (value,):
            # bool is an int subclass, but a JSON true is no number
            if not isinstance(x, types) or isinstance(x, bool):
                want = noun
            elif isinstance(x, str):
                continue
            elif not -_MAX <= x <= _MAX:  # NaN, an infinity or an int past every float
                want = "finite"
            elif x < least:
                want = "positive" if least == _POSITIVE else f"at least {least}{suffix}"
            else:
                continue
            entry = f"each entry of {name}.{key}" if listed else f"{name}.{key}"
            raise ConfigError(f"{entry} must be {want}, got {value!r}")
    return values


def _check_lattice(d, V, h, name: str):
    try:
        lattice_ratio(d, V, h)
    except DomainError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_config_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    unknown = set(raw) - {"network", "kernel", "experiment", *_TOP_DEFAULTS}
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r}")

    net = _check_block(raw.get("network", {}), "network", _NETWORK_FIELDS)
    if net["d"] > 3:
        raise ConfigError(f"network.d must be 2 or 3, got {net['d']!r}")
    _check_lattice(net["d"], net["V"], net["h"], "network.V / network.h")
    network = NetworkConfig(d=net["d"], V=float(net["V"]), h=float(net["h"]))

    ker = _check_block(raw.get("kernel", {}), "kernel", _KERNEL_FIELDS)
    if ker["kind"] not in ("constant", "clamp"):
        raise ConfigError(f"kernel.kind must be 'constant' or 'clamp', got {ker['kind']!r}")
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
    if not isinstance(etype, str) or etype not in _EXPERIMENT_FIELDS:
        raise ConfigError(
            f"experiment.type must be one of {sorted(_EXPERIMENT_FIELDS)}, got {etype!r}"
        )
    body = {k: v for k, v in exp_raw.items() if k != "type"}
    exp = _check_block(body, "experiment", _EXPERIMENT_FIELDS[etype], etype)
    exp["type"] = etype
    if etype == "consistency":
        if len(set(exp["Ns"])) < len(exp["Ns"]):
            raise ConfigError(f"experiment.Ns must not repeat an entry, got {exp['Ns']!r}")
        _check_lattice(network.d, network.V, exp["reference_h"],
                       "network.V / experiment.reference_h")

    out, seed, threads = (raw.get(key, default) for key, default in _TOP_DEFAULTS.items())
    if not isinstance(out, str):
        raise ConfigError("out must be a string path")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
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
