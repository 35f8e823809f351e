import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltzflow.config import (
    _EXPERIMENT_FIELDS,
    _KERNEL_FIELDS,
    _NETWORK_FIELDS,
    ConfigError,
    config_to_dict,
    parse_config,
    parse_config_dict,
)


def minimal(etype="forward", **kw):
    return {"experiment": {"type": etype, **kw}}


def test_defaults():
    cfg = parse_config_dict(minimal())
    assert cfg.network.d == 2 and cfg.network.V == 3.0 and cfg.network.h == 1.0
    assert cfg.kernel.kind == "constant"
    assert cfg.experiment["T"] == 10.0
    assert cfg.seed == 0 and cfg.threads == 1 and cfg.out == "runs"


def test_unknown_top_level_key_named():
    with pytest.raises(ConfigError, match="'bogus'"):
        parse_config_dict({**minimal(), "bogus": 1})


def test_unknown_nested_key_named():
    with pytest.raises(ConfigError, match="network.'shape'"):
        parse_config_dict({**minimal(), "network": {"shape": 3}})
    with pytest.raises(ConfigError, match=r"experiment\(forward\).'dt'"):
        parse_config_dict(minimal(dt=0.1))


def test_experiment_type_required():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config_dict({})
    with pytest.raises(ConfigError, match="experiment.type"):
        parse_config_dict({"experiment": {}})
    with pytest.raises(ConfigError, match="must be one of"):
        parse_config_dict(minimal("warp"))


def test_range_validation():
    with pytest.raises(ConfigError, match="network.d"):
        parse_config_dict({**minimal(), "network": {"d": 5}})
    with pytest.raises(ConfigError, match="positive integer"):
        parse_config_dict({**minimal(), "network": {"V": 1.0, "h": 0.3}})
    with pytest.raises(ConfigError, match="experiment.T"):
        parse_config_dict(minimal(T=-1.0))
    with pytest.raises(ConfigError, match="experiment.K"):
        parse_config_dict(minimal("distance", K=0))
    with pytest.raises(ConfigError, match="seed"):
        parse_config_dict({**minimal(), "seed": -1})
    with pytest.raises(ConfigError, match="seed"):
        parse_config_dict({**minimal(), "seed": 2**64})
    with pytest.raises(ConfigError, match="threads"):
        parse_config_dict({**minimal(), "threads": 0})
    # bool is an int subclass, but a JSON true is no seed or thread count
    with pytest.raises(ConfigError, match="seed"):
        parse_config_dict({**minimal(), "seed": True})
    with pytest.raises(ConfigError, match="threads"):
        parse_config_dict({**minimal(), "threads": True})
    # JSON's NaN and Infinity parse to floats, and no range test is false
    # for NaN: each is rejected by name
    for text, field in (
        ('{"network": {"V": NaN}}', "network.V"),
        ('{"network": {"h": Infinity}}', "network.h"),
        ('{"kernel": {"b": NaN}}', "kernel.b"),
        ('{"kernel": {"kind": "clamp", "hi": Infinity}}', "kernel.hi"),
        ('{"experiment": {"type": "forward", "T": NaN}}', "experiment.T"),
        ('{"experiment": {"type": "forward", "perturbation": -Infinity}}',
         "experiment.perturbation"),
        ('{"experiment": {"type": "distance", "tol": NaN}}', "experiment.tol"),
        ('{"experiment": {"type": "jko", "tau": Infinity}}', "experiment.tau"),
        ('{"experiment": {"type": "jko", "probe_times": [0.5, NaN]}}', "experiment.probe_times"),
        ('{"experiment": {"type": "kac", "T": Infinity}}', "experiment.T"),
        # every field is checked, whatever the kernel kind reads, and no
        # value escapes as another exception
        ('{"network": {"V": 1e308, "h": 1e-10}}', "network.h"),
        ('{"experiment": {"type": "consistency", "reference_h": 1e-320}}',
         "experiment.reference_h"),
        ('{"kernel": {"lo": "abc"}}', "kernel.lo"),
        ('{"kernel": {"kind": "clamp", "b": null}}', "kernel.b"),
        ('{"kernel": {"hi": [1]}}', "kernel.hi"),
        ('{"kernel": {"hi": NaN}}', "kernel.hi"),
        ('{"experiment": {"type": ["forward"]}}', "experiment.type"),
        # the lattice cap: at most 1331 nodes, V/h <= 17 at d = 2 and 5 at d = 3
        ('{"network": {"V": 18}}', "network.V"),
        ('{"network": {"d": 3, "V": 6}}', "network.V"),
        ('{"network": {"V": 1' + "0" * 400 + '}}', "network.V"),  # past every float
        # every field has its default's type and range, whatever the kernel kind
        ('{"network": {"d": 2.0}}', "network.d"),
        ('{"kernel": {"kind": 1}}', "kernel.kind"),
        ('{"kernel": {"kind": "clamp", "b": 0}}', "kernel.b"),
        ('{"kernel": {"lo": -1.0}}', "kernel.lo"),
        ('{"kernel": {"hi": 0}}', "kernel.hi"),
    ):
        raw = {**minimal(), **json.loads(text)}
        with pytest.raises(ConfigError, match=re.escape(field) + ".* must be"):
            parse_config_dict(raw)


@pytest.mark.parametrize("block, value", [
    ("kernel", "clamp"), ("network", []), ("network", 3),
], ids=["kernel-string", "network-list", "network-number"])
def test_blocks_must_be_objects(block, value):
    # a block that is not an object is rejected, not replaced by the defaults
    with pytest.raises(ConfigError, match=f"{block} must be a JSON object"):
        parse_config_dict({**minimal(), block: value})


def test_kernel_validation():
    with pytest.raises(ConfigError, match="kernel.kind"):
        parse_config_dict({**minimal(), "kernel": {"kind": "linear"}})
    with pytest.raises(ConfigError, match="kernel.lo"):
        parse_config_dict({**minimal(), "kernel": {"kind": "clamp", "lo": 3.0, "hi": 1.0}})
    # lo <= hi holds under the constant kernel too, which reads neither
    with pytest.raises(ConfigError, match="kernel.lo"):
        parse_config_dict({**minimal(), "kernel": {"lo": 3.0}})
    cfg = parse_config_dict({**minimal(), "kernel": {"kind": "clamp", "lo": 0.5, "hi": 2.0}})
    k = cfg.kernel.build()
    assert k.lower == 0.5 and k.upper == 2.0


def test_parse_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal("kac", N=8)))
    cfg = parse_config(str(path))
    assert cfg.experiment["type"] == "kac" and cfg.experiment["N"] == 8

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(str(bad))
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("raw", [
    minimal("forward", max_step=0.5),
    minimal("distance", K=4),
    minimal("jko", tau=0.05),
    minimal("kac", N=8),
    minimal("consistency", Ns=[4, 8]),
    {**minimal("kac"), "kernel": {"kind": "clamp", "lo": 0.25, "hi": 4.0},
     "network": {"d": 3}, "seed": 7, "threads": 2, "out": "elsewhere"},
], ids=["forward", "distance", "jko", "kac", "consistency", "kac-clamp"])
def test_roundtrip(raw):
    # the CLI re-parses config_to_dict of a file's config under its flags
    cfg = parse_config_dict(raw)
    again = parse_config_dict(config_to_dict(cfg))
    assert config_to_dict(cfg) == config_to_dict(again)


# any JSON value: what json.load can return, NaN and the infinities included
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
_FIELDS = (
    [("network", key) for key in _NETWORK_FIELDS]
    + [("kernel", key) for key in _KERNEL_FIELDS]
    + [(etype, key) for etype, fields in _EXPERIMENT_FIELDS.items() for key in ("type", *fields)]
    + [(None, key) for key in ("out", "seed", "threads")]
)


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_JSON)
def test_any_value_in_any_field_parses_or_is_a_config_error(field, value):
    block, key = field
    raw = minimal("forward" if block in ("network", "kernel", None) else block)
    if block is None:
        raw[key] = value
    elif block in ("network", "kernel"):
        raw[block] = {key: value}
    else:
        raw["experiment"][key] = value
    try:
        parse_config_dict(raw)
    except ConfigError:
        pass
