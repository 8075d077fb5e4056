"""The seven config classes behave as frozen value objects: keyword and
positional construction, the simulator configs' defaults, ``repr``,
equality and hash, immutability, and a ``TypeError`` (a ``ConfigError``
naming the field through ``build_monitor`` and ``build_sim``) on an
unknown or missing field.  README's table of config fields lists the
fields of every monitor and simulator config."""

import re
from pathlib import Path

import pytest

from fairmon import runner
from fairmon.errors import ConfigError
from fairmon.estimator import SubExpParams
from fairmon.monitors import (MONITORS, AttentionConfig, CoinMonitorConfig,
                              LendingConfig, build_monitor)
from fairmon.runner import build_sim
from fairmon.sim.attention import AttentionSimConfig
from fairmon.sim.coin import CoinConfig
from fairmon.sim.lending import LendingSimConfig

# (class, kind for build_monitor/build_sim or None, every field in order
# with a value, the repr of that config, the fields left to defaults and
# their default values).
CASES = [
    (SubExpParams, None, {"sigma_sq": 4.0, "nu": 0.5},
     "SubExpParams(sigma_sq=4.0, nu=0.5)", {}),
    (LendingConfig, ("monitor", "lending"),
     {"n_a": 100, "n_b": 100, "c_max": 100, "delta": 0.05},
     "LendingConfig(n_a=100, n_b=100, c_max=100, delta=0.05)", {}),
    (AttentionConfig, ("monitor", "attention"),
     {"gamma": 0.0025, "lambda_min": 4.0, "lambda_max": 12.0,
      "delta": 0.05},
     "AttentionConfig(gamma=0.0025, lambda_min=4.0, lambda_max=12.0, "
     "delta=0.05)", {}),
    (CoinMonitorConfig, ("monitor", "coin"),
     {"epsilon": 0.001, "delta": 0.05},
     "CoinMonitorConfig(epsilon=0.001, delta=0.05)", {}),
    (LendingSimConfig, ("sim", "lending"),
     {"n_a": 3, "n_b": 2, "c_max": 10, "horizon": 7, "seed": 42,
      "policy": "eq_opp", "theta_bank": 0.6, "rho_min": 0.2,
      "rho_max": 0.9, "init": ((1, 2, 3), (4, 5)),
      "use_true_tallies": False},
     "LendingSimConfig(n_a=3, n_b=2, c_max=10, horizon=7, seed=42, "
     "policy='eq_opp', theta_bank=0.6, rho_min=0.2, rho_max=0.9, "
     "init=((1, 2, 3), (4, 5)), use_true_tallies=False)",
     {"policy": "max_reward", "theta_bank": 0.5, "rho_min": 0.1,
      "rho_max": 0.95, "init": "mid-bias", "use_true_tallies": True}),
    (AttentionSimConfig, ("sim", "attention"),
     {"l": 3, "k": 6, "gamma": 0.0025, "horizon": 7, "seed": 42,
      "policy": "constrained_greedy", "alpha": 0.5,
      "lambda_init": (4.0, 5.0, 6.0), "omniscient": True},
     "AttentionSimConfig(l=3, k=6, gamma=0.0025, horizon=7, seed=42, "
     "policy='constrained_greedy', alpha=0.5, lambda_init=(4.0, 5.0, 6.0), "
     "omniscient=True)",
     {"policy": "uniform", "alpha": 0.75, "lambda_init": 10.0,
      "omniscient": False}),
    (CoinConfig, ("sim", "coin"),
     {"p1": 0.5, "epsilon": 0.001, "horizon": 7, "seed": 42},
     "CoinConfig(p1=0.5, epsilon=0.001, horizon=7, seed=42)", {}),
]
IDS = [case[0].__name__ for case in CASES]


def _as_lists(value):
    """``value`` with each tuple in it a list, as JSON spells it."""
    if isinstance(value, tuple):
        return [_as_lists(v) for v in value]
    return value


def _build(kind, fields):
    stage, name = kind
    config = {"kind": name, **fields}
    return build_monitor(config) if stage == "monitor" else build_sim(config)


@pytest.mark.parametrize("cls, kind, fields, text, defaults", CASES, ids=IDS)
class TestConfigClass:

    def test_keyword_and_positional_construction(self, cls, kind, fields,
                                                 text, defaults):
        by_name = cls(**fields)
        by_position = cls(*fields.values())
        for cfg in (by_name, by_position):
            assert {f: getattr(cfg, f) for f in fields} == fields
        assert by_name == by_position

    def test_defaults(self, cls, kind, fields, text, defaults):
        required = {f: v for f, v in fields.items() if f not in defaults}
        for cfg in (cls(**required), cls(*required.values())):
            assert {f: getattr(cfg, f) for f in fields} == {
                **required, **defaults}

    def test_repr(self, cls, kind, fields, text, defaults):
        assert repr(cls(**fields)) == text

    def test_equality_and_hash(self, cls, kind, fields, text, defaults):
        cfg = cls(**fields)
        assert cfg == cls(**fields)
        assert not cfg != cls(**fields)
        # A config equals only a config of its own class.
        assert cfg != tuple(fields.values())
        assert cfg != list(fields.values())
        vary = next(f for f in ("seed", "delta", "nu") if f in fields)
        assert cfg != cls(**{**fields, vary: fields[vary] * 2})
        required = {f: v for f, v in fields.items() if f not in defaults}
        assert hash(cls(**required)) == hash(cls(**required))
        assert hash(cfg) == hash(cls(**fields))
        # A list, as a config file spells it, is stored as a tuple.
        listed = cls(**{f: _as_lists(v) for f, v in fields.items()})
        assert listed == cfg and hash(listed) == hash(cfg)

    def test_fields_cannot_be_set(self, cls, kind, fields, text, defaults):
        cfg = cls(**fields)
        for name in (*fields, "bogus"):
            with pytest.raises(AttributeError):
                setattr(cfg, name, 1)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(cfg, name)
        assert repr(cfg) == text

    def test_unknown_or_missing_field(self, cls, kind, fields, text,
                                      defaults):
        first = next(iter(fields))
        missing = {f: v for f, v in fields.items() if f != first}
        with pytest.raises(TypeError, match="unexpected keyword argument "
                                            "'bogus'"):
            cls(**fields, bogus=1)
        with pytest.raises(TypeError, match=f"missing 1 required "
                                            f"positional argument: "
                                            f"'{first}'"):
            cls(**missing)
        with pytest.raises(TypeError):
            cls(*fields.values(), 1)
        if kind is None:
            return
        # Through build_monitor and build_sim the error names the field,
        # not the generated __init__'s signature.
        stage, name = kind
        what = (f"{'an' if name == 'attention' else 'a'} {name} "
                f"{'monitor' if stage == 'monitor' else 'simulator'}")
        with pytest.raises(ConfigError) as exc:
            _build(kind, {**fields, "bogus": 1})
        assert str(exc.value) == f"unknown field 'bogus' for {what}"
        with pytest.raises(ConfigError) as exc:
            _build(kind, missing)
        assert str(exc.value) == f"missing field '{first}' for {what}"


def _readme_fields():
    """README's table of config fields: {(stage, kind): [field, ...]},
    in the table's order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n### Config fields\n", 1)[1].split("\n#", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| ") and re.fullmatch(r"`\w+`", cells[1]):
            kind, stage = cells[0].split()
            table.setdefault((stage, kind), []).append(cells[1].strip("`"))
    return table


def test_readme_lists_every_config_field():
    want = {("monitor", kind): list(cls.config_type._fields)
            for kind, cls in MONITORS.items()}
    want.update({("simulator", kind): list(cls._fields)
                 for kind, (cls, _, _) in runner._simulators().items()})
    assert _readme_fields() == want
