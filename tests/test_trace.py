"""File format, pipeline, snapshot/resume, and CLI exit-code tests."""

import csv
import filecmp
import hashlib
import importlib.util
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import tracemalloc
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import pytest

from fairmon import ConfidenceInterval, MonitorOutput, cli, runner, traceio
from fairmon.errors import ConfigError, TraceFormatError
from fairmon.intervals import interval_sub
from fairmon.monitors import MONITORS, build_monitor
from fairmon.sim import attention, lending
from oracles import json_loads_records, oracle_record_v2
from test_bad_inputs import (ATTENTION_MON, ATTENTION_SIM, COIN_META,
                             COIN_MON, COIN_SIM, MON, SIM, trace_tests)


def read_all(path, expected_file="trace"):
    meta, records = traceio.read_records(path, expected_file)
    return meta, list(records)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


@trace_tests
class TestTraceFiles:

    def test_round_trip_with_metadata(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        kind = runner.simulate(SIM, str(out))
        assert kind == "lending"
        meta, records = read_all(str(out))
        assert meta["kind"] == "lending"
        assert meta["config_hash"] == traceio.config_hash(SIM)
        assert [r["t"] for r in records] == list(range(1, 11))
        assert all("truth" in r for r in records)

    def test_unknown_kind_is_refused_before_the_file_is_opened(self,
                                                                 tmp_path):
        out = tmp_path / "trace.jsonl"
        with pytest.raises(TraceFormatError,
                           match="^unknown trace kind 'nope'$"):
            traceio.write_trace(str(out), "nope", {}, [])
        assert not out.exists()

    def test_no_truth_flag_strips_ground_truth(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(out), include_truth=False)
        _, records = read_all(str(out))
        assert all("truth" not in r for r in records)

    @pytest.mark.parametrize("config", [
        {}, SIM, ATTENTION_SIM, COIN_SIM,
        {"text": "caf\u00e9", "nested": {"b": [1, 2.5, None, True]}}])
    def test_config_hash_is_sha256_prefix(self, config):
        blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
        assert traceio.config_hash(config) == \
            hashlib.sha256(blob.encode()).hexdigest()[:16]

    def test_cli_import_loads_no_hashlib(self):
        # hashlib would load OpenSSL into every stage's memory, and the
        # package has no runtime dependency outside the standard library.
        # Modules the interpreter's site start-up loaded are not counted.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; before = set(sys.modules); "
             "import fairmon.cli, fairmon.runner, fairmon.sim; "
             "loaded = set(sys.modules) - before; "
             "print(sorted({'hashlib', '_hashlib'} & loaded)); "
             "print(sorted({n.partition('.')[0] for n in loaded} "
             "- set(sys.stdlib_module_names) - {'fairmon'}))"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["[]", "[]"], proc.stdout

    def test_cli_import_loads_no_simulator(self):
        # monitor, eval and export never simulate; simulate imports the
        # simulators on first use.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; import fairmon.runner, fairmon.cli; "
             "print(sorted(n for n in sys.modules "
             "if n.startswith('fairmon.sim')))"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", proc.stdout

    def test_stage_imports_load_no_dataclasses_csv_or_typing(self):
        # dataclasses loads inspect, ast, dis and tokenize, about 1 MB of
        # peak RSS in every stage; csv is for export alone.  Modules the
        # interpreter's site start-up loaded are not counted.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; before = set(sys.modules); "
             "import fairmon.runner, fairmon.cli, fairmon.sim; "
             "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', "
             "'tokenize', 'csv', '_csv', 'typing'} "
             "& (set(sys.modules) - before)))"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", proc.stdout

    def test_file_kinds_have_their_own_format_versions(self, tmp_path):
        trace, est = tmp_path / "trace.jsonl", tmp_path / "est.jsonl"
        snap = tmp_path / "snap.json"
        runner.simulate(SIM, str(trace))
        runner.monitor_trace(str(trace), MON, str(est),
                             snapshot_out=str(snap))
        metas = [path.read_text().split("\n")[0]
                 for path in (trace, est, snap)]
        assert [json.loads(meta)["format"] for meta in metas] == [1, 2, 2]
        # Each metadata line is what json writes for its value.
        assert metas == [_json_line(json.loads(meta)) for meta in metas]

    def test_zero_horizon_trace_is_metadata_only(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        runner.simulate(dict(SIM, horizon=0), str(out))
        meta, records = read_all(str(out))
        assert records == []

    def test_resimulation_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        runner.simulate(SIM, str(a))
        runner.simulate(SIM, str(b))
        assert filecmp.cmp(str(a), str(b), shallow=False)

    def test_different_seed_changes_trace(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        runner.simulate(SIM, str(a))
        runner.simulate(dict(SIM, seed=43), str(b))
        assert not filecmp.cmp(str(a), str(b), shallow=False)

    def test_observation_of_unknown_kind(self):
        with pytest.raises(TraceFormatError, match="unknown trace kind"):
            traceio.observation_from_record("housing", {"t": 1, "x": 1})

    @pytest.mark.parametrize("sim", [SIM, ATTENTION_SIM, COIN_SIM],
                             ids=["lending", "attention", "coin"])
    def test_observation_is_the_type_made_from_the_fields(self, tmp_path,
                                                         sim):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(sim, str(trace))
        obs_type = MONITORS[sim["kind"]].observation_type
        _, records = read_all(str(trace))
        for rec in records:
            obs = traceio.observation_from_record(sim["kind"], rec)
            want = obs_type._make([rec[f] for f in obs_type._fields])
            assert type(obs) is obs_type
            assert obs == want

    @pytest.mark.parametrize("kind", ["lending", "attention", "coin"])
    def test_observation_names_the_first_missing_field(self, kind):
        fields = MONITORS[kind].observation_type._fields
        full = {"t": 1, **{f: 0 for f in fields}}
        for i, field in enumerate(fields):
            alone = {k: v for k, v in full.items() if k != field}
            rest = {k: v for k, v in full.items() if k not in fields[i:]}
            for rec in (alone, rest):
                with pytest.raises(TraceFormatError) as info:
                    traceio.observation_from_record(kind, rec)
                assert str(info.value) == f"missing field {field!r}"

    def test_read_records_closes_its_file(self, tmp_path, monkeypatch):
        # On a metadata error, and when the iterator is dropped before or
        # during iteration: no file handle outlives read_records' caller.
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        opened = []

        def tracking_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(traceio, "open", tracking_open, raising=False)
        bad = tmp_path / "bad.jsonl"
        write_lines(bad, [json.dumps({"format": 99, "file": "trace"})])
        with pytest.raises(TraceFormatError):
            traceio.read_records(str(bad), "trace")
        _, records = traceio.read_records(str(trace))
        del records
        _, records = traceio.read_records(str(trace))
        next(records)
        del records
        assert len(opened) == 3
        assert all(fh.closed for fh in opened)


def _payloads(config):
    """The payloads of a simulator config dict, as a generator."""
    kind, cfg = runner.build_sim(config)
    return runner._simulators()[kind][1](cfg)


def _json_line(payload):
    return json.dumps(payload, separators=(",", ":"), allow_nan=False)


def _written_lines(path, kind, payloads):
    traceio.write_trace(str(path), kind, {}, payloads)
    return path.read_text().split("\n")[1:-1]


class _Int(int):
    def __repr__(self):
        return "_Int()"


class _Float(float):
    def __repr__(self):
        return "_Float()"


class _Str(str):
    pass


_LENDING = {"t": 1, "x": 5, "g": "A", "y": 1, "z": 0,
            "truth": {"psi_a": 5.5, "psi_b": 4.25, "phi": 1.25}}
_ATTENTION = {"t": 1, "x_a": 3, "x_b": 0, "y_a": 1, "y_b": 0, "k": 2,
              "truth": {"omega_a": 0.25, "omega_b": 0.0, "phi": 0.25,
                        "lam_a": 8.0, "lam_b": 7.5}}
_COIN = {"t": 1, "x": 1, "truth": {"phi": 0.5}}


def _lending(truth=None, **fields):
    payload = dict(_LENDING, **fields)
    if truth is not None:
        payload["truth"] = dict(_LENDING["truth"], **truth)
    return payload


# Payloads off the simulators' layout, each of which write_trace must
# write as json does, or refuse with json's exception and message.
_OTHER_PAYLOADS = {
    "bool-field": ("lending", _lending(y=True)),
    "bool-t": ("lending", _lending(t=True)),
    "bool-capacity": ("attention", dict(_ATTENTION, k=True)),
    "bool-coin": ("coin", dict(_COIN, x=False)),
    "int-rate": ("attention", dict(_ATTENTION, truth=dict(
        _ATTENTION["truth"], lam_a=8))),
    "int-coin-bias": ("coin", dict(_COIN, truth={"phi": 1})),
    "nan-truth": ("lending", _lending(truth={"phi": math.nan})),
    "inf-truth": ("lending", _lending(truth={"psi_a": math.inf})),
    "minus-inf-rate": ("attention", dict(_ATTENTION, truth=dict(
        _ATTENTION["truth"], lam_b=-math.inf))),
    "nan-coin-bias": ("coin", dict(_COIN, truth={"phi": math.nan})),
    "non-ascii-g": ("lending", _lending(g="\u00c4\U0001f600")),
    "quote-g": ("lending", _lending(g='A"\\\n')),
    "reordered-keys": ("lending", {"x": 5, "t": 1, "g": "A", "y": 1, "z": 0,
                                   "truth": _LENDING["truth"]}),
    "reordered-truth": ("lending", dict(_LENDING, truth={
        "psi_b": 4.25, "psi_a": 5.5, "phi": 1.25})),
    "extra-key": ("lending", dict(_LENDING, note="hand-written")),
    "extra-truth-key": ("coin", dict(_COIN, truth={"phi": 0.5, "p": 0.5})),
    "missing-truth": ("attention", {k: v for k, v in _ATTENTION.items()
                                    if k != "truth"}),
    "truth-not-a-dict": ("lending", dict(_LENDING, truth=[5.5, 4.25, 1.25])),
    "truth-null": ("coin", dict(_COIN, truth=None)),
    "int-subclass": ("lending", _lending(x=_Int(5))),
    "float-subclass": ("coin", dict(_COIN, truth={"phi": _Float(0.5)})),
    "str-subclass": ("lending", _lending(g=_Str("A"))),
    "key-list": ("lending", list(_LENDING)),
    "huge-int": ("lending", _lending(x=10 ** 5000)),
    "unencodable": ("coin", dict(_COIN, x={1})),
}


class TestTraceLines:
    """runner.simulate writes each payload as json.dumps does.  The
    lending and attention simulators format their own lines, so the
    encoder sees only the metadata line; coin lines, --no-truth lines
    and any payload given to write_trace go through the JSON encoder."""

    @pytest.mark.parametrize("seed", [1, 7, 12])
    @pytest.mark.parametrize("config", [
        SIM, dict(SIM, policy="eq_opp"),
        dict(SIM, policy="eq_opp", use_true_tallies=False),
        dict(SIM, init=[[0, 3, 5, 9, 10], [1, 1, 2, 8, 10]]),
        ATTENTION_SIM, dict(ATTENTION_SIM, policy="greedy"),
        dict(ATTENTION_SIM, policy="constrained_greedy"),
        dict(ATTENTION_SIM, l=3, k=5, policy="greedy", omniscient=True),
        dict(ATTENTION_SIM, l=3, lambda_init=[8, 9, 3], gamma=0),
        dict(ATTENTION_SIM, lambda_init=8), COIN_SIM],
        ids=["max_reward", "eq_opp", "eq_opp-seen", "explicit-init",
             "uniform", "greedy", "constrained_greedy", "omniscient",
             "int-rates-gamma-0", "int-rate", "coin"])
    def test_simulated_lines_are_json_from_the_template(
            self, tmp_path, monkeypatch, config, seed):
        config = dict(config, seed=seed, horizon=300)
        kind, cfg = runner.build_sim(config)
        generate = runner._simulators()[kind][1]
        encoded = []
        encode = traceio._dumps

        def counting_encode(obj):
            encoded.append(obj)
            return encode(obj)

        # The simulators' fallback for a line that is not finite, too.
        for module in (traceio, lending, attention):
            monkeypatch.setattr(module, "_dumps", counting_encode)
        path = tmp_path / "trace.jsonl"
        for include_truth in (True, False):
            encoded.clear()
            runner.simulate(config, str(path), include_truth)
            lines = path.read_text().split("\n")[1:-1]
            assert lines == [
                _json_line(p if include_truth else
                           {k: v for k, v in p.items() if k != "truth"})
                for p in generate(cfg)]
            # The metadata line, and each line the simulator leaves to
            # the encoder.
            by_encoder = include_truth is False or kind == "coin"
            assert len(encoded) == 1 + (len(lines) if by_encoder else 0)

    @pytest.mark.parametrize("kind, payload", list(_OTHER_PAYLOADS.values()),
                             ids=list(_OTHER_PAYLOADS))
    def test_other_payloads_are_written_as_json_writes_them(
            self, tmp_path, kind, payload):
        path = tmp_path / "trace.jsonl"
        try:
            want = _json_line(payload)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                _written_lines(path, kind, [payload])
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
        else:
            assert _written_lines(path, kind, [payload]) == [want]

    def test_int_initial_rates_are_written_as_ints(self, tmp_path):
        config = dict(ATTENTION_SIM, lambda_init=[8, 9])
        path = tmp_path / "trace.jsonl"
        runner.simulate(config, str(path))
        lines = path.read_text().split("\n")[1:-1]
        assert lines == [_json_line(p) for p in _payloads(config)]
        assert lines[0].endswith(',"lam_a":8,"lam_b":9}}')
        assert '"lam_a":8,' not in lines[1]

    @pytest.mark.parametrize("env, field", [
        (lending.LendingEnv, "psi_a"), (lending.LendingEnv, "phi"),
        (attention.AttentionEnv, "omega_b"),
        (attention.AttentionEnv, "lam_a")],
        ids=["lending-psi_a", "lending-phi", "attention-omega_b",
             "attention-lam_a"])
    def test_nan_truth_raises_json_error(self, tmp_path, monkeypatch, env,
                                         field):
        step = env.step

        def nan_step(sim, policy, rng):
            obs, truth = step(sim, policy, rng)
            truth[field] = math.nan
            return obs, truth

        monkeypatch.setattr(env, "step", nan_step)
        config = SIM if env is lending.LendingEnv else ATTENTION_SIM
        with pytest.raises(ValueError) as got:
            runner.simulate(config, str(tmp_path / "trace.jsonl"))
        with pytest.raises(ValueError) as want:
            _json_line({"truth": {field: math.nan}})
        assert type(got.value) is ValueError
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("env", [lending.LendingEnv,
                                     attention.AttentionEnv],
                             ids=["lending", "attention"])
    def test_finite_truth_whose_sum_overflows_is_written(
            self, tmp_path, monkeypatch, env):
        # The encoder accepts this truth; the line is still json's.
        step = env.step

        def huge_step(sim, policy, rng):
            obs, truth = step(sim, policy, rng)
            return obs, dict.fromkeys(truth, 1.5e308)

        monkeypatch.setattr(env, "step", huge_step)
        config = SIM if env is lending.LendingEnv else ATTENTION_SIM
        path = tmp_path / "trace.jsonl"
        runner.simulate(config, str(path))
        lines = path.read_text().split("\n")[1:-1]
        assert lines == [_json_line(p) for p in _payloads(config)]
        assert "1.5e+308" in lines[0]


_META = json.dumps(COIN_META).encode() + b"\n"
_HUGE = "9" * 5000

# Record lines (bytes, newline included where there is one) on which the
# scanner fast path of read_records must agree with json.loads.
_TRICKY_LINES = {
    "plain": b'{"t":2,"x":1}\n',
    "crlf": b'{"t":2,"x":1}\r\n',
    "lone-cr": b'{"t":2,"x":1}\r',
    "trailing-spaces": b'{"t":2,"x":1}   \n',
    "leading-space": b' {"t":2,"x":1}\n',
    "leading-tab": b'\t{"t":2,"x":1}\n',
    "bom": b'\xef\xbb\xbf{"t":2,"x":1}\n',
    "no-final-newline": b'{"t":2,"x":1}',
    "trailing-garbage": b'{"t":2,"x":1}x\n',
    "trailing-digit-no-newline": b'{"t":2,"x":1}5',
    "two-objects": b'{"t":2,"x":1} {"t":3,"x":0}\n',
    "nan": b'{"t":2,"x":NaN}\n',
    "infinity": b'{"t":2,"x":-Infinity}\n',
    "duplicate-keys": b'{"x":0,"t":2,"x":1}\n',
    "duplicate-t": b'{"t":2,"t":3,"x":1}\n',
    "number": b'5\n',
    "list": b'[1, 2]\n',
    "string": b'"t"\n',
    "null": b'null\n',
    "huge-int": b'{"t":2,"x":' + _HUGE.encode() + b'}\n',
    "huge-t": b'{"t":' + _HUGE.encode() + b',"x":1}\n',
    "big-float": b'{"t":2,"x":1e400}\n',
    "blank-lines": b'\n   \n\x0c\n\xe3\x80\x80\n{"t":2,"x":1}\n\n',
    "truncated": b'{"t":2,"x":',
    "unclosed-string": b'{"t":2,"x":"ab\n',
    "control-char": b'{"t":2,"x":"a\tb"}\n',
    "nested": b'{"t":2,"x":{"a":[1,{"b":null}]}}\n',
    "empty-object": b'{}\n',
    "float-t": b'{"t":2.0,"x":1}\n',
    "not-utf8": b'{"t":2,"x":"\xff"}\n',
}


class TestFastParse:
    """read_records parses a line with the scanner alone when the value
    ends right at the newline, and with json.loads otherwise; records
    and errors must be those of json.loads on every line."""

    @pytest.mark.parametrize("line", list(_TRICKY_LINES.values()),
                             ids=list(_TRICKY_LINES))
    def test_same_records_and_errors_as_json_loads(self, tmp_path, line):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(_META + b'{"t":1,"x":0}\n' + line
                         + b'{"t":3,"x":1}\n')
        want_records, want_error = json_loads_records(str(path))
        got_records, got_error = [], None
        try:
            _, records = traceio.read_records(str(path))
            for rec in records:
                got_records.append(rec)
        except ValueError as exc:  # TraceFormatError included
            got_error = (type(exc).__name__, str(exc))
        assert got_error == want_error
        # NaN != NaN: compare the records' JSON text
        assert json.dumps(got_records) == json.dumps(want_records)


def _random_float(rng):
    """A finite double, often one whose repr is easy to get wrong:
    signed zero, exponent notation, subnormals, extremes."""
    special = [0.0, -0.0, 1e-05, 1e+16, 1e16 + 2, 5e-324, 2.5e-320,
               2.2250738585072014e-308, 1e22, 123456789.0, 0.1, -1.5,
               1.7976931348623157e+300]
    pick = rng.random()
    if pick < 0.3:
        return rng.choice(special)
    if pick < 0.6:
        return rng.uniform(-200.0, 200.0)
    return rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(
        -320, 300)


def _random_interval(rng):
    lo, hi = sorted((_random_float(rng), _random_float(rng)))
    return ConfidenceInterval(lo, hi, rng.choice((0.0, 0.95, 0.975,
                                                  rng.random())))


def _random_output(rng):
    groups = {g: None if rng.random() < 0.2 else _random_interval(rng)
              for g in ("A", "B")}
    return MonitorOutput(
        rng.randrange(1, 10 ** rng.randint(1, 12)),
        None if rng.random() < 0.25 else _random_interval(rng),
        groups, rng.random() < 0.5, rng.random() < 0.5)


def _check_lines(outputs):
    """Each output's line equals ``json`` of its format-2 oracle dict."""
    for out in outputs:
        assert traceio.estimate_record(out) == json.dumps(
            oracle_record_v2(out), separators=(",", ":"), allow_nan=False)


def _two_group_output(t, a, b):
    phi = None if a is None or b is None else interval_sub(a, b)
    return MonitorOutput(t, phi, {"A": a, "B": b})


class TestEstimateRecord:

    @pytest.mark.parametrize("seed", range(4))
    def test_line_matches_json_of_oracle_dict(self, seed):
        rng = random.Random(seed)
        _check_lines(_random_output(rng) for _ in range(500))

    def test_fixed_cases(self):
        ci = ConfidenceInterval(-0.0, 1e-05, 0.975)
        _check_lines([MonitorOutput(1, None, {"A": ci, "B": None}),
                      MonitorOutput(7, ci, {"A": ci, "B": ci}, True, True),
                      MonitorOutput(3, ci, {"A": None, "B": None})])

    def test_non_finite_midpoint_raises(self):
        # A line whose phi midpoint a reader would derive as inf.
        phi = ConfidenceInterval(1e308, 1.7e308, 0.95)
        out = MonitorOutput(1, phi, {"A": phi, "B": phi})
        with pytest.raises(ValueError, match="not finite"):
            traceio.estimate_record(out)

    # The text of a group interval that is the object last formatted for
    # its group is reused; every other interval is formatted afresh.
    def test_repeated_absent_and_equal_intervals(self):
        x = ConfidenceInterval(0.1, 0.7, 0.975)
        y = ConfidenceInterval(-2.5, 1e-05, 0.975)
        zero = ConfidenceInterval(0.0, 1.0, 0.975)
        groups = [
            # A's object repeated while B moves, then back.
            (x, y), (x, zero), (x, y), (x, y),
            # A goes None -> interval -> None.
            (None, y), (x, y), (None, y), (None, None), (x, None),
            # New objects with equal values: the same numbers, another
            # level, and a signed zero, which compares equal to 0.0.
            (ConfidenceInterval(0.1, 0.7, 0.975), y),
            (ConfidenceInterval(0.1, 0.7, 0.5), y),
            (x, zero), (x, ConfidenceInterval(-0.0, 1.0, 0.975)),
            (x, zero),
            # The groups swap objects.
            (y, x), (x, y), (x, x),
        ]
        _check_lines(_two_group_output(t, a, b)
                     for t, (a, b) in enumerate(groups, start=1))

    def test_interleaved_monitors(self):
        # Three simulators' payloads, shuffled, through their monitors.
        streams = [(build_monitor(mon), _payloads(dict(sim, horizon=300)))
                   for sim, mon in [(SIM, MON),
                                    (ATTENTION_SIM, ATTENTION_MON),
                                    (COIN_SIM, COIN_MON)]]
        order = [stream for stream in streams for _ in range(300)]
        random.Random(11).shuffle(order)
        for mon, payloads in order:
            obs = traceio.observation_from_record(mon.kind, next(payloads))
            _check_lines([mon.update(obs)])

    def test_overflowing_midpoint_then_a_valid_line(self):
        x = ConfidenceInterval(0.1, 0.7, 0.975)
        huge = ConfidenceInterval(1e308, 1.7e308, 0.95)
        _check_lines([_two_group_output(1, x, x)])
        with pytest.raises(ValueError, match="not finite"):
            traceio.estimate_record(MonitorOutput(2, huge, {"A": huge,
                                                            "B": x}))
        _check_lines([MonitorOutput(3, x, {"A": huge, "B": x}),
                      _two_group_output(4, x, x)])


@trace_tests
class TestMonitorPipeline:

    def run_pair(self, tmp_path, sim=SIM, mon=MON):
        tmp_path.mkdir(exist_ok=True)
        trace = tmp_path / "trace.jsonl"
        est = tmp_path / "est.jsonl"
        runner.simulate(sim, str(trace))
        summary = runner.monitor_trace(str(trace), mon, str(est))
        return trace, est, summary

    def test_one_estimate_per_record(self, tmp_path):
        trace, est, summary = self.run_pair(tmp_path)
        _, records = read_all(str(est), "estimates")
        assert len(records) == 10
        assert summary["updates"] == 10
        assert summary["p99_us"] >= summary["median_us"]

    @pytest.mark.parametrize("records", [1, 15, 16, 17, 40])
    def test_summary_counts_every_update(self, tmp_path, records):
        # One update in 16 is timed, from the first.
        _, _, summary = self.run_pair(tmp_path, dict(SIM, horizon=records))
        assert summary["updates"] == records
        assert type(summary["median_us"]) is float
        assert type(summary["p99_us"]) is float
        assert summary["median_us"] <= summary["p99_us"]

    def test_estimates_reference_trace_hash(self, tmp_path):
        trace, est, _ = self.run_pair(tmp_path)
        est_meta, _ = read_all(str(est), "estimates")
        trace_meta, _ = read_all(str(trace))
        assert est_meta["trace_config_hash"] == trace_meta["config_hash"]

    def test_single_group_stream_stays_inconclusive(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        payloads = [{"t": t, "x": 5, "g": "A", "y": 0, "z": 0}
                    for t in range(1, 6)]
        traceio.write_trace(str(trace), "lending", {"custom": True},
                            payloads)
        est = tmp_path / "est.jsonl"
        runner.monitor_trace(str(trace), MON, str(est))
        meta, records = read_all(str(est), "estimates")
        _, steps = traceio.read_estimates(str(est))
        steps = list(steps)
        assert len(steps) == len(records) == 5
        assert all(phi is None and a is not None and b is None
                   for _, phi, _, _, a, b in steps)

    def test_evaluate_reports_containment(self, tmp_path):
        trace, est, _ = self.run_pair(tmp_path)
        report = runner.evaluate(str(est), str(trace))
        assert report["steps"] == 10
        assert report["truth_steps"] == report["conclusive_steps"]
        assert 0.0 <= report["containment"] <= 1.0
        _, steps = traceio.read_estimates(str(est))
        widths = [phi[1] - phi[0] for _, phi, *_ in steps if phi]
        assert report["mean_width"] == pytest.approx(
            statistics.fmean(widths), rel=1e-12)
        assert "median_width" not in report

    def test_containment_is_closed(self, tmp_path):
        # An unattended pair discovers nothing: phi is [0.0, 0.0], and so
        # is its truth, which an endpoint contains.
        trace = tmp_path / "trace.jsonl"
        est = tmp_path / "est.jsonl"
        payloads = [{"t": t, "x_a": 3, "x_b": 4, "y_a": 0, "y_b": 0, "k": 2,
                     "truth": {"phi": 0.0}} for t in range(1, 4)]
        traceio.write_trace(str(trace), "attention", {}, payloads)
        runner.monitor_trace(str(trace), ATTENTION_MON, str(est))
        _, steps = traceio.read_estimates(str(est))
        assert [phi for _, phi, *_ in steps] == [(0.0, 0.0)] * 3
        report = runner.evaluate(str(est), str(trace))
        assert report["truth_steps"] == report["contained"] == 3

    def test_evaluate_without_truth_has_no_containment(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        est = tmp_path / "est.jsonl"
        runner.simulate(SIM, str(trace), include_truth=False)
        runner.monitor_trace(str(trace), MON, str(est))
        report = runner.evaluate(str(est), str(trace))
        assert report["containment"] is None

    # The reader that numbers a line reports the record's error, so a
    # trace unlinked, or replaced as by log rotation, while the monitor
    # reads it still gets the line of its bad record.
    @pytest.mark.parametrize("change", ["unlink", "replace"])
    def test_bad_record_in_trace_changed_mid_run(self, tmp_path,
                                                 monkeypatch, change):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        lines = trace.read_text().splitlines()
        rec = json.loads(lines[9])
        rec["x"] = "bad"
        lines[9] = json.dumps(rec)
        write_lines(trace, lines)
        observation = traceio.observation_from_record

        def changing_trace(kind, rec):
            if rec["t"] == 1:
                trace.unlink()
                if change == "replace":
                    write_lines(trace, lines[:1])
            return observation(kind, rec)

        monkeypatch.setattr(traceio, "observation_from_record",
                            changing_trace)
        with pytest.raises(TraceFormatError,
                           match=f"{trace}:10: bad record t=9: "):
            runner.monitor_trace(str(trace), MON, str(tmp_path / "e.jsonl"))
        assert trace.exists() == (change == "replace")

    def test_evaluate_memory_does_not_grow_with_records(self, tmp_path):
        peaks = []
        for horizon in (2_000, 20_000):
            trace, est, _ = self.run_pair(tmp_path / str(horizon),
                                          dict(SIM, horizon=horizon))
            tracemalloc.start()
            try:
                report = runner.evaluate(str(est), str(trace))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report["steps"] == horizon
        # width_decay gains an entry per doubling of t: 4 more at 20k.
        assert peaks[1] - peaks[0] < 2048, peaks

    def test_monitor_memory_does_not_grow_with_records(self, tmp_path,
                                                       monkeypatch):
        # Both runs fill the list of samples and thin it.
        monkeypatch.setattr(runner, "LATENCY_SAMPLES", 64)
        peaks = []
        for horizon in (2_000, 20_000):
            trace = tmp_path / f"trace{horizon}.jsonl"
            runner.simulate(dict(SIM, horizon=horizon), str(trace))
            tracemalloc.start()
            try:
                summary = runner.monitor_trace(
                    str(trace), MON, str(tmp_path / f"est{horizon}.jsonl"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert summary["updates"] == horizon
            assert 32 <= summary["samples"] < 64
        assert peaks[1] - peaks[0] < 2048, peaks

    def test_evaluate_accepts_the_full_twin_of_a_no_truth_trace(
            self, tmp_path):
        bare = tmp_path / "bare.jsonl"
        full = tmp_path / "full.jsonl"
        est = tmp_path / "est.jsonl"
        runner.simulate(SIM, str(bare), include_truth=False)
        runner.simulate(SIM, str(full))
        runner.monitor_trace(str(bare), MON, str(est))
        report = runner.evaluate(str(est), str(full))
        assert report["truth_steps"] == report["conclusive_steps"] > 0

    def test_width_decay_samples_once_per_doubling_of_t(self, tmp_path):
        # Group B first appears at t = 100, the first conclusive step.
        trace = tmp_path / "trace.jsonl"
        est = tmp_path / "est.jsonl"
        payloads = [{"t": t, "x": 5, "g": "B" if t >= 100 and t % 2 == 0
                     else "A", "y": 0, "z": 0} for t in range(1, 601)]
        traceio.write_trace(str(trace), "lending", {}, payloads)
        runner.monitor_trace(str(trace), MON, str(est))
        report = runner.evaluate(str(est), str(trace))
        assert report["conclusive_steps"] == 501
        assert [d["t"] for d in report["width_decay"]] == [100, 128, 256,
                                                            512]


class TestLatencySummary:

    @staticmethod
    def exact(values):
        ordered = sorted(values)
        n = len(ordered)
        return {"samples": n, "median_us": statistics.median(ordered) / 1e3,
                "p99_us": ordered[-(-99 * n // 100) - 1] / 1e3,
                "mean_us": statistics.fmean(ordered) / 1e3}

    @pytest.mark.parametrize("n", [1, 2, 10, 1023, 1024, 5000, 20000])
    def test_percentiles_are_exact(self, n):
        rng = random.Random(n)
        values = [int(rng.lognormvariate(8.0, 1.5)) for _ in range(n - 6)]
        values += [0, 1, 63, 64, 65, 10 ** 7][:n]
        assert runner.latency_summary(values) == self.exact(values)

    def test_values_below_64_ns_and_no_values(self):
        values = [(7 * i) % 64 for i in range(3001)]
        assert runner.latency_summary(values) == self.exact(values)
        assert runner.latency_summary([]) == {
            "samples": 0, "median_us": None, "p99_us": None,
            "mean_us": None}

    # With room for 8 samples, the list is thinned at record 112, where
    # the stride doubles to 32, then at 224 (to 64), 448 (to 128) and
    # 896 (to 256).
    @pytest.mark.parametrize("horizon, stride", [
        (112, 16), (113, 32), (200, 32), (1000, 256)])
    def test_monitor_keeps_evenly_thinned_samples(self, tmp_path,
                                                  monkeypatch, horizon,
                                                  stride):
        monkeypatch.setattr(runner, "LATENCY_SAMPLES", 8)
        seen_t, calls, kept = [], count(), []
        observation, summarize = (traceio.observation_from_record,
                                  runner.latency_summary)

        def observe(kind, rec):
            seen_t.append(rec["t"])
            return observation(kind, rec)

        def clock():
            # 0 before an update and the record's t after it, so each
            # sample is the t of the record it timed.
            return seen_t[-1] if next(calls) % 2 else 0

        def summary(samples):
            kept.extend(samples)
            return summarize(samples)

        monkeypatch.setattr(traceio, "observation_from_record", observe)
        monkeypatch.setattr(runner, "time",
                            SimpleNamespace(perf_counter_ns=clock))
        monkeypatch.setattr(runner, "latency_summary", summary)
        trace = tmp_path / "trace.jsonl"
        runner.simulate(dict(SIM, horizon=horizon), str(trace))
        got = runner.monitor_trace(str(trace), MON, str(tmp_path / "e"))
        # Record i (from 0) is t = i + 1.
        assert kept == list(range(1, horizon + 1, stride))
        assert got == dict(self.exact(kept), updates=horizon)


@pytest.mark.parametrize("kind", ["lending", "attention"])
class TestBench:

    def test_updates_on_its_simulators_observations(self, monkeypatch, kind):
        seen = []

        def recording_monitor(config):
            mon = build_monitor(config)

            def update(obs):
                seen.append(obs)
                return mon.update(obs)
            return SimpleNamespace(update=update)

        monkeypatch.setattr(runner, "build_monitor", recording_monitor)
        sim, _ = runner.BENCHES[kind]
        assert runner.bench(kind, 50, seed=3)["samples"] == 50
        assert seen == [traceio.observation_from_record(kind, payload)
                        for payload in _payloads(dict(sim, horizon=50,
                                                      seed=3))]

    def test_configs_describe_one_model(self, kind):
        sim, mon = runner.BENCHES[kind]
        assert sim["kind"] == mon["kind"] == kind
        runner.check_model("bench", sim["kind"], sim, mon)

    def test_configs_are_the_perfbench_stream_workloads(self, kind):
        path = Path(__file__).resolve().parents[1] / "perfbench/workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        _, sim, mon, *_ = workloads.WORKLOADS[f"{kind}-stream"]
        assert runner.BENCHES[kind] == (sim, mon)


def test_bench_of_a_kind_without_a_workload_is_config_error():
    with pytest.raises(ConfigError, match="^no benchmark for kind 'coin'$"):
        runner.bench("coin", 10)


@trace_tests
class TestSnapshotResume:

    def split_trace(self, tmp_path, trace, split):
        lines = trace.read_text().splitlines()
        head = tmp_path / f"head{split}.jsonl"
        tail = tmp_path / f"tail{split}.jsonl"
        write_lines(head, [lines[0]] + lines[1:1 + split])
        write_lines(tail, [lines[0]] + lines[1 + split:])
        return head, tail

    @pytest.mark.parametrize("sim,mon", [
        (SIM, MON),
        ({"kind": "attention", "l": 5, "k": 6, "gamma": 0.0025,
          "horizon": 10, "seed": 7},
         {"kind": "attention", "gamma": 0.0025, "lambda_min": 4.0,
          "lambda_max": 12.0, "delta": 0.05}),
        (COIN_SIM, COIN_MON),
    ])
    def test_split_at_every_step_matches_unsplit(self, tmp_path, sim, mon):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(sim, str(trace))
        whole = tmp_path / "whole.jsonl"
        runner.monitor_trace(str(trace), mon, str(whole))
        _, want = read_all(str(whole), "estimates")

        for split in range(0, 11):
            head, tail = self.split_trace(tmp_path, trace, split)
            est1 = tmp_path / "est1.jsonl"
            est2 = tmp_path / "est2.jsonl"
            snap = tmp_path / "snap.json"
            runner.monitor_trace(str(head), mon, str(est1),
                                 snapshot_out=str(snap))
            runner.monitor_trace(str(tail), None, str(est2),
                                 snapshot_in=str(snap))
            _, part1 = read_all(str(est1), "estimates")
            meta2, tail_records = traceio.read_records(
                str(est2), "estimates", start_t=split + 1)
            part2 = list(tail_records)
            assert part1 + part2 == want, f"split at {split}"

    # A resumed run's estimates start past t=1; export reads them, and
    # eval reads them against the rest of the trace.
    @pytest.mark.parametrize("sim, mon", [
        (dict(SIM, horizon=40), MON),
        (dict(ATTENTION_SIM, horizon=40), ATTENTION_MON),
        (dict(COIN_SIM, horizon=40), COIN_MON)],
        ids=["lending", "attention", "coin"])
    def test_resumed_estimates_are_exported_and_evaluated(
            self, tmp_path, sim, mon):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(sim, str(trace))
        whole, csv_path = tmp_path / "whole.jsonl", tmp_path / "whole.csv"
        runner.monitor_trace(str(trace), mon, str(whole))
        traceio.export_csv(str(whole), str(csv_path))
        want_rows = csv_path.read_text().splitlines()
        counts = ("steps", "truth_steps", "contained")
        report = runner.evaluate(str(whole), str(trace))
        want_counts = [report[key] for key in counts]
        assert report["steps"] == 40 and report["truth_steps"] > 0

        for split in (1, 7, 20, 39):
            head, tail = self.split_trace(tmp_path, trace, split)
            snap = str(tmp_path / "snap.json")
            rows, got_counts = [], [0] * len(counts)
            for part, config, snap_in, snap_out in (
                    (head, mon, None, snap), (tail, None, snap, None)):
                est = tmp_path / f"{part.stem}-est.jsonl"
                runner.monitor_trace(str(part), config, str(est),
                                     snapshot_in=snap_in,
                                     snapshot_out=snap_out)
                traceio.export_csv(str(est), str(csv_path))
                # One header row, the head's.
                rows += csv_path.read_text().splitlines()[bool(rows):]
                report = runner.evaluate(str(est), str(part))
                got_counts = [n + report[key]
                              for n, key in zip(got_counts, counts)]
            assert rows == want_rows, f"split at {split}"
            assert got_counts == want_counts, f"split at {split}"

    def test_one_record_resumed_batch_is_timed(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(dict(SIM, horizon=18), str(trace))
        head, tail = self.split_trace(tmp_path, trace, 17)
        snap = tmp_path / "snap.json"
        runner.monitor_trace(str(head), MON, str(tmp_path / "e1.jsonl"),
                             snapshot_out=str(snap))
        summary = runner.monitor_trace(str(tail), None,
                                       str(tmp_path / "e2.jsonl"),
                                       snapshot_in=str(snap))
        assert summary["updates"] == 1
        assert type(summary["median_us"]) is float
        assert summary["median_us"] <= summary["p99_us"]


@trace_tests
class TestCsvExport:

    def test_header_and_rows(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        est = tmp_path / "est.jsonl"
        out = tmp_path / "est.csv"
        runner.simulate(SIM, str(trace))
        runner.monitor_trace(str(trace), MON, str(est))
        traceio.export_csv(str(est), str(out))
        # csv's own line end, "\r\n", which splitlines would not tell.
        assert out.read_bytes().startswith(
            b"t,conclusive,phi_lo,phi_hi,point,clamped,floor_violation,"
            b"a_lo,a_hi,b_lo,b_hi\r\n")
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == traceio.CSV_FIELDS
        assert len(lines) == 11

    # An estimates line carries only the group intervals and the flags;
    # export and eval derive conclusive, phi and its midpoint bit for bit
    # as the monitor computed them.
    @pytest.mark.parametrize("sim, mon", [
        (dict(SIM, horizon=400), MON),
        (dict(ATTENTION_SIM, horizon=400), ATTENTION_MON),
        (dict(COIN_SIM, horizon=400), COIN_MON)],
        ids=["lending", "attention", "coin"])
    def test_rows_and_report_are_the_monitor_outputs(self, tmp_path, sim,
                                                      mon):
        trace, est = tmp_path / "trace.jsonl", tmp_path / "est.jsonl"
        out = tmp_path / "est.csv"
        runner.simulate(sim, str(trace))
        runner.monitor_trace(str(trace), mon, str(est))
        traceio.export_csv(str(est), str(out))
        _, records = read_all(str(trace))
        monitor = build_monitor(mon)
        outputs = [monitor.update(traceio.observation_from_record(
            monitor.kind, rec)) for rec in records]

        # csv writes a float as its repr, so equal text is equal bits.
        def text(*values):
            return ["" if v is None else repr(v) for v in values]

        want = [traceio.CSV_FIELDS]
        for o in outputs:
            phi, a, b = o.phi, o.per_group["A"], o.per_group["B"]
            want.append(
                [str(o.t), str(o.conclusive)]
                + (text(None, None, None) if phi is None
                   else text(phi.lo, phi.hi, phi.midpoint))
                + [str(o.clamped), str(o.floor_violation)]
                + (text(None, None) if a is None else text(a.lo, a.hi))
                + (text(None, None) if b is None else text(b.lo, b.hi)))
        with open(out, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == want
        assert out.read_bytes().count(b"\r\n") == len(want)

        report = runner.evaluate(str(est), str(trace))
        steps = [(o.t, o.phi, rec["truth"]["phi"])
                 for o, rec in zip(outputs, records) if o.conclusive]
        assert report["steps"] == len(outputs)
        assert report["conclusive_steps"] == len(steps) > 0
        assert report["truth_steps"] == len(steps)
        assert report["contained"] == sum(phi.lo <= truth <= phi.hi
                                          for _, phi, truth in steps)
        width_sum = 0.0
        for _, phi, _ in steps:
            width_sum += phi.hi - phi.lo
        assert report["mean_width"] == width_sum / len(steps)
        widths = {t: phi.hi - phi.lo for t, phi, _ in steps}
        for point in report["width_decay"]:
            assert point["width"] == widths[point["t"]]


class TestOutput:
    """traceio.output, the one writer of every output file, removes a
    file whose write failed, and only a regular file."""

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "old"])
    def test_failed_write_leaves_nothing(self, tmp_path, existing):
        path = tmp_path / "out"
        if existing:
            path.write_text("an earlier run's output\n")
        with pytest.raises(KeyboardInterrupt):
            with traceio.output(path) as fh:
                fh.write("partial\n")
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("special", ["devnull", "symlink"])
    def test_failed_write_spares_a_special_file(self, tmp_path, monkeypatch,
                                                special):
        removed = []
        monkeypatch.setattr(os, "remove", removed.append)
        path = os.devnull
        if special == "symlink":
            path = tmp_path / "link"
            path.symlink_to(tmp_path / "target")
        with pytest.raises(TraceFormatError):
            with traceio.output(path) as fh:
                fh.write("partial\n")
                raise TraceFormatError("bad record")
        assert removed == []
        if special == "symlink":
            assert path.is_symlink()


@trace_tests
class TestCli:

    def write_config(self, tmp_path, sim=None, mon=None):
        cfg = {}
        if sim is not None:
            cfg["simulator"] = {k: v for k, v in sim.items() if k != "seed"}
        if mon is not None:
            cfg["monitor"] = mon
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_full_pipeline_exit_codes(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SIM, MON)
        trace = tmp_path / "trace.jsonl"
        est = tmp_path / "est.jsonl"
        report = tmp_path / "report.json"
        assert cli.main(["simulate", "--config", str(cfg), "--seed", "42",
                         "-o", str(trace)]) == 0
        assert cli.main(["monitor", "--trace", str(trace), "--config",
                         str(cfg), "-o", str(est)]) == 0
        assert cli.main(["eval", "--estimates", str(est), "--trace",
                         str(trace), "-o", str(report)]) == 0
        assert json.loads(report.read_text())["steps"] == 10
        capsys.readouterr()

    def test_run_command_writes_all_outputs(self, tmp_path, capsys):
        # run writes the bytes that simulate, monitor and eval -o write
        # with the same config and seed.
        for sim, mon in [(SIM, MON), (ATTENTION_SIM, ATTENTION_MON),
                         (COIN_SIM, COIN_MON)]:
            work = tmp_path / sim["kind"]
            work.mkdir()
            cfg = str(self.write_config(work, sim, mon))
            out_dir = work / "out"
            assert cli.main(["run", "--config", cfg, "--seed", "42",
                             "--out-dir", str(out_dir)]) == 0
            trace, est, report = (str(work / name) for name in
                                  ("trace.jsonl", "estimates.jsonl",
                                   "report.json"))
            assert cli.main(["simulate", "--config", cfg, "--seed", "42",
                             "-o", trace]) == 0
            assert cli.main(["monitor", "--trace", trace, "--config", cfg,
                             "-o", est]) == 0
            assert cli.main(["eval", "--estimates", est, "--trace", trace,
                             "-o", report]) == 0
            for name in ("trace.jsonl", "estimates.jsonl", "report.json"):
                assert (out_dir / name).read_bytes() == \
                    (work / name).read_bytes(), (sim["kind"], name)
        capsys.readouterr()

    def test_override_flag_changes_simulation(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SIM, MON)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        cli.main(["simulate", "--config", str(cfg), "--seed", "42",
                  "-o", str(a)])
        cli.main(["simulate", "--config", str(cfg), "--seed", "42",
                  "-o", str(b), "--set", "horizon=3"])
        _, records = read_all(str(b))
        assert len(records) == 3
        assert not filecmp.cmp(str(a), str(b), shallow=False)
        capsys.readouterr()

    def test_override_that_is_not_json_is_a_string(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SIM, MON)
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["simulate", "--config", str(cfg), "--seed", "42",
                         "-o", str(trace), "--set", "policy=eq_opp"]) == 0
        meta, _ = read_all(str(trace))
        assert meta["config"]["policy"] == "eq_opp"
        capsys.readouterr()

    def test_eval_without_output_prints_the_report(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        est = tmp_path / "est.jsonl"
        runner.simulate(SIM, str(trace))
        runner.monitor_trace(str(trace), MON, str(est))
        capsys.readouterr()
        assert cli.main(["eval", "--estimates", str(est), "--trace",
                         str(trace)]) == 0
        out = capsys.readouterr().out
        report = runner.evaluate(str(est), str(trace))
        assert out == json.dumps(report, indent=2) + "\n"
        assert sorted(os.listdir(tmp_path)) == ["est.jsonl", "trace.jsonl"]

    def test_truncated_file_never_exits_0(self, tmp_path, capsys,
                                          monkeypatch):
        # Every byte prefix of the estimates file or of the trace of a
        # 12-record run fails eval, except the one that drops only the
        # final newline; monitor fails on a trace cut inside a line.
        # One parser serves the ~5,000 calls: building it is most of the
        # cost of a call.
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        trace = tmp_path / "trace.jsonl"
        est = tmp_path / "est.jsonl"
        runner.simulate(dict(SIM, horizon=12), str(trace))
        runner.monitor_trace(str(trace), MON, str(est))
        cut = tmp_path / "cut.jsonl"
        report = str(tmp_path / "report.json")
        for whole in (est, trace):
            data = whole.read_bytes()
            files = {est: est, trace: trace, whole: cut}
            for n in range(len(data) - 1):
                cut.write_bytes(data[:n])
                assert cli.main(["eval", "--estimates", str(files[est]),
                                 "--trace", str(files[trace]), "-o",
                                 report]) == 2, (whole.name, n)
        cfg = str(self.write_config(tmp_path, mon=MON))
        data = trace.read_bytes()
        for n in range(1, len(data)):
            if b"\n" in data[n - 1:n + 1]:
                continue
            cut.write_bytes(data[:n])
            assert cli.main(["monitor", "--trace", str(cut), "--config", cfg,
                             "-o", str(tmp_path / "e.jsonl")]) == 2, n
        capsys.readouterr()

    def test_rate_interval_past_max_rate_runs(self, tmp_path, capsys):
        # The first rate interval around 600 reaches past 700, where the
        # discovery probability is not computed: clamped, not a data error.
        sim = {"kind": "attention", "l": 2, "k": 2, "gamma": 0.0,
               "lambda_init": 600.0, "horizon": 50}
        mon = {"kind": "attention", "gamma": 0.0, "lambda_min": 500.0,
               "lambda_max": 650.0, "delta": 0.05}
        cfg = self.write_config(tmp_path, sim, mon)
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--seed", "1",
                         "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["containment"] == 1.0
        _, records = read_all(str(out_dir / "estimates.jsonl"), "estimates")
        assert [r["t"] for r in records if r["clamped"]] == [1]

    def test_bench_runs(self, capsys):
        assert cli.main(["bench", "--kind", "lending",
                         "--updates", "200"]) == 0
        assert cli.main(["bench", "--kind", "attention",
                         "--updates", "50"]) == 0
        out = capsys.readouterr().out
        for key in ("median=", "p99=", "mean="):
            assert out.count(key) == 2, out

    def test_monitor_prints_the_sample_count(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, dict(SIM, horizon=40), MON)
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["simulate", "--config", str(cfg), "--seed", "42",
                         "-o", str(trace)]) == 0
        capsys.readouterr()
        assert cli.main(["monitor", "--trace", str(trace), "--config",
                         str(cfg), "-o", str(tmp_path / "e.jsonl")]) == 0
        err = capsys.readouterr().err
        # Records 0, 16 and 32 are timed.
        assert err.startswith("updates: 40  median: "), err
        assert err.endswith(" us  timed: 3\n"), err

    def test_export_command(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SIM, MON)
        out_dir = tmp_path / "out"
        cli.main(["run", "--config", str(cfg), "--seed", "42",
                  "--out-dir", str(out_dir)])
        csv_path = tmp_path / "est.csv"
        assert cli.main(["export", "--estimates",
                         str(out_dir / "estimates.jsonl"),
                         "-o", str(csv_path)]) == 0
        assert csv_path.exists()
        capsys.readouterr()

    def test_module_entry_point(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-m", "fairmon", "--help"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "usage: fairmon" in proc.stdout


_CI = Path(__file__).resolve().parents[1] / ".github/workflows/ci.yml"


class TestCiWorkflow:
    """Every pipeline check lives in the tests, which gate each change;
    CI's installed-script step runs the bad-input table and one
    ``fairmon run``, and keeps no second copy of a check.  The mutation
    table, which tier 1 does not run, has a step of its own."""

    def test_mutation_table_runs_in_its_own_step(self):
        assert "\n        run: python tests/mutants.py\n" in _CI.read_text()

    def test_installed_script_step_runs_one_pipeline(self):
        step = _CI.read_text().split(
            "- name: Installed console script runs the pipeline\n")[1]
        step = step.split("- name:")[0]
        # Drop the bodies of here-documents and the comments.
        step = re.sub(r"<<'(\w+)'\n.*?\n\s*\1\n", "\n", step, flags=re.S)
        commands = [line.strip() for line in step.splitlines()
                    if line.strip() and not line.strip().startswith("#")]
        assert re.findall(r"\bfairmon (\w+)", step) == ["run"], commands
        python_c = [c for c in commands if re.search(r"python3? -c", c)]
        assert len(python_c) == 1, python_c
        assert python_c[0].endswith('/run/report.json"'), python_c
