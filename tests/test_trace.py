"""File format, pipeline, snapshot/resume, and CLI exit-code tests."""

import csv
import filecmp
import hashlib
import json
import math
import os
import random
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
from fairmon.monitors import MONITORS, CoinObservation, build_monitor
from oracles import json_loads_records, oracle_record_v2

SIM = {"kind": "lending", "n_a": 5, "n_b": 5, "c_max": 10, "horizon": 10,
       "seed": 42}
MON = {"kind": "lending", "n_a": 5, "n_b": 5, "c_max": 10, "delta": 0.05}
ATTENTION_SIM = {"kind": "attention", "l": 2, "k": 6, "gamma": 0.0025,
                 "horizon": 10, "seed": 42}
ATTENTION_MON = {"kind": "attention", "gamma": 0.0025, "lambda_min": 4.0,
                 "lambda_max": 12.0, "delta": 0.05}
COIN_SIM = {"kind": "coin", "p1": 0.5, "epsilon": 0.001, "horizon": 10,
            "seed": 42}
COIN_MON = {"kind": "coin", "epsilon": 0.001, "delta": 0.05}
# The metadata of a trace not made by `fairmon simulate`: an empty config
# under its hash, traceio.config_hash({}).
COIN_META = {"format": 1, "file": "trace", "kind": "coin", "config": {},
             "config_hash": "44136fa355b3678a"}


def read_all(path, expected_file="trace"):
    meta, records = traceio.read_records(path, expected_file)
    return meta, list(records)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


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
        formats = [json.loads(path.read_text().split("\n")[0])["format"]
                   for path in (trace, est, snap)]
        assert formats == [1, 2, 1]

    @pytest.mark.parametrize("file, version", [
        ("estimates", 0), ("estimates", 1), ("estimates", 3), ("trace", 2),
        ("snapshot", 2)])
    def test_unsupported_version_of_a_file_kind(self, tmp_path, file,
                                                version):
        bad = tmp_path / "bad.jsonl"
        write_lines(bad, [json.dumps({"format": version, "file": file,
                                      "kind": "coin"})])
        article = "an" if file == "estimates" else "a"
        with pytest.raises(TraceFormatError,
                           match=f"{bad}:1: unsupported format version "
                                 f"{version} of {article} {file} file"):
            traceio.read_records(str(bad), file)

    @pytest.mark.parametrize("file, expected", [
        ("trace", "an estimates"), ("estimates", "a trace"),
        ("trace", "a snapshot")])
    def test_file_of_another_type_names_the_metadata_line(
            self, tmp_path, file, expected):
        bad = tmp_path / "bad.jsonl"
        write_lines(bad, [json.dumps({"format": 1, "file": file,
                                      "kind": "coin"})])
        with pytest.raises(TraceFormatError) as info:
            traceio.read_records(str(bad), expected.split()[1])
        assert str(info.value) == \
            f"{bad}:1: expected {expected} file, got {file!r}"

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

    def test_missing_file_kind_in_metadata(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        write_lines(bad, [json.dumps({"format": 1, "file": "estimates"})])
        with pytest.raises(TraceFormatError):
            traceio.read_records(str(bad), "trace")

    @pytest.mark.parametrize("kind", [None, "housing", ["lending"]],
                             ids=["no-kind", "unknown-kind", "list-kind"])
    def test_metadata_needs_a_known_kind(self, tmp_path, kind):
        bad = tmp_path / "bad.jsonl"
        meta = {"format": 1, "file": "trace", "config": {},
                "config_hash": "x"}
        if kind is not None:
            meta["kind"] = kind
        write_lines(bad, [json.dumps(meta), json.dumps({"t": 1, "x": 1})])
        with pytest.raises(TraceFormatError, match=f"{bad}:1: unknown or "
                           "missing kind"):
            traceio.read_records(str(bad), "trace")

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

    def test_metadata_must_be_an_object(self, tmp_path):
        bad = tmp_path / "bad.json"
        write_lines(bad, ["[1, 2]"])
        with pytest.raises(TraceFormatError, match="not a JSON object"):
            traceio.read_snapshot(str(bad))

    def test_unsupported_format_version(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        write_lines(bad, [json.dumps({"format": 99, "file": "trace"})])
        with pytest.raises(TraceFormatError):
            traceio.read_records(str(bad), "trace")

    @pytest.mark.parametrize("version", [True, 1.0],
                             ids=["true", "float"])
    def test_format_version_must_be_an_integer(self, tmp_path, version):
        # JSON true and 1.0 compare equal to the version 1.
        bad = tmp_path / "bad.jsonl"
        write_lines(bad, [json.dumps(dict(COIN_META, format=version))])
        with pytest.raises(TraceFormatError,
                           match="unsupported format version"):
            traceio.read_records(str(bad), "trace")

    @pytest.mark.parametrize("first_t", [True, 1.0], ids=["true", "float"])
    def test_record_t_must_be_an_integer(self, tmp_path, first_t):
        bad = tmp_path / "bad.jsonl"
        write_lines(bad, [
            json.dumps(COIN_META),
            json.dumps({"t": first_t, "x": 1}),
        ])
        _, records = traceio.read_records(str(bad), "trace")
        with pytest.raises(TraceFormatError, match=f"{bad}:2: expected t=1"):
            list(records)

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

    def test_corrupt_record_reports_line_number(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        write_lines(bad, [
            json.dumps(COIN_META),
            json.dumps({"t": 1, "x": 1}),
            "{not json",
        ])
        _, records = traceio.read_records(str(bad), "trace")
        with pytest.raises(TraceFormatError, match=":3"):
            list(records)

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"t"', "null"])
    def test_non_object_record_reports_line_number(self, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        write_lines(bad, [
            json.dumps(COIN_META),
            json.dumps({"t": 1, "x": 1}),
            line,
        ])
        _, records = traceio.read_records(str(bad), "trace")
        with pytest.raises(TraceFormatError,
                           match=f"{bad}:3: record is not a JSON object"):
            list(records)

    def test_non_monotone_t_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        write_lines(bad, [
            json.dumps(COIN_META),
            json.dumps({"t": 1, "x": 1}),
            json.dumps({"t": 3, "x": 0}),
        ])
        _, records = traceio.read_records(str(bad), "trace")
        with pytest.raises(TraceFormatError, match="expected t=2"):
            list(records)


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
_OFF_TEMPLATE = {
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
    """write_trace writes each payload as json.dumps does; a payload of
    its simulator's layout is filled into the kind's template, any other
    goes through the JSON encoder."""

    @pytest.mark.parametrize("seed", [1, 7, 12])
    @pytest.mark.parametrize("config", [
        SIM, dict(SIM, policy="eq_opp"),
        dict(SIM, policy="eq_opp", use_true_tallies=False),
        ATTENTION_SIM, dict(ATTENTION_SIM, policy="greedy"),
        dict(ATTENTION_SIM, policy="constrained_greedy"), COIN_SIM],
        ids=["max_reward", "eq_opp", "eq_opp-seen", "uniform", "greedy",
             "constrained_greedy", "coin"])
    def test_simulated_lines_are_json_from_the_template(
            self, tmp_path, monkeypatch, config, seed):
        kind, cfg = runner.build_sim(dict(config, seed=seed, horizon=300))
        generate = runner._simulators()[kind][1]
        encoded = []
        encode = traceio._dumps

        def counting_encode(obj):
            encoded.append(obj)
            return encode(obj)

        monkeypatch.setattr(traceio, "_dumps", counting_encode)
        lines = _written_lines(tmp_path / "trace.jsonl", kind, generate(cfg))
        assert lines == [_json_line(p) for p in generate(cfg)]
        assert len(encoded) == 1  # the metadata line

    @pytest.mark.parametrize("kind, payload", list(_OFF_TEMPLATE.values()),
                             ids=list(_OFF_TEMPLATE))
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
        kind, cfg = runner.build_sim(
            dict(ATTENTION_SIM, lambda_init_per_location=[8, 9]))
        generate = runner._simulators()[kind][1]
        lines = _written_lines(tmp_path / "trace.jsonl", kind, generate(cfg))
        assert lines == [_json_line(p) for p in generate(cfg)]
        assert lines[0].endswith(',"lam_a":8,"lam_b":9}}')
        assert '"lam_a":8,' not in lines[1]

    @pytest.mark.parametrize("config", [
        SIM, dict(SIM, policy="eq_opp"), ATTENTION_SIM,
        dict(ATTENTION_SIM, policy="greedy"), COIN_SIM],
        ids=["max_reward", "eq_opp", "uniform", "greedy", "coin"])
    def test_no_truth_lines_are_json(self, tmp_path, config):
        config = dict(config, horizon=300)
        kind, cfg = runner.build_sim(config)
        generate = runner._simulators()[kind][1]
        path = tmp_path / "trace.jsonl"
        runner.simulate(config, str(path), include_truth=False)
        lines = path.read_text().split("\n")[1:-1]
        assert lines == [
            _json_line({k: v for k, v in p.items() if k != "truth"})
            for p in generate(cfg)]


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
    "blank-lines": b'\n   \n{"t":2,"x":1}\n\n',
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
        rng = random.Random(11)
        streams = [(build_monitor(config), observation)
                   for config, observation in runner.BENCHES.values()]
        streams.append((build_monitor(COIN_MON),
                        lambda rng: CoinObservation(rng.randrange(2))))
        for _ in range(900):
            mon, observation = rng.choice(streams)
            _check_lines([mon.update(observation(rng))])

    def test_overflowing_midpoint_then_a_valid_line(self):
        x = ConfidenceInterval(0.1, 0.7, 0.975)
        huge = ConfidenceInterval(1e308, 1.7e308, 0.95)
        _check_lines([_two_group_output(1, x, x)])
        with pytest.raises(ValueError, match="not finite"):
            traceio.estimate_record(MonitorOutput(2, huge, {"A": huge,
                                                            "B": x}))
        _check_lines([MonitorOutput(3, x, {"A": huge, "B": x}),
                      _two_group_output(4, x, x)])


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

    def test_kind_mismatch_rejected(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        runner.simulate({"kind": "coin", "p1": 0.5, "epsilon": 0.0,
                         "horizon": 5, "seed": 1}, str(trace))
        with pytest.raises(TraceFormatError,
                           match=f"{trace}:1: trace kind 'coin'"):
            runner.monitor_trace(str(trace), MON, str(tmp_path / "e.jsonl"))

    def test_evaluate_kind_mismatch_names_the_estimates(self, tmp_path):
        _, est, _ = self.run_pair(tmp_path)
        trace = tmp_path / "coin.jsonl"
        runner.simulate(COIN_SIM, str(trace))
        with pytest.raises(TraceFormatError,
                           match=f"{est}:1: estimates kind 'lending' "
                                 f"differs from the trace's kind 'coin'"):
            runner.evaluate(str(est), str(trace))

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

    def test_evaluate_without_truth_has_no_containment(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        est = tmp_path / "est.jsonl"
        runner.simulate(SIM, str(trace), include_truth=False)
        runner.monitor_trace(str(trace), MON, str(est))
        report = runner.evaluate(str(est), str(trace))
        assert report["containment"] is None

    def test_evaluate_reports_corrupt_record_line(self, tmp_path):
        trace, est, _ = self.run_pair(tmp_path)
        lines = est.read_text().splitlines()
        lines[9] = "{broken"
        write_lines(est, lines)
        with pytest.raises(TraceFormatError, match=f"{est}:10: corrupt"):
            runner.evaluate(str(est), str(trace))

    # Truth is checked on every step, the inconclusive t=1 included.
    @pytest.mark.parametrize("target, t, mutate", [
        ("trace", 9, lambda rec: rec.update(truth=5)),
        ("trace", 9, lambda rec: rec.update(truth={"phi": "1"})),
        ("estimates", 9, lambda rec: rec.update(floor_violation=0)),
        ("trace", 1, lambda rec: rec.update(truth=5)),
        ("trace", 1, lambda rec: rec.update(truth={"phi": "1"})),
        ("trace", 1, lambda rec: rec.update(truth={"phi": None})),
    ], ids=["number-truth", "text-truth-phi", "int-flag", "t1-number-truth",
            "t1-text-truth-phi", "t1-null-truth-phi"])
    def test_evaluate_reports_bad_record(self, tmp_path, target, t, mutate):
        trace, est, _ = self.run_pair(tmp_path)
        assert json.loads(est.read_text().splitlines()[1])["B"] is None
        path = est if target == "estimates" else trace
        lines = path.read_text().splitlines()
        rec = json.loads(lines[t])
        mutate(rec)
        lines[t] = json.dumps(rec)
        write_lines(path, lines)
        with pytest.raises(TraceFormatError,
                           match=f"{path}:{t + 1}: bad record t={t}: "):
            runner.evaluate(str(est), str(trace))

    # A format-2 record derives phi from its group intervals, A - B.
    @pytest.mark.parametrize("mutate, problem", [
        (lambda rec: rec.pop("A"), "missing field 'A'"),
        (lambda rec: rec.pop("B"), "missing field 'B'"),
        (lambda rec: rec.update(A="x"), "group A interval must be"),
        (lambda rec: rec.update(A=[0.5]), "group A interval must be"),
        (lambda rec: rec.update(A=[0.5, 1.0, 2.0]),
         "group A interval must be"),
        (lambda rec: rec.update(A=[0, 1]), "group A interval must be"),
        (lambda rec: rec.update(A=[10 ** 400, 10 ** 401]),
         "group A interval must be"),
        (lambda rec: rec.update(A=[0.0, math.inf]),
         "group A interval must be"),
        (lambda rec: rec.update(B=[1.0, 0.5]), "group B interval must be"),
        (lambda rec: rec.update(A=[-1.7e308, -1e308], B=[1e308, 1.7e308]),
         r"phi \[-inf, -inf\] or its midpoint is not finite"),
        (lambda rec: rec.update(A=[1e308, 1.7e308], B=[0.0, 0.0]),
         r"phi \[1e\+308, 1.7e\+308\] or its midpoint is not finite"),
        (lambda rec: rec.pop("clamped"), "missing field 'clamped'"),
        (lambda rec: rec.update(floor_violation=None),
         "clamped and floor_violation must be true or false"),
    ], ids=["no-A", "no-B", "text-A", "short-A", "long-A", "int-A",
            "huge-int-A", "inf-A", "B-lo-above-hi", "phi-overflows",
            "midpoint-overflows", "no-clamped", "null-flag"])
    def test_evaluate_reports_bad_v2_record(self, tmp_path, mutate,
                                            problem):
        trace, est, _ = self.run_pair(tmp_path)
        lines = est.read_text().splitlines()
        rec = json.loads(lines[9])
        assert rec["A"] is not None and rec["B"] is not None
        mutate(rec)
        lines[9] = json.dumps(rec)
        write_lines(est, lines)
        with pytest.raises(TraceFormatError,
                           match=f"{est}:10: bad record t=9: {problem}"):
            runner.evaluate(str(est), str(trace))

    @pytest.mark.parametrize("target", ["eval", "export"])
    def test_v2_record_without_t_names_its_line(self, tmp_path, target):
        trace, est, _ = self.run_pair(tmp_path)
        lines = est.read_text().splitlines()
        rec = json.loads(lines[9])
        del rec["t"]
        lines[9] = json.dumps(rec)
        write_lines(est, lines)
        run = {"eval": lambda: runner.evaluate(str(est), str(trace)),
               "export": lambda: traceio.export_csv(
                   str(est), str(tmp_path / "est.csv"))}[target]
        with pytest.raises(TraceFormatError,
                           match=f"{est}:10: expected t=9, got None"):
            run()

    # Blank lines before the bad record count in its line number.
    @pytest.mark.parametrize("target", ["monitor", "eval", "export"])
    def test_bad_record_after_blank_lines_names_its_line(self, tmp_path,
                                                         target):
        trace, est, _ = self.run_pair(tmp_path)
        path = trace if target == "monitor" else est
        lines = path.read_text().splitlines()
        rec = json.loads(lines[7])
        if target == "monitor":
            rec["x"] = "bad"
        else:
            del rec["A"]
        lines[7] = json.dumps(rec)
        lines[5:5] = ["", "  \t"]
        lines.insert(2, "")
        write_lines(path, lines)
        run = {"monitor": lambda: runner.monitor_trace(
                   str(trace), MON, str(tmp_path / "e2.jsonl")),
               "eval": lambda: runner.evaluate(str(est), str(trace)),
               "export": lambda: traceio.export_csv(
                   str(est), str(tmp_path / "est.csv"))}[target]
        with pytest.raises(TraceFormatError,
                           match=f"{path}:11: bad record t=7: "):
            run()

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

    def test_evaluate_rejects_length_mismatch(self, tmp_path):
        # The error names the short file, whichever of the two it is.
        trace, est, _ = self.run_pair(tmp_path)
        short = tmp_path / "short.jsonl"
        for cut, long, args in ((trace, est, (est, short)),
                                (est, trace, (short, trace))):
            write_lines(short, cut.read_text().splitlines()[:-2])
            with pytest.raises(TraceFormatError) as info:
                runner.evaluate(*map(str, args))
            assert str(info.value) == \
                f"{short}: ends after 8 records; {long} has more"


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


def _two_group_layout_before_floor_bit(state, mon):
    """The earlier two-group state: each group's confidence in "last" and
    a per-group "min_shift" instead of the "floor_violation" bit."""
    for g in ("A", "B"):
        state["last"][g].append(1.0 - mon["delta"] / 2.0)
    del state["floor_violation"]
    state["min_shift"] = {"A": 0.0, "B": 0.0}
    return state


def _coin_layout_before_shared_state(state, mon):
    """The earlier coin state, its one estimator outside the group maps."""
    return {"t": state["t"], "estimator": state["estimators"]["A"]}


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

    def test_bad_record_in_resumed_batch_names_its_line(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(dict(SIM, horizon=20), str(trace))
        head, tail = self.split_trace(tmp_path, trace, 7)
        snap = tmp_path / "snap.json"
        runner.monitor_trace(str(head), MON, str(tmp_path / "e1.jsonl"),
                             snapshot_out=str(snap))
        lines = tail.read_text().splitlines()
        rec = json.loads(lines[3])
        rec["x"] = "bad"
        lines[3] = json.dumps(rec)
        lines.insert(2, "")
        write_lines(tail, lines)
        with pytest.raises(TraceFormatError,
                           match=f"{tail}:5: bad record t=10: "):
            runner.monitor_trace(str(tail), None, str(tmp_path / "e2.jsonl"),
                                 snapshot_in=str(snap))

    def test_snapshot_config_mismatch_rejected(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        snap = tmp_path / "snap.json"
        runner.monitor_trace(str(trace), MON, str(tmp_path / "e.jsonl"),
                             snapshot_out=str(snap))
        other = dict(MON, delta=0.01)
        with pytest.raises(TraceFormatError,
                           match=f"{snap}:1: snapshot monitor config"):
            runner.monitor_trace(str(trace), other,
                                 str(tmp_path / "e2.jsonl"),
                                 snapshot_in=str(snap))

    def test_corrupted_snapshot_rejected(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        snap = tmp_path / "snap.json"
        snap.write_text("{broken\n")
        with pytest.raises(TraceFormatError):
            runner.monitor_trace(str(trace), None,
                                 str(tmp_path / "e.jsonl"),
                                 snapshot_in=str(snap))

    @pytest.mark.parametrize("mon,mutate", [
        (MON, lambda state: state.update(t=4.9)),
        (MON, lambda state: state["estimators"]["A"].update(t=True)),
        (MON, lambda state: state.pop("last")),
        (MON, lambda state: state.pop("floor_violation")),
        (MON, lambda state: state.update(t="seven")),
        (MON, lambda state: state["estimators"].update(A=[1, 2])),
        (MON, lambda state: state["last"].update(A=[0.0])),
        ({"kind": "attention", "gamma": 0.0025, "lambda_min": 4.0,
          "lambda_max": 12.0, "delta": 0.05},
         lambda state: state.update(floor_violation=1)),
        (MON, lambda state: state["estimators"]["B"].update(e1_hat=10 ** 400)),
        # Step counts that disagree with one another.
        (COIN_MON, lambda state: state.update(t=3)),
        (MON, lambda state: state.update(t=5)),
        (ATTENTION_MON, lambda state: state["estimators"]["B"].update(t=9)),
        (MON, lambda state: state["last"].update(A=None)),
        (MON, lambda state: state["estimators"]["B"].update(
            t=0, e1_hat=0.0, d=0.0, d_comp=0.0)),
        (MON, lambda state: state.update(floor_violation=True)),
        (ATTENTION_MON, lambda state: state["estimators"]["A"].update(
            d=-4.5)),
        (COIN_MON, lambda state: state.update(floor_violation=True)),
        (COIN_MON, lambda state: state["last"].update(A=None)),
        (COIN_MON, lambda state: state.pop("estimators")),
    ], ids=["fractional-t", "bool-estimator-t", "no-last",
            "no-floor-violation", "text-t", "list-estimator",
            "short-interval", "attention-int-floor-violation",
            "huge-e1-hat", "coin-t-not-estimator-t",
            "lending-t-not-group-sum", "attention-group-t-differs",
            "last-null-after-updates", "last-set-without-updates",
            "lending-floor-violation-set",
            "attention-floor-unset-below-floor", "coin-floor-violation-set",
            "coin-last-null-after-updates", "coin-no-estimators"])
    def test_bad_snapshot_state_is_data_error(self, tmp_path, capsys,
                                              mon, mutate):
        sim = {"lending": SIM, "coin": COIN_SIM,
               "attention": {"kind": "attention", "l": 5, "k": 6,
                             "gamma": 0.0025, "horizon": 10, "seed": 7},
               }[mon["kind"]]
        trace = tmp_path / "trace.jsonl"
        runner.simulate(sim, str(trace))
        snap = tmp_path / "snap.json"
        runner.monitor_trace(str(trace), mon, str(tmp_path / "e.jsonl"),
                             snapshot_out=str(snap))
        blob = json.loads(snap.read_text())
        mutate(blob["state"])
        snap.write_text(json.dumps(blob) + "\n")
        assert cli.main(["monitor", "--trace", str(trace), "--resume",
                         str(snap), "-o", str(tmp_path / "e2.jsonl")]) == 2
        assert f"data error: {snap}:1: invalid monitor state: " in \
            capsys.readouterr().err

    @pytest.mark.parametrize("sim, mon, older", [
        (SIM, MON, _two_group_layout_before_floor_bit),
        (ATTENTION_SIM, ATTENTION_MON, _two_group_layout_before_floor_bit),
        (COIN_SIM, COIN_MON, _coin_layout_before_shared_state)],
        ids=["lending", "attention", "coin"])
    def test_old_state_layout_is_data_error(self, tmp_path, capsys, sim,
                                            mon, older):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(sim, str(trace))
        snap = tmp_path / "snap.json"
        runner.monitor_trace(str(trace), mon, str(tmp_path / "e.jsonl"),
                             snapshot_out=str(snap))
        blob = json.loads(snap.read_text())
        blob["state"] = older(blob["state"], mon)
        snap.write_text(json.dumps(blob) + "\n")
        assert cli.main(["monitor", "--trace", str(trace), "--resume",
                         str(snap), "-o", str(tmp_path / "e2.jsonl")]) == 2
        assert f"data error: {snap}:1: invalid monitor state: " in \
            capsys.readouterr().err

    def test_snapshot_kind_must_match_its_config(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(COIN_SIM, str(trace))
        snap = tmp_path / "snap.json"
        runner.monitor_trace(str(trace), COIN_MON, str(tmp_path / "e.jsonl"),
                             snapshot_out=str(snap))
        blob = json.loads(snap.read_text())
        blob["kind"] = "lending"
        snap.write_text(json.dumps(blob) + "\n")
        rest = tmp_path / "rest.jsonl"
        write_lines(rest, trace.read_text().splitlines()[:1])
        assert cli.main(["monitor", "--trace", str(rest), "--resume",
                         str(snap), "-o", str(tmp_path / "e2.jsonl")]) == 2
        assert capsys.readouterr().err == (
            f"fairmon: data error: {snap}:1: snapshot kind 'lending' "
            f"differs "
            f"from its monitor_config kind 'coin'\n")

    def test_resume_onto_trace_of_another_model_is_exit_2(self, tmp_path,
                                                          capsys):
        # The snapshot was taken under n_a = 5; the rest of the stream
        # comes from a population with n_a = 6.
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        head, _ = self.split_trace(tmp_path, trace, 4)
        snap = tmp_path / "snap.json"
        runner.monitor_trace(str(head), MON, str(tmp_path / "e.jsonl"),
                             snapshot_out=str(snap))
        other = tmp_path / "other.jsonl"
        runner.simulate(dict(SIM, n_a=6), str(other))
        _, tail = self.split_trace(tmp_path, other, 4)
        assert cli.main(["monitor", "--trace", str(tail), "--resume",
                         str(snap), "-o", str(tmp_path / "e2.jsonl")]) == 2
        assert capsys.readouterr().err == (
            f"fairmon: data error: {tail}:1: trace was simulated with "
            f"n_a=6, "
            f"the monitor config has n_a=5\n")

    def test_snapshot_without_state_object_is_data_error(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        snap = tmp_path / "snap.json"
        runner.monitor_trace(str(trace), MON, str(tmp_path / "e.jsonl"),
                             snapshot_out=str(snap))
        blob = json.loads(snap.read_text())
        blob["state"] = [blob["state"]]
        snap.write_text(json.dumps(blob) + "\n")
        with pytest.raises(TraceFormatError,
                           match=f"{snap}:1: metadata needs 'state' as a "
                                 f"JSON object"):
            runner.monitor_trace(str(trace), None,
                                 str(tmp_path / "e2.jsonl"),
                                 snapshot_in=str(snap))

    # Blank lines are skipped; past the reader's first decoded chunk a
    # byte that is not UTF-8 is a data error too.
    @pytest.mark.parametrize("extra, lineno", [
        (b"not json at all\n", 2), (b"\n" * 9000 + b"\xff\n", 9002)],
        ids=["text", "not-utf8-after-blank-lines"])
    def test_snapshot_with_extra_line_is_data_error(self, tmp_path, capsys,
                                                     extra, lineno):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        head, tail = self.split_trace(tmp_path, trace, 4)
        snap = tmp_path / "snap.json"
        runner.monitor_trace(str(head), MON, str(tmp_path / "e.jsonl"),
                             snapshot_out=str(snap))
        with open(snap, "ab") as fh:
            fh.write(extra)
        out = tmp_path / "e2.jsonl"
        assert cli.main(["monitor", "--trace", str(tail), "--resume",
                         str(snap), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"fairmon: data error: {snap}:{lineno}: ")
        assert not out.exists()

    @pytest.mark.parametrize("field, value, problem", [
        ("n_a", 0, "group sizes must be in [1, 1.79769e+308]: n_a=0, "
         "n_b=5"),
        ("foo", 1, "unexpected keyword argument 'foo'"),
        ("delta", "x", "delta must be float, got 'x'"),
    ], ids=["zero-group-size", "unknown-field", "text-delta"])
    def test_bad_snapshot_monitor_config_is_data_error(
            self, tmp_path, capsys, field, value, problem):
        # The config is read from the snapshot, so it is data, not usage.
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        head, tail = self.split_trace(tmp_path, trace, 4)
        snap = tmp_path / "snap.json"
        runner.monitor_trace(str(head), MON, str(tmp_path / "e.jsonl"),
                             snapshot_out=str(snap))
        blob = json.loads(snap.read_text())
        blob["monitor_config"][field] = value
        snap.write_text(json.dumps(blob) + "\n")
        out, snap_out = tmp_path / "e2.jsonl", tmp_path / "snap2.json"
        assert cli.main(["monitor", "--trace", str(tail), "--resume",
                         str(snap), "-o", str(out), "--snapshot",
                         str(snap_out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"fairmon: data error: {snap}:1: bad monitor_config: "), err
        assert problem in err
        assert not out.exists() and not snap_out.exists()

    def test_trace_file_is_not_a_snapshot(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        with pytest.raises(TraceFormatError,
                           match=f"{trace}:1: expected a snapshot file, "
                                 f"got 'trace'"):
            runner.monitor_trace(str(trace), None,
                                 str(tmp_path / "e.jsonl"),
                                 snapshot_in=str(trace))


class TestCsvExport:

    def test_header_and_rows(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        est = tmp_path / "est.jsonl"
        out = tmp_path / "est.csv"
        runner.simulate(SIM, str(trace))
        runner.monitor_trace(str(trace), MON, str(est))
        traceio.export_csv(str(est), str(out))
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

    @pytest.mark.parametrize("mutate, problem", [
        (lambda rec: rec.pop("A"), "missing field 'A'"),
        (lambda rec: rec.pop("clamped"), "missing field 'clamped'"),
        (lambda rec: rec.pop("floor_violation"),
         "missing field 'floor_violation'"),
        (lambda rec: rec.update(A=5), "group A interval must be [lo, hi] "
         "or null, with finite floats lo <= hi; got 5"),
        (lambda rec: rec.update(B=[1.0]), "group B interval must be"),
        (lambda rec: rec.update(A=[2.0, 1.0]), "group A interval must be"),
        (lambda rec: rec.update(A=[-1.7e308, -1e308], B=[1e308, 1.7e308]),
         "phi [-inf, -inf] or its midpoint is not finite"),
        (lambda rec: rec.update(clamped=1),
         "clamped and floor_violation must be true or false; got 1, False"),
    ], ids=["missing-A", "missing-clamped", "missing-floor-violation",
            "interval-int", "interval-short", "lo-above-hi",
            "phi-overflows", "int-flag"])
    def test_malformed_v2_record_is_data_error(self, tmp_path, capsys,
                                               mutate, problem):
        trace = tmp_path / "trace.jsonl"
        est = tmp_path / "est.jsonl"
        runner.simulate(SIM, str(trace))
        runner.monitor_trace(str(trace), MON, str(est))
        self.check_export_error(tmp_path, capsys, est, mutate, problem)

    def check_export_error(self, tmp_path, capsys, est, mutate, problem):
        """Mutate record t=3 of ``est``; export must name its line."""
        lines = est.read_text().splitlines()
        rec = json.loads(lines[3])
        mutate(rec)
        lines[3] = json.dumps(rec)
        write_lines(est, lines)
        assert cli.main(["export", "--estimates", str(est),
                         "-o", str(tmp_path / "est.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fairmon: data error: {est}:4: bad record "
                              f"t=3: {problem}"), err


_DROP = object()
_OTHER_TYPE = {"object": [], "string": 1}
_SIM_HASH = traceio.config_hash(SIM)


def _hash_error(config):
    return (f"config_hash {_SIM_HASH!r} is not "
            f"{traceio.config_hash(config)!r}, the hash of its config")


# Metadata edits and the data error each gives: ({file kind: (field, new
# value or _DROP)}, the monitor config, the file whose line 1 is named,
# the message).  The files are SIM's trace and MON's estimates and
# snapshot; a bad trace is read by monitor, bad estimates by eval and a
# bad snapshot by monitor --resume.
_HEADER_ROWS = [
    pytest.param({file: (field, value)}, MON, file,
                 f"metadata needs {field!r} as a JSON {json_type}",
                 id=f"{file}-{field}-{how}")
    for file, fields in {
        "trace": {"config": "object", "config_hash": "string"},
        "estimates": {"monitor_config": "object",
                      "trace_config_hash": "string"},
        "snapshot": {"monitor_config": "object", "state": "object"},
    }.items()
    for field, json_type in fields.items()
    for how, value in (("dropped", _DROP), ("null", None),
                       ("wrong-type", _OTHER_TYPE[json_type]))
] + [
    pytest.param({"trace": ("config", dict(SIM, seed=43))}, MON, "trace",
                 _hash_error(dict(SIM, seed=43)),
                 id="trace-config-edited-under-its-hash"),
    pytest.param({"estimates": ("monitor_config", COIN_MON)}, MON,
                 "estimates", "estimates kind 'lending' differs from its "
                 "monitor_config kind 'coin'",
                 id="estimates-monitor-config-of-another-kind"),
    pytest.param({"snapshot": ("monitor_config", COIN_MON)}, MON,
                 "snapshot", "snapshot kind 'lending' differs from its "
                 "monitor_config kind 'coin'",
                 id="snapshot-monitor-config-of-another-kind"),
    # A trace simulated with n_a = 5 each ran under a monitor with n_a = 50
    # (or 5, for the lost hash), exited 0, and eval accepted the result.
    pytest.param({"trace": ("config", None)}, dict(MON, n_a=50), "trace",
                 "metadata needs 'config' as a JSON object",
                 id="null-config-hides-the-population"),
    pytest.param({"trace": ("config", dict(SIM, n_a=50))},
                 dict(MON, n_a=50), "trace",
                 _hash_error(dict(SIM, n_a=50)),
                 id="config-edited-to-the-monitor-population"),
    pytest.param({"trace": ("config_hash", _DROP),
                  "estimates": ("trace_config_hash", None)}, MON,
                 "estimates",
                 "metadata needs 'trace_config_hash' as a JSON string",
                 id="lost-hash-matches-null"),
]


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
        cfg = self.write_config(tmp_path, SIM, MON)
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--seed", "42",
                         "--out-dir", str(out_dir)]) == 0
        for name in ("trace.jsonl", "estimates.jsonl", "report.json"):
            assert (out_dir / name).exists()
        capsys.readouterr()

    def test_usage_error_is_exit_1(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", "missing.json"])
        assert exc.value.code == 1

    def test_bad_config_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["simulate", "--config", str(bad), "--seed", "1",
                         "-o", str(tmp_path / "t.jsonl")]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("text, json_type", [
        ("[1, 2]", "array"), ("5", "number"), ('"x"', "string"),
        ("null", "null")])
    @pytest.mark.parametrize("command", ["simulate", "monitor", "run"])
    def test_non_object_config_is_exit_1(self, tmp_path, capsys, command,
                                         text, json_type):
        # It ended in AttributeError: 'list' object has no attribute 'get'.
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        out = tmp_path / "out"
        argv = {"simulate": ["simulate", "--seed", "1", "-o", str(out)],
                "monitor": ["monitor", "--trace", str(trace), "-o", str(out)],
                "run": ["run", "--seed", "1", "--out-dir", str(out)]}[command]
        assert cli.main(argv + ["--config", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"fairmon: error: config {bad} must be a JSON object, got "
            f"{json_type}\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        b'{"simulator": {"n_a": ' + b"9" * 5000 + b'}}',
        b'{"simulator": "\xff"}'], ids=["huge-int", "not-utf8"])
    @pytest.mark.parametrize("command", ["simulate", "monitor", "run"])
    def test_undecodable_config_is_exit_1(self, tmp_path, capsys, command,
                                          text):
        # An int past json's digit limit, or bytes that are not UTF-8,
        # ended as a bare ValueError that did not name the config.
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        out = tmp_path / "out"
        argv = {"simulate": ["simulate", "--seed", "1", "-o", str(out)],
                "monitor": ["monitor", "--trace", str(trace), "-o", str(out)],
                "run": ["run", "--seed", "1", "--out-dir", str(out)]}[command]
        assert cli.main(argv + ["--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(
            f"fairmon: error: config {bad} is not valid JSON: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, names", [
        ("simulate --config {cfg} --seed 1 -o {cfg}",
         "input {cfg}"),
        ("monitor --trace {trace} --config {cfg} -o {trace}",
         "input {trace}"),
        ("monitor --trace {trace} --config {cfg} -o {cfg}",
         "input {cfg}"),
        ("monitor --trace {trace} --resume {snap} -o {snap}",
         "input {snap}"),
        ("monitor --trace {trace} --config {cfg} -o {new} --snapshot {trace}",
         "input {trace}"),
        ("monitor --trace {trace} --config {cfg} -o {new} --snapshot {cfg}",
         "input {cfg}"),
        ("monitor --trace {trace} --resume {snap} -o {new} --snapshot {snap}",
         "input {snap}"),
        ("monitor --trace {trace} --config {cfg} -o {new} --snapshot {new}",
         "output {new}"),
        ("monitor --trace {trace} --config {cfg} -o {link}",
         "input {trace}"),
        ("eval --estimates {est} --trace {trace} -o {est}",
         "input {est}"),
        ("eval --estimates {est} --trace {trace} -o {trace}",
         "input {trace}"),
        ("export --estimates {est} -o {est}",
         "input {est}"),
        ("run --config {run_dir}/trace.jsonl --seed 1 --out-dir {run_dir}",
         "input {run_dir}/trace.jsonl"),
        ("run --config {run_dir}/estimates.jsonl --seed 1 --out-dir {run_dir}",
         "input {run_dir}/estimates.jsonl"),
        ("run --config {run_dir}/report.json --seed 1 --out-dir {run_dir}",
         "input {run_dir}/report.json"),
    ])
    def test_output_naming_an_input_is_exit_1(self, tmp_path, capsys, argv,
                                              names):
        # monitor -o TRACE left the trace as 94 lines of estimates and
        # exited 2; eval -o ESTIMATES replaced the estimates and exited 0.
        cfg = self.write_config(tmp_path, SIM, MON)
        paths = {"cfg": cfg, "trace": tmp_path / "trace.jsonl",
                 "est": tmp_path / "est.jsonl", "snap": tmp_path / "snap",
                 "new": tmp_path / "new.jsonl", "link": tmp_path / "link",
                 "run_dir": tmp_path / "run"}
        runner.simulate(SIM, str(paths["trace"]))
        runner.monitor_trace(str(paths["trace"]), MON, str(paths["est"]),
                             snapshot_out=str(paths["snap"]))
        paths["link"].symlink_to(paths["trace"])
        paths["run_dir"].mkdir()
        for name in ("trace.jsonl", "estimates.jsonl", "report.json"):
            (paths["run_dir"] / name).write_text(cfg.read_text())
        files = sorted(p for p in tmp_path.rglob("*"))
        before = {p: p.read_bytes() for p in files if p.is_file()}
        assert cli.main(argv.format(**paths).split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("fairmon: error: output "), err
        assert err.endswith(f" is the same file as {names.format(**paths)}\n")
        assert sorted(p for p in tmp_path.rglob("*")) == files
        assert {p: p.read_bytes() for p in before} == before

    def test_missing_monitor_config_is_exit_1(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SIM, MON)
        trace = tmp_path / "trace.jsonl"
        cli.main(["simulate", "--config", str(cfg), "--seed", "42",
                  "-o", str(trace)])
        assert cli.main(["monitor", "--trace", str(trace),
                         "-o", str(tmp_path / "e.jsonl")]) == 1
        capsys.readouterr()

    def test_resume_override_needs_config(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SIM, MON)
        trace = tmp_path / "trace.jsonl"
        snap = tmp_path / "snap.json"
        runner.simulate(SIM, str(trace))
        assert cli.main(["monitor", "--trace", str(trace), "--config",
                         str(cfg), "-o", str(tmp_path / "e.jsonl"),
                         "--snapshot", str(snap)]) == 0
        capsys.readouterr()
        rest = tmp_path / "rest.jsonl"
        write_lines(rest, trace.read_text().splitlines()[:1])
        assert cli.main(["monitor", "--trace", str(rest), "--resume",
                         str(snap), "-o", str(tmp_path / "more.jsonl"),
                         "--set", "delta=0.1"]) == 1
        assert "error: --set needs --config" in capsys.readouterr().err

    def test_data_error_is_exit_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SIM, MON)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("")
        assert cli.main(["monitor", "--trace", str(bad), "--config",
                         str(cfg), "-o", str(tmp_path / "e.jsonl")]) == 2
        capsys.readouterr()

    # An int past json's digit limit, or a byte that is not UTF-8, on
    # line index + 1 of a file, within or past the first 8 KiB.
    @pytest.mark.parametrize("value, problem", [
        (b"9" * 5000, "Exceeds the limit"),
        (b'"\xff"', "line is not UTF-8 text (invalid start byte)")],
        ids=["huge-int", "not-utf8"])
    @pytest.mark.parametrize("target, index, command", [
        ("trace", 0, "monitor"), ("trace", 5, "monitor"),
        ("trace", 300, "monitor"), ("trace", 300, "eval"),
        ("estimates", 0, "eval"), ("estimates", 5, "export"),
        ("estimates", 300, "eval"), ("estimates", 300, "export"),
        ("snapshot", 0, "monitor")],
        ids=["trace-metadata", "trace-record", "trace-late-record",
             "eval-trace-late-record", "estimates-metadata",
             "estimates-record", "estimates-late-record",
             "export-estimates-late-record", "snapshot"])
    def test_undecodable_line_is_data_error(self, tmp_path, capsys, target,
                                            index, command, value, problem):
        files = {"trace": tmp_path / "trace.jsonl",
                 "estimates": tmp_path / "est.jsonl",
                 "snapshot": tmp_path / "snap.json"}
        runner.simulate(dict(SIM, horizon=400), str(files["trace"]))
        runner.monitor_trace(str(files["trace"]), MON,
                             str(files["estimates"]),
                             snapshot_out=str(files["snapshot"]))
        path = files[target]
        lines = path.read_bytes().split(b"\n")
        if index == 300:
            assert len(b"\n".join(lines[:index])) > 8192
        lines[index] = b'{"bad":' + value + b"," + lines[index][1:]
        path.write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        trace, est = str(files["trace"]), str(files["estimates"])
        argv = {"monitor": ["monitor", "--trace", trace, "-o", str(out)]
                + (["--resume", str(path)] if target == "snapshot"
                   else ["--config", str(self.write_config(tmp_path,
                                                           mon=MON))]),
                "eval": ["eval", "--estimates", est, "--trace", trace,
                         "-o", str(out)],
                "export": ["export", "--estimates", est,
                           "-o", str(out)]}[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fairmon: data error: {path}:{index + 1}: ")
        assert problem in err

    # Estimates format 1 is no longer read; its metadata names the trace
    # it was computed from, so it can be regenerated exactly.
    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_format_1_estimates_is_exit_2(self, tmp_path, capsys, command):
        trace, est = tmp_path / "trace.jsonl", tmp_path / "est.jsonl"
        runner.simulate(SIM, str(trace))
        runner.monitor_trace(str(trace), MON, str(est))
        lines = est.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["format"] = 1
        lines[0] = json.dumps(meta)
        write_lines(est, lines)
        out = tmp_path / "out"
        argv = {"eval": ["eval", "--estimates", str(est), "--trace",
                         str(trace), "-o", str(out)],
                "export": ["export", "--estimates", str(est),
                           "-o", str(out)]}[command]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"fairmon: data error: {est}:1: unsupported format version 1 "
            f"of an estimates file; re-run `fairmon monitor` on the trace "
            f"whose config_hash is {meta['trace_config_hash']!r} to "
            f"regenerate it\n")
        assert not out.exists()

    # The coin monitor reports its one stream as A; B is always null.
    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_coin_estimates_with_a_b_interval_is_exit_2(self, tmp_path,
                                                        capsys, command):
        trace, est = tmp_path / "trace.jsonl", tmp_path / "est.jsonl"
        runner.simulate(COIN_SIM, str(trace))
        runner.monitor_trace(str(trace), COIN_MON, str(est))
        lines = est.read_text().splitlines()
        rec = json.loads(lines[3])
        assert rec["A"] is not None and rec["B"] is None
        rec["B"] = [0.25, 0.5]
        lines[3] = json.dumps(rec)
        write_lines(est, lines)
        out = tmp_path / "out"
        argv = {"eval": ["eval", "--estimates", str(est), "--trace",
                         str(trace), "-o", str(out)],
                "export": ["export", "--estimates", str(est),
                           "-o", str(out)]}[command]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"fairmon: data error: {est}:4: bad record t=3: group B "
            f"interval must be null for a monitor with one group; got "
            f"[0.25, 0.5]\n")

    @pytest.mark.parametrize("sim, mon, mutate", [
        (SIM, MON, lambda rec: rec.update(x="7")),
        (SIM, MON, lambda rec: rec.update(x=500)),
        (SIM, MON, lambda rec: rec.update(g="C")),
        (SIM, MON, lambda rec: rec.pop("z")),
        # Wrong JSON types that would pass the range checks.
        (SIM, MON, lambda rec: rec.update(x=True)),
        (SIM, MON, lambda rec: rec.update(y=1.0)),
        (ATTENTION_SIM, ATTENTION_MON, lambda rec: rec.update(y_a=True)),
        (COIN_SIM, COIN_MON, lambda rec: rec.update(x=1.0)),
        # A count too large for a float.
        (ATTENTION_SIM, ATTENTION_MON, lambda rec: rec.update(x_a=10 ** 400)),
    ], ids=["text-score", "score-out-of-range", "unknown-group",
            "missing-field", "bool-score", "float-decision",
            "bool-attention-units", "float-coin-toss", "huge-count"])
    def test_bad_observation_is_data_error(self, tmp_path, capsys, sim, mon,
                                           mutate):
        cfg = self.write_config(tmp_path, mon=mon)
        trace = tmp_path / "trace.jsonl"
        runner.simulate(dict(sim, horizon=20), str(trace))
        lines = trace.read_text().splitlines()
        rec = json.loads(lines[5])
        mutate(rec)
        lines[5] = json.dumps(rec)
        write_lines(trace, lines)
        assert cli.main(["monitor", "--trace", str(trace), "--config",
                         str(cfg), "-o", str(tmp_path / "e.jsonl")]) == 2
        err = capsys.readouterr().err
        assert f"data error: {trace}:6: bad record t=5:" in err

    @pytest.mark.parametrize("command, sim, mon, field", [
        ("monitor", SIM, dict(MON, n_a=6), "n_a"),
        # A monitor told gamma = 0 on a trace simulated with gamma = 0.002
        # contained the truth on 30 % of the steps and exited 0.
        ("run", {"kind": "attention", "l": 2, "k": 1, "gamma": 0.002,
                 "horizon": 4000, "policy": "greedy",
                 "lambda_init_per_location": [6.0, 3.0]},
         {"kind": "attention", "gamma": 0.0, "lambda_min": 0.5,
          "lambda_max": 14.0, "delta": 0.05}, "gamma"),
        ("monitor", COIN_SIM, dict(COIN_MON, epsilon=0.002), "epsilon"),
    ], ids=["lending-n-a", "attention-gamma", "coin-epsilon"])
    def test_trace_of_another_model_is_exit_2(self, tmp_path, capsys,
                                             command, sim, mon, field):
        cfg = self.write_config(tmp_path, sim, mon)
        trace = tmp_path / "trace.jsonl"
        if command == "run":
            assert cli.main(["run", "--config", str(cfg), "--seed", "1",
                             "--out-dir", str(tmp_path)]) == 2
        else:
            runner.simulate(sim, str(trace))
            assert cli.main(["monitor", "--trace", str(trace), "--config",
                             str(cfg), "-o", str(tmp_path / "e.jsonl")]) == 2
        assert capsys.readouterr().err == (
            f"fairmon: data error: {trace}:1: trace was simulated with "
            f"{field}={sim[field]!r}, the monitor config has "
            f"{field}={mon[field]!r}\n")

    def test_non_object_record_is_data_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, mon=MON)
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        lines = trace.read_text().splitlines()
        lines[5] = "5"
        write_lines(trace, lines)
        assert cli.main(["monitor", "--trace", str(trace), "--config",
                         str(cfg), "-o", str(tmp_path / "e.jsonl")]) == 2
        assert f"data error: {trace}:6: record is not a JSON object" in \
            capsys.readouterr().err

    def test_assumption_violation_is_exit_3(self, tmp_path, capsys):
        sim = {"kind": "coin", "p1": 0.1, "epsilon": 0.3, "horizon": 1000}
        cfg = self.write_config(tmp_path, sim)
        code = cli.main(["simulate", "--config", str(cfg), "--seed", "0",
                         "-o", str(tmp_path / "t.jsonl")])
        assert code == 3
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

    @pytest.mark.parametrize("override", ["horizon=2.5", "horizon=true"])
    def test_ill_typed_override_is_exit_1(self, tmp_path, capsys, override):
        cfg = self.write_config(tmp_path, SIM, MON)
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["simulate", "--config", str(cfg), "--seed", "42",
                         "-o", str(trace), "--set", override]) == 1
        assert "error: horizon must be int" in capsys.readouterr().err

    def test_override_past_the_digit_limit_names_its_key(self, tmp_path,
                                                          capsys):
        cfg = self.write_config(tmp_path, SIM, MON)
        out = tmp_path / "t.jsonl"
        assert cli.main(["simulate", "--config", str(cfg), "--seed", "42",
                         "-o", str(out), "--set", "n_a=" + "9" * 5000]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fairmon: error: override n_a: "), err
        assert "9" * 100 not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, override", [
        ("simulate", f"c_max={10 ** 400}"),
        ("monitor", f"c_max={10 ** 160}"),
        ("monitor", f"n_a={10 ** 400}"),
    ])
    def test_population_out_of_float_range_is_exit_1(
            self, tmp_path, capsys, command, override):
        cfg = self.write_config(tmp_path, SIM, MON)
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        if command == "simulate":
            argv = ["simulate", "--config", str(cfg), "--seed", "42",
                    "-o", str(tmp_path / "t.jsonl")]
        else:
            argv = ["monitor", "--trace", str(trace), "--config", str(cfg),
                    "-o", str(tmp_path / "e.jsonl")]
        assert cli.main(argv + ["--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fairmon: error: "), err

    @pytest.mark.parametrize("sim, override", [
        ({"kind": "lending", "n_a": 3, "n_b": 3, "c_max": 10, "horizon": 5},
         "init_scores_a=[1,2,3]"),
        ({"kind": "lending", "n_a": 3, "n_b": 3, "c_max": 10, "horizon": 5},
         "init_scores_b=[9,9,9]"),
        ({"kind": "lending", "n_a": 3, "n_b": 3, "c_max": 10, "horizon": 5,
          "init_scores_b": [1, 1, 1]}, "init_scores_a=5"),
        ({"kind": "lending", "n_a": 3, "n_b": 3, "c_max": 10, "horizon": 5,
          "init_scores_b": [1, 1, 1]}, "init_scores_a=[1,2,30]"),
        ({"kind": "attention", "l": 2, "k": 2, "gamma": 0.0, "horizon": 5},
         "lambda_init_per_location=[true,5]"),
        ({"kind": "attention", "l": 2, "k": 2, "gamma": 0.0, "horizon": 5},
         "lambda_init=800"),
    ], ids=["a-only", "b-only", "number", "above-c-max", "bool-rate",
            "rate-above-max-rate"])
    def test_bad_initial_values_are_exit_1_without_a_file(
            self, tmp_path, capsys, sim, override):
        cfg = self.write_config(tmp_path, sim)
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["simulate", "--config", str(cfg), "--seed", "1",
                         "-o", str(trace), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fairmon: error: "), err
        assert not trace.exists()

    def test_eval_of_another_trace_is_exit_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SIM, MON)
        out = {}
        for seed in ("1", "2"):
            out[seed] = tmp_path / seed
            assert cli.main(["run", "--config", str(cfg), "--seed", seed,
                             "--out-dir", str(out[seed])]) == 0
        est, trace = out["1"] / "estimates.jsonl", out["2"] / "trace.jsonl"
        assert cli.main(["eval", "--estimates", str(est), "--trace",
                         str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fairmon: data error: {est}:1: not computed "
                              f"from {trace}: its trace_config_hash "), err

    @pytest.mark.parametrize("edits, mon, bad, message", _HEADER_ROWS)
    def test_bad_metadata_is_exit_2(self, tmp_path, capsys, edits, mon,
                                    bad, message):
        files = {"trace": tmp_path / "trace.jsonl",
                 "estimates": tmp_path / "est.jsonl",
                 "snapshot": tmp_path / "snap.json"}
        runner.simulate(SIM, str(files["trace"]))
        runner.monitor_trace(str(files["trace"]), MON,
                             str(files["estimates"]),
                             snapshot_out=str(files["snapshot"]))
        # The snapshot holds every record: it resumes onto none.
        rest = tmp_path / "rest.jsonl"
        write_lines(rest, files["trace"].read_text().splitlines()[:1])
        for file, (field, value) in edits.items():
            lines = files[file].read_text().splitlines()
            meta = json.loads(lines[0])
            if value is _DROP:
                del meta[field]
            else:
                meta[field] = value
            lines[0] = json.dumps(meta)
            write_lines(files[file], lines)
        trace, path = str(files["trace"]), str(files[bad])
        out = tmp_path / "out"
        argv = {"trace": ["monitor", "--trace", trace, "--config",
                          str(self.write_config(tmp_path, mon=mon))],
                "estimates": ["eval", "--estimates", path, "--trace",
                              trace],
                "snapshot": ["monitor", "--trace", str(rest), "--resume",
                             path]}[bad]
        assert cli.main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"fairmon: data error: {path}:1: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("updates", ["0", "-3"])
    def test_bench_rejects_non_positive_updates(self, capsys, updates):
        assert cli.main(["bench", "--kind", "lending",
                         "--updates", updates]) == 1
        assert "updates must be a positive integer" in \
            capsys.readouterr().err

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
