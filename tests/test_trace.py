"""File format, pipeline, snapshot/resume, and CLI exit-code tests."""

import filecmp
import json
import os
import random
import statistics
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

from fairmon import ConfidenceInterval, MonitorOutput, cli, runner, traceio
from fairmon.errors import ConfigError, TraceFormatError
from oracles import oracle_record

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
            json.dumps({"format": 1, "file": "trace", "kind": "coin",
                        "config": {}, "config_hash": "x"}),
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
            json.dumps({"format": 1, "file": "trace", "kind": "coin",
                        "config": {}, "config_hash": "x"}),
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
            json.dumps({"format": 1, "file": "trace", "kind": "coin",
                        "config": {}, "config_hash": "x"}),
            json.dumps({"t": 1, "x": 1}),
            json.dumps({"t": 3, "x": 0}),
        ])
        _, records = traceio.read_records(str(bad), "trace")
        with pytest.raises(TraceFormatError, match="expected t=2"):
            list(records)


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


class TestEstimateRecord:

    @pytest.mark.parametrize("seed", range(4))
    def test_line_matches_json_of_oracle_dict(self, seed):
        rng = random.Random(seed)
        for _ in range(500):
            out = _random_output(rng)
            assert traceio.estimate_record(out) == json.dumps(
                oracle_record(out), separators=(",", ":"), allow_nan=False)

    def test_fixed_cases(self):
        ci = ConfidenceInterval(-0.0, 1e-05, 0.975)
        for out in (MonitorOutput(1, None, {"A": ci, "B": None}),
                    MonitorOutput(7, ci, {"A": ci, "B": ci}, True, True),
                    MonitorOutput(3, ci, {"A": None, "B": None})):
            assert traceio.estimate_record(out) == json.dumps(
                oracle_record(out), separators=(",", ":"), allow_nan=False)

    def test_non_finite_midpoint_raises(self):
        phi = ConfidenceInterval(1e308, 1.7e308, 0.95)
        out = MonitorOutput(1, phi, {"A": phi, "B": phi})
        with pytest.raises(ValueError):
            json.dumps(oracle_record(out), allow_nan=False)
        with pytest.raises(ValueError, match="not finite"):
            traceio.estimate_record(out)


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

    def test_estimates_reference_trace_hash(self, tmp_path):
        trace, est, _ = self.run_pair(tmp_path)
        est_meta, _ = read_all(str(est), "estimates")
        trace_meta, _ = read_all(str(trace))
        assert est_meta["trace_config_hash"] == trace_meta["config_hash"]

    def test_kind_mismatch_rejected(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        runner.simulate({"kind": "coin", "p1": 0.5, "epsilon": 0.0,
                         "horizon": 5, "seed": 1}, str(trace))
        with pytest.raises(TraceFormatError, match="kind"):
            runner.monitor_trace(str(trace), MON, str(tmp_path / "e.jsonl"))

    def test_single_group_stream_stays_inconclusive(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        payloads = [{"t": t, "x": 5, "g": "A", "y": 0, "z": 0}
                    for t in range(1, 6)]
        traceio.write_trace(str(trace), "lending", {"custom": True},
                            payloads)
        est = tmp_path / "est.jsonl"
        runner.monitor_trace(str(trace), MON, str(est))
        _, records = read_all(str(est), "estimates")
        assert all(not r["conclusive"] for r in records)
        assert all(r["phi_lo"] is None for r in records)
        assert all(r["group_intervals"]["B"] is None for r in records)

    def test_evaluate_reports_containment(self, tmp_path):
        trace, est, _ = self.run_pair(tmp_path)
        report = runner.evaluate(str(est), str(trace))
        assert report["steps"] == 10
        assert report["truth_steps"] == report["conclusive_steps"]
        assert 0.0 <= report["containment"] <= 1.0
        _, records = read_all(str(est), "estimates")
        widths = [r["phi_hi"] - r["phi_lo"] for r in records
                  if r["conclusive"]]
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

    @pytest.mark.parametrize("target, mutate", [
        ("estimates", lambda rec: rec.pop("conclusive")),
        ("estimates", lambda rec: rec.update(phi_hi="x")),
        ("estimates", lambda rec: rec.update(phi_lo=10 ** 400)),
        ("estimates", lambda rec: rec.update(conclusive="yes")),
        ("trace", lambda rec: rec.update(truth=5)),
        ("trace", lambda rec: rec.update(truth={"phi": "1"})),
    ], ids=["no-conclusive", "text-phi-hi", "huge-phi-lo", "text-flag",
            "number-truth", "text-truth-phi"])
    def test_evaluate_reports_bad_record(self, tmp_path, target, mutate):
        trace, est, _ = self.run_pair(tmp_path)
        path = est if target == "estimates" else trace
        lines = path.read_text().splitlines()
        rec = json.loads(lines[9])
        mutate(rec)
        lines[9] = json.dumps(rec)
        write_lines(path, lines)
        with pytest.raises(TraceFormatError,
                           match=f"{path}: bad record t=9: "):
            runner.evaluate(str(est), str(trace))

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

    def test_evaluate_rejects_length_mismatch(self, tmp_path):
        trace, est, _ = self.run_pair(tmp_path)
        short = tmp_path / "short.jsonl"
        lines = trace.read_text().splitlines()
        write_lines(short, lines[:-2])
        with pytest.raises(TraceFormatError, match="length"):
            runner.evaluate(str(est), str(short))


class TestLatencyHistogram:

    @pytest.mark.parametrize("n", [1, 2, 10, 1023, 1024, 5000, 20000])
    def test_percentiles_within_bound_of_exact(self, n):
        rng = random.Random(n)
        values = [int(rng.lognormvariate(8.0, 1.5)) for _ in range(n - 6)]
        values += [0, 1, 63, 64, 65, 10 ** 7][:n]
        hist = runner.LatencyHistogram()
        for v in values:
            hist.record(v)
        got = hist.summary()
        ordered = sorted(values)
        median = statistics.median(ordered) / 1e3
        p99 = ordered[int(0.99 * (len(ordered) - 1))] / 1e3
        assert got["updates"] == n
        assert got["mean_us"] == statistics.fmean(ordered) / 1e3
        if n < 1024:  # the buffer has not filled: exact
            assert (got["median_us"], got["p99_us"]) == (median, p99)
        assert got["median_us"] == pytest.approx(median, rel=1 / 64)
        assert got["p99_us"] == pytest.approx(p99, rel=1 / 64)

    def test_values_below_64_ns_are_bucketed_exactly(self):
        values = [(7 * i) % 64 for i in range(3001)]
        hist = runner.LatencyHistogram()
        for v in values:
            hist.record(v)
        ordered = sorted(values)
        assert hist.summary() == {
            "updates": 3001, "median_us": statistics.median(ordered) / 1e3,
            "p99_us": ordered[int(0.99 * 3000)] / 1e3,
            "mean_us": statistics.fmean(ordered) / 1e3}
        assert runner.LatencyHistogram().summary() == {
            "updates": 0, "median_us": None, "p99_us": None,
            "mean_us": None}

    def test_memory_does_not_grow_with_updates(self):
        rng = random.Random(5)
        values = [rng.randrange(50, 5000) for _ in range(100_000)]
        # An array slot holds each reading without a live int object that
        # the second reading would count.
        traced = array("q", [0, 0])
        tracemalloc.start()
        try:
            hist = runner.LatencyHistogram()
            for i in range(10_000):
                hist.record(values[i])
            traced[0] = tracemalloc.get_traced_memory()[0]
            for i in range(10_000, 100_000):
                hist.record(values[i])
            traced[1] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert hist.summary()["updates"] == 100_000
        assert traced[1] == traced[0]


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

    def test_snapshot_config_mismatch_rejected(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        snap = tmp_path / "snap.json"
        runner.monitor_trace(str(trace), MON, str(tmp_path / "e.jsonl"),
                             snapshot_out=str(snap))
        other = dict(MON, delta=0.01)
        with pytest.raises(TraceFormatError, match="config"):
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
    ], ids=["fractional-t", "bool-estimator-t", "no-last",
            "no-floor-violation", "text-t", "list-estimator",
            "short-interval", "attention-int-floor-violation",
            "huge-e1-hat"])
    def test_bad_snapshot_state_is_data_error(self, tmp_path, capsys,
                                              mon, mutate):
        sim = (SIM if mon["kind"] == "lending" else
               {"kind": "attention", "l": 5, "k": 6, "gamma": 0.0025,
                "horizon": 10, "seed": 7})
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
        assert f"data error: {snap}" in capsys.readouterr().err

    @pytest.mark.parametrize("sim, mon", [
        (SIM, MON), (ATTENTION_SIM, ATTENTION_MON)], ids=["lending",
                                                          "attention"])
    def test_old_state_layout_is_data_error(self, tmp_path, capsys, sim,
                                            mon):
        # The earlier layout kept each group's confidence in "last" and a
        # per-group "min_shift" instead of the "floor_violation" bit.
        trace = tmp_path / "trace.jsonl"
        runner.simulate(sim, str(trace))
        snap = tmp_path / "snap.json"
        runner.monitor_trace(str(trace), mon, str(tmp_path / "e.jsonl"),
                             snapshot_out=str(snap))
        blob = json.loads(snap.read_text())
        state = blob["state"]
        for g in ("A", "B"):
            state["last"][g].append(1.0 - mon["delta"] / 2.0)
        del state["floor_violation"]
        state["min_shift"] = {"A": 0.0, "B": 0.0}
        snap.write_text(json.dumps(blob) + "\n")
        assert cli.main(["monitor", "--trace", str(trace), "--resume",
                         str(snap), "-o", str(tmp_path / "e2.jsonl")]) == 2
        assert f"data error: {snap}" in capsys.readouterr().err

    def test_snapshot_without_state_object_is_data_error(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        snap = tmp_path / "snap.json"
        runner.monitor_trace(str(trace), MON, str(tmp_path / "e.jsonl"),
                             snapshot_out=str(snap))
        blob = json.loads(snap.read_text())
        blob["state"] = [blob["state"]]
        snap.write_text(json.dumps(blob) + "\n")
        with pytest.raises(TraceFormatError, match=str(snap)):
            runner.monitor_trace(str(trace), None,
                                 str(tmp_path / "e2.jsonl"),
                                 snapshot_in=str(snap))

    def test_trace_file_is_not_a_snapshot(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        runner.simulate(SIM, str(trace))
        with pytest.raises(TraceFormatError):
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

    @pytest.mark.parametrize("mutate, problem", [
        (lambda rec: rec.update(group_intervals=[[0.0, 1.0], None]),
         "group_intervals must be an object"),
        (lambda rec: rec.pop("conclusive"), "missing field 'conclusive'"),
        (lambda rec: rec["group_intervals"].update(A=5),
         "group A interval must be [lo, hi] or null"),
        (lambda rec: rec["group_intervals"].update(A=[1]),
         "group A interval must be [lo, hi] or null"),
    ], ids=["groups-list", "missing-conclusive", "interval-int",
            "interval-short"])
    def test_malformed_record_is_data_error(self, tmp_path, capsys, mutate,
                                            problem):
        trace = tmp_path / "trace.jsonl"
        est = tmp_path / "est.jsonl"
        runner.simulate(SIM, str(trace))
        runner.monitor_trace(str(trace), MON, str(est))
        lines = est.read_text().splitlines()
        rec = json.loads(lines[3])
        mutate(rec)
        lines[3] = json.dumps(rec)
        write_lines(est, lines)
        assert cli.main(["export", "--estimates", str(est),
                         "-o", str(tmp_path / "est.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fairmon: data error: {est}: bad record t=3: "
                              f"{problem}"), err


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
        assert f"data error: {trace}: bad record t=5:" in err

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
    ], ids=["a-only", "b-only", "number", "above-c-max", "bool-rate"])
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
        assert cli.main(["eval", "--estimates",
                         str(out["1"] / "estimates.jsonl"), "--trace",
                         str(out["2"] / "trace.jsonl")]) == 2
        assert "trace_config_hash" in capsys.readouterr().err

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
        assert "median" in out

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
