"""Pipeline benchmark for fairmon over simulated trace files.

    python3 perfbench/run.py --workload lending-stream --seed 7 \
        --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One invocation runs one workload (see
``workloads.py``) in a closed loop: each iteration runs ``simulate``,
``monitor``, ``eval`` and a batched resume replay, each in a fresh child
process, one at a time, and checks their outputs.  Iterations repeat
until the next one would overrun ``--seconds``; iteration ``i`` simulates
with seed ``1000 * seed + i``.  ``--trace 1`` adds a traced child per
iteration and reports per-layer metrics instead.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a full results file
with quartiles, raw samples and provenance goes to ``perfbench/results/``.
An iteration whose stage raises or whose output check fails counts as
failed and contributes no numbers.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STAGE_TIMEOUT_S = 150

END_TO_END = {
    "simulate_us_per_step": "us",
    "monitor_us_per_record": "us",
    "eval_us_per_record": "us",
    "run_s": "s",
    "simulate_peak_rss_mb": "MB",
    "monitor_peak_rss_mb": "MB",
    "eval_peak_rss_mb": "MB",
    "batch_ms_p50": "ms",
    "batch_ms_p99": "ms",
    "setup_s": "s",
}

# Emitted by every workload's traced run (the final JSON line).
PER_LAYER = {
    "sim.step_us": "us",
    "traceio.write_trace_us_per_record": "us",
    "sim.lending.grant_probability_below_calls_per_step": "calls/step",
    "sim.sampling.poisson_calls_per_step": "calls/step",
    "traceio.read_us_per_record": "us",
    "traceio.observation_us_per_record": "us",
    "traceio.estimate_record_us": "us",
    "traceio.write_estimates_us_per_record": "us",
    "traceio.estimate_bytes_per_record": "B/record",
    "traceio.trace_bytes_per_record": "B/record",
    "monitors.update_us_p50": "us",
    "monitors.update_us_p99": "us",
    "monitors.update_self_us": "us",
    "monitors.change_fn_us": "us",
    "monitors.change_fn_calls_per_record": "calls/record",
    "estimator.update_us": "us",
    "kernels.estimator_step_us": "us",
    "kernels.estimator_step_calls_per_record": "calls/record",
    "intervals.interval_sub_us": "us",
    "intervals.ci_constructed_per_record": "count/record",
    "kernels.eta_calls_per_record": "calls/record",
    "eval.read_us_per_record": "us",
    "eval.self_us_per_record": "us",
    "monitors.build_monitor_us": "us",
    "traceio.read_snapshot_us": "us",
    "monitors.load_state_dict_us": "us",
    "traceio.write_snapshot_us": "us",
    "traceio.snapshot_bytes": "B",
    "bench.tracing_overhead_pct": "%",
    "bench.wrapper_overhead_ns": "ns",
}

# Per-call times of layers that only some workloads call; reported in
# the results file and the printed table where they apply.
PER_LAYER_WHERE_CALLED = {
    "sim.lending.grant_probability_below_us": "us",
    "kernels.eta_us": "us",
    "discovery.eta_interval_us": "us",
}


class OperationFailed(Exception):
    """A stage exited non-zero or its output failed a check."""


def run_stage(work, stage, spec):
    """Run one stage child to completion; returns its result dict with
    ``setup_s`` (spawn to first stage call) added."""
    spec_path = work / f"{stage}.spec.json"
    result_path = work / f"{stage}.result.json"
    spec = dict(spec, stage=stage, result=str(result_path), work=str(work))
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "stage.py"), str(spec_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=STAGE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise OperationFailed(f"{stage}: timed out") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise OperationFailed(f"{stage}: exit {proc.returncode}: {tail[0]}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["t_ready"] - spawned
    return result


def _records(path):
    with open(path) as fh:
        fh.readline()
        return [json.loads(line) for line in fh]


def _check(condition, message):
    if not condition:
        raise OperationFailed(message)


def _check_batches(paths, streamed):
    """Concatenated batch estimates must equal the streamed prefix."""
    batched = [rec for path in paths for rec in _records(path)]
    _check(batched == streamed[:len(batched)] and batched,
           "batched estimates differ from the streamed ones")


def _precreate(directory, stem, count):
    """Create the empty estimates and snapshot files of ``count`` batch
    calls and return the estimates paths.  Creating a file on the test
    VM's ext4 cost anywhere from 35 to 840 us from one second to the
    next, which would drown the per-call cost of the code; opening an
    existing empty file for writing cost a steady ~45 us."""
    paths = [str(directory / f"{stem}{i}.jsonl") for i in range(count)]
    for path in paths:
        open(path, "w").close()
        open(path + ".snap", "w").close()
    return paths


def run_iteration(w, work, index, traced):
    """Iteration ``index`` of a run: its own trace, from simulator seed
    ``1000 * seed + index``, through every stage and every check."""
    horizon = w["horizon"]
    trace, estimates = work / "trace.jsonl", work / "estimates.jsonl"
    files = {"trace": str(trace), "estimates": str(estimates),
             "simulator": workloads.simulator_config(w, index),
             "monitor": w["monitor"], "horizon": horizon}
    sim = run_stage(work, "simulate", files)
    trace_lines = trace.read_text().splitlines(keepends=True)
    _check(len(trace_lines) == horizon + 1, "trace does not cover horizon")

    mon = run_stage(work, "monitor", files)
    streamed = _records(estimates)
    _check(len(streamed) == horizon, "estimates do not cover horizon")
    _check([r["t"] for r in streamed] == list(range(1, horizon + 1)),
           "estimates steps are not 1..horizon")
    if w["monitor"]["kind"] == "attention":
        lo, hi = w["monitor"]["lambda_min"], w["monitor"]["lambda_max"]
        for line in trace_lines[1:]:
            truth = json.loads(line)["truth"]
            _check(lo <= truth["lam_a"] <= hi and lo <= truth["lam_b"] <= hi,
                   "true rate left [lambda_min, lambda_max]")
        _check(not any(r["floor_violation"] for r in streamed),
               "floor_violation in estimates")

    ev = run_stage(work, "eval", files)
    report = ev["report"]
    _check(report["steps"] == horizon, "eval does not cover horizon")
    _check(report["containment"] is not None
           and report["containment"] >= 1 - w["monitor"]["delta"],
           f"containment {report['containment']} below 1 - delta")

    count = w["batches"]
    batch_dir = work / "batches"
    batch_spec = dict(files, batch_files=_split_trace(
        trace_lines, batch_dir, w["batch_size"], count),
        batch_estimates=_precreate(batch_dir, "est", count))
    bat = run_stage(work, "batches", batch_spec)
    _check(len(bat["batch_cpu_ns"]) == count, "not every batch ran")
    _check_batches(batch_spec["batch_estimates"], streamed)

    sample = _sample(horizon, sim, mon, ev, bat)
    sample["containment"] = report["containment"]
    sample["simulator_seed"] = files["simulator"]["seed"]
    if traced:
        traced_spec = dict(
            batch_spec, traced_trace=str(work / "traced_trace.jsonl"),
            traced_estimates=str(work / "traced_estimates.jsonl"),
            traced_batch_estimates=_precreate(batch_dir, "traced_est", count),
            spans=str(w["spans_path"]))
        tr = run_stage(work, "traced", traced_spec)
        _check(tr["checks"]["trace_identical"],
               "traced simulate wrote a different trace")
        _check(tr["checks"]["estimates_identical"],
               "recomposed monitor wrote different estimates")
        _check_batches(traced_spec["traced_batch_estimates"], streamed)
        layers = {k: v for k, v in tr["metrics"].items() if v is not None}
        layers["bench.tracing_overhead_pct"] = 100.0 * (
            layers.pop("traced_monitor_us_per_record")
            / sample["monitor_us_per_record"] - 1.0)
        sample["layers"] = layers
    return sample


def _split_trace(trace_lines, batch_dir, size, count):
    """Write the first ``count`` batches of ``size`` records, each with
    the trace's metadata line; returns their paths."""
    shutil.rmtree(batch_dir, ignore_errors=True)
    batch_dir.mkdir()
    paths = []
    for i in range(count):
        path = batch_dir / f"trace{i}.jsonl"
        path.write_text("".join(
            trace_lines[:1] + trace_lines[1 + i * size:1 + (i + 1) * size]))
        paths.append(str(path))
    return paths


def _sample(horizon, sim, mon, ev, bat):
    """One iteration's figures.  Timed metrics are CPU time scaled to the
    reference speed (see ``stage.calibrate``); ``raw.*`` keep the
    unscaled CPU time and ``wall.*`` the wall-clock time."""
    stages = {"simulate": sim, "monitor": mon, "eval": ev, "batches": bat}
    sample = {
        "batch_ns": [ns * k for ns, k in zip(bat["batch_cpu_ns"],
                                             bat["batch_scales"])],
        "raw.batch_ns": bat["batch_cpu_ns"],
        "wall.batch_ns": bat["batch_wall_ns"],
        "setup_s": [st["ready_cpu_s"] * st["scale"]
                    for st in stages.values()],
        "raw.setup_s": [st["ready_cpu_s"] for st in stages.values()],
        "wall.setup_s": [st["setup_s"] for st in stages.values()],
    }
    for name in ("simulate", "monitor", "eval"):
        st = stages[name]
        metric = f"{name}_us_per_{'step' if name == 'simulate' else 'record'}"
        sample[metric] = st["cpu_s"] * st["scale"] / horizon * 1e6
        sample["raw." + metric] = st["cpu_s"] / horizon * 1e6
        sample["wall." + metric] = st["wall_s"] / horizon * 1e6
        sample[f"{name}_peak_rss_mb"] = st["peak_rss_kb"] / 1024
        sample[f"ru_maxrss.{name}_peak_rss_mb"] = st["ru_maxrss_kb"] / 1024
    for name, st in stages.items():
        sample[f"speed_scale.{name}"] = st["scale"]
    sample["run_s"] = sum(sample[m] for m in (
        "simulate_us_per_step", "monitor_us_per_record",
        "eval_us_per_record")) * horizon / 1e6
    sample["wall.run_s"] = sum(st["wall_s"] for st in (sim, mon, ev))
    latency = mon["update_latency"]
    sample["monitors.update_us_p50"] = latency["median_us"] * mon["scale"]
    sample["monitors.update_us_p99"] = latency["p99_us"] * mon["scale"]
    sample["backend"] = sim["backend"]
    return sample


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary(values, unit):
    q1, q3 = _quartiles(values)
    return {"value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "n": len(values)}


def _nearest_rank(ordered, pct):
    return ordered[max(0, -(-len(ordered) * pct // 100) - 1)]


def _unit(name):
    units = dict(END_TO_END, **PER_LAYER, **PER_LAYER_WHERE_CALLED)
    base = name.split(".", 1)[1] if name.startswith(
        ("raw.", "wall.", "ru_maxrss.")) else name
    return units.get(base, "x")


def summarize(samples):
    """Per-metric median and quartiles over the successful iterations;
    batch percentiles over every batch call of the run."""
    out = {}
    for prefix in ("", "raw.", "wall."):
        calls = sorted(ns for s in samples for ns in s[prefix + "batch_ns"])
        for pct in (50, 99):
            out[f"{prefix}batch_ms_p{pct}"] = {
                "value": _nearest_rank(calls, pct) / 1e6, "unit": "ms",
                "n": len(calls)}
        out[prefix + "setup_s"] = _summary(
            [x for s in samples for x in s[prefix + "setup_s"]], "s")
    for name, value in samples[0].items():
        if isinstance(value, float) and name != "containment":
            out[name] = _summary([s[name] for s in samples], _unit(name))
    traced = [s["layers"] for s in samples if "layers" in s]
    for name in dict(PER_LAYER, **PER_LAYER_WHERE_CALLED):
        values = [layers[name] for layers in traced if name in layers]
        if values:
            out[name] = _summary(values, _unit(name))
    return out


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "fairmon").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(w, samples):
    from fairmon import traceio

    seeds = [s["simulator_seed"] for s in samples]
    return {
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "kernel_backend": samples[0]["backend"] if samples else None,
        "timing": "CPU time of each stage child scaled to the reference "
                  "speed by calibration loops; raw.* unscaled CPU time, "
                  "wall.* wall-clock time",
        "seed": w["seed"],
        "horizon": w["horizon"],
        "simulator_seeds": seeds,
        "simulator_config_hashes": [
            traceio.config_hash(dict(w["simulator"], seed=seed))
            for seed in seeds],
        "monitor_config_hash": traceio.config_hash(w["monitor"]),
    }


def run(workload, seed, seconds, trace, scale=1.0):
    """Run one workload; returns the results dict (see module doc)."""
    w = workloads.build(workload, seed, scale)
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    w["spans_path"] = results_dir / f"{stem}-spans.jsonl.gz"
    work = BENCH_DIR / ".work" / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    samples, failures = [], []
    start = time.monotonic()
    try:
        while True:
            began = time.monotonic()
            try:
                samples.append(run_iteration(
                    w, work, len(samples) + len(failures), trace))
            except (OperationFailed, OSError, ValueError, KeyError) as exc:
                failures.append(f"{type(exc).__name__}: {exc}")
            now = time.monotonic()
            if now - start + (now - began) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = summarize(samples) if samples else {}
    wanted = PER_LAYER if trace else END_TO_END
    results = {
        "workload": {k: v for k, v in w.items() if k != "spans_path"},
        "provenance": provenance(w, samples),
        "trace": trace,
        "seconds": seconds,
        "scale": scale,
        "attempted": len(samples) + len(failures),
        "failed": len(failures),
        "failures": failures,
        "summary": summary,
        "samples": [{k: v for k, v in s.items() if not k.endswith("ns")}
                    for s in samples],
        "metrics": {name: {"value": summary[name]["value"], "unit": unit}
                    for name, unit in wanted.items() if name in summary},
    }
    results["correct"] = not failures and len(results["metrics"]) == len(
        wanted)
    results["results_file"] = str(results_dir / f"{stem}.json")
    Path(results["results_file"]).write_text(
        json.dumps(results, indent=1) + "\n")
    return results


def _print_table(results):
    prov = results["provenance"]
    print(f"workload {results['workload']['name']}  seed {prov['seed']}  "
        f"horizon {prov['horizon']}  backend {prov['kernel_backend']}  "
        f"python {prov['python']}  nproc {prov['nproc']}  "
        f"rev {prov['git_rev'] or prov['source_sha256']}")
    summary = results["summary"]
    named = [*END_TO_END, *PER_LAYER, *PER_LAYER_WHERE_CALLED]
    for name in ([n for n in named if n in summary]
                 + sorted(n for n in summary if n not in named)):
        s = summary[name]
        spread = (f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  " if "q1" in s
                  else "")
        print(f"  {name:52s} {s['value']:.6g} {s['unit']}  {spread}"
            f"n={s['n']}")
    for failure in results["failures"]:
        print(f"  failed operation: {failure}")
    print(f"  results: {results['results_file']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="horizon multiplier (smoke tests use ~0.02)")
    args = parser.parse_args(argv)
    if not (SRC / "fairmon" / "__init__.py").is_file():
        print(f"perfbench: no fairmon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    results = run(args.workload, args.seed, args.seconds, args.trace,
                  args.scale)
    _print_table(results)
    print(json.dumps({key: results[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if results["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
