"""One pipeline stage in a fresh process: ``python3 stage.py SPEC.json``.

The spec names the stage, its configs and files, and where to write the
result JSON.  Every stage reports ``t_ready`` (``time.monotonic()`` just
before its first stage call, after imports and config parsing), the CPU
and wall time of the stage call(s), the speed scale of the process (see
:func:`calibrate`) and its own peak RSS.  Stages:

- ``simulate``, ``monitor``, ``eval``: one call of ``runner.simulate``,
  ``runner.monitor_trace`` or ``runner.evaluate``.
- ``batches``: ``runner.monitor_trace`` over consecutive batch files,
  chaining ``snapshot_out`` into the next call's ``snapshot_in``.
- ``traced``: the same work recomposed from public functions under the
  span recorder; see :func:`traced`.
"""

import json
import math
import os
import resource
import sys
import time
from contextlib import contextmanager

from spans import Tracer

CALIBRATION_ROUNDS = 600
BATCH_CALIBRATION_ROUNDS = 100
BATCH_CHUNK = 25
# Speeds the reported times are scaled to: one calibration round in 15 us
# of CPU time (50 us with the file operations of the batch calibration),
# a typical speed of the 2-core test VM.
REFERENCE_NS_PER_ROUND = 15_000
REFERENCE_NS_PER_BATCH_ROUND = 50_000

_CALIBRATION_RECORD = {"t": 1, "x": 57, "g": "A", "y": 1, "z": 0,
                       "truth": {"psi_a": 70.25, "psi_b": 55.5,
                                 "phi": 14.75}}


def calibrate(rounds=CALIBRATION_ROUNDS, read_path=None, write_path=None):
    """CPU ns of a fixed pure-Python loop (JSON round trips, dict copies,
    float arithmetic) that no change to fairmon can touch.  With paths,
    every round also reads ``read_path`` and reopens the empty file
    ``write_path`` for writing, as the batched calls do with their files.

    The test VM's host alternates between phases in which the same CPU
    work takes up to 1.8x longer; stage times are multiplied by
    :func:`speed_scale` of the calibrations around them to cancel that.
    """
    start = time.process_time_ns()
    acc = 0.0
    for i in range(rounds):
        back = json.loads(json.dumps(_CALIBRATION_RECORD))
        copy = {k: v for k, v in back.items()}
        acc += math.sqrt(copy["x"] + i) / (i + 1)
        if read_path is not None:
            with open(read_path) as fh:
                fh.read()
            open(write_path, "w").close()
    return time.process_time_ns() - start


def speed_scale(before, after,
                reference_ns=REFERENCE_NS_PER_ROUND * CALIBRATION_ROUNDS):
    """Factor from CPU time measured between two calibrations to CPU time
    at the reference speed."""
    return 2 * reference_ns / (before + after)


def _run_batches(runner, spec, outputs):
    """Feed the batch files through ``runner.monitor_trace``, chaining
    each call's ``snapshot_out`` into the next call's ``snapshot_in``.
    The output files exist, empty, before the calls (see
    ``run._precreate``).  Returns per-call CPU ns, wall ns and speed
    scale; a short calibration with file operations runs every
    ``BATCH_CHUNK`` calls."""
    cpu_ns, wall_ns, scales = [], [], []
    files = spec["batch_files"]
    empty = os.path.join(spec["work"], "calibration.empty")
    open(empty, "w").close()

    def batch_calibration():
        return calibrate(BATCH_CALIBRATION_ROUNDS, files[0], empty)

    reference_ns = REFERENCE_NS_PER_BATCH_ROUND * BATCH_CALIBRATION_ROUNDS
    before = batch_calibration()
    for first in range(0, len(files), BATCH_CHUNK):
        chunk = range(first, min(first + BATCH_CHUNK, len(files)))
        for i in chunk:
            cpu, wall = time.process_time_ns(), time.perf_counter_ns()
            runner.monitor_trace(
                files[i], spec["monitor"] if i == 0 else None, outputs[i],
                snapshot_in=None if i == 0 else f"{outputs[i - 1]}.snap",
                snapshot_out=f"{outputs[i]}.snap")
            wall_ns.append(time.perf_counter_ns() - wall)
            cpu_ns.append(time.process_time_ns() - cpu)
        after = batch_calibration()
        scales += [speed_scale(before, after, reference_ns)] * len(chunk)
        before = after
    return cpu_ns, wall_ns, scales


def _peak_rss_kb():
    """High-water RSS of this process image.  ``ru_maxrss`` is not used
    for the metric because Linux carries the spawning parent's high-water
    mark across fork and exec into it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _payload_bytes_per_record(path, records):
    with open(path, "rb") as fh:
        meta_len = len(fh.readline())
    return (os.path.getsize(path) - meta_len) / records


def _same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def traced(spec):
    """Run simulate, monitor, eval and the batches under the tracer.

    The monitor stage is recomposed from ``read_records ->
    observation_from_record -> update -> estimate_record ->
    write_estimates`` so each layer gets its own span; its output must be
    byte-identical to the untraced ``runner.monitor_trace`` file.  Span
    times are scaled by the speed scale of their phase.  Returns
    (per-layer metrics, checks, tracer).
    """
    from fairmon import estimator, intervals, kernels, monitors, runner
    from fairmon import traceio
    from fairmon.sim import attention, lending

    tr = Tracer()
    tr.measure_overhead()
    horizon = spec["horizon"]
    sim_cfg, mon_cfg = spec["simulator"], spec["monitor"]
    checks, scales, cpu_ns = {}, {}, {}

    @contextmanager
    def phase(name):
        before = calibrate()
        cpu = time.process_time_ns()
        with tr.span(name):
            yield
        cpu_ns[name] = time.process_time_ns() - cpu
        scales[name] = speed_scale(before, calibrate())

    # --- simulate ---------------------------------------------------
    kind, cfg = runner.build_sim(sim_cfg)
    generate = {"lending": lending.generate,
                "attention": attention.generate}[kind]
    tr.patch(lending.EqOppPolicy, "grant_probability_below", tr.traced,
             "sim.lending.grant_probability_below")
    tr.patch(attention, "poisson", tr.counted, "sim.sampling.poisson")
    with phase("simulate"):
        tr.traced("traceio.write_trace", traceio.write_trace)(
            spec["traced_trace"], kind, dict(sim_cfg),
            tr.iterate("sim.step", generate(cfg), set_record=True))
    tr.unpatch_all()
    poisson_calls = tr.counts.pop("sim.sampling.poisson", 0)
    checks["trace_identical"] = _same_bytes(spec["traced_trace"],
                                            spec["trace"])

    # --- monitor, recomposed ----------------------------------------
    tr.patch(kernels, "estimator_step", tr.traced, "kernels.estimator_step")
    tr.patch(kernels, "eta", tr.traced, "kernels.eta")
    tr.patch(monitors, "interval_sub", tr.traced, "intervals.interval_sub")
    tr.patch(monitors, "eta_interval", tr.traced, "discovery.eta_interval")
    tr.patch(monitors, "lending_change", tr.traced, "monitors.change_fn")
    tr.patch(monitors, "attention_change", tr.traced, "monitors.change_fn")
    tr.patch(estimator.ShiftedMeanEstimator, "update", tr.traced,
             "estimator.update")
    tr.patch(intervals.ConfidenceInterval, "__post_init__", tr.counted,
             "intervals.ci_constructed")
    with phase("monitor"):
        mon = monitors.build_monitor(mon_cfg)
        meta, records = traceio.read_records(spec["trace"],
                                             start_t=mon.t + 1)
        if meta["kind"] != mon.kind:
            raise ValueError("trace kind does not match monitor kind")
        update = tr.traced("monitors.update", mon.update)
        observation = tr.traced("traceio.observation_from_record",
                                traceio.observation_from_record)
        estimate = tr.traced("traceio.estimate_record",
                             traceio.estimate_record)

        def estimates():
            for rec in tr.iterate("traceio.read_record", records,
                                  set_record=True):
                yield estimate(update(observation(mon.kind, rec)))

        tr.traced("traceio.write_estimates", traceio.write_estimates)(
            spec["traced_estimates"], mon.kind, dict(mon_cfg), meta,
            estimates())
    tr.unpatch_all()
    ci_constructed = tr.counts.pop("intervals.ci_constructed", 0)
    checks["estimates_identical"] = _same_bytes(spec["traced_estimates"],
                                                spec["estimates"])

    # --- eval -------------------------------------------------------
    read_records = traceio.read_records

    def read_records_traced(*args, **kwargs):
        meta, records = read_records(*args, **kwargs)
        return meta, tr.iterate("eval.read", records)

    traceio.read_records = read_records_traced
    try:
        with phase("eval"):
            tr.traced("runner.evaluate", runner.evaluate)(
                spec["estimates"], spec["trace"])
    finally:
        traceio.read_records = read_records

    # --- batches (per-call set-up) ----------------------------------
    tr.patch(runner, "build_monitor", tr.traced, "monitors.build_monitor")
    tr.patch(traceio, "read_snapshot", tr.traced, "traceio.read_snapshot")
    tr.patch(traceio, "write_snapshot", tr.traced, "traceio.write_snapshot")
    tr.patch(type(mon), "load_state_dict", tr.traced,
             "monitors.load_state_dict")
    with phase("batches"):
        _run_batches(runner, spec, spec["traced_batch_estimates"])
    tr.unpatch_all()

    layers = {name: tr.layer_times(name) for name in scales}

    def us_per_call(ph, name):
        calls, _, self_ns = layers[ph].get(name, (0, 0, 0))
        return self_ns * scales[ph] / calls / 1e3 if calls else None

    def us_per_record(ph, name, inclusive=False):
        _, incl, self_ns = layers[ph].get(name, (0, 0, 0))
        return (incl if inclusive else self_ns) * scales[ph] / horizon / 1e3

    def calls_per_record(ph, name):
        return layers[ph].get(name, (0, 0, 0))[0] / horizon

    metrics = {
        "sim.step_us": us_per_record("simulate", "sim.step"),
        "traceio.write_trace_us_per_record":
            us_per_record("simulate", "traceio.write_trace"),
        "sim.lending.grant_probability_below_us":
            us_per_call("simulate", "sim.lending.grant_probability_below"),
        "sim.lending.grant_probability_below_calls_per_step":
            calls_per_record("simulate",
                             "sim.lending.grant_probability_below"),
        "sim.sampling.poisson_calls_per_step": poisson_calls / horizon,
        "traceio.read_us_per_record":
            us_per_record("monitor", "traceio.read_record"),
        "traceio.observation_us_per_record":
            us_per_record("monitor", "traceio.observation_from_record"),
        "traceio.estimate_record_us":
            us_per_call("monitor", "traceio.estimate_record"),
        "traceio.write_estimates_us_per_record":
            us_per_record("monitor", "traceio.write_estimates"),
        "traceio.estimate_bytes_per_record":
            _payload_bytes_per_record(spec["estimates"], horizon),
        "traceio.trace_bytes_per_record":
            _payload_bytes_per_record(spec["trace"], horizon),
        "monitors.update_self_us": us_per_call("monitor", "monitors.update"),
        "monitors.change_fn_us": us_per_call("monitor", "monitors.change_fn"),
        "monitors.change_fn_calls_per_record":
            calls_per_record("monitor", "monitors.change_fn"),
        "estimator.update_us": us_per_call("monitor", "estimator.update"),
        "kernels.estimator_step_us":
            us_per_call("monitor", "kernels.estimator_step"),
        "kernels.estimator_step_calls_per_record":
            calls_per_record("monitor", "kernels.estimator_step"),
        "intervals.interval_sub_us":
            us_per_call("monitor", "intervals.interval_sub"),
        "intervals.ci_constructed_per_record": ci_constructed / horizon,
        "kernels.eta_us": us_per_call("monitor", "kernels.eta"),
        "kernels.eta_calls_per_record":
            calls_per_record("monitor", "kernels.eta"),
        "discovery.eta_interval_us":
            us_per_call("monitor", "discovery.eta_interval"),
        "eval.read_us_per_record":
            us_per_record("eval", "eval.read", inclusive=True),
        "eval.self_us_per_record": us_per_record("eval", "runner.evaluate"),
        "monitors.build_monitor_us":
            us_per_call("batches", "monitors.build_monitor"),
        "traceio.read_snapshot_us":
            us_per_call("batches", "traceio.read_snapshot"),
        "monitors.load_state_dict_us":
            us_per_call("batches", "monitors.load_state_dict"),
        "traceio.write_snapshot_us":
            us_per_call("batches", "traceio.write_snapshot"),
        "traceio.snapshot_bytes": os.path.getsize(
            spec["traced_batch_estimates"][-1] + ".snap"),
        "traced_monitor_us_per_record":
            cpu_ns["monitor"] * scales["monitor"] / horizon / 1e3,
        "bench.wrapper_overhead_ns": tr.overhead_ns["call"],
    }
    return metrics, checks, tr


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    stage = spec["stage"]
    from fairmon import kernels, monitors, runner

    if stage == "simulate":
        runner.build_sim(spec["simulator"])
    elif stage in ("monitor", "batches"):
        monitors.build_monitor(spec["monitor"])
    result = {"t_ready": time.monotonic(),
              "ready_cpu_s": time.process_time(),
              "backend": kernels.backend_name()}
    before = calibrate()
    cpu, wall = time.process_time_ns(), time.perf_counter_ns()
    if stage == "simulate":
        runner.simulate(spec["simulator"], spec["trace"])
    elif stage == "monitor":
        result["update_latency"] = runner.monitor_trace(
            spec["trace"], spec["monitor"], spec["estimates"])
    elif stage == "eval":
        result["report"] = runner.evaluate(spec["estimates"], spec["trace"])
    elif stage == "batches":
        (result["batch_cpu_ns"], result["batch_wall_ns"],
         result["batch_scales"]) = _run_batches(runner, spec,
                                                spec["batch_estimates"])
    elif stage == "traced":
        result["metrics"], result["checks"], tracer = traced(spec)
        tracer.dump(spec["spans"])
    else:
        raise ValueError(f"unknown stage {stage!r}")
    result["cpu_s"] = (time.process_time_ns() - cpu) / 1e9
    result["wall_s"] = (time.perf_counter_ns() - wall) / 1e9
    after = calibrate()
    result["calibration_ns"] = [before, after]
    result["scale"] = speed_scale(before, after)
    result["peak_rss_kb"] = _peak_rss_kb()
    result["ru_maxrss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
