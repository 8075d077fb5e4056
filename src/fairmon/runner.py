"""Pipeline operations behind the CLI: simulate, monitor, eval, bench,
and snapshot/resume."""

import math
import time
from itertools import zip_longest

from .errors import ConfigError, TraceFormatError, a_or_an
from .estimator import check_sim_size, is_real
from .monitors import build_monitor
from . import traceio

_INF = math.inf

# monitor_trace times one update in TIMED_EVERY, from each call's first
# record, so a resumed batch of one record still gets a sample.  Reading
# the clock around every update cost about 1 us per record.  At
# LATENCY_SAMPLES samples it drops every other one and times half as
# often, so memory stays bounded and the samples evenly spread.
TIMED_EVERY = 16
LATENCY_SAMPLES = 1024


def _simulators():
    """kind -> (config type, payload generator, trace-line generator or
    None).  The simulators are imported here, so monitoring, evaluating
    and exporting never load them."""
    from .sim import attention, coin, lending
    return {
        "coin": (coin.CoinConfig, coin.generate, None),
        "lending": (lending.LendingSimConfig, lending.generate,
                    lending.trace_lines),
        "attention": (attention.AttentionSimConfig, attention.generate,
                      attention.trace_lines),
    }


def build_sim(config):
    """Parse a simulator config dict (with a ``kind`` field)."""
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    simulators = _simulators()
    if not isinstance(kind, str) or kind not in simulators:
        raise ConfigError(f"unknown simulator kind {kind!r}")
    return kind, simulators[kind][0].from_fields(
        cfg, a_or_an(f"{kind} simulator"))


def simulate(config, out_path, include_truth=True):
    """Generate a trace file; deterministic per (config, seed)."""
    kind, cfg = build_sim(config)
    _, generate, trace_lines = _simulators()[kind]
    if include_truth and trace_lines is not None:
        traceio.write_trace_lines(out_path, kind, dict(config),
                                  trace_lines(cfg))
        return kind
    payloads = generate(cfg)
    if not include_truth:
        payloads = (
            {k: v for k, v in p.items() if k != "truth"} for p in payloads)
    traceio.write_trace(out_path, kind, dict(config), payloads)
    return kind


def monitor_trace(trace_path, monitor_config, out_path,
                  snapshot_in=None, snapshot_out=None):
    """Stream a trace file through a monitor, one estimate per record.

    Never holds more than one record in memory.  Returns ``updates``,
    the number of records monitored, and the :func:`latency_summary` of
    the updates timed as the comment on ``TIMED_EVERY`` says.
    """
    if snapshot_in is not None:
        _, cfg, state, snapshot_hash = traceio.read_snapshot(snapshot_in)
        if monitor_config is not None and cfg != dict(monitor_config):
            raise TraceFormatError(
                f"{snapshot_in}:1: snapshot monitor config differs from "
                f"the requested one")
        monitor_config = cfg
        # A snapshot's config is data read from a file, not a usage
        # error.
        try:
            mon = build_monitor(cfg)
        except ConfigError as exc:
            raise TraceFormatError(
                f"{snapshot_in}:1: bad monitor_config: {exc}") from exc
        try:
            mon.load_state_dict(state)
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"{snapshot_in}:1: invalid monitor state: {exc}") from exc
    else:
        mon = build_monitor(monitor_config)
    first_t = mon.t
    meta, records = traceio.read_records(trace_path, start_t=first_t + 1)
    check_model(trace_path, meta["kind"], meta["config"], monitor_config)
    # A snapshot resumes only the stream it was taken on; a rest of
    # another seed would pass every other check.
    if snapshot_in is not None and meta["config_hash"] != snapshot_hash:
        raise TraceFormatError(
            f"{snapshot_in}:1: snapshot was taken on the trace whose "
            f"config_hash is {snapshot_hash!r}, not on {trace_path}, whose "
            f"config_hash is {meta['config_hash']!r}")

    samples, stride = [], TIMED_EVERY
    kind, update, clock = mon.kind, mon.update, time.perf_counter_ns

    def estimates():
        nonlocal stride
        for i, rec in enumerate(records):
            # A record the monitor cannot take (missing field, wrong type,
            # value out of range, a count too large for a float) is a data
            # error located in the trace.
            try:
                obs = traceio.observation_from_record(kind, rec)
                if i % stride:
                    out = update(obs)
                else:
                    start = clock()
                    out = update(obs)
                    samples.append(clock() - start)
                    if len(samples) == LATENCY_SAMPLES:
                        del samples[1::2]
                        stride *= 2
            except (TypeError, ValueError, OverflowError) as exc:
                records.throw(exc)
            yield traceio.estimate_record(out)

    traceio.write_estimates(out_path, mon.kind, dict(monitor_config),
                            meta, estimates())
    if snapshot_out is not None:
        traceio.write_snapshot(snapshot_out, mon, dict(monitor_config),
                               meta)
    summary = latency_summary(samples)
    summary["updates"] = mon.t - first_t
    return summary


def check_model(trace_path, trace_kind, trace_config, monitor_config):
    """The interval holds only under the change function that moved the
    data, so a trace's kind must be the monitor's, and each monitor-config
    field its simulator config also has (population, ``gamma``,
    ``epsilon``) must agree with it; else a TraceFormatError at line 1."""
    if trace_kind != monitor_config["kind"]:
        raise TraceFormatError(
            f"{trace_path}:1: trace kind {trace_kind!r} does not match "
            f"monitor kind {monitor_config['kind']!r}")
    for key, value in monitor_config.items():
        if key != "kind" and key in trace_config \
                and trace_config[key] != value:
            raise TraceFormatError(
                f"{trace_path}:1: trace was simulated with {key}="
                f"{trace_config[key]!r}, the monitor config has {key}="
                f"{value!r}")


def latency_summary(samples_ns):
    """``samples`` (their count) and the exact ``median_us``, ``p99_us``
    and ``mean_us``, in microseconds, of latencies in integer
    nanoseconds; None for each without samples.  The p99 is the nearest
    rank, ``ceil(0.99 n)``, so it is never below the median, even of two
    values."""
    n = len(samples_ns)
    if not n:
        return {"samples": 0, "median_us": None, "p99_us": None,
                "mean_us": None}
    ordered = sorted(samples_ns)
    return {"samples": n,
            "median_us": (ordered[(n - 1) // 2] + ordered[n // 2]) / 2 / 1e3,
            "p99_us": ordered[-(-99 * n // 100) - 1] / 1e3,
            "mean_us": sum(ordered) / n / 1e3}


def evaluate(estimates_path, trace_path):
    """Per-step containment of the true property in the emitted interval,
    plus interval-width statistics.  Streams both files: memory does not
    grow with their length, apart from ``width_decay``, which has one
    entry per doubling of t.  Each file is read from its first record's
    step, so a resumed run's estimates are evaluated against the rest of
    the trace it read; both must start at the same step."""
    est_meta, est_steps = traceio.read_estimates(estimates_path)
    trace_meta, trace_records = traceio.read_records(trace_path, "trace", None)
    if est_meta["kind"] != trace_meta["kind"]:
        raise TraceFormatError(
            f"{estimates_path}:1: estimates kind {est_meta['kind']!r} "
            f"differs from the trace's kind {trace_meta['kind']!r}")
    if est_meta["trace_config_hash"] != trace_meta["config_hash"]:
        raise TraceFormatError(
            f"{estimates_path}:1: not computed from {trace_path}: its "
            f"trace_config_hash {est_meta['trace_config_hash']!r} "
            f"differs from the trace's config_hash "
            f"{trace_meta['config_hash']!r}")

    steps = conclusive = contained = truth_steps = 0
    width_sum = 0.0
    decay = []
    next_checkpoint = 1
    missing = object()
    for step, rec in zip_longest(est_steps, trace_records,
                                 fillvalue=missing):
        if step is missing or rec is missing:
            short, long = ((estimates_path, trace_path) if step is missing
                           else (trace_path, estimates_path))
            raise TraceFormatError(
                f"{short}: ends after {steps} records; {long} has more")
        # Both files run on by 1 from their first step, so the steps
        # align if the first steps do.
        t, phi, _, _, _, _ = step
        if not steps and t != rec["t"]:
            raise TraceFormatError(
                f"{estimates_path}: starts at t={t}, {trace_path} at "
                f"t={rec['t']}; both must start at the same step")
        steps += 1
        # Every record's truth is checked, conclusive or not.
        truth = rec.get("truth")
        true_phi = None
        if truth is not None:
            if type(truth) is not dict:
                trace_records.throw(ValueError(
                    f"truth must be an object, got {truth!r}"))
            if "phi" in truth:
                true_phi = truth["phi"]
                # is_real, with floats (what the simulators write) inline.
                if type(true_phi) is not float and not is_real(true_phi) \
                        or not -_INF < true_phi < _INF:
                    trace_records.throw(ValueError(
                        f"truth phi must be a finite number, got "
                        f"{true_phi!r}"))
        if phi is None:
            continue
        lo, hi = phi
        conclusive += 1
        width = hi - lo
        width_sum += width
        if t >= next_checkpoint:
            decay.append({"t": t, "width": width})
            while next_checkpoint <= t:
                next_checkpoint *= 2
        if true_phi is not None:
            truth_steps += 1
            if lo <= true_phi <= hi:
                contained += 1
    report = {
        "steps": steps,
        "conclusive_steps": conclusive,
        "truth_steps": truth_steps,
        "contained": contained,
        "containment": contained / truth_steps if truth_steps else None,
        "mean_width": width_sum / conclusive if conclusive else None,
        "width_decay": decay,
    }
    return report


# --------------------------------------------------------------------
# Update benchmark
# --------------------------------------------------------------------

# kind -> (simulator config less horizon and seed, monitor config): the
# lending-stream and attention-stream workloads of perfbench.
BENCHES = {
    "lending": ({"kind": "lending", "n_a": 100, "n_b": 100, "c_max": 100,
                 "policy": "max_reward", "init": "mid-bias"},
                {"kind": "lending", "n_a": 100, "n_b": 100, "c_max": 100,
                 "delta": 0.05}),
    "attention": ({"kind": "attention", "l": 4, "k": 2, "gamma": 0.0025,
                   "policy": "uniform", "lambda_init": 8.0},
                  {"kind": "attention", "gamma": 0.0025, "lambda_min": 4.0,
                   "lambda_max": 12.0, "delta": 0.05}),
}


def bench(kind, updates, seed=0):
    """Exact median, p99 and mean latency of every update, over the
    observations of ``kind``'s workload simulator, drawn one at a time
    and built as ``monitor_trace`` builds them from a trace."""
    if kind not in BENCHES:
        raise ConfigError(f"no benchmark for kind {kind!r}")
    if updates < 1:
        raise ConfigError(f"updates must be a positive integer, got "
                          f"{updates}")
    check_sim_size("updates", updates)
    sim_config, mon_config = BENCHES[kind]
    _, cfg = build_sim(dict(sim_config, horizon=updates, seed=seed))
    payloads = _simulators()[kind][1](cfg)
    mon = build_monitor(mon_config)
    latencies = []
    record = latencies.append
    clock = time.perf_counter_ns
    update = mon.update
    observation = traceio.observation_from_record
    for payload in payloads:
        obs = observation(kind, payload)
        start = clock()
        update(obs)
        record(clock() - start)
    summary = latency_summary(latencies)
    summary["updates"] = updates
    summary["kind"] = kind
    return summary
