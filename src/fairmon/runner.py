"""Pipeline operations behind the CLI: simulate, monitor, eval, bench,
and snapshot/resume."""

import math
import random
import time
from itertools import zip_longest

from .errors import ConfigError, TraceFormatError
from .estimator import is_real
from .monitors import AttentionObservation, LendingObservation, build_monitor
from .sim import attention, coin, lending
from . import traceio

_INF = math.inf

# kind -> (config type, payload generator)
_SIMULATORS = {
    "coin": (coin.CoinConfig, coin.generate),
    "lending": (lending.LendingSimConfig, lending.generate),
    "attention": (attention.AttentionSimConfig, attention.generate),
}


def build_sim(config):
    """Parse a simulator config dict (with a ``kind`` field)."""
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    if not isinstance(kind, str) or kind not in _SIMULATORS:
        raise ConfigError(f"unknown simulator kind {kind!r}")
    try:
        return kind, _SIMULATORS[kind][0](**cfg)
    except TypeError as exc:
        raise ConfigError(f"bad simulator config for {kind!r}: {exc}") from exc


def simulate(config, out_path, include_truth=True):
    """Generate a trace file; deterministic per (config, seed)."""
    kind, cfg = build_sim(config)
    payloads = _SIMULATORS[kind][1](cfg)
    if not include_truth:
        payloads = (
            {k: v for k, v in p.items() if k != "truth"} for p in payloads)
    traceio.write_trace(out_path, kind, dict(config), payloads)
    return kind


def monitor_trace(trace_path, monitor_config, out_path,
                  snapshot_in=None, snapshot_out=None):
    """Stream a trace file through a monitor, one estimate per record.

    Never holds more than one record in memory.  Returns a per-update
    latency summary (microseconds).
    """
    if snapshot_in is not None:
        _, cfg, state = traceio.read_snapshot(snapshot_in)
        if monitor_config is not None and dict(cfg) != dict(monitor_config):
            raise TraceFormatError(
                "snapshot monitor config differs from the requested one")
        monitor_config = cfg
        mon = build_monitor(cfg)
        try:
            mon.load_state_dict(state)
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"{snapshot_in}: invalid monitor state: {exc!r}") from exc
    else:
        mon = build_monitor(monitor_config)
    meta, records = traceio.read_records(trace_path, start_t=mon.t + 1)
    if meta["kind"] != mon.kind:
        raise TraceFormatError(
            f"trace kind {meta['kind']!r} does not match monitor kind "
            f"{mon.kind!r}")

    latencies = LatencyHistogram()
    kind, update, clock = mon.kind, mon.update, time.perf_counter_ns
    record = latencies.record

    def estimates():
        for rec in records:
            # A record the monitor cannot take (missing field, wrong type,
            # value out of range, a count too large for a float) is a data
            # error located in the trace.
            try:
                obs = traceio.observation_from_record(kind, rec)
                start = clock()
                out = update(obs)
                record(clock() - start)
            except (TypeError, ValueError, OverflowError) as exc:
                raise traceio.bad_record(trace_path, rec["t"], exc) from exc
            yield traceio.estimate_record(out)

    traceio.write_estimates(out_path, mon.kind, dict(monitor_config),
                            meta, estimates())
    if snapshot_out is not None:
        traceio.write_snapshot(snapshot_out, mon, dict(monitor_config))
    return latencies.summary()


# LatencyHistogram layout: a buffer of _RECENT raw values, then
# 2**_SUB_BITS buckets per power-of-two octave below 2**40 ns.
_RECENT = 1024
_SUB_BITS = 5
_EXACT = 1 << (_SUB_BITS + 1)
_TOP = ((40 - _SUB_BITS + 1) << _SUB_BITS) - 1


def _bucket_middle(index):
    shift = (index >> _SUB_BITS) - 1
    if shift <= 0:
        return float(index)
    lo = (index - (shift << _SUB_BITS)) << shift
    return lo + ((1 << shift) - 1) / 2.0


class LatencyHistogram:
    """Per-update latencies (nonnegative integer nanoseconds) in fixed-size
    memory, whatever the number of updates.

    The latest latencies wait in a buffer of 1024 slots.  Until it first
    fills, the summary is exact: a short resumed run pays for no
    bucketing.  Each time the buffer fills it is folded into a
    log-linear histogram.  Every value below ``2**6`` has its own
    bucket; above that each power-of-two octave is split into ``2**5``
    equal buckets, so a bucket starting at ``lo`` is at most ``lo / 32``
    wide.  A percentile is then reported as the middle of the bucket
    holding the ranked value, which bounds its relative error by
    ``1/64`` (under 1.6 %).  Values of ``2**40`` ns (about 18 minutes)
    or more are counted in the top bucket.  The count and the sum, hence
    the mean, are always exact.
    """

    __slots__ = ("_recent", "_pending", "_counts", "_folded", "_total_ns")

    def __init__(self):
        # Unsigned 64-bit slots over bytearrays: fixed-size, no per-value
        # int objects, and no extension module to load.
        self._recent = memoryview(bytearray(8 * _RECENT)).cast("Q")
        self._pending = 0
        self._counts = memoryview(bytearray(8 * (_TOP + 1))).cast("Q")
        self._folded = 0
        self._total_ns = 0

    def record(self, ns):
        n = self._pending
        self._recent[n] = ns
        self._pending = n + 1
        if n + 1 == _RECENT:
            self._fold()

    def _fold(self):
        pending = self._recent[:self._pending]
        counts = self._counts
        for ns in pending:
            if ns >= _EXACT:
                shift = ns.bit_length() - _SUB_BITS - 1
                ns = (shift << _SUB_BITS) + (ns >> shift)
                if ns > _TOP:
                    ns = _TOP
            counts[ns] += 1
        self._total_ns += sum(pending)
        self._folded += self._pending
        self._pending = 0

    def summary(self):
        """``updates`` and ``mean_us`` (exact), ``median_us`` and
        ``p99_us``, in microseconds; None without updates.  Both read
        the same ranks, from the sorted buffer or from the buckets."""
        pending = self._recent[:self._pending]
        n = self._folded + len(pending)
        if not n:
            return {"updates": 0, "median_us": None, "p99_us": None,
                    "mean_us": None}
        total_ns = self._total_ns + sum(pending)
        ranks = (n - 1) // 2, n // 2, int(0.99 * (n - 1))
        if self._folded:
            self._fold()
            counts, index, seen, at_rank = self._counts, 0, 0, {}
            for rank in sorted(set(ranks)):
                while seen <= rank:
                    seen += counts[index]
                    index += 1
                at_rank[rank] = _bucket_middle(index - 1)
        else:
            at_rank = sorted(pending)
        lo_mid, hi_mid, p99 = (at_rank[r] for r in ranks)
        return {"updates": n,
                "median_us": (lo_mid + hi_mid) / 2 / 1e3,
                "p99_us": p99 / 1e3,
                "mean_us": total_ns / n / 1e3}


def evaluate(estimates_path, trace_path):
    """Per-step containment of the true property in the emitted interval,
    plus interval-width statistics.  Streams both files: memory does not
    grow with their length, apart from ``width_decay``, which has one
    entry per doubling of t."""
    est_meta, est_records = traceio.read_records(
        estimates_path, expected_file="estimates")
    trace_meta, trace_records = traceio.read_records(trace_path)
    if est_meta["kind"] != trace_meta["kind"]:
        raise TraceFormatError("estimates and trace kinds differ")
    if est_meta.get("trace_config_hash") != trace_meta.get("config_hash"):
        raise TraceFormatError(
            f"{estimates_path} was not computed from {trace_path}: its "
            f"trace_config_hash {est_meta.get('trace_config_hash')!r} "
            f"differs from the trace's config_hash "
            f"{trace_meta.get('config_hash')!r}")

    steps = conclusive = contained = truth_steps = 0
    width_sum = 0.0
    decay = []
    next_checkpoint = 1
    missing = object()
    for est, rec in zip_longest(est_records, trace_records,
                                fillvalue=missing):
        if est is missing or rec is missing:
            raise TraceFormatError(
                f"estimates and trace files have different lengths: "
                f"{estimates_path}, {trace_path}")
        # read_records numbers both files from 1, so the steps align.
        t = est["t"]
        steps += 1
        flag = est.get("conclusive")
        if flag is False:
            continue
        # The monitor writes every endpoint as a float.
        lo, hi = est.get("phi_lo"), est.get("phi_hi")
        if flag is not True or type(lo) is not float \
                or type(hi) is not float or not -_INF < lo <= hi < _INF:
            raise traceio.bad_record(
                estimates_path, t, "need conclusive false, or true with "
                f"finite phi_lo <= phi_hi; got {flag!r}, {lo!r}, {hi!r}")
        conclusive += 1
        width = hi - lo
        width_sum += width
        if t >= next_checkpoint:
            decay.append({"t": t, "width": width})
            next_checkpoint *= 2
        truth = rec.get("truth")
        if truth is None:
            continue
        if type(truth) is not dict:
            raise traceio.bad_record(
                trace_path, t, f"truth must be an object, got {truth!r}")
        if "phi" in truth:
            phi = truth["phi"]
            # is_real, with floats (what the simulators write) inline.
            if type(phi) is not float and not is_real(phi) \
                    or not -_INF < phi < _INF:
                raise traceio.bad_record(
                    trace_path, t,
                    f"truth phi must be a finite number, got {phi!r}")
            truth_steps += 1
            if lo <= phi <= hi:
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
# Synthetic-update benchmark
# --------------------------------------------------------------------

def _lending_observation(rng):
    return LendingObservation(rng.randrange(101),
                              "A" if rng.random() < 0.5 else "B",
                              rng.randrange(2), rng.randrange(2))


def _attention_observation(rng):
    y_a = rng.randrange(4)
    y_b = rng.randrange(7 - y_a)
    return AttentionObservation(rng.randrange(20), rng.randrange(20),
                                y_a, y_b, 6)


# kind -> (default monitor config, one random observation from an rng)
BENCHES = {
    "lending": ({"kind": "lending", "n_a": 100, "n_b": 100, "c_max": 100,
                 "delta": 0.05}, _lending_observation),
    "attention": ({"kind": "attention", "gamma": 0.0025, "lambda_min": 4.0,
                   "lambda_max": 12.0, "delta": 0.05},
                  _attention_observation),
}


def bench(kind, updates, seed=0):
    """Median / p99 per-update latency over an in-memory trace."""
    if kind not in BENCHES:
        raise ConfigError(f"no benchmark for kind {kind!r}")
    if updates < 1:
        raise ConfigError(f"updates must be a positive integer, got "
                          f"{updates}")
    config, observation = BENCHES[kind]
    rng = random.Random(seed)
    observations = [observation(rng) for _ in range(updates)]
    mon = build_monitor(config)
    latencies = LatencyHistogram()
    record = latencies.record
    clock = time.perf_counter_ns
    update = mon.update
    for obs in observations:
        start = clock()
        update(obs)
        record(clock() - start)
    summary = latencies.summary()
    summary["kind"] = kind
    return summary
