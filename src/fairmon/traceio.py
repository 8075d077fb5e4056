"""JSON-lines trace and estimates files.

Every file starts with one metadata line (format version, kind, config,
config hash); each following line is one record.  Floats are written as
``float.__repr__``, as ``json`` writes them, which round-trips doubles
exactly.  Corrupt lines abort with their line number: the per-sequence
guarantee does not survive silent gaps.
"""

import csv
import hashlib
import json
import math
from json.encoder import encode_basestring_ascii

from .errors import TraceFormatError
from .monitors import MONITORS

FORMAT_VERSION = 1


def config_hash(config):
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# One compact encoder for every metadata, trace and snapshot line;
# json.dumps with non-default arguments would build a new one per call.
_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def write_trace(path, kind, config, payloads):
    """Write a trace file; ``payloads`` yields per-step dicts with "t"."""
    if kind not in MONITORS:
        raise TraceFormatError(f"unknown trace kind {kind!r}")
    meta = {"format": FORMAT_VERSION, "file": "trace", "kind": kind,
            "config": config, "config_hash": config_hash(config)}
    with open(path, "w") as fh:
        fh.write(_dumps(meta) + "\n")
        for payload in payloads:
            fh.write(_dumps(payload) + "\n")


def _read_meta(fh, path, expected_file):
    line = fh.readline()
    if not line:
        raise TraceFormatError(f"{path}: empty file, missing metadata line")
    try:
        meta = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}:1: corrupt metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise TraceFormatError(f"{path}:1: metadata is not a JSON object")
    if meta.get("format") != FORMAT_VERSION:
        raise TraceFormatError(
            f"{path}: unsupported format version {meta.get('format')!r}")
    if meta.get("file") != expected_file:
        raise TraceFormatError(
            f"{path}: expected a {expected_file} file, got "
            f"{meta.get('file')!r}")
    kind = meta.get("kind")
    if not isinstance(kind, str) or kind not in MONITORS:
        raise TraceFormatError(f"{path}:1: unknown or missing kind {kind!r}")
    return meta


def read_records(path, expected_file="trace", start_t=1):
    """Return (metadata, record iterator).  The iterator validates line
    syntax and that t starts at ``start_t`` (1 for whole files; a resumed
    run continues from its snapshot's step count) and increases by 1."""
    fh = open(path)
    meta = _read_meta(fh, path, expected_file)

    def records():
        expected_t = start_t
        with fh:
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceFormatError(
                        f"{path}:{lineno}: corrupt record: {exc}") from exc
                try:
                    t = rec.get("t")
                except AttributeError:
                    raise TraceFormatError(
                        f"{path}:{lineno}: record is not a JSON object"
                    ) from None
                if t != expected_t:
                    raise TraceFormatError(
                        f"{path}:{lineno}: expected t={expected_t}, "
                        f"got {t!r}")
                expected_t += 1
                yield rec

    return meta, records()


def observation_from_record(kind, rec):
    """The monitor observation of one trace record: the kind's
    observation type filled from the record's fields of the same names.
    Field types and ranges are checked by the monitor's update."""
    try:
        obs_type = MONITORS[kind].observation_type
    except KeyError:
        raise TraceFormatError(f"unknown trace kind {kind!r}") from None
    try:
        # From a list: from an iterator of unknown length the tuple is
        # allocated oversized and shrunk, which counts one allocation per
        # record toward the cyclic garbage collector's next run.
        return obs_type._make([rec[f] for f in obs_type._fields])
    except KeyError as exc:
        raise TraceFormatError(f"missing field {exc}") from exc


def estimate_record(output):
    """One MonitorOutput as its estimates-file line, without the newline.

    The line is filled into a fixed template and is byte for byte what
    ``json`` writes for the record dict (compact separators, no NaN):
    ``t``, ``conclusive``, ``phi_lo``, ``phi_hi``, ``point`` (the
    midpoint of phi), ``clamped``, ``floor_violation`` and
    ``group_intervals`` (group -> ``[lo, hi]`` or null, in ``per_group``
    order).  Interval endpoints are finite by construction; a midpoint
    that overflows raises ValueError.
    """
    t, phi, per_group, clamped, floor_violation = output
    groups = []
    for g, ci in per_group.items():
        groups.append(f"{encode_basestring_ascii(g)}:null" if ci is None else
                      f"{encode_basestring_ascii(g)}:[{ci.lo!r},{ci.hi!r}]")
    if phi is None:
        head = (f'{{"t":{t!r},"conclusive":false,'
                f'"phi_lo":null,"phi_hi":null,"point":null')
    else:
        lo, hi, point = phi.lo, phi.hi, phi.midpoint
        if not math.isfinite(point):
            raise ValueError(f"midpoint of [{lo!r}, {hi!r}] is not finite")
        head = (f'{{"t":{t!r},"conclusive":true,'
                f'"phi_lo":{lo!r},"phi_hi":{hi!r},"point":{point!r}')
    return (f'{head},"clamped":{"true" if clamped else "false"},'
            f'"floor_violation":{"true" if floor_violation else "false"},'
            f'"group_intervals":{{{",".join(groups)}}}}}')


def write_estimates(path, kind, monitor_config, trace_meta, lines):
    """Write an estimates file; ``lines`` yields :func:`estimate_record`
    lines."""
    meta = {"format": FORMAT_VERSION, "file": "estimates", "kind": kind,
            "monitor_config": monitor_config,
            "trace_config_hash": trace_meta.get("config_hash")}
    with open(path, "w") as fh:
        fh.write(_dumps(meta) + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_snapshot(path, monitor, monitor_config):
    blob = {"format": FORMAT_VERSION, "file": "snapshot",
            "kind": monitor.kind, "monitor_config": monitor_config,
            "state": monitor.state_dict()}
    with open(path, "w") as fh:
        fh.write(_dumps(blob) + "\n")


def read_snapshot(path):
    """Return (kind, monitor_config, state)."""
    with open(path) as fh:
        meta = _read_meta(fh, path, "snapshot")
    config, state = meta.get("monitor_config"), meta.get("state")
    if not isinstance(config, dict) or not isinstance(state, dict):
        raise TraceFormatError(
            f"{path}: snapshot needs 'monitor_config' and 'state' objects")
    return meta.get("kind"), config, state


CSV_FIELDS = ["t", "conclusive", "phi_lo", "phi_hi", "point",
              "clamped", "floor_violation",
              "a_lo", "a_hi", "b_lo", "b_hi"]


def export_csv(estimates_path, csv_path):
    """Flatten an estimates file to CSV for plotting."""
    _, records = read_records(estimates_path, expected_file="estimates")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for rec in records:
            groups = rec.get("group_intervals", {})
            a = groups.get("A") or [None, None]
            b = groups.get("B") or [None, None]
            writer.writerow({
                "t": rec["t"], "conclusive": rec["conclusive"],
                "phi_lo": rec["phi_lo"], "phi_hi": rec["phi_hi"],
                "point": rec["point"], "clamped": rec["clamped"],
                "floor_violation": rec["floor_violation"],
                "a_lo": a[0], "a_hi": a[1], "b_lo": b[0], "b_hi": b[1],
            })
