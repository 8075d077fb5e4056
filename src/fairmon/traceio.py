"""JSON-lines trace, estimates and snapshot files.

Every file starts with one metadata line, laid out as :data:`HEADERS`
gives for its file kind: the one format version it is written at and
read at, then ``file``, ``kind`` and the kind's fields, each of one JSON
type.  :func:`_write` writes the line and :func:`_read_meta` checks it.
Every output file, these and the CSV and report files, is written
through :func:`output`, which removes a file whose write failed.
An estimates or snapshot header holds exactly these fields; a trace
header may hold more, as may a trace record.
Each following line is one record.  Files are UTF-8 text, whatever the
locale.  Floats are written as ``float.__repr__``, as ``json`` writes
them, which round-trips doubles exactly.  Corrupt lines abort with their
line number: the per-sequence guarantee does not survive silent gaps.
"""

import json
import math
import os
import stat
from contextlib import contextmanager
from operator import itemgetter

# SHA-256 from CPython's built-in module, as random.py takes SHA-512:
# hashlib would load OpenSSL (~3.5 MB of peak RSS) into every stage.
try:
    from _sha256 import sha256
except ImportError:  # CPython 3.12+
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import TraceFormatError, a_or_an
from .monitors import MONITORS

# file kind -> (format version, {metadata field after "kind": JSON type})
HEADERS = {
    "trace": (1, {"config": dict, "config_hash": str}),
    "estimates": (2, {"monitor_config": dict, "trace_config_hash": str}),
    "snapshot": (2, {"monitor_config": dict, "trace_config_hash": str,
                     "state": dict}),
}
# The fields every metadata line starts with, before its kind's.
_LEAD = ("format", "file", "kind")
# Python type of a parsed JSON value -> its JSON type name, for messages.
JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number",
              float: "number", bool: "boolean", type(None): "null"}


def config_hash(config):
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()[:16]


def parse_json(text):
    """``json.loads(text)``, where JSON nested too deeply for the parser
    is a ValueError too, with one message on every Python version."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


# One compact encoder for every metadata, trace and snapshot line;
# json.dumps with non-default arguments would build a new one per call.
_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode

# The scanner under json.loads, which also skips leading and trailing
# whitespace with two regex matches and then rejects extra data.  A line
# holding exactly one JSON value and its newline needs neither; any other
# line goes through json.loads, so what it accepts and every error
# message stay the same.  The scanner clears its key memo after each call.
_scan_once = json.JSONDecoder().scan_once

_isfinite = math.isfinite
_INF = math.inf


@contextmanager
def output(path, newline=None):
    """Open ``path`` for writing UTF-8 text and yield the file.  If the
    body raises anything, the interpreter's interrupt included, the file
    is closed, removed and the exception re-raised, so a failed command
    leaves no partial output.  Only a regular file is removed: a device
    such as ``os.devnull``, a FIFO or a symbolic link stays."""
    fh = open(path, "w", encoding="utf-8", newline=newline)
    try:
        with fh:
            yield fh
    except BaseException:
        try:
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        except OSError:  # already gone, or not ours to remove
            pass
        raise


def _write(path, file, kind, values, lines=()):
    """Write a ``file`` of ``kind``: its metadata line, in which the
    fields of ``HEADERS[file]`` take ``values`` in order, then each of
    ``lines`` and its newline."""
    version, fields = HEADERS[file]
    meta = {"format": version, "file": file, "kind": kind}
    meta.update(zip(fields, values))
    header = _dumps(meta) + "\n"
    with output(path) as fh:
        fh.write(header)
        for line in lines:
            fh.write(line + "\n")


def write_trace(path, kind, config, payloads):
    """Write a trace file; ``payloads`` yields per-step dicts with "t",
    each written by the JSON encoder (compact separators, no NaN)."""
    write_trace_lines(path, kind, config, map(_dumps, payloads))


def write_trace_lines(path, kind, config, lines):
    """Write a trace file whose records are ``lines``, each one JSON
    object with "t", without its newline."""
    if kind not in MONITORS:
        raise TraceFormatError(f"unknown trace kind {kind!r}")
    _write(path, "trace", kind, (config, config_hash(config)), lines)


def _check_utf8(path, lineno, line):
    """Raise the data error of a line that is not UTF-8.  Files are read
    with each byte that is not UTF-8 kept as a lone surrogate, so the
    text layer never fails partway through a chunk; this restores the
    line's bytes and decodes them strictly.  Only a line that is not
    ASCII needs it."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"{path}:{lineno}: line is not UTF-8 text ({exc.reason})"
        ) from exc


def _read_meta(fh, path, expected_file):
    line = fh.readline()
    if not line.isascii():
        _check_utf8(path, 1, line)
    if not line:
        raise TraceFormatError(f"{path}: empty file, missing metadata line")
    try:
        meta = parse_json(line)
    except ValueError as exc:  # an int past the digit limit included
        raise TraceFormatError(f"{path}:1: corrupt metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise TraceFormatError(f"{path}:1: metadata is not a JSON object")
    a_file = a_or_an(expected_file + " file")
    if meta.get("file") != expected_file:
        raise TraceFormatError(
            f"{path}:1: expected {a_file}, got {meta.get('file')!r}")
    version = meta.get("format")
    supported, fields = HEADERS[expected_file]
    # JSON true and 1.0 compare equal to 1.
    if type(version) is not int or version != supported:
        hint = ""
        if expected_file == "estimates":
            hint = ("; re-run `fairmon monitor` on the trace whose "
                    f"config_hash is {meta.get('trace_config_hash')!r} "
                    "to regenerate it")
        raise TraceFormatError(
            f"{path}:1: unsupported format version {version!r} of "
            f"{a_file}{hint}")
    kind = meta.get("kind")
    if not isinstance(kind, str) or kind not in MONITORS:
        raise TraceFormatError(f"{path}:1: unknown or missing kind {kind!r}")
    for field, json_type in fields.items():
        if type(meta.get(field)) is not json_type:
            raise TraceFormatError(f"{path}:1: metadata needs {field!r} as "
                                   f"a JSON {JSON_TYPES[json_type]}")
    if expected_file == "trace":
        got, want = meta["config_hash"], config_hash(meta["config"])
        if got != want:
            raise TraceFormatError(f"{path}:1: config_hash {got!r} is not "
                                   f"{want!r}, the hash of its config")
        return meta  # deployed systems write traces, so it may hold more
    if meta["monitor_config"].get("kind") != kind:
        raise TraceFormatError(
            f"{path}:1: {expected_file} kind {kind!r} differs from its "
            f"monitor_config kind {meta['monitor_config'].get('kind')!r}")
    for field in meta:
        if field not in fields and field not in _LEAD:
            raise TraceFormatError(f"{path}:1: unknown metadata field "
                                   f"{field!r} for {a_file}")
    return meta


def read_records(path, expected_file="trace", start_t=1):
    """Return (metadata, record iterator).  The iterator validates line
    syntax and that t starts at ``start_t`` (1 for whole files; a resumed
    run continues from its snapshot's step count; None for the first
    record's t, an int >= 1) and increases by 1.

    A consumer that rejects the record just yielded calls
    ``records.throw(exc)``: the iterator, still at that record's line,
    raises ``TraceFormatError("PATH:LINE: bad record t=T: EXC")`` from
    ``exc``.

    The iterator owns the open file from the start: it closes it on a
    metadata error, at its end, and when it is dropped unfinished."""
    records = _records(path, expected_file, start_t)
    return next(records), records


def _records(path, expected_file, start_t):
    """Yield the metadata, then each record, of ``path``."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        yield _read_meta(fh, path, expected_file)
        expected_t = start_t
        for lineno, line in enumerate(fh, start=2):
            if not line.isascii():
                _check_utf8(path, lineno, line)
            try:
                rec, end = _scan_once(line, 0)
            except (StopIteration, ValueError, RecursionError):
                # No value starts the line: it is blank, or json.loads
                # parses it whole and words its error.
                if not line.strip():
                    continue
                end = -1
            if end < 0 or line[end:] != "\n":
                try:
                    rec = parse_json(line)
                except ValueError as exc:  # the digit limit included
                    raise TraceFormatError(
                        f"{path}:{lineno}: corrupt record: {exc}"
                    ) from exc
            try:
                t = rec.get("t")
            except AttributeError:
                raise TraceFormatError(
                    f"{path}:{lineno}: record is not a JSON object"
                ) from None
            if t != expected_t or type(t) is not int:
                if expected_t is None and type(t) is int and t >= 1:
                    expected_t = t  # the first record sets the start
                else:
                    want = "t >= 1" if expected_t is None \
                        else f"t={expected_t}"
                    raise TraceFormatError(
                        f"{path}:{lineno}: expected {want}, got {t!r}")
            expected_t += 1
            try:
                yield rec
            except Exception as exc:  # thrown in by the consumer
                raise TraceFormatError(
                    f"{path}:{lineno}: bad record t={t}: {exc}") from exc


def _fields_getter(fields):
    """A function returning a record's values of ``fields``, in order, as
    a tuple; the first missing field raises its KeyError."""
    get = itemgetter(*fields)
    if len(fields) > 1:
        return get
    # itemgetter of one key returns the bare value.
    return lambda rec: (get(rec),)


# kind -> (observation type, getter of its fields from a record)
_OBSERVATIONS = {
    kind: (cls.observation_type,
           _fields_getter(cls.observation_type._fields))
    for kind, cls in MONITORS.items()}

_new = tuple.__new__


def observation_from_record(kind, rec):
    """The monitor observation of one trace record: the kind's
    observation type filled from the record's fields of the same names.
    Field types and ranges are checked by the monitor's update."""
    try:
        obs_type, get_fields = _OBSERVATIONS[kind]
    except KeyError:
        raise TraceFormatError(f"unknown trace kind {kind!r}") from None
    try:
        return _new(obs_type, get_fields(rec))
    except KeyError as exc:
        raise TraceFormatError(f"missing field {exc}") from exc


# Each group's last formatted interval and its "[lo,hi]" text.  A group
# that did not move keeps the same interval object from one output to
# the next.  The memo holds a reference to the object, so its identity
# is not reused, and the tuple is immutable, so an identity match means
# the same text whatever the caller.  Each entry is replaced whole: a
# concurrent caller can miss the memo but never read another's text.
_group_text = {"A": (None, "null"), "B": (None, "null")}


def estimate_record(output):
    """One MonitorOutput as its estimates-file line (format 2), without
    the newline.

    The line is filled into a fixed template and is byte for byte what
    ``json`` writes for the record dict (compact separators, no NaN):
    ``t``, the group intervals ``A`` and ``B`` (each ``[lo, hi]`` or
    null), ``clamped`` and ``floor_violation``.  phi and its midpoint
    are not written: a reader derives them from ``A`` and ``B`` (see
    :func:`read_estimates`).  An interval that is the object last
    formatted for its group reuses that text.  Interval endpoints are
    finite by construction; a phi whose midpoint overflows raises
    ValueError, so every value a reader derives is finite.
    """
    t, phi, per_group, clamped, floor_violation = output
    a, b = per_group["A"], per_group["B"]
    memo = _group_text
    last, a_text = memo["A"]
    if a is not last:
        a_text = "null" if a is None else f"[{a.lo!r},{a.hi!r}]"
        memo["A"] = a, a_text
    last, b_text = memo["B"]
    if b is not last:
        b_text = "null" if b is None else f"[{b.lo!r},{b.hi!r}]"
        memo["B"] = b, b_text
    if phi is not None:
        lo, hi, _ = phi
        # the operations of phi.midpoint
        if not _isfinite(0.5 * (lo + hi)):
            raise ValueError(f"midpoint of [{lo!r}, {hi!r}] is not finite")
    return (f'{{"t":{t!r},"A":{a_text},"B":{b_text},'
            f'"clamped":{"true" if clamped else "false"},'
            f'"floor_violation":{"true" if floor_violation else "false"}}}')


def write_estimates(path, kind, monitor_config, trace_meta, lines):
    """Write an estimates file; ``lines`` yields :func:`estimate_record`
    lines."""
    _write(path, "estimates", kind,
           (monitor_config, trace_meta["config_hash"]), lines)


def write_snapshot(path, monitor, monitor_config, trace_meta):
    """Write a snapshot of ``monitor`` after the trace whose metadata is
    ``trace_meta``; only a trace of the same ``config_hash`` resumes
    it."""
    _write(path, "snapshot", monitor.kind,
           (monitor_config, trace_meta["config_hash"], monitor.state_dict()))


def read_snapshot(path):
    """Return (kind, monitor_config, state, trace_config_hash).  A
    snapshot is its one metadata line: any later line that is not blank
    is a data error."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        meta = _read_meta(fh, path, "snapshot")
        for lineno, line in enumerate(fh, start=2):
            if not line.isascii():
                _check_utf8(path, lineno, line)
            if line.strip():
                raise TraceFormatError(
                    f"{path}:{lineno}: unexpected line after the snapshot")
    return (meta["kind"], meta["monitor_config"], meta["state"],
            meta["trace_config_hash"])


def _group(g, pair):
    """Group ``g``'s interval: None, or a list of two finite floats with
    lo <= hi."""
    if pair is None:
        return None
    if type(pair) is list and len(pair) == 2:
        lo, hi = pair
        if type(lo) is float and type(hi) is float \
                and -_INF < lo <= hi < _INF:
            return pair
    raise ValueError(f"group {g} interval must be [lo, hi] or null, with "
                     f"finite floats lo <= hi; got {pair!r}")


_estimate_fields = itemgetter("t", "A", "B", "clamped", "floor_violation")


def read_estimates(path):
    """Return (metadata, step iterator) of an estimates file.  Each step
    is ``(t, phi, clamped, floor_violation, A, B)``, checked and derived
    by :func:`_step`; a record that fails a check is a data error
    ``PATH:LINE: bad record t=T: …``.  The steps start at the first
    record's t, so the estimates of a resumed run are read too."""
    meta, records = read_records(path, "estimates", None)
    return meta, _steps(records, len(MONITORS[meta["kind"]].groups) == 1)


def _steps(records, one_group):
    """The steps of ``records``.  One test accepts a well-formed record
    of a two-group monitor: each group a list of two finite floats lo <=
    hi, phi and its midpoint finite, and bool flags, every type checked
    before any arithmetic.  Every other record goes through
    :func:`_step`, which checks it and words its error."""
    for rec in records:
        if not one_group:
            try:
                t, a, b, clamped, floor_violation = _estimate_fields(rec)
                a_lo, a_hi = a
                b_lo, b_hi = b
            except (KeyError, TypeError, ValueError):
                pass
            else:
                if type(a) is list and type(b) is list \
                        and type(a_lo) is float and type(a_hi) is float \
                        and type(b_lo) is float and type(b_hi) is float \
                        and -_INF < a_lo <= a_hi < _INF \
                        and -_INF < b_lo <= b_hi < _INF \
                        and type(clamped) is bool \
                        and type(floor_violation) is bool:
                    lo, hi = a_lo - b_hi, a_hi - b_lo
                    # An infinite end of phi makes its midpoint inf or nan.
                    if _isfinite(0.5 * (lo + hi)):
                        yield t, (lo, hi), clamped, floor_violation, a, b
                        continue
        try:
            step = _step(rec, one_group)
        except ValueError as exc:
            records.throw(exc)
        yield step


def _step(rec, one_group):
    """The step of one estimates record; each group is ``[lo, hi]`` or
    None, and so is phi, None while the step is inconclusive.  A monitor
    with one group reports its stream as A, with B null, and phi is A.
    With two, phi is None while a group is null and else ``(A.lo - B.hi,
    A.hi - B.lo)``, the operations of ``interval_sub``: rounding is
    monotone, so lo <= hi, but either may overflow.  phi and its
    midpoint must be finite and each flag a bool; raises ValueError
    otherwise."""
    try:
        t, a, b, clamped, floor_violation = _estimate_fields(rec)
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None
    a = _group("A", a)
    if one_group:
        if b is not None:
            raise ValueError("group B interval must be null for a monitor "
                             f"with one group; got {b!r}")
        phi = a
    else:
        b = _group("B", b)
        phi = None if a is None or b is None else (a[0] - b[1], a[1] - b[0])
    if phi is not None:
        lo, hi = phi
        if not (-_INF < lo and hi < _INF and _isfinite(0.5 * (lo + hi))):
            raise ValueError(
                f"phi [{lo!r}, {hi!r}] or its midpoint is not finite")
    if type(clamped) is not bool or type(floor_violation) is not bool:
        raise ValueError("clamped and floor_violation must be true or "
                         f"false; got {clamped!r}, {floor_violation!r}")
    return t, phi, clamped, floor_violation, a, b


CSV_FIELDS = ["t", "conclusive", "phi_lo", "phi_hi", "point", "clamped",
              "floor_violation", "a_lo", "a_hi", "b_lo", "b_hi"]
_NULL_PAIR = [None, None]


def export_csv(estimates_path, csv_path):
    """Flatten an estimates file to CSV for plotting, one row per record.
    The columns are :data:`CSV_FIELDS`: ``t``; ``conclusive``; phi's
    ``phi_lo`` and ``phi_hi``; ``point``, phi's midpoint ``0.5 * (lo +
    hi)`` as the monitor computes it; the ``clamped`` and
    ``floor_violation`` flags; and each group's endpoints ``a_lo``,
    ``a_hi``, ``b_lo`` and ``b_hi``.  phi, ``point`` and an absent
    group's endpoints are empty while null."""
    # Imported here, so the stages that write no CSV never load it.
    import csv

    _, steps = read_estimates(estimates_path)
    with output(csv_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for t, phi, clamped, floor_violation, a, b in steps:
            if phi is None:
                row = [t, False, None, None, None]
            else:
                lo, hi = phi
                row = [t, True, lo, hi, 0.5 * (lo + hi)]
            writer.writerow(row + [clamped, floor_violation]
                            + (a or _NULL_PAIR) + (b or _NULL_PAIR))
