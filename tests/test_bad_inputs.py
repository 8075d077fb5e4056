"""Malformed inputs and the error each gives, as one table of rows.

A row starts from a base run, edits its files, runs one ``fairmon``
command and checks:

* the exit code and the exact stderr;
* that stdout is empty;
* that the command left no output ``{out}``: a command that fails
  removes what it had begun to write;
* that every file in the row's directory keeps its bytes, and that no
  file appears outside ``{out}``.

pytest runs each row in process through ``cli.main``: a row named in
TRACE_TESTS under its old test name in tests/test_trace.py, the others
here as ``test_bad_input[ROW]``.  Run as a script,
``python tests/test_bad_inputs.py`` runs each row through the
``fairmon`` console script on PATH, and exits 1 if any row fails.

To add a row, append it to ROWS with :func:`data_error`,
:func:`config_error` or :func:`row`: an id, the argv, the expected
stderr (and exit code), the edits, and its base from BASES.
"""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

import pytest

from fairmon import cli, runner, traceio

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

# name -> (simulator config, monitor config, records before the snapshot)
BASES = {
    "lending": (SIM, MON, 10),
    "lending-20": (dict(SIM, horizon=20), MON, 7),
    # Line 301 of each file starts past the reader's first 8 KiB chunk.
    "lending-400": (dict(SIM, horizon=400), MON, 400),
    "attention": (ATTENTION_SIM, ATTENTION_MON, 10),
    "attention-l5": (dict(ATTENTION_SIM, l=5, seed=7), ATTENTION_MON, 10),
    "coin": (COIN_SIM, COIN_MON, 10),
}

# A base run's files in each row's directory: the trace, the monitor's
# estimates of all of it, its snapshot after the base's split, the
# trace's records after the split ("rest", which the snapshot resumes
# onto; only the metadata line when the split is the horizon), a config
# file with the simulator (less its seed) and monitor configs, and a
# symbolic link to the trace.
FILES = {"trace": "trace.jsonl", "estimates": "estimates.jsonl",
         "snapshot": "snapshot.json", "rest": "rest.jsonl",
         "config": "config.json", "link": "link"}


class Row(namedtuple("Row", "id base edits argv code stderr")):
    """One bad input.  ``argv`` is split on spaces; it and ``stderr``
    name files as ``{trace}``, ``{estimates}``, ``{snapshot}``,
    ``{rest}``, ``{config}`` and ``{link}``, the output as ``{out}`` and
    the row's directory as ``{dir}``.  ``stderr`` is without its final
    newline; a :class:`Pattern` is matched as a regular expression.

    Each edit is ``(file, line, new)``: ``file`` is a key of FILES or a
    file name in the row's directory, and ``line`` counts from 1 in the
    base's file (one past its end appends; None replaces the whole file
    with the bytes ``new``).  ``new`` is the line's replacement bytes,
    its newline included; or a JSON value, written as ``json.dumps``
    writes it; or a function of the line's parsed JSON, which edits it
    in place or returns replacement bytes."""


class Pattern(str):
    """A stderr matched as a regular expression, in which ``{name}``
    placeholders stand for their paths.  Only the part that is an
    interpreter message differing across Python versions may be more
    than a literal.  A text added before a Pattern is escaped into it,
    its placeholders kept."""

    def __radd__(self, literal):
        escaped = re.sub(r"\\\{(\w+)\\\}", r"{\1}", re.escape(literal))
        return Pattern(str.__add__(escaped, self))


def row(id, argv, code, stderr, *edits, base="lending"):
    return Row(id, base, edits, argv, code, stderr)


def data_error(id, argv, message, *edits, **kwargs):
    """A row that exits 2 with ``fairmon: data error: MESSAGE``."""
    return row(id, argv, 2, "fairmon: data error: " + message, *edits,
               **kwargs)


def config_error(id, argv, message, *edits, **kwargs):
    """A row that exits 1 with ``fairmon: error: MESSAGE``."""
    return row(id, argv, 1, "fairmon: error: " + message, *edits, **kwargs)


MONITOR = "monitor --trace {trace} --config {config} -o {out}"
RESUME = "monitor --trace {rest} --resume {snapshot} -o {out}"
EVAL = "eval --estimates {estimates} --trace {trace} -o {out}"
EXPORT = "export --estimates {estimates} -o {out}"
SIMULATE = "simulate --config {config} --seed 1 -o {out}"
RUN = "run --config {config} --seed 1 --out-dir {out}"
# The command that reads each file kind first.
READ = {"trace": MONITOR, "estimates": EVAL, "snapshot": RESUME}

_DROP = object()
_JSON_ERROR = ("Expecting property name enclosed in double quotes: line 1 "
               "column 2 (char 1)")
_DIGIT_LIMIT = Pattern(
    r"Exceeds the limit \(4300( digits)?\) for integer string conversion: "
    r"value has 5000 digits; use sys\.set_int_max_str_digits\(\) to "
    r"increase the limit")
_NESTED = b"[" * 100_000
_NOT_JSON = "config {config} is not valid JSON: "
_INTEGERS = ("score, decision and reaction must be integers: "
             "LendingObservation({})")
_INTERVAL = ("group {} interval must be [lo, hi] or null, with finite "
             "floats lo <= hi; got {!r}")
_FLAGS = "clamped and floor_violation must be true or false; got {}, {}"
_STATE = "{snapshot}:1: invalid monitor state: "
_NULL_LAST = ("state.last.{0} must be null exactly when estimator {0} has no "
              "updates")
_LAST = "state.last.{} must be null or two finite numbers lo <= hi, got {}"
_SCORES = ("init must be a preset or lists of {} and {} scores in [0, 10], "
           "got {}")
_SMALL_LENDING = {"kind": "lending", "n_a": 3, "n_b": 3, "c_max": 10,
                  "horizon": 5}
_SMALL_ATTENTION = {"kind": "attention", "l": 2, "k": 2, "gamma": 0.0,
                    "horizon": 5}


def _field(path, value=_DROP):
    """An edit that sets a field of a JSON object, or drops it; ``path``
    names the field after the objects it is in, joined by dots."""
    *parents, name = path.split(".")

    def edit(obj):
        for key in parents:
            obj = obj[key]
        if value is _DROP:
            del obj[name]
        else:
            obj[name] = value
    return edit


def _resealed(**fields):
    """An edit of trace metadata: ``fields`` set in its config, under
    the config's new hash."""
    def edit(meta):
        meta["config"].update(fields)
        meta["config_hash"] = traceio.config_hash(meta["config"])
    return edit


def _preceded_by(text):
    """An edit that puts ``text`` before its line."""
    return lambda obj: text + json.dumps(obj).encode() + b"\n"


def _with_bad_field(value):
    """An edit that puts a first field "bad" of the raw JSON ``value``
    into its line's object."""
    return lambda obj: (b'{"bad":' + value + b","
                        + json.dumps(obj).encode()[1:] + b"\n")


def _hash_error(config):
    return (f"{{trace}}:1: config_hash {traceio.config_hash(SIM)!r} is not "
            f"{traceio.config_hash(config)!r}, the hash of its config")


def _config_bytes(sim, mon):
    """A config file's bytes: the simulator config, less its seed, and
    the monitor config."""
    sim = {k: v for k, v in sim.items() if k != "seed"}
    return json.dumps({"simulator": sim, "monitor": mon}).encode()


def _state_before_floor_bit(snap):
    """The earlier two-group state: each group's confidence in "last" and
    a per-group "min_shift" instead of the "floor_violation" bit."""
    state = snap["state"]
    for g in ("A", "B"):
        state["last"][g].append(1.0 - snap["monitor_config"]["delta"] / 2)
    del state["floor_violation"]
    state["min_shift"] = {"A": 0.0, "B": 0.0}


def _coin_state_before_shared_state(snap):
    """The earlier coin state, its one estimator outside the group maps."""
    state = snap["state"]
    snap["state"] = {"t": state["t"], "estimator": state["estimators"]["A"]}


ROWS = [
    # A metadata line of another format version (JSON true and 1.0
    # compare equal to the version 1) or file kind.
    *[data_error(
        f"{file}-format-{meta['format']!r}", READ[file],
        f"{{{file}}}:1: unsupported format version {meta['format']!r} of "
        + ("an estimates file; re-run `fairmon monitor` on the trace "
           "whose config_hash is None to regenerate it"
           if file == "estimates" else f"a {file} file"), (file, 1, meta))
      for file, meta in [
          ("estimates", {"format": 0, "file": "estimates", "kind": "coin"}),
          ("estimates", {"format": 1, "file": "estimates", "kind": "coin"}),
          ("estimates", {"format": 3, "file": "estimates", "kind": "coin"}),
          ("trace", {"format": 2, "file": "trace", "kind": "coin"}),
          ("snapshot", {"format": 1, "file": "snapshot", "kind": "coin"}),
          ("snapshot", {"format": 3, "file": "snapshot", "kind": "coin"}),
          ("trace", dict(COIN_META, format=True)),
          ("trace", dict(COIN_META, format=1.0)),
          ("trace", {"format": 99, "file": "trace"})]],
    *[data_error(f"{got}-file-as-{file}", READ[file],
                 f"{{{file}}}:1: expected {article} {file} file, got {got!r}",
                 (file, 1, {"format": 1, "file": got, "kind": "coin"}))
      for got, file, article in [("trace", "estimates", "an"),
                                 ("estimates", "trace", "a"),
                                 ("trace", "snapshot", "a")]],
    data_error("estimates-file-without-kind-as-trace", MONITOR,
               "{trace}:1: expected a trace file, got 'estimates'",
               ("trace", 1, {"format": 1, "file": "estimates"})),
    *[data_error(f"trace-{id}", MONITOR,
                 f"{{trace}}:1: unknown or missing kind {kind!r}",
                 ("trace", 1, {"format": 1, "file": "trace", "config": {},
                               "config_hash": "x",
                               **({} if kind is None else {"kind": kind})}))
      for id, kind in [("no-kind", None), ("unknown-kind", "housing"),
                       ("list-kind", ["lending"])]],
    data_error("snapshot-metadata-not-an-object", RESUME,
               "{snapshot}:1: metadata is not a JSON object",
               ("snapshot", 1, b"[1, 2]\n")),
    data_error("snapshot-not-json", RESUME,
               "{snapshot}:1: corrupt metadata: " + _JSON_ERROR,
               ("snapshot", None, b"{broken\n")),
    data_error("empty-trace", MONITOR,
               "{trace}: empty file, missing metadata line",
               ("trace", None, b"")),
    # An estimates or snapshot header holds exactly its fields.
    *[data_error(f"{file}-unknown-metadata-field-{command}", argv,
                 f"{{{file}}}:1: unknown metadata field 'note' for {a_file}",
                 (file, 1, _field("note", "x")))
      for file, a_file, command, argv in [
          ("snapshot", "a snapshot file", "resume", RESUME),
          ("estimates", "an estimates file", "eval", EVAL),
          ("estimates", "an estimates file", "export", EXPORT)]],
    data_error("trace-is-not-a-snapshot",
               "monitor --trace {trace} --resume {trace} -o {out}",
               "{trace}:1: expected a snapshot file, got 'trace'"),

    # Each metadata field missing, null or of another JSON type.
    *[data_error(f"{file}-{field}-{how}", READ[file],
                 f"{{{file}}}:1: metadata needs {field!r} as a JSON "
                 f"{json_type}", (file, 1, _field(field, value)))
      for file, fields in {
          "trace": {"config": "object", "config_hash": "string"},
          "estimates": {"monitor_config": "object",
                        "trace_config_hash": "string"},
          "snapshot": {"monitor_config": "object",
                       "trace_config_hash": "string", "state": "object"},
      }.items()
      for field, json_type in fields.items()
      for how, value in (("dropped", _DROP), ("null", None),
                         ("wrong-type", {"object": [], "string": 1}[
                             json_type]))],
    data_error("snapshot-state-in-a-list", RESUME,
               "{snapshot}:1: metadata needs 'state' as a JSON object",
               ("snapshot", 1, lambda snap: snap.update(
                   state=[snap["state"]]))),
    data_error("trace-config-edited-under-its-hash", MONITOR,
               _hash_error(dict(SIM, seed=43)),
               ("trace", 1, _field("config.seed", 43))),
    data_error("estimates-monitor-config-of-another-kind", EVAL,
               "{estimates}:1: estimates kind 'lending' differs from its "
               "monitor_config kind 'coin'",
               ("estimates", 1, _field("monitor_config", COIN_MON))),
    data_error("snapshot-monitor-config-of-another-kind", RESUME,
               "{snapshot}:1: snapshot kind 'lending' differs from its "
               "monitor_config kind 'coin'",
               ("snapshot", 1, _field("monitor_config", COIN_MON))),
    data_error("snapshot-kind-edited", RESUME,
               "{snapshot}:1: snapshot kind 'lending' differs from its "
               "monitor_config kind 'coin'",
               ("snapshot", 1, _field("kind", "lending")), base="coin"),
    # A trace simulated with n_a = 5 ran under a monitor with n_a = 50 (or
    # 5, for the lost hash), exited 0, and eval accepted the result.
    data_error("null-config-hides-the-population", MONITOR,
               "{trace}:1: metadata needs 'config' as a JSON object",
               ("trace", 1, _field("config", None)),
               ("config", 1, _field("monitor.n_a", 50))),
    data_error("config-edited-to-the-monitor-population", MONITOR,
               _hash_error(dict(SIM, n_a=50)),
               ("trace", 1, _field("config.n_a", 50)),
               ("config", 1, _field("monitor.n_a", 50))),
    data_error("lost-hash-matches-null", EVAL,
               "{estimates}:1: metadata needs 'trace_config_hash' as a "
               "JSON string", ("trace", 1, _field("config_hash")),
               ("estimates", 1, _field("trace_config_hash", None))),
    data_error("own-trace-with-another-hash", MONITOR,
               "{trace}:1: config_hash 'x' is not '44136fa355b3678a', the "
               "hash of its config",
               ("trace", 1, dict(COIN_META, config_hash="x")), base="coin"),
    # Estimates format 1 is no longer read; its metadata names the trace
    # it was computed from, so it can be regenerated exactly.
    *[data_error(f"estimates-format-1-{command}", argv,
                 "{estimates}:1: unsupported format version 1 of an "
                 "estimates file; re-run `fairmon monitor` on the trace "
                 f"whose config_hash is {traceio.config_hash(SIM)!r} to "
                 "regenerate it", ("estimates", 1, _field("format", 1)))
      for command, argv in [("eval", EVAL), ("export", EXPORT)]],

    # Files that do not belong together.
    data_error("coin-trace-under-a-lending-monitor", MONITOR,
               "{trace}:1: trace kind 'coin' does not match monitor kind "
               "'lending'", ("config", 1, _field("monitor", MON)),
               base="coin"),
    data_error("lending-trace-under-a-coin-monitor", MONITOR,
               "{trace}:1: trace kind 'lending' does not match monitor kind "
               "'coin'", ("config", 1, _field("monitor", COIN_MON))),
    data_error("estimates-of-another-kind", EVAL,
               "{estimates}:1: estimates kind 'lending' differs from the "
               "trace's kind 'coin'", ("trace", 1, COIN_META)),
    data_error("estimates-of-another-trace", EVAL,
               f"{{estimates}}:1: not computed from {{trace}}: its "
               f"trace_config_hash {traceio.config_hash(SIM)!r} differs "
               f"from the trace's config_hash "
               f"{traceio.config_hash(dict(SIM, seed=43))!r}",
               ("trace", 1, _resealed(seed=43))),
    *[data_error(f"{long}-longer-than-{short}", EVAL,
                 f"{{{short}}}: ends after 8 records; {{{long}}} has more",
                 (short, 10, b""), (short, 11, b""))
      for short, long in [("trace", "estimates"), ("estimates", "trace")]],
    # The snapshot was taken under n_a = 5; the rest of the stream comes
    # from a population with n_a = 6.
    data_error("resume-onto-trace-of-another-model", RESUME,
               "{rest}:1: trace was simulated with n_a=6, the monitor "
               "config has n_a=5", ("rest", 1, _resealed(n_a=6))),
    data_error("resume-under-another-config",
               RESUME + " --config {config}",
               "{snapshot}:1: snapshot monitor config differs from the "
               "requested one",
               ("config", 1, _field("monitor.delta", 0.01))),
    # The snapshot was taken on seed 42's stream, the rest is seed 43's:
    # every record and shared field fits, and the estimates would chain.
    data_error("resume-on-another-streams-rest", RESUME,
               "{snapshot}:1: snapshot was taken on the trace whose "
               f"config_hash is {traceio.config_hash(SIM)!r}, not on "
               "{rest}, whose config_hash is "
               f"{traceio.config_hash(dict(SIM, seed=43))!r}",
               ("rest", 1, _resealed(seed=43))),
    # A monitor told gamma = 0 on a trace simulated with gamma = 0.002
    # contained the truth on 30 % of the steps and exited 0.
    data_error("attention-gamma-differs",
               "run --config {config} --seed 1 --out-dir {out}",
               "{out}/trace.jsonl:1: trace was simulated with gamma=0.002, "
               "the monitor config has gamma=0.0",
               ("config", 1, {"simulator": {
                   "kind": "attention", "l": 2, "k": 1, "gamma": 0.002,
                   "horizon": 4000, "policy": "greedy",
                   "lambda_init": [6.0, 3.0]},
                   "monitor": dict(ATTENTION_MON, gamma=0.0,
                                   lambda_min=0.5, lambda_max=14.0)})),
    # run builds both configs and checks the model before it makes
    # --out-dir: these left a whole trace behind.
    data_error("run-coin-monitor-on-a-lending-simulator", RUN,
               "{out}/trace.jsonl:1: trace kind 'lending' does not match "
               "monitor kind 'coin'", ("config", 1, _field("monitor",
                                                           COIN_MON))),
    config_error("run-c_max-overflows-the-first-interval", RUN,
                 f"c_max={10 ** 154} is too large for delta=0.05: the "
                 "half-width of the first interval overflows",
                 *[("config", 1, _field(path, value)) for path, value in [
                     ("simulator.c_max", 10 ** 154),
                     ("simulator.horizon", 2000),
                     ("monitor.c_max", 10 ** 154)]]),
    *[data_error(f"{base}-{field}-differs", MONITOR,
                 f"{{trace}}:1: trace was simulated with {field}={was!r}, "
                 f"the monitor config has {field}={value!r}",
                 ("config", 1, _field(f"monitor.{field}", value)), base=base)
      for base, field, was, value in [("lending", "n_a", 5, 6),
                                      ("coin", "epsilon", 0.001, 0.002)]],

    # Trace records: the monitor removes the estimates it had written of
    # the records before the bad one.
    data_error("record-not-json", MONITOR,
               "{trace}:3: corrupt record: " + _JSON_ERROR,
               ("trace", 3, b"{not json\n"), base="coin"),
    *[data_error(f"record-{id}", MONITOR,
                 "{trace}:3: record is not a JSON object",
                 ("trace", 3, line), base="coin")
      for id, line in [("number", b"5\n"), ("list", b"[1, 2]\n"),
                       ("string", b'"t"\n'), ("null", b"null\n")]],
    data_error("record-number-at-line-6", MONITOR,
               "{trace}:6: record is not a JSON object",
               ("trace", 6, b"5\n")),
    *[data_error(f"record-{id}-t", MONITOR,
                 f"{{trace}}:2: expected t=1, got {t!r}",
                 ("trace", 2, _field("t", t)), base="coin")
      for id, t in [("json-true", True), ("float", 1.0)]],
    data_error("record-t-skips", MONITOR, "{trace}:3: expected t=2, got 3",
               ("trace", 3, _field("t", 3)), base="coin"),
    data_error("coin-toss-of-2", MONITOR,
               "{trace}:4: bad record t=3: coin outcome must be 0 or 1, "
               "got 2", ("trace", 4, _field("x", 2)), base="coin"),
    *[data_error(f"observation-{id}", MONITOR,
                 f"{{trace}}:6: bad record t=5: {message}",
                 ("trace", 6, edit), base=base)
      for id, base, edit, message in [
          ("text-score", "lending", _field("x", "7"),
           _INTEGERS.format("x='7', g='B', y=1, z=1")),
          ("score-out-of-range", "lending", _field("x", 500),
           "credit score 500 outside [0, 10]"),
          ("unknown-group", "lending", _field("g", "C"),
           "unknown group 'C'"),
          ("missing-field", "lending", _field("z"), "missing field 'z'"),
          # Wrong JSON types that would pass the range checks.
          ("bool-score", "lending", _field("x", True),
           _INTEGERS.format("x=True, g='B', y=1, z=1")),
          ("float-decision", "lending", _field("y", 1.0),
           _INTEGERS.format("x=5, g='B', y=1.0, z=1")),
          ("bool-attention-units", "attention", _field("y_a", True),
           "counts and capacity must be integers: AttentionObservation("
           "x_a=10, x_b=12, y_a=True, y_b=3, k=6)"),
          ("float-coin-toss", "coin", _field("x", 1.0),
           "coin outcome must be an integer: CoinObservation(x=1.0)"),
          # A count, or units, too large for a float: named before t
          # advances.
          ("huge-count", "attention", _field("x_a", 10 ** 400),
           f"x_a={10 ** 400} is too large for a float"),
          ("huge-units", "attention",
           lambda rec: rec.update(y_a=10 ** 400, k=2 * 10 ** 400),
           f"y_a={10 ** 400} is too large for a float"),
      ]],
    # Blank lines before a bad record count in its line number; a form
    # feed and U+3000 are whitespace too.
    *[data_error(f"bad-record-after-blank-lines-{command}", argv,
                 f"{{{file}}}:13: bad record t=7: {message}",
                 (file, 8, edit),
                 (file, 6, _preceded_by(b"\n  \t\n\x0c\n\xe3\x80\x80\n")),
                 (file, 3, _preceded_by(b"\n")))
      for command, argv, file, edit, message in [
          ("monitor", MONITOR, "trace", _field("x", "bad"),
           _INTEGERS.format("x='bad', g='B', y=1, z=1")),
          ("eval", EVAL, "estimates", _field("A"), "missing field 'A'"),
          ("export", EXPORT, "estimates", _field("A"),
           "missing field 'A'")]],
    data_error("bad-record-in-resumed-batch", RESUME,
               "{rest}:5: bad record t=10: "
               + _INTEGERS.format("x='bad', g='B', y=1, z=1"),
               ("rest", 4, _field("x", "bad")),
               ("rest", 3, _preceded_by(b"\n")),
               base="lending-20"),

    # Truth is checked on every step, the inconclusive t=1 included.
    *[data_error(f"truth-{id}", EVAL,
                 f"{{trace}}:{line}: bad record t={line - 1}: {message}",
                 ("trace", line, _field("truth", truth)))
      for id, line, truth, message in [
          ("number", 10, 5, "truth must be an object, got 5"),
          ("text-phi", 10, {"phi": "1"},
           "truth phi must be a finite number, got '1'"),
          ("t1-number", 2, 5, "truth must be an object, got 5"),
          ("t1-text-phi", 2, {"phi": "1"},
           "truth phi must be a finite number, got '1'"),
          ("t1-null-phi", 2, {"phi": None},
           "truth phi must be a finite number, got None")]],

    # Estimates records, read by eval and by export; export removes the
    # rows it had written before the bad record.  A record derives phi
    # from its group intervals, A - B.
    data_error("estimates-record-not-json", EVAL,
               "{estimates}:10: corrupt record: " + _JSON_ERROR,
               ("estimates", 10, b"{broken\n")),
    *[data_error(f"estimates-record-{id}-{command}", argv,
                 f"{{estimates}}:{line}: bad record t={line - 1}: {message}",
                 ("estimates", line, edit))
      for command, argv, line in [("eval", EVAL, 10), ("export", EXPORT, 4)]
      for id, edit, message in [
          ("no-A", _field("A"), "missing field 'A'"),
          ("no-B", _field("B"), "missing field 'B'"),
          ("no-clamped", _field("clamped"), "missing field 'clamped'"),
          ("no-floor-violation", _field("floor_violation"),
           "missing field 'floor_violation'"),
          ("number-A", _field("A", 5), _INTERVAL.format("A", 5)),
          ("text-A", _field("A", "x"), _INTERVAL.format("A", "x")),
          ("short-A", _field("A", [0.5]), _INTERVAL.format("A", [0.5])),
          ("short-B", _field("B", [1.0]), _INTERVAL.format("B", [1.0])),
          ("long-A", _field("A", [0.5, 1.0, 2.0]),
           _INTERVAL.format("A", [0.5, 1.0, 2.0])),
          ("int-A", _field("A", [0, 1]), _INTERVAL.format("A", [0, 1])),
          ("huge-int-A", _field("A", [10 ** 400, 10 ** 401]),
           _INTERVAL.format("A", [10 ** 400, 10 ** 401])),
          ("inf-A", _field("A", [0.0, float("inf")]),
           _INTERVAL.format("A", [0.0, float("inf")])),
          ("A-lo-above-hi", _field("A", [2.0, 1.0]),
           _INTERVAL.format("A", [2.0, 1.0])),
          ("B-lo-above-hi", _field("B", [1.0, 0.5]),
           _INTERVAL.format("B", [1.0, 0.5])),
          ("phi-overflows",
           lambda rec: rec.update(A=[-1.7e308, -1e308], B=[1e308, 1.7e308]),
           "phi [-inf, -inf] or its midpoint is not finite"),
          ("midpoint-overflows",
           lambda rec: rec.update(A=[1e308, 1.7e308], B=[0.0, 0.0]),
           "phi [1e+308, 1.7e+308] or its midpoint is not finite"),
          ("int-clamped", _field("clamped", 1), _FLAGS.format(1, False)),
          ("int-floor-violation", _field("floor_violation", 0),
           _FLAGS.format(False, 0)),
          ("null-floor-violation", _field("floor_violation", None),
           _FLAGS.format(False, None))]],
    *[data_error(f"estimates-record-without-t-{command}", argv,
                 "{estimates}:10: expected t=9, got None",
                 ("estimates", 10, _field("t")))
      for command, argv in [("eval", EVAL), ("export", EXPORT)]],
    # An estimates file starts at its first record's t, which a resumed
    # run makes past 1, but never below 1.
    *[data_error(f"estimates-first-t-0-{command}", argv,
                 "{estimates}:2: expected t >= 1, got 0",
                 ("estimates", 2, _field("t", 0)))
      for command, argv in [("eval", EVAL), ("export", EXPORT)]],
    # eval pairs the two files step by step from their first records.
    data_error("eval-files-start-at-different-steps", EVAL,
               "{estimates}: starts at t=11, {trace} at t=1; both must "
               "start at the same step",
               *[("estimates", line, b"") for line in range(2, 12)],
               base="lending-20"),
    # The coin monitor reports its one stream as A; B is always null.
    *[data_error(f"coin-estimates-with-a-B-interval-{command}", argv,
                 "{estimates}:4: bad record t=3: group B interval must be "
                 "null for a monitor with one group; got [0.25, 0.5]",
                 ("estimates", 4, _field("B", [0.25, 0.5])), base="coin")
      for command, argv in [("eval", EVAL), ("export", EXPORT)]],

    # An int past json's digit limit, or a byte that is not UTF-8, on a
    # metadata line, an early record, or a record past the first 8 KiB.
    *[data_error(f"{where}-{id}", argv,
                 f"{{{file}}}:{line}: " + (problem or f"corrupt "
                     f"{'metadata' if line == 1 else 'record'}: "
                     + _DIGIT_LIMIT),
                 (file, line, _with_bad_field(value)), base="lending-400")
      for id, value, problem in [
          ("huge-int", b"9" * 5000, None),
          ("not-utf8", b'"\xff"',
           "line is not UTF-8 text (invalid start byte)")]
      for where, file, line, argv in [
          ("trace-metadata", "trace", 1, MONITOR),
          ("trace-record", "trace", 6, MONITOR),
          ("trace-late-record", "trace", 301, MONITOR),
          ("eval-trace-late-record", "trace", 301, EVAL),
          ("estimates-metadata", "estimates", 1, EVAL),
          ("estimates-record", "estimates", 6, EXPORT),
          ("estimates-late-record", "estimates", 301, EVAL),
          ("export-estimates-late-record", "estimates", 301, EXPORT),
          ("snapshot", "snapshot", 1, RESUME)]],
    data_error("trace-metadata-nested-too-deeply", MONITOR,
               "{trace}:1: corrupt metadata: JSON nested too deeply",
               ("trace", 1, _NESTED + b"\n")),
    data_error("trace-record-nested-too-deeply", MONITOR,
               "{trace}:2: corrupt record: JSON nested too deeply",
               ("trace", 2, _NESTED + b"\n")),

    # Snapshots.  Blank lines after the metadata line are skipped; past
    # the reader's first decoded chunk a byte that is not UTF-8 is a data
    # error too.
    data_error("snapshot-with-extra-line", RESUME,
               "{snapshot}:2: unexpected line after the snapshot",
               ("snapshot", 2, b"not json at all\n")),
    data_error("snapshot-not-utf8-after-blank-lines", RESUME,
               "{snapshot}:9002: line is not UTF-8 text (invalid start "
               "byte)", ("snapshot", 2, b"\n" * 9000 + b"\xff\n")),
    # A snapshot's config is data read from a file, not usage.
    *[data_error(f"snapshot-monitor-config-{id}",
                 RESUME + " --snapshot {dir}/snapshot2.json",
                 f"{{snapshot}}:1: bad monitor_config: {message}",
                 ("snapshot", 1, _field(f"monitor_config.{field}", value)))
      for id, field, value, message in [
          ("zero-group-size", "n_a", 0,
           "group sizes must be in [1, 1.79769e+308]: n_a=0, n_b=5"),
          ("unknown-field", "foo", 1,
           "unknown field 'foo' for a lending monitor"),
          ("missing-field", "n_a", _DROP,
           "missing field 'n_a' for a lending monitor"),
          ("text-delta", "delta", "x", "delta must be float, got 'x'")]],
    *[data_error(f"snapshot-state-{id}", RESUME, _STATE + message,
                 ("snapshot", 1, edit), base=base)
      for id, base, edit, message in [
          ("fractional-t", "lending", _field("state.t", 4.9),
           "state.t must be a nonnegative integer, got 4.9"),
          ("bool-estimator-t", "lending", _field("state.estimators.A.t", True),
           "state.estimators.A.t must be a nonnegative integer, got True"),
          ("no-last", "lending", _field("state.last"),
           "state.last is missing"),
          ("no-floor-violation", "lending", _field("state.floor_violation"),
           "state.floor_violation is missing"),
          ("text-t", "lending", _field("state.t", "seven"),
           "state.t must be a nonnegative integer, got 'seven'"),
          ("list-estimator", "lending", _field("state.estimators.A", [1, 2]),
           "state.estimators.A must be an object, got [1, 2]"),
          ("list-estimators", "lending", _field("state.estimators", [1, 2]),
           "state.estimators must be an object, got [1, 2]"),
          ("short-interval", "lending", _field("state.last.A", [0.0]),
           _LAST.format("A", [0.0])),
          ("bool-interval", "lending", _field("state.last.B", [True, 1.0]),
           _LAST.format("B", [True, 1.0])),
          ("attention-int-floor-violation", "attention-l5",
           _field("state.floor_violation", 1),
           "state.floor_violation must be a bool, got 1"),
          ("huge-e1-hat", "lending",
           _field("state.estimators.B.e1_hat", 10 ** 400),
           f"state.estimators.B.e1_hat must be a finite number, got "
           f"{10 ** 400}"),
          # Step counts that disagree with one another.
          ("coin-t-not-estimator-t", "coin", _field("state.t", 3),
           "t=3 differs from the group step counts 10"),
          ("lending-t-not-group-sum", "lending", _field("state.t", 5),
           "t=5 differs from the group step counts 4 + 6"),
          ("attention-group-t-differs", "attention-l5",
           _field("state.estimators.B.t", 9),
           "t=10 differs from the group step counts 10, 9"),
          ("last-null-after-updates", "lending",
           _field("state.last.A", None), _NULL_LAST.format("A")),
          ("last-set-without-updates", "lending",
           _field("state.estimators.B", {"t": 0, "e1_hat": 0.0, "d": 0.0,
                                         "d_comp": 0.0}),
           _NULL_LAST.format("B")),
          ("lending-floor-violation-set", "lending",
           _field("state.floor_violation", True),
           "floor_violation is never set by a lending monitor"),
          ("attention-floor-unset-below-floor", "attention-l5",
           _field("state.estimators.A.d", -4.5),
           "floor_violation is false, but lambda_min plus the net shift of "
           "A is at or below 0"),
          ("coin-floor-violation-set", "coin",
           _field("state.floor_violation", True),
           "floor_violation is never set by a coin monitor"),
          ("coin-last-null-after-updates", "coin",
           _field("state.last.A", None), _NULL_LAST.format("A")),
          ("coin-no-estimators", "coin", _field("state.estimators"),
           "state.estimators is missing"),
          # A field the state does not hold, at each level of it, once
          # every field it holds has been read.
          *[(f"unknown-field-{path}", "lending", _field(path, 0),
             f"unknown field {path}")
            for path in ("state.foo", "state.estimators.C",
                         "state.estimators.A.bar", "state.last.Z")],
          ("coin-estimator-of-group-B", "coin",
           _field("state.estimators.B", {"t": 0, "e1_hat": 0.0, "d": 0.0,
                                         "d_comp": 0.0}),
           "unknown field state.estimators.B")]],
    # Snapshots written before the state layout every kind shares.
    *[data_error(f"snapshot-old-state-layout-{base}", RESUME,
                 _STATE + message, ("snapshot", 1, older), base=base)
      for base, older, message in [
          ("lending", _state_before_floor_bit, _LAST.format(
              "A", [-6.852071873007981, 22.752071873007985, 0.975])),
          ("attention", _state_before_floor_bit, _LAST.format(
              "A", [0.2280763591458386, 0.6651289410317035, 0.975])),
          ("coin", _coin_state_before_shared_state,
           "state.estimators is missing")]],

    # Config files and overrides: usage errors, exit 1.
    row("missing-arguments", "simulate --config {config}", 1, Pattern(
        r"usage: fairmon simulate .*\n" + re.escape(
            "fairmon simulate: error: the following arguments are "
            "required: --seed, -o/--out"))),
    # A config that is not an object ended in AttributeError; one that
    # json cannot read (an int past its digit limit, bytes that are not
    # UTF-8, arrays nested too deeply) in an error that did not name it.
    *[config_error(f"config-{id}-{command}", argv, message,
                   ("config", None, text))
      for id, text, message in [
          ("not-json", b"{not json", _NOT_JSON + _JSON_ERROR),
          *[(json_type, text,
             f"config {{config}} must be a JSON object, got {json_type}")
            for text, json_type in [(b"[1, 2]", "array"), (b"5", "number"),
                                    (b'"x"', "string"), (b"null", "null")]],
          ("huge-int", b'{"simulator": {"n_a": ' + b"9" * 5000 + b"}}",
           _NOT_JSON + _DIGIT_LIMIT),
          ("not-utf8", b'{"simulator": "\xff"}',
           "config {config} is not UTF-8 text (invalid start byte)"),
          ("nested-too-deeply", _NESTED,
           _NOT_JSON + "JSON nested too deeply")]
      for command, argv in [
          ("simulate", "simulate --seed 1 -o {out} --config {config}"),
          ("monitor", "monitor --trace {trace} -o {out} --config {config}"),
          ("run", "run --seed 1 --out-dir {out} --config {config}")]],
    config_error("config-unreadable",
                 "simulate --config {dir}/missing.json --seed 1 -o {out}",
                 "cannot read config {dir}/missing.json: [Errno 2] No such "
                 "file or directory: '{dir}/missing.json'"),
    config_error("config-without-its-section", MONITOR,
                 "config is missing the 'monitor' section (an object)",
                 ("config", 1, _field("monitor"))),
    config_error("override-without-equals", SIMULATE + " --set horizon",
                 "override 'horizon' must look like key=value"),
    # The seed comes from --seed alone: a config's seed was replaced by
    # it, and a --set seed replaced both.
    *[config_error(id, argv, "the simulator seed comes from --seed, not "
                   "from the config or --set", *edits)
      for id, argv, *edits in [
          ("simulate-seed-in-config", SIMULATE,
           ("config", 1, _field("simulator.seed", 5))),
          ("simulate-seed-by-set", SIMULATE + " --set seed=5"),
          ("run-seed-in-config", RUN,
           ("config", 1, _field("simulator.seed", 5)))]],
    # random.Random seeds by absolute value: seed -1 would write seed 1's
    # records under another config_hash.
    # Each simulator checks it.
    *[config_error(f"{command}-seed-negative", argv,
                   "seed must be nonnegative, got -1", base=base)
      for command, argv, base in [
          ("simulate", SIMULATE.replace("--seed 1", "--seed -1"), "lending"),
          ("simulate-attention", SIMULATE.replace("--seed 1", "--seed -1"),
           "attention"),
          ("simulate-coin", SIMULATE.replace("--seed 1", "--seed -1"),
           "coin"),
          ("run", RUN.replace("--seed 1", "--seed -1"), "lending"),
          ("bench", "bench --kind lending --updates 10 --seed -1",
           "lending")]],
    config_error("monitor-without-config",
                 "monitor --trace {trace} -o {out}",
                 "monitor needs --config or --resume"),
    config_error("resume-override-without-config",
                 RESUME + " --set delta=0.1",
                 "--set needs --config: a resumed run takes the snapshot's "
                 "monitor config"),
    *[config_error(f"override-horizon-{value}", SIMULATE + " --set "
                   f"horizon={value}", f"horizon must be int, got {shown}")
      for value, shown in [("2.5", "2.5"), ("true", "True")]],
    config_error("override-past-the-digit-limit",
                 SIMULATE + " --set n_a=" + "9" * 5000,
                 "override n_a: " + _DIGIT_LIMIT),
    config_error("override-nested-too-deeply",
                 SIMULATE + " --set n_a=" + _NESTED.decode(),
                 "override n_a: JSON nested too deeply"),
    *[config_error(f"{command}-{field}-out-of-float-range", argv
                   + f" --set {field}={value}", message, base=base)
      for command, argv, field, value, message, base in [
          ("simulate", SIMULATE, "c_max", 10 ** 400,
           f"c_max must be in [1, 1.34078e+154], got {10 ** 400}", "lending"),
          ("monitor", MONITOR, "c_max", 10 ** 160,
           f"c_max must be in [1, 1.34078e+154], got {10 ** 160}", "lending"),
          ("monitor", MONITOR, "n_a", 10 ** 400,
           f"group sizes must be in [1, 1.79769e+308]: n_a={10 ** 400}, "
           "n_b=5", "lending"),
          # The simulator multiplies a location's units, at most k, as a
          # float: this k ended in an OverflowError traceback.
          ("simulate", SIMULATE, "k", 10 ** 400,
           f"k must be in [1, 1.79769e+308], got {10 ** 400}",
           "attention")]],
    # A c_max inside that bound whose first interval's half-width
    # overflows at this delta was a bad record t=1 of a trace that shares
    # no field with the monitor.
    config_error("monitor-c_max-overflows-the-first-interval",
                 MONITOR + f" --set c_max={10 ** 154}",
                 f"c_max={10 ** 154} is too large for delta=0.05: the "
                 "half-width of the first interval overflows",
                 ("trace", 1, dict(COIN_META, kind="lending"))),
    # A simulator keeps a list entry for each member or location, so
    # those counts stop at 2 ** 20: this l ended in an OverflowError
    # traceback.
    *[config_error(f"simulate-{field}-{id}", SIMULATE
                   + f" --set {field}={value}",
                   f"{field} must be at most {2 ** 20}, got {value}",
                   base=base)
      for field, id, value, base in [
          ("l", "out-of-index-range", 10 ** 400, "attention"),
          ("l", "past-the-ceiling", 2 ** 20 + 1, "attention"),
          ("n_a", "past-the-ceiling", 2 ** 20 + 1, "lending")]],
    # A str field of another JSON type is named with its type.
    *[config_error(f"simulate-{base}-{field}-{how}", SIMULATE + f" --set "
                   f"{field}={text}", f"{field} must be str, got {shown}",
                   base=base)
      for base, field, how, text, shown in [
          ("lending", "policy", "object", '{"a":1}', "{'a': 1}"),
          ("attention", "policy", "array", '["x"]', "['x']")]],
    # Lending's init is a preset name or two lists of scores.  An object
    # or array as init read "unhashable type", then "init must be str".
    *[config_error(f"simulate-lending-init-{how}", SIMULATE + f" --set "
                   f"init={text}", _SCORES.format(5, 5, shown))
      for how, text, shown in [("object", '{"a":1}', "{'a': 1}"),
                               ("array", "[1]", "[1]")]],
    # Initial values the simulator cannot start from leave no trace.
    *[config_error(f"initial-values-{id}", SIMULATE + " --set " + override,
                   message, ("config", 1, _field("simulator", sim)))
      for id, sim, override, message in [
          ("a-only", _SMALL_LENDING, "init=[[1,2,3]]",
           _SCORES.format(3, 3, "[[1, 2, 3]]")),
          ("b-only", _SMALL_LENDING, "init=[null,[9,9,9]]",
           _SCORES.format(3, 3, "[None, [9, 9, 9]]")),
          ("number", _SMALL_LENDING, "init=[5,[1,1,1]]",
           _SCORES.format(3, 3, "[5, [1, 1, 1]]")),
          ("above-c-max", _SMALL_LENDING, "init=[[1,2,30],[1,1,1]]",
           _SCORES.format(3, 3, "[[1, 2, 30], [1, 1, 1]]")),
          ("bool-rate", _SMALL_ATTENTION, "lambda_init=[true,5]",
           "lambda_init must be a positive real or a list of 2 of them, "
           "got [True, 5]"),
          # One rate is named as given, not as the list it stands for.
          ("rate-above-max-rate", _SMALL_ATTENTION, "lambda_init=800",
           "lambda_init must be at most 700.0, the largest rate the "
           "discovery probability is computed at, got 800")]],
    # The fields that once spelled an initial state a second way are
    # unknown, so a config written for them fails rather than simulate
    # from one spelling and record the other: a preset that does not
    # exist beside scores, a negative rate beside a list of rates.
    *[config_error(f"simulate-{name}-removed", SIMULATE,
                   f"unknown field {name!r} for {what} simulator",
                   ("config", 1, _field("simulator", sim)))
      for name, what, sim in [
          ("init_scores_a", "a lending",
           dict(_SMALL_LENDING, init="no-such-preset",
                init_scores_a=[1, 2, 3], init_scores_b=[4, 5, 6])),
          ("init_scores_b", "a lending",
           dict(_SMALL_LENDING, init_scores_b=[4, 5, 6])),
          ("lambda_init_per_location", "an attention",
           dict(_SMALL_ATTENTION, lambda_init=-5.0,
                lambda_init_per_location=[6.0, 3.0]))]],
    # A policy-only field away from its default is refused under a policy
    # that does not read it, rather than recorded in the trace's config
    # as if it had an effect.
    *[config_error(f"simulate-{field}-unread-by-{policy}", SIMULATE,
                   f"{field} is read only by {readers}, not by {policy!r}",
                   ("config", 1, _field("simulator", sim)))
      for field, policy, readers, sim in [
          ("alpha", "greedy", "policy 'constrained_greedy'",
           dict(_SMALL_ATTENTION, policy="greedy", alpha=0.1)),
          ("omniscient", "uniform", "the greedy policies",
           dict(_SMALL_ATTENTION, omniscient=True)),
          ("use_true_tallies", "max_reward", "policy 'eq_opp'",
           dict(_SMALL_LENDING, use_true_tallies=False))]],
    # A field the config class does not have, or one it needs, is named.
    *[config_error(f"{command}-{id}", argv, message, *edits)
      for command, argv, id, message, *edits in [
          ("simulate", SIMULATE + " --set foo=1", "unknown-field",
           "unknown field 'foo' for a lending simulator"),
          ("simulate", SIMULATE, "missing-field",
           "missing field 'horizon' for a lending simulator",
           ("config", 1, _field("simulator.horizon"))),
          ("monitor", MONITOR + " --set foo=1", "unknown-field",
           "unknown field 'foo' for a lending monitor"),
          ("monitor", MONITOR, "missing-field",
           "missing field 'delta' for a lending monitor",
           ("config", 1, _field("monitor.delta")))]],
    # "an" before a vowel.
    *[config_error(f"{command}-attention-unknown-field", argv + " --set foo=1",
                   f"unknown field 'foo' for an attention {what}",
                   base="attention")
      for command, argv, what in [("simulate", SIMULATE, "simulator"),
                                  ("monitor", MONITOR, "monitor")]],
    *[config_error(f"bench-updates-{updates}",
                   f"bench --kind lending --updates {updates}",
                   f"updates must be a positive integer, got {updates}")
      for updates in ["0", "-3"]],
    # The bench keeps one latency sample per update.
    config_error("bench-updates-past-the-ceiling",
                 "bench --kind lending --updates 1048577",
                 "updates must be at most 1048576, got 1048577"),
    # A value of its field's type that the config's own checks refuse.
    # A --set value that is not JSON is a string.
    *[config_error(f"{command}-{base}-{field}-{how}", argv
                   + f" --set {field}={value}", message, base=base)
      for command, argv, base, field, how, value, message in [
          ("monitor", MONITOR, "attention", "gamma", "negative", "-0.5",
           "gamma must be nonnegative, got -0.5"),
          ("monitor", MONITOR, "coin", "epsilon", "one", "1",
           "epsilon must be in [0, 1), got 1"),
          ("simulate", SIMULATE, "attention", "gamma", "negative", "-0.5",
           "gamma must be nonnegative, got -0.5"),
          ("simulate", SIMULATE, "coin", "epsilon", "one", "1",
           "epsilon must be in [0, 1), got 1"),
          *[("simulate", SIMULATE, base, "horizon", "negative", "-1",
             "horizon must be nonnegative, got -1")
            for base in ("attention", "coin", "lending")],
          ("simulate", SIMULATE, "attention", "alpha", "above-one", "1.5",
           "alpha must be in [0, 1], got 1.5"),
          ("simulate", SIMULATE, "lending", "policy", "unknown", "greedy",
           "unknown lending policy 'greedy'"),
          ("simulate", SIMULATE, "lending", "rho_min", "above-rho_max",
           "0.99", "need 0 <= rho_min <= rho_max <= 1, got [0.99, 0.95]"),
          ("simulate", SIMULATE, "lending", "init", "unknown", "no-bias",
           "unknown initial-score preset 'no-bias'"),
          ("simulate", SIMULATE, "lending", "kind", "unknown", "housing",
           "unknown simulator kind 'housing'")]],
    row("simulation-leaves-its-assumptions",
        "simulate --config {config} --seed 0 -o {out}", 3,
        "fairmon: assumption violated: coin bias left (0, 1): "
        "p=-0.19999999999999998 (at step 1)",
        ("config", 1, _field("simulator", {"kind": "coin", "p1": 0.1,
                                           "epsilon": 0.3,
                                           "horizon": 1000}))),

    # An output that names an input, or another output, is refused before
    # anything is written.  run writes its trace, estimates and report
    # into --out-dir.
    *[config_error(f"output-{id}", argv,
                   f"output {path} is the same file as input {path}", *edits)
      for id, argv, path, *edits in [
          ("simulate-o-config",
           "simulate --config {config} --seed 1 -o {config}", "{config}"),
          ("monitor-o-trace",
           "monitor --trace {trace} --config {config} -o {trace}", "{trace}"),
          ("monitor-o-config",
           "monitor --trace {trace} --config {config} -o {config}",
           "{config}"),
          ("resume-o-snapshot",
           "monitor --trace {trace} --resume {snapshot} -o {snapshot}",
           "{snapshot}"),
          ("monitor-snapshot-trace", MONITOR + " --snapshot {trace}",
           "{trace}"),
          ("monitor-snapshot-config", MONITOR + " --snapshot {config}",
           "{config}"),
          ("resume-snapshot-snapshot", "monitor --trace {trace} --resume "
           "{snapshot} -o {out} --snapshot {snapshot}", "{snapshot}"),
          ("eval-o-estimates",
           "eval --estimates {estimates} --trace {trace} -o {estimates}",
           "{estimates}"),
          ("eval-o-trace",
           "eval --estimates {estimates} --trace {trace} -o {trace}",
           "{trace}"),
          ("export-o-estimates",
           "export --estimates {estimates} -o {estimates}", "{estimates}"),
          ("run-config-is-its-trace",
           "run --config {trace} --seed 1 --out-dir {dir}", "{trace}",
           ("trace", None, _config_bytes(SIM, MON))),
          ("run-config-is-its-estimates",
           "run --config {estimates} --seed 1 --out-dir {dir}", "{estimates}",
           ("estimates", None, _config_bytes(SIM, MON))),
          ("run-config-is-its-report",
           "run --config {dir}/report.json --seed 1 --out-dir {dir}",
           "{dir}/report.json",
           ("report.json", None, _config_bytes(SIM, MON)))]],
    config_error("output-monitor-o-link-to-trace",
                 "monitor --trace {trace} --config {config} -o {link}",
                 "output {link} is the same file as input {trace}"),
    config_error("output-monitor-snapshot-o", MONITOR + " --snapshot {out}",
                 "output {out} is the same file as output {out}"),

    # A file that cannot be read or written.
    row("missing-trace",
        "monitor --trace {dir}/missing.jsonl --config {config} -o {out}", 2,
        "fairmon: io error: [Errno 2] No such file or directory: "
        "'{dir}/missing.jsonl'"),
    row("output-in-a-missing-directory",
        "monitor --trace {trace} --config {config} -o {out}/estimates.jsonl",
        2, "fairmon: io error: [Errno 2] No such file or directory: "
        "'{out}/estimates.jsonl'"),
]


def _each(pattern, params):
    return {param: pattern.format(param) for param in params.split()}


# The rows that began as tests of tests/test_trace.py run there under
# their old names, by :func:`trace_tests`: "Class.test" -> row id, or
# {parameter id: row id}.
TRACE_TESTS = {
    "TestCli.test_assumption_violation_is_exit_3":
        "simulation-leaves-its-assumptions",
    "TestCli.test_bad_config_is_exit_1": "config-not-json-simulate",
    "TestCli.test_bad_initial_values_are_exit_1_without_a_file":
        _each("initial-values-{}", "a-only above-c-max b-only bool-rate "
              "number rate-above-max-rate"),
    "TestCli.test_bad_metadata_is_exit_2":
        _each("{}", "config-edited-to-the-monitor-population "
              "estimates-monitor-config-of-another-kind "
              "estimates-monitor_config-dropped "
              "estimates-monitor_config-null "
              "estimates-monitor_config-wrong-type "
              "estimates-trace_config_hash-dropped "
              "estimates-trace_config_hash-null "
              "estimates-trace_config_hash-wrong-type "
              "lost-hash-matches-null null-config-hides-the-population "
              "snapshot-monitor-config-of-another-kind "
              "snapshot-monitor_config-dropped snapshot-monitor_config-null "
              "snapshot-monitor_config-wrong-type snapshot-state-dropped "
              "snapshot-state-null snapshot-state-wrong-type "
              "trace-config-dropped trace-config-edited-under-its-hash "
              "trace-config-null trace-config-wrong-type "
              "trace-config_hash-dropped trace-config_hash-null "
              "trace-config_hash-wrong-type"),
    "TestCli.test_bad_observation_is_data_error":
        _each("observation-{}", "bool-attention-units bool-score "
              "float-coin-toss float-decision huge-count missing-field "
              "score-out-of-range text-score unknown-group"),
    "TestCli.test_bench_rejects_non_positive_updates":
        _each("bench-updates-{}", "-3 0"),
    "TestCli.test_coin_estimates_with_a_b_interval_is_exit_2":
        _each("coin-estimates-with-a-B-interval-{}", "eval export"),
    "TestCli.test_data_error_is_exit_2": "empty-trace",
    "TestCli.test_eval_of_another_trace_is_exit_2":
        "estimates-of-another-trace",
    "TestCli.test_format_1_estimates_is_exit_2":
        _each("estimates-format-1-{}", "eval export"),
    "TestCli.test_ill_typed_override_is_exit_1": {
        "horizon=2.5": "override-horizon-2.5",
        "horizon=true": "override-horizon-true",
    },
    "TestCli.test_missing_monitor_config_is_exit_1": "monitor-without-config",
    "TestCli.test_non_object_config_is_exit_1": {
        f"{command}-{value}-{type}": f"config-{type}-{command}"
        for command in ("simulate", "monitor", "run")
        for value, type in (('"x"', "string"), ("5", "number"),
                            ("[1, 2]", "array"), ("null", "null"))},
    "TestCli.test_non_object_record_is_data_error": "record-number-at-line-6",
    "TestCli.test_output_naming_an_input_is_exit_1": {
        "eval --estimates {est} --trace {trace} "
        "-o {est}-input {est}": "output-eval-o-estimates",
        "eval --estimates {est} --trace {trace} "
        "-o {trace}-input {trace}": "output-eval-o-trace",
        "export --estimates {est} "
        "-o {est}-input {est}": "output-export-o-estimates",
        "monitor --trace {trace} --config {cfg} "
        "-o {cfg}-input {cfg}": "output-monitor-o-config",
        "monitor --trace {trace} --config {cfg} "
        "-o {link}-input {trace}": "output-monitor-o-link-to-trace",
        "monitor --trace {trace} --config {cfg} -o {new} "
        "--snapshot {cfg}-input {cfg}": "output-monitor-snapshot-config",
        "monitor --trace {trace} --config {cfg} -o {new} "
        "--snapshot {new}-output {new}": "output-monitor-snapshot-o",
        "monitor --trace {trace} --config {cfg} -o {new} "
        "--snapshot {trace}-input {trace}": "output-monitor-snapshot-trace",
        "monitor --trace {trace} --config {cfg} "
        "-o {trace}-input {trace}": "output-monitor-o-trace",
        "monitor --trace {trace} --resume {snap} -o {new} "
        "--snapshot {snap}-input {snap}": "output-resume-snapshot-snapshot",
        "monitor --trace {trace} --resume {snap} "
        "-o {snap}-input {snap}": "output-resume-o-snapshot",
        "run --config {run_dir}/estimates.jsonl --seed 1 "
        "--out-dir {run_dir}-input {run_dir}/estimates.jsonl":
            "output-run-config-is-its-estimates",
        "run --config {run_dir}/report.json --seed 1 "
        "--out-dir {run_dir}-input {run_dir}/report.json":
            "output-run-config-is-its-report",
        "run --config {run_dir}/trace.jsonl --seed 1 "
        "--out-dir {run_dir}-input {run_dir}/trace.jsonl":
            "output-run-config-is-its-trace",
        "simulate --config {cfg} --seed 1 "
        "-o {cfg}-input {cfg}": "output-simulate-o-config",
    },
    "TestCli.test_override_past_the_digit_limit_names_its_key":
        "override-past-the-digit-limit",
    "TestCli.test_population_out_of_float_range_is_exit_1": {
        f"monitor-c_max={10 ** 160}": "monitor-c_max-out-of-float-range",
        f"monitor-n_a={10 ** 400}": "monitor-n_a-out-of-float-range",
        f"simulate-c_max={10 ** 400}": "simulate-c_max-out-of-float-range",
    },
    "TestCli.test_resume_override_needs_config":
        "resume-override-without-config",
    "TestCli.test_trace_of_another_model_is_exit_2": {
        "attention-gamma": "attention-gamma-differs",
        "coin-epsilon": "coin-epsilon-differs",
        "lending-n-a": "lending-n_a-differs",
    },
    "TestCli.test_undecodable_config_is_exit_1": {
        f"{command}-{edit}": f"config-{edit}-{command}"
        for command in ("simulate", "monitor", "run")
        for edit in ("huge-int", "not-utf8")},
    "TestCli.test_undecodable_line_is_data_error":
        _each("{}", "estimates-late-record-huge-int "
              "estimates-late-record-not-utf8 estimates-metadata-huge-int "
              "estimates-metadata-not-utf8 estimates-record-huge-int "
              "estimates-record-not-utf8 eval-trace-late-record-huge-int "
              "eval-trace-late-record-not-utf8 "
              "export-estimates-late-record-huge-int "
              "export-estimates-late-record-not-utf8 snapshot-huge-int "
              "snapshot-not-utf8 trace-late-record-huge-int "
              "trace-late-record-not-utf8 trace-metadata-huge-int "
              "trace-metadata-not-utf8 trace-record-huge-int "
              "trace-record-not-utf8"),
    "TestCli.test_usage_error_is_exit_1": "missing-arguments",
    "TestCsvExport.test_malformed_v2_record_is_data_error": {
        "int-flag": "estimates-record-int-clamped-export",
        "interval-int": "estimates-record-number-A-export",
        "interval-short": "estimates-record-short-B-export",
        "lo-above-hi": "estimates-record-A-lo-above-hi-export",
        "missing-A": "estimates-record-no-A-export",
        "missing-clamped": "estimates-record-no-clamped-export",
        "missing-floor-violation":
            "estimates-record-no-floor-violation-export",
        "phi-overflows": "estimates-record-phi-overflows-export",
    },
    "TestMonitorPipeline.test_bad_record_after_blank_lines_names_its_line":
        _each("bad-record-after-blank-lines-{}", "eval export monitor"),
    "TestMonitorPipeline.test_evaluate_kind_mismatch_names_the_estimates":
        "estimates-of-another-kind",
    "TestMonitorPipeline.test_evaluate_rejects_length_mismatch":
        "estimates-longer-than-trace",
    "TestMonitorPipeline.test_evaluate_reports_bad_record": {
        "int-flag": "estimates-record-int-floor-violation-eval",
        "number-truth": "truth-number",
        "t1-null-truth-phi": "truth-t1-null-phi",
        "t1-number-truth": "truth-t1-number",
        "t1-text-truth-phi": "truth-t1-text-phi",
        "text-truth-phi": "truth-text-phi",
    },
    "TestMonitorPipeline.test_evaluate_reports_bad_v2_record":
        _each("estimates-record-{}-eval", "B-lo-above-hi huge-int-A inf-A "
              "int-A long-A midpoint-overflows no-A no-B no-clamped "
              "phi-overflows short-A text-A")
        | {"null-flag": "estimates-record-null-floor-violation-eval"},
    "TestMonitorPipeline.test_evaluate_reports_corrupt_record_line":
        "estimates-record-not-json",
    "TestMonitorPipeline.test_kind_mismatch_rejected":
        "coin-trace-under-a-lending-monitor",
    "TestMonitorPipeline.test_v2_record_without_t_names_its_line":
        _each("estimates-record-without-t-{}", "eval export"),
    "TestSnapshotResume.test_bad_record_in_resumed_batch_names_its_line":
        "bad-record-in-resumed-batch",
    "TestSnapshotResume.test_bad_snapshot_monitor_config_is_data_error":
        _each("snapshot-monitor-config-{}", "text-delta unknown-field "
              "zero-group-size"),
    "TestSnapshotResume.test_bad_snapshot_state_is_data_error":
        _each("snapshot-state-{}", "attention-floor-unset-below-floor "
              "attention-group-t-differs attention-int-floor-violation "
              "bool-estimator-t coin-floor-violation-set "
              "coin-last-null-after-updates coin-no-estimators "
              "coin-t-not-estimator-t fractional-t huge-e1-hat "
              "last-null-after-updates last-set-without-updates "
              "lending-floor-violation-set lending-t-not-group-sum "
              "list-estimator no-floor-violation no-last short-interval "
              "text-t"),
    "TestSnapshotResume.test_corrupted_snapshot_rejected": "snapshot-not-json",
    "TestSnapshotResume.test_old_state_layout_is_data_error":
        _each("snapshot-old-state-layout-{}", "attention coin lending"),
    "TestSnapshotResume.test_resume_onto_trace_of_another_model_is_exit_2":
        "resume-onto-trace-of-another-model",
    "TestSnapshotResume.test_snapshot_config_mismatch_rejected":
        "resume-under-another-config",
    "TestSnapshotResume.test_snapshot_kind_must_match_its_config":
        "snapshot-kind-edited",
    "TestSnapshotResume.test_snapshot_with_extra_line_is_data_error": {
        "not-utf8-after-blank-lines": "snapshot-not-utf8-after-blank-lines",
        "text": "snapshot-with-extra-line",
    },
    "TestSnapshotResume.test_snapshot_without_state_object_is_data_error":
        "snapshot-state-in-a-list",
    "TestSnapshotResume.test_trace_file_is_not_a_snapshot":
        "trace-is-not-a-snapshot",
    "TestTraceFiles.test_corrupt_record_reports_line_number":
        "record-not-json",
    "TestTraceFiles.test_file_of_another_type_names_the_metadata_line": {
        "estimates-a trace": "estimates-file-as-trace",
        "trace-a snapshot": "trace-file-as-snapshot",
        "trace-an estimates": "trace-file-as-estimates",
    },
    "TestTraceFiles.test_format_version_must_be_an_integer": {
        "float": "trace-format-1.0",
        "true": "trace-format-True",
    },
    "TestTraceFiles.test_metadata_must_be_an_object":
        "snapshot-metadata-not-an-object",
    "TestTraceFiles.test_metadata_needs_a_known_kind":
        _each("trace-{}", "list-kind no-kind unknown-kind"),
    "TestTraceFiles.test_missing_file_kind_in_metadata":
        "estimates-file-without-kind-as-trace",
    "TestTraceFiles.test_non_monotone_t_rejected": "record-t-skips",
    "TestTraceFiles.test_non_object_record_reports_line_number": {
        '"t"': "record-string",
        "5": "record-number",
        "[1, 2]": "record-list",
        "null": "record-null",
    },
    "TestTraceFiles.test_record_t_must_be_an_integer": {
        "float": "record-float-t",
        "true": "record-json-true-t",
    },
    "TestTraceFiles.test_unsupported_format_version": "trace-format-99",
    "TestTraceFiles.test_unsupported_version_of_a_file_kind": {
        "estimates-0": "estimates-format-0",
        "estimates-1": "estimates-format-1",
        "estimates-3": "estimates-format-3",
        "snapshot-1": "snapshot-format-1",
        "snapshot-3": "snapshot-format-3",
        "trace-2": "trace-format-2",
    },
}


def build_bases(root):
    """Write each base run's FILES into its own directory under ``root``,
    and return ``root``."""
    for name, (sim, mon, split) in BASES.items():
        path = root / name
        path.mkdir(parents=True)
        files = {key: str(path / file) for key, file in FILES.items()}
        runner.simulate(sim, files["trace"])
        runner.monitor_trace(files["trace"], mon, files["estimates"])
        lines = Path(files["trace"]).read_bytes().splitlines(keepends=True)
        head = path / "head.jsonl"
        head.write_bytes(b"".join(lines[:1 + split]))
        runner.monitor_trace(str(head), mon, os.devnull,
                             snapshot_out=files["snapshot"])
        head.unlink()
        Path(files["rest"]).write_bytes(
            b"".join(lines[:1] + lines[1 + split:]))
        Path(files["config"]).write_bytes(_config_bytes(sim, mon) + b"\n")
        os.symlink(FILES["trace"], files["link"])
    return root


def _edited(data, edits):
    """``data`` with each edit of one file applied; line numbers count
    in ``data``."""
    lines = data.splitlines(keepends=True)
    for line, new in edits:
        if line is None:
            return new
        if line > len(lines):
            lines.append(b"")
        if callable(new):
            value = json.loads(lines[line - 1])
            new = new(value)
            if not isinstance(new, bytes):
                new = value
        if not isinstance(new, bytes):
            new = json.dumps(new).encode() + b"\n"
        lines[line - 1] = new
    return b"".join(lines)


def _contents(root):
    """{path under ``root``: bytes} of every file below it."""
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _fill(text, paths, quote=str):
    return re.sub(r"\{(\w+)\}", lambda m: quote(paths[m[1]]), text)


def check(row, bases, work, call):
    """Run ``row`` in the new directory ``work``, on a copy of its base
    from ``bases``, through ``call(argv) -> (code, stdout, stderr)``,
    and assert what it gives."""
    shutil.copytree(bases / row.base, work, symlinks=True)
    by_file = {}
    for file, line, new in row.edits:
        by_file.setdefault(FILES.get(file, file), []).append((line, new))
    for name, edits in by_file.items():
        path = work / name
        path.write_bytes(_edited(
            path.read_bytes() if path.exists() else b"", edits))
    paths = {key: str(work / name) for key, name in FILES.items()}
    paths.update(out=str(work / "out"), dir=str(work))
    before = _contents(work)
    code, stdout, stderr = call([_fill(arg, paths)
                                 for arg in row.argv.split(" ")])
    if isinstance(row.stderr, Pattern):
        want = _fill(row.stderr, paths, re.escape)
        assert re.fullmatch(want + "\n", stderr, re.DOTALL), (want, stderr)
    else:
        want = _fill(row.stderr, paths) + "\n"
        assert stderr == want, (want, stderr)
    assert (code, stdout) == (row.code, ""), (code, stdout)
    out = Path(paths["out"])
    assert not out.exists(), f"{out} left"
    after = {path: data for path, data in _contents(work).items()
             if work / path != out and out not in (work / path).parents}
    assert after == before, "files changed, added or removed"


def call_main(argv):
    """Run ``fairmon ARGV`` in this process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def call_script(argv):
    """Run the ``fairmon`` console script on PATH."""
    proc = subprocess.run(["fairmon", *argv], capture_output=True,
                          encoding="utf-8", errors="surrogateescape",
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_row_ids_are_unique():
    ids = [r.id for r in ROWS]
    assert len(set(ids)) == len(ids)


# Interpreter text: an exception repr, a call signature, or the message
# of a TypeError the interpreter raised.  A Pattern escapes parentheses.
_INTERPRETER_TEXT = re.compile(
    r"\w+Error\\?\(|__init__\\?\(\\?\)|unhashable type|positional argument")


def test_no_row_expects_interpreter_text():
    assert [r.id for r in ROWS if _INTERPRETER_TEXT.search(r.stderr)] == []


def test_late_lines_start_past_the_first_8_kib(bases):
    for name in ("trace", "estimates"):
        data = (bases / "lending-400" / FILES[name]).read_bytes()
        assert len(b"".join(data.splitlines(keepends=True)[:300])) > 8192


def _row_ids(rows):
    return [rows] if isinstance(rows, str) else list(rows.values())


_TRACE_ROWS = {id for rows in TRACE_TESTS.values() for id in _row_ids(rows)}
_OWN_ROWS = [r for r in ROWS if r.id not in _TRACE_ROWS]


def test_trace_tests_name_distinct_rows():
    ids = [_row_ids(rows) for rows in TRACE_TESTS.values()]
    ids = [id for each in ids for id in each]
    assert len(set(ids)) == len(ids)
    assert set(ids) <= {r.id for r in ROWS}


@pytest.mark.parametrize("row", _OWN_ROWS, ids=[r.id for r in _OWN_ROWS])
def test_bad_input(row, bases, tmp_path):
    check(row, bases, tmp_path / "row", call_main)


def trace_tests(cls):
    """Add to the test class ``cls`` its tests in TRACE_TESTS, each
    running its rows in process; return ``cls``."""
    by_id = {r.id: r for r in ROWS}
    for name, rows in TRACE_TESTS.items():
        owner, test = name.split(".")
        if owner == cls.__name__:
            assert not hasattr(cls, test), name
            setattr(cls, test, _trace_test(by_id, rows))
    return cls


def _trace_test(by_id, rows):
    if isinstance(rows, str):
        def test(self, bases, tmp_path):
            check(by_id[rows], bases, tmp_path / "row", call_main)
        return test

    @pytest.mark.parametrize("row", [by_id[id] for id in rows.values()],
                             ids=list(rows))
    def test(self, row, bases, tmp_path):
        check(row, bases, tmp_path / "row", call_main)
    return test


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        bases = build_bases(Path(tmp) / "bases")
        for i, bad in enumerate(ROWS):
            try:
                check(bad, bases, Path(tmp) / "rows" / str(i), call_script)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {bad.id}: {exc}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
