"""Fuzzing of trace, estimates and snapshot files through the command
line.

One record line of a small lending trace, a small attention trace or the
lending estimates file is replaced by a mutated version: a field dropped
or given a value of another JSON type, a huge integer, or a line that is
not an object.  ``monitor`` and ``eval`` must then either succeed (exit
0) or report a data error (exit 2) that names the mutated file and its
line or record, and ``export`` of a mutated estimates file may also
report a usage error (exit 1); none of them ever raises.  A field of a lending, attention or coin snapshot's
``state`` or ``monitor_config``, at any depth, is mutated the same way,
and ``monitor --resume`` from it must exit 0 or 2: a snapshot is data,
its config included.  A field put into the header or into an object of
the state, where that object holds no field of its name, must exit 2.

Estimates records are also read directly, with ``traceio._step`` as the
oracle: ``read_estimates`` must yield ``_step``'s step for each record
or raise its error, whichever of its checks the record fails.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmon import cli, runner, traceio
from fairmon.errors import TraceFormatError
from fairmon.monitors import MONITORS

HORIZON = 12
SETUPS = {
    "lending": (
        {"kind": "lending", "n_a": 3, "n_b": 3, "c_max": 10,
         "horizon": HORIZON, "seed": 3},
        {"kind": "lending", "n_a": 3, "n_b": 3, "c_max": 10, "delta": 0.05}),
    "attention": (
        {"kind": "attention", "l": 2, "k": 6, "gamma": 0.0025,
         "horizon": HORIZON, "seed": 3},
        {"kind": "attention", "gamma": 0.0025, "lambda_min": 4.0,
         "lambda_max": 12.0, "delta": 0.05}),
    "coin": (
        {"kind": "coin", "p1": 0.5, "epsilon": 0.001, "horizon": HORIZON,
         "seed": 3},
        {"kind": "coin", "epsilon": 0.001, "delta": 0.05}),
}
# (kind, file): the three files a mutation can land in.
TARGETS = [("lending", "trace"), ("attention", "trace"),
           ("lending", "estimates")]

huge_ints = st.integers(min_value=2 ** 1024, max_value=10 ** 400) | \
    st.integers(max_value=-2 ** 1024, min_value=-10 ** 400)
other_values = st.one_of(
    st.text(max_size=4), st.booleans(), st.floats(), st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.integers(), huge_ints)
non_objects = st.sampled_from(["5", "[1, 2]", '"t"', "null", "1e999"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    out = {}
    for kind, (sim, mon) in SETUPS.items():
        trace, est = root / f"{kind}.trace", root / f"{kind}.est"
        runner.simulate(sim, str(trace))
        runner.monitor_trace(str(trace), mon, str(est))
        config = root / f"{kind}.json"
        config.write_text(json.dumps({"monitor": mon}))
        out[kind] = {"trace": trace.read_text().splitlines(),
                     "estimates": est.read_text().splitlines(),
                     "config": str(config)}
    return root, out


@st.composite
def mutations(draw):
    """(target, record index, new line) for one mutated record."""
    target = draw(st.sampled_from(TARGETS))
    index = draw(st.integers(1, HORIZON))
    if draw(st.integers(0, 9)) == 0:
        return target, index, draw(non_objects)
    return target, index, draw(st.tuples(
        st.sampled_from(["drop", "retype"]), st.integers(0, 20),
        other_values))


def _mutated_line(line, change):
    if isinstance(change, str):
        return change
    action, pick, value = change
    rec = json.loads(line)
    field = sorted(rec)[pick % len(rec)]
    if action == "drop":
        del rec[field]
    else:
        rec[field] = value
    return json.dumps(rec)


_PREFIXES = {1: "fairmon: error: ", 2: "fairmon: data error: "}


def _main(argv, codes=(0, 2), where=()):
    """Run the CLI; a data error must contain one of ``where``, if given."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in codes, (argv, code, err.getvalue())
    if code:
        assert err.getvalue().startswith(_PREFIXES[code]), err.getvalue()
    if code == 2 and where:
        assert any(w in err.getvalue() for w in where), (where,
                                                         err.getvalue())


@settings(derandomize=True, database=None, max_examples=200,
          deadline=None)
@given(mutations())
def test_mutated_record_is_ok_or_data_error(files, mutation):
    root, base = files
    (kind, target), index, change = mutation
    paths = {}
    for name in ("trace", "estimates"):
        lines = list(base[kind][name])
        if name == target:
            lines[index] = _mutated_line(lines[index], change)
        paths[name] = root / f"mutated.{name}"
        paths[name].write_text("\n".join(lines) + "\n")
    # Line index ``index`` is record t=index on line index+1.
    where = (f"{paths[target]}:{index + 1}:",)
    if target == "trace":
        _main(["monitor", "--trace", str(paths["trace"]), "--config",
               base[kind]["config"], "-o", str(root / "out.est")],
              where=where)
    _main(["eval", "--estimates", str(paths["estimates"]), "--trace",
           str(paths["trace"]), "-o", str(root / "report.json")],
          where=where)
    if target == "estimates":
        _main(["export", "--estimates", str(paths["estimates"]), "-o",
               str(root / "out.csv")], codes=(0, 1, 2), where=where)


def _paths(node, path):
    """``path`` and the key path of every value below ``node``."""
    yield path
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _paths(node[key], path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


@pytest.fixture(scope="module")
def snapshots(files):
    """Per kind: the snapshot after the first half of the trace, a trace
    file holding the second half, and the key paths into the snapshot's
    ``state`` and ``monitor_config``."""
    root, base = files
    out = {}
    for kind in SETUPS:
        lines = base[kind]["trace"]
        half = 1 + HORIZON // 2
        head, rest = root / f"{kind}.head", root / f"{kind}.rest"
        head.write_text("\n".join(lines[:half]) + "\n")
        rest.write_text("\n".join(lines[:1] + lines[half:]) + "\n")
        snap = root / f"{kind}.snap"
        runner.monitor_trace(str(head), SETUPS[kind][1],
                             str(root / f"{kind}.head.est"),
                             snapshot_out=str(snap))
        blob = json.loads(snap.read_text())
        paths = {top: list(_paths(blob[top], (top,)))
                 for top in ("state", "monitor_config")}
        out[kind] = (blob, str(rest), paths)
    return out


# Per kind, the key path of the header and of each object in a
# snapshot's state.
_OBJECTS = {kind: [(), ("state",), ("state", "estimators"),
                   *[("state", "estimators", g) for g in cls.groups],
                   ("state", "last")]
            for kind, cls in MONITORS.items()}


@settings(derandomize=True, database=None, max_examples=200,
          deadline=None)
@given(st.data())
def test_resume_from_mutated_snapshot_never_raises(files, snapshots, data):
    root, _ = files
    blob, rest, paths = snapshots[data.draw(st.sampled_from(sorted(SETUPS)))]
    blob = json.loads(json.dumps(blob))
    # Huge ints weighted up: config fields squared or divided into as
    # floats must not overflow.
    value = data.draw(huge_ints | other_values)
    codes, where = (0, 2), ()
    if data.draw(st.integers(0, 4)) == 0:
        # A field the header or a state object does not hold: each holds
        # exactly the fields fairmon writes into it.
        path = data.draw(st.sampled_from(_OBJECTS[blob["kind"]]))
        parent = blob
        for key in path:
            parent = parent[key]
        parent[data.draw(st.text(max_size=4).filter(
            lambda key: key not in parent))] = value
        codes, where = (2,), ("unknown field", "unknown metadata field")
    else:
        path = data.draw(st.sampled_from(
            paths[data.draw(st.sampled_from(sorted(paths)))]))
        parent = blob
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()) and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    snap = root / "mutated.snap"
    snap.write_text(json.dumps(blob) + "\n")
    _main(["monitor", "--trace", rest, "--resume", str(snap), "-o",
           str(root / "resumed.est"), "--snapshot", str(root / "again.snap")],
          codes=codes, where=where)


@pytest.mark.parametrize("kind, field", [
    ("lending", "n_a"), ("lending", "n_b"), ("lending", "c_max"),
    ("lending", "delta"), ("attention", "gamma"),
    ("attention", "lambda_max"), ("coin", "epsilon")])
def test_resume_with_huge_config_field_is_config_error(files, snapshots,
                                                       kind, field):
    root, _ = files
    blob, rest, _ = snapshots[kind]
    blob = dict(blob, monitor_config=dict(blob["monitor_config"],
                                          **{field: 10 ** 400}))
    snap = root / "huge.snap"
    snap.write_text(json.dumps(blob) + "\n")
    # The monitor rejects the value as it rejects it in a --config file,
    # but read from a snapshot it is a data error naming the snapshot.
    out = root / f"huge-{kind}-{field}.est"
    _main(["monitor", "--trace", rest, "--resume", str(snap), "-o",
           str(out)], codes=(2,), where=(f"{snap}:1: bad monitor_config: ",))
    assert not out.exists()


# Finite interval ends, half of them near the checks' edges (pairs whose
# phi or midpoint overflows); then any float (infinities and nan), small
# ints, ints past float range and bools.
_FLOATS = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 1e308, -1e308,
                           1.7e308, -1.7e308]) \
    | st.floats(allow_nan=False, allow_infinity=False)
_ENDS = _FLOATS | st.floats() | st.integers(-2, 2) | huge_ints \
    | st.booleans()


@st.composite
def _groups(draw):
    """A group interval: mostly two ordered finite floats, else two
    floats lo >= hi, any ends in a list of 1-3, null, or another JSON
    value."""
    pick = draw(st.integers(0, 19))
    if pick < 16:
        return sorted(draw(st.lists(_FLOATS, min_size=2, max_size=2)),
                      reverse=pick >= 14)
    if pick < 18:
        return draw(st.lists(_ENDS, min_size=1, max_size=3))
    return None if pick == 18 else draw(other_values)


@st.composite
def _estimate_records(draw, one_group):
    """Records t = 1, 2, ... of an estimates file; in some, one field is
    dropped or given another value."""
    recs = []
    for t in range(1, draw(st.integers(1, 4)) + 1):
        rec = {"t": t, "A": draw(_groups()),
               "B": None if one_group else draw(_groups()),
               "clamped": draw(st.booleans()),
               "floor_violation": draw(st.booleans())}
        pick = draw(st.integers(0, 9))
        if pick < 3:
            field = draw(st.sampled_from(
                ["A", "B", "clamped", "floor_violation"]))
            if pick == 0:
                del rec[field]
            else:
                rec[field] = draw(_groups() | _ENDS | st.none())
        recs.append(rec)
    return recs


@settings(derandomize=True, database=None, max_examples=300,
          deadline=None)
@given(st.data())
def test_read_estimates_matches_the_step_oracle(files, data):
    root, base = files
    kind = data.draw(st.sampled_from(sorted(SETUPS)))
    one_group = len(MONITORS[kind].groups) == 1
    lines = [json.dumps(rec)
             for rec in data.draw(_estimate_records(one_group))]
    path = root / "oracle.est"
    path.write_text("\n".join([base[kind]["estimates"][0], *lines]) + "\n")
    _, steps = traceio.read_estimates(str(path))
    for lineno, line in enumerate(lines, start=2):
        rec = json.loads(line)
        try:
            want = traceio._step(rec, one_group)
        except ValueError as exc:
            with pytest.raises(TraceFormatError) as info:
                next(steps)
            assert str(info.value) == \
                f"{path}:{lineno}: bad record t={rec['t']}: {exc}"
            return
        # repr tells -0.0 from 0.0
        assert repr(next(steps)) == repr(want)
    assert next(steps, None) is None
