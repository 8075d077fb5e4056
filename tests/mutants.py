"""A mutation table: faults planted in the package, each with the tests
that must catch it.

A row of MUTANTS names a file under ``src/fairmon``, the exact text to
replace (which must occur once in it), the new text, and the pytest
node ids that must fail once the fault is in.  :func:`problems` plants
one mutant in a copy of ``src/`` and runs only its node ids, in a
subprocess whose ``PYTHONPATH`` is the copy.  Run as a script,
``python tests/mutants.py`` checks every row, prints each row's wall
time and the table's total, and exits 1 if one survives; CI runs it as
a step of its own.  Tier 1 (``tests/test_mutants.py``) runs no
subprocess: it checks that each row can be planted and that its killers
exist.

A refactor that removes a mutant's old text fails its row: update the
row to the new code rather than drop it.  Standard library only.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class Mutant(namedtuple("Mutant", "id file old new killers")):
    """``file`` is relative to ``src/fairmon``; ``killers`` are node ids
    relative to the repository root."""


_PIPELINE = "tests/test_trace.py::TestMonitorPipeline::"
_BAD = "tests/test_bad_inputs.py::test_bad_input"
_LINES = "tests/test_trace.py::TestTraceLines::"

MUTANTS = [
    # Each group interval must hold at 1 - delta/len(groups) for their
    # union to hold at 1 - delta.
    Mutant("per-group-budget-is-delta", "monitors.py",
           "budget = cfg.delta / len(self.groups)", "budget = cfg.delta",
           ["tests/test_acceptance.py::TestAcceptance::"
            "test_08_interval_width_law"]),
    Mutant("azuma-heavy-tail-halved", "kernels.py",
           "heavy = 2.0 * nu / t * log_term", "heavy = nu / t * log_term",
           ["tests/test_estimator.py::TestAzumaEpsilon::"
            "test_heavy_tail_term_dominates"]),
    Mutant("azuma-heavy-tail-dropped", "kernels.py",
           "return gauss if gauss >= heavy else heavy", "return gauss",
           ["tests/test_estimator.py::TestAzumaEpsilon::"
            "test_heavy_tail_term_dominates"]),
    Mutant("floor-check-strict", "monitors.py",
           "if self._lambda_min + est._d <= 0.0:",
           "if self._lambda_min + est._d < 0.0:",
           ["tests/test_monitors.py::TestAttentionMonitor::"
            "test_floor_violation_flag"]),
    Mutant("upper-rate-clamp-dropped", "monitors.py",
           "min(max(hi, RATE_FLOOR), MAX_RATE), confidence)",
           "max(hi, RATE_FLOOR), confidence)",
           ["tests/test_monitors.py::TestAttentionMonitor::"
            "test_rate_interval_past_max_rate_is_clamped"]),
    Mutant("width-decay-every-step", "runner.py",
           "next_checkpoint *= 2", "next_checkpoint += 1",
           [_PIPELINE + "test_evaluate_memory_does_not_grow_with_records"]),
    Mutant("snapshot-floor-check-disabled", "monitors.py",
           "if not self.floor_violation:", "if False:",
           ["tests/test_trace.py::TestSnapshotResume::"
            "test_bad_snapshot_state_is_data_error"
            "[attention-floor-unset-below-floor]"]),
    # On an unattended attention pair phi is [0, 0], and so is the
    # truth.
    Mutant("containment-open", "runner.py",
           "if lo <= true_phi <= hi:", "if lo < true_phi < hi:",
           [_PIPELINE + "test_containment_is_closed"]),
    # What an estimate line, a trace header, a snapshot and a CSV file
    # carry.
    Mutant("estimate-line-drops-clamped", "traceio.py",
           """f'"clamped":{"true" if clamped else "false"},'""",
           """f'"clamped":false,'""",
           ["tests/test_trace.py::TestEstimateRecord::test_fixed_cases"]),
    Mutant("estimate-line-drops-floor-violation", "traceio.py",
           """"floor_violation":{"true" if floor_violation else "false"}""",
           '"floor_violation":false',
           ["tests/test_trace.py::TestEstimateRecord::test_fixed_cases"]),
    Mutant("config-hash-not-recomputed", "traceio.py",
           "if got != want:", "if False:",
           ["tests/test_trace.py::TestCli::test_bad_metadata_is_exit_2"
            "[trace-config-edited-under-its-hash]"]),
    Mutant("snapshot-t-unchecked", "monitors.py",
           "if self.t != sum(counts):", "if False:",
           ["tests/test_trace.py::TestSnapshotResume::"
            "test_bad_snapshot_state_is_data_error[lending-t-not-group-sum]"]),
    Mutant("csv-lines-end-in-newline", "traceio.py",
           "writer = csv.writer(fh)",
           "writer = csv.writer(fh, lineterminator='\\n')",
           ["tests/test_trace.py::TestCsvExport::test_header_and_rows"]),
    # eval's one test of a well-formed estimates record checks what
    # _step checks.
    Mutant("fast-step-accepts-lo-above-hi", "traceio.py",
           "and -_INF < a_lo <= a_hi < _INF \\\n"
           "                        and -_INF < b_lo <= b_hi < _INF \\\n",
           "and -_INF < a_lo < _INF and -_INF < a_hi < _INF \\\n"
           "                        and -_INF < b_lo < _INF and -_INF < b_hi"
           " < _INF \\\n",
           [_BAD + "[estimates-record-A-lo-above-hi-eval]",
            _PIPELINE + "test_evaluate_reports_bad_v2_record[B-lo-above-hi]"]),
    Mutant("fast-step-skips-flag-check", "traceio.py",
           "type(clamped) is bool \\\n"
           "                        and type(floor_violation) is bool:",
           "True:",
           [_BAD + "[estimates-record-int-clamped-eval]",
            _PIPELINE + "test_evaluate_reports_bad_record[int-flag]",
            _PIPELINE + "test_evaluate_reports_bad_v2_record[null-flag]"]),
    # A config names an unknown or missing field before its class is
    # called, which would raise the interpreter's TypeError.
    Mutant("from-fields-calls-the-class-first", "estimator.py",
           "        for name in fields:\n",
           "        return cls(**fields)\n        for name in fields:\n",
           [_BAD + "[simulate-unknown-field]",
            _BAD + "[monitor-missing-field]"]),
    # run builds and checks every config before it writes a file.
    Mutant("run-skips-its-pre-check", "cli.py",
           "    kind, _ = runner.build_sim(sim_section)\n"
           "    build_monitor(mon_section)\n"
           "    runner.check_model(trace, kind, sim_section, mon_section)\n",
           "",
           [_BAD + "[run-coin-monitor-on-a-lending-simulator]",
            _BAD + "[run-c_max-overflows-the-first-interval]",
            "tests/test_trace.py::TestCli::"
            "test_trace_of_another_model_is_exit_2[attention-gamma]"]),
    Mutant("seed-from-the-config", "cli.py",
           'if "seed" in section:', "if False:",
           [_BAD + "[simulate-seed-in-config]",
            _BAD + "[simulate-seed-by-set]",
            _BAD + "[run-seed-in-config]"]),
    # The lam > y sum of the discovery kernel leaves out only its +0.0
    # summand.
    Mutant("eta-sum-stops-one-summand-early", "kernels.py",
           "for j in range(1, y):", "for j in range(1, y - 1):",
           ["tests/test_discovery.py::TestEta::"
            "test_kernel_matches_full_prefix_loop_bit_for_bit"]),
    Mutant("eta-one-unit-shortcut-at-two-units", "kernels.py",
           "if y > 1:", "if y > 2:",
           ["tests/test_discovery.py::TestEta::"
            "test_kernel_matches_full_prefix_loop_bit_for_bit"]),
    # A snapshot resumes only the stream it was taken on.
    Mutant("resume-on-any-stream", "runner.py",
           'meta["config_hash"] != snapshot_hash', "False",
           [_BAD + "[resume-on-another-streams-rest]"]),
    # A skipped draw at exactly the inversion cutoff reads one uniform,
    # as poisson does, not the rejection loop's.
    Mutant("skip-cutoff-strict", "sim/sampling.py",
           "    if lam <= _INVERSION_CUTOFF:\n        rng.random()",
           "    if lam < _INVERSION_CUTOFF:\n        rng.random()",
           ["tests/test_sim.py::TestPoissonSampler::"
            "test_skip_advances_rng_like_poisson[10.0]",
            "tests/test_sim.py::test_trace_bytes_are_pinned"
            "[attention-uniform-skips-across-the-cutoff-1]",
            "tests/test_sim.py::test_trace_bytes_are_pinned"
            "[attention-uniform-skips-across-the-cutoff-2]"]),
    # Each simulator formats its own trace lines: every value under its
    # own key, and a line whose truth is not finite left to the encoder,
    # which refuses a NaN as json does.
    Mutant("lending-line-swaps-the-means", "sim/lending.py",
           '"psi_a":{a!r},"psi_b":{b!r}', '"psi_a":{b!r},"psi_b":{a!r}',
           [_LINES + "test_simulated_lines_are_json_from_the_template"
            "[max_reward-1]",
            "tests/test_sim.py::test_trace_bytes_are_pinned"
            "[lending-max-reward-1]"]),
    Mutant("attention-line-without-finiteness-fallback", "sim/attention.py",
           "if not -_INF < w_a + w_b + phi + lam_a + lam_b < _INF:",
           "if False:",
           [_LINES + "test_nan_truth_raises_json_error[attention-omega_b]",
            _LINES + "test_nan_truth_raises_json_error[attention-lam_a]"]),
    # A snapshot restores exactly the monitor that wrote it, and an
    # estimates or snapshot header holds exactly its fields.
    Mutant("state-accepts-unknown-fields", "estimator.py",
           "if key not in layout:", "if False:",
           [_BAD + "[snapshot-state-unknown-field-state.foo]",
            _BAD + "[snapshot-state-unknown-field-state.estimators.A.bar]"]),
    Mutant("header-accepts-unknown-fields", "traceio.py",
           "if field not in fields and field not in _LEAD:", "if False:",
           [_BAD + "[snapshot-unknown-metadata-field-resume]",
            _BAD + "[estimates-unknown-metadata-field-eval]"]),
    # A command that fails removes the output file it had begun to write.
    Mutant("failed-output-left-in-place", "traceio.py",
           "os.remove(path)", "pass",
           [_BAD + "[coin-toss-of-2]",
            _BAD + "[estimates-record-int-A-export]",
            "tests/test_trace.py::TestOutput::test_failed_write_leaves_nothing"
            "[new]"]),
]

# Runs pytest, then reports where the package it tested came from.
_RUN = ("import sys, pytest\n"
        "code = pytest.main(sys.argv[1:])\n"
        "fairmon = sys.modules.get('fairmon')\n"
        "print('fairmon imported from', getattr(fairmon, '__file__', None))\n"
        "sys.exit(code)")
_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)
_IMPORTED = re.compile(r"^fairmon imported from (.*)$", re.M)


def planted(mutant, src=ROOT / "src"):
    """The text of ``mutant.file`` under ``src`` with ``mutant``
    planted; raise ValueError unless its old text occurs exactly once."""
    text = (Path(src) / "fairmon" / mutant.file).read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.id}: old text occurs {found} times in "
                         f"{mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def problems(mutant, work):
    """Plant ``mutant`` in a copy of ``src/`` under the new directory
    ``work``, run its killers against the copy, and return what kept it
    alive: an empty list when every killer failed, in a run that
    imported the copy."""
    src = Path(work) / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "*.egg-info"))
    (src / "fairmon" / mutant.file).write_text(planted(mutant, src),
                                               encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, "-q", "-rfE", "-p", "no:cacheprovider",
         *mutant.killers],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    imported = _IMPORTED.findall(proc.stdout)
    package = imported[-1] if imported else None
    want = str(src / "fairmon" / "__init__.py")
    found = []
    if package != want:
        found.append(f"fairmon was imported from {package}, not {want}")
    if proc.returncode != 1:
        found.append(f"pytest exited {proc.returncode}, not 1 (tests "
                     f"failed)")
    failed = set(_FAILED.findall(proc.stdout))
    found += [f"{id} did not fail" for id in mutant.killers
              if id not in failed]
    if found:
        found.append((proc.stdout + proc.stderr)[-4000:])
    return found


def main():
    alive = 0
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for mutant in MUTANTS:
            row_started = time.perf_counter()
            try:
                found = problems(mutant, Path(tmp) / mutant.id)
            except ValueError as exc:
                found = [str(exc)]
            alive += bool(found)
            print(f"{'SURVIVED' if found else 'killed'} {mutant.id} "
                  f"({time.perf_counter() - row_started:.1f} s)")
            for problem in found:
                print(f"  {problem}")
    print(f"{len(MUTANTS) - alive} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
