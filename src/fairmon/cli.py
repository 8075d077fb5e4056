"""Command-line pipeline: simulate -> monitor -> eval, plus run (all
three), bench, and export.

Exit codes: 0 success, 1 usage/config error, 2 data error or io error
(a file that cannot be read or written), 3 the run aborted because the
drift assumptions were violated.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from . import runner, traceio
from .errors import AssumptionViolation, ConfigError, TraceFormatError
from .monitors import build_monitor


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            config = traceio.parse_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bytes not UTF-8 and the digit limit too
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object, got "
                          f"{traceio.JSON_TYPES[type(config)]}")
    return config


def _same_file(a, b):
    """Whether paths ``a`` and ``b`` name one file: the same path, or,
    when both exist, the same file under two names."""
    if os.path.abspath(a) == os.path.abspath(b):
        return True
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def _check_outputs(outputs, inputs):
    """Raise ConfigError, before anything is written, if an output path
    names one of the ``inputs`` (the writer would destroy what the
    reader still reads) or another output.  ``None`` entries are
    options that were not given."""
    outputs = [p for p in outputs if p is not None]
    inputs = [p for p in inputs if p is not None]
    for i, out in enumerate(outputs):
        for role, others in (("input", inputs), ("output", outputs[:i])):
            for other in others:
                if _same_file(out, other):
                    raise ConfigError(
                        f"output {out} is the same file as {role} {other}")


def _section(config, name):
    section = config.get(name)
    if not isinstance(section, dict):
        raise ConfigError(
            f"config is missing the {name!r} section (an object)")
    return dict(section)


def _parse_override(text):
    key, sep, value = text.partition("=")
    if not sep:
        raise ConfigError(f"override {text!r} must look like key=value")
    try:
        return key, traceio.parse_json(value)
    except json.JSONDecodeError:
        return key, value
    except ValueError as exc:  # past the digit limit, or nested too deeply
        raise ConfigError(f"override {key}: {exc}") from None


def build_parser():
    parser = _Parser(prog="fairmon",
                     description="Streaming disparity monitors over "
                                 "JSON-lines traces")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="generate a trace file")
    sim.add_argument("--config", required=True, help="JSON config file "
                     "with a 'simulator' section")
    sim.add_argument("--seed", required=True, type=int,
                     help="simulation seed (mandatory for reproducibility)")
    sim.add_argument("-o", "--out", required=True, help="trace output path")
    sim.add_argument("--no-truth", action="store_true",
                     help="omit ground-truth fields")
    sim.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a simulator field")

    mon = sub.add_parser("monitor", help="stream a trace through a monitor")
    mon.add_argument("--trace", required=True)
    mon.add_argument("--config", help="JSON config file with a 'monitor' "
                     "section (optional when resuming from a snapshot)")
    mon.add_argument("-o", "--out", required=True,
                     help="estimates output path")
    mon.add_argument("--resume", help="snapshot file to resume from")
    mon.add_argument("--snapshot", help="write the final monitor state here")
    mon.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a monitor field")

    ev = sub.add_parser("eval", help="containment/width report")
    ev.add_argument("--estimates", required=True)
    ev.add_argument("--trace", required=True,
                    help="the trace file (with ground truth)")
    ev.add_argument("-o", "--out", help="report path (default: stdout)")

    run = sub.add_parser("run", help="simulate + monitor + eval")
    run.add_argument("--config", required=True, help="JSON config with "
                     "'simulator' and 'monitor' sections")
    run.add_argument("--seed", required=True, type=int)
    run.add_argument("--out-dir", required=True)

    bench = sub.add_parser("bench", help="per-update latency benchmark")
    bench.add_argument("--kind", choices=tuple(runner.BENCHES),
                       required=True)
    bench.add_argument("--updates", type=int, default=100_000)
    bench.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("export", help="flatten an estimates file to CSV")
    exp.add_argument("--estimates", required=True)
    exp.add_argument("-o", "--out", required=True)
    return parser


def _sim_section(config, overrides, seed):
    """The simulator section of ``config``, with the ``--set``
    ``overrides`` applied, then ``seed``, which only ``--seed`` gives."""
    section = _section(config, "simulator")
    section.update(map(_parse_override, overrides))
    if "seed" in section:
        raise ConfigError("the simulator seed comes from --seed, not from "
                          "the config or --set")
    section["seed"] = seed
    return section


def _cmd_simulate(args):
    _check_outputs([args.out], [args.config])
    section = _sim_section(_load_config(args.config), args.overrides,
                           args.seed)
    kind = runner.simulate(section, args.out,
                           include_truth=not args.no_truth)
    print(f"wrote {kind} trace to {args.out}")


def _cmd_monitor(args):
    _check_outputs([args.out, args.snapshot],
                   [args.trace, args.resume, args.config])
    section = None
    if args.config is not None:
        section = _section(_load_config(args.config), "monitor")
        section.update(map(_parse_override, args.overrides))
    elif args.resume is None:
        raise ConfigError("monitor needs --config or --resume")
    elif args.overrides:
        raise ConfigError("--set needs --config: a resumed run takes the "
                          "snapshot's monitor config")
    summary = runner.monitor_trace(args.trace, section, args.out,
                                   snapshot_in=args.resume,
                                   snapshot_out=args.snapshot)
    print(f"wrote estimates to {args.out}")
    if summary["updates"]:
        print(f"updates: {summary['updates']}  "
              f"median: {summary['median_us']:.2f} us  "
              f"p99: {summary['p99_us']:.2f} us  "
              f"timed: {summary['samples']}",
              file=sys.stderr)


def _cmd_eval(args):
    _check_outputs([args.out], [args.estimates, args.trace])
    report = runner.evaluate(args.estimates, args.trace)
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _cmd_run(args):
    config = _load_config(args.config)
    sim_section = _sim_section(config, [], args.seed)
    mon_section = _section(config, "monitor")
    out_dir = Path(args.out_dir)
    trace = out_dir / "trace.jsonl"
    estimates = out_dir / "estimates.jsonl"
    report_path = out_dir / "report.json"
    _check_outputs([trace, estimates, report_path], [args.config])
    # Build and check every config before anything is written.
    kind, _ = runner.build_sim(sim_section)
    build_monitor(mon_section)
    runner.check_model(trace, kind, sim_section, mon_section)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner.simulate(sim_section, trace)
    runner.monitor_trace(str(trace), mon_section, str(estimates))
    report = runner.evaluate(str(estimates), str(trace))
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"pipeline outputs in {out_dir}")
    containment = report["containment"]
    if containment is not None:
        print(f"containment: {containment:.4f} over "
              f"{report['truth_steps']} steps")


def _cmd_bench(args):
    summary = runner.bench(args.kind, args.updates, args.seed)
    print(f"{summary['kind']}  updates={summary['updates']}  "
          f"median={summary['median_us']:.2f} us  "
          f"p99={summary['p99_us']:.2f} us  "
          f"mean={summary['mean_us']:.2f} us")


def _cmd_export(args):
    _check_outputs([args.out], [args.estimates])
    traceio.export_csv(args.estimates, args.out)
    print(f"wrote {args.out}")


_COMMANDS = {
    "simulate": _cmd_simulate,
    "monitor": _cmd_monitor,
    "eval": _cmd_eval,
    "run": _cmd_run,
    "bench": _cmd_bench,
    "export": _cmd_export,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.cmd](args)
    except ValueError as exc:
        if isinstance(exc, TraceFormatError):
            print(f"fairmon: data error: {exc}", file=sys.stderr)
            return 2
        print(f"fairmon: error: {exc}", file=sys.stderr)
        return 1
    except AssumptionViolation as exc:
        print(f"fairmon: assumption violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"fairmon: io error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
