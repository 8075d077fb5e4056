"""Command-line pipeline: simulate -> monitor -> eval, plus run (all
three), bench, and export.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 the run
aborted because the drift assumptions were violated.
"""

import argparse
import json
import sys
from pathlib import Path

from . import runner, traceio
from .errors import AssumptionViolation, ConfigError, TraceFormatError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _section(config, name):
    section = config.get(name)
    if not isinstance(section, dict):
        raise ConfigError(
            f"config is missing the {name!r} section (an object)")
    return dict(section)


def _apply_overrides(section, overrides):
    for key, value in overrides:
        section[key] = value
    return section


def _parse_override(text):
    key, sep, value = text.partition("=")
    if not sep:
        raise ConfigError(f"override {text!r} must look like key=value")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


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


def _cmd_simulate(args):
    section = _section(_load_config(args.config), "simulator")
    section["seed"] = args.seed
    _apply_overrides(section, [_parse_override(o) for o in args.overrides])
    kind = runner.simulate(section, args.out,
                           include_truth=not args.no_truth)
    print(f"wrote {kind} trace to {args.out}")


def _cmd_monitor(args):
    section = None
    if args.config is not None:
        section = _section(_load_config(args.config), "monitor")
        _apply_overrides(section,
                         [_parse_override(o) for o in args.overrides])
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
              f"p99: {summary['p99_us']:.2f} us", file=sys.stderr)


def _cmd_eval(args):
    report = runner.evaluate(args.estimates, args.trace)
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _cmd_run(args):
    config = _load_config(args.config)
    sim_section = _section(config, "simulator")
    mon_section = _section(config, "monitor")
    sim_section["seed"] = args.seed
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = out_dir / "trace.jsonl"
    estimates = out_dir / "estimates.jsonl"
    report_path = out_dir / "report.json"
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
