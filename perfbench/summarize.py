"""Fold results files into one baseline file.

    python3 perfbench/summarize.py perfbench/results/*-trace?.json \
        -o perfbench/baseline/NAME.json

For every workload and metric the baseline holds the median and the
quartiles (``statistics.quantiles(n=4)``) of the per-run values, the
number of runs and the seeds, plus the provenance the runs share.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SHARED = ("git_rev", "source_sha256", "python", "implementation", "nproc",
          "kernel_backend", "timing")


def _group(name):
    if name in run.END_TO_END:
        return "end_to_end"
    if name in run.PER_LAYER or name in run.PER_LAYER_WHERE_CALLED:
        return "per_layer"
    return "extra"


def fold(paths):
    runs = [json.loads(Path(p).read_text()) for p in paths]
    out = {"provenance": {}, "workloads": {}}
    for key in SHARED:
        values = {json.dumps(r["provenance"].get(key)) for r in runs}
        out["provenance"][key] = (json.loads(values.pop())
                                  if len(values) == 1 else "mixed")
    for r in runs:
        w = r["workload"]
        entry = out["workloads"].setdefault(w["name"], {
            "why": w["why"], "horizon": w["horizon"],
            "batch_size": w["batch_size"], "batches": w["batches"],
            "seconds": r["seconds"], "seeds": {}, "config_hashes": {},
            "failed": 0, "attempted": 0, "values": {}})
        seed = str(r["provenance"]["seed"])
        entry["seeds"].setdefault(seed, []).append(r["trace"])
        entry["config_hashes"][seed] = r["provenance"][
            "simulator_config_hashes"]
        entry["monitor_config_hash"] = r["provenance"]["monitor_config_hash"]
        entry["failed"] += r["failed"]
        entry["attempted"] += r["attempted"]
        for name, s in r["summary"].items():
            # Per-layer figures come from traced runs, the rest from
            # untraced runs only.
            if (_group(name) == "per_layer") != bool(r["trace"]):
                continue
            entry["values"].setdefault(name, (s["unit"], []))[1].append(
                s["value"])
    for entry in out["workloads"].values():
        metrics = {"end_to_end": {}, "per_layer": {}, "extra": {}}
        for name, (unit, values) in sorted(entry.pop("values").items()):
            q1, q3 = (statistics.quantiles(values, n=4)[::2]
                      if len(values) > 1 else (values[0], values[0]))
            median = statistics.median(values)
            metrics[_group(name)][name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else None,
                "runs": len(values), "unit": unit}
        entry.update(metrics)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+")
    parser.add_argument("-o", "--out", required=True)
    args = parser.parse_args(argv)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(fold(args.results), indent=1)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
