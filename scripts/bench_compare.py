"""Compare paired benchmark runs of a parent and a change and write the
result as one JSON file.

Each run file holds the standard output of one `perfbench/run.py` run of one
workload, or at least its last line (the result object).  When the file
also holds the run's first line (`perfbench workload=... seed=...`), the
workload and seed are read from it.  Runs are paired in the order given:
the first --pair is the first pair.  Per workload and metric the output
lists the seeds, each pair's values, the medians and quartiles of both
sides and the number of pairs the change won, with each metric's direction
taken from BENCHMARK.json.  With --digests it also records the lines of
`scripts/report_digests.py` for both sides and whether they agree.

    python scripts/bench_compare.py --out BENCH_15.json \\
        --pair runs/parent-901.txt runs/change-901.txt \\
        --pair runs/parent-902.txt runs/change-902.txt \\
        --digests 31 runs/digests-parent-31.txt runs/digests-change-31.txt
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_HEADER = re.compile(r"^perfbench workload=(\S+) seed=(-?\d+)")


def read_run(path):
    """(workload, seed, result object) of one saved run; workload and seed
    are None when the file has no header line."""
    lines = [line for line in Path(path).read_text().splitlines()
             if line.strip()]
    if not lines:
        raise SystemExit(f"bench_compare: {path} is empty")
    workload = seed = None
    match = _HEADER.match(lines[0])
    if match:
        workload, seed = match.group(1), int(match.group(2))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise SystemExit(f"bench_compare: the last line of {path} is not "
                         f"a result object") from None
    return workload, seed, result


def directions(benchmark_path):
    """metric name -> 'higher' or 'lower', from BENCHMARK.json."""
    spec = json.loads(Path(benchmark_path).read_text())
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent, change, better):
    """Per-pair values, medians, quartiles and wins of one metric."""
    won = [(c > p) if better == "higher" else (c < p)
           for p, c in zip(parent, change)]
    out = {"better": better, "parent": parent, "change": change}
    for side, values in (("parent", parent), ("change", change)):
        q1, q3 = quartiles(values)
        out[f"{side}_median"] = statistics.median(values)
        out[f"{side}_q1"], out[f"{side}_q3"] = q1, q3
        out[f"{side}_iqr"] = q3 - q1
    base = out["parent_median"]
    out["median_change_pct"] = (
        100.0 * (out["change_median"] - base) / base if base else None)
    out["wins"] = sum(won)
    out["pairs"] = len(won)
    return out


def compare_workload(runs, better):
    """runs: [(parent (seed, result), change (seed, result))] of one
    workload."""
    seeds = [p[0] for p, _ in runs]
    metrics = {}
    names = [n for n in runs[0][0][1]["metrics"]
             if all(n in side[1]["metrics"] for pair in runs for side in pair)]
    for name in names:
        values = [[side[1]["metrics"][name]["value"] for side in pair]
                  for pair in runs]
        entry = summarize([p for p, _ in values], [c for _, c in values],
                          better.get(name, "lower"))
        entry["unit"] = runs[0][0][1]["metrics"][name]["unit"]
        metrics[name] = entry
    return {
        "seeds": seeds,
        "correct": {"parent": [p[1]["correct"] for p, _ in runs],
                    "change": [c[1]["correct"] for _, c in runs]},
        "failed": {"parent": [p[1]["failed"] for p, _ in runs],
                   "change": [c[1]["failed"] for _, c in runs]},
        "metrics": metrics,
    }


def read_digests(path):
    """name -> (requests, failed, digest) of one report_digests.py output."""
    out = {}
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if len(parts) == 6 and parts[1] == "requests":
            out[parts[0]] = (int(parts[2]), int(parts[4]), parts[5])
    return out


def compare_digests(triples):
    result = {}
    for seed, parent_path, change_path in triples:
        parent, change = read_digests(parent_path), read_digests(change_path)
        result[str(seed)] = {
            name: {"parent": parent.get(name, (None, None, None))[2],
                   "change": change.get(name, (None, None, None))[2],
                   "same": parent.get(name) == change.get(name)}
            for name in sorted(set(parent) | set(change))}
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pair", nargs=2, action="append", required=True,
                   metavar=("PARENT", "CHANGE"),
                   help="saved output of one parent and one change run")
    p.add_argument("--digests", nargs=3, action="append", default=[],
                   metavar=("SEED", "PARENT", "CHANGE"),
                   help="saved report_digests.py output of both sides")
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    by_workload = {}
    for parent_path, change_path in args.pair:
        wp, sp, rp = read_run(parent_path)
        wc, sc, rc = read_run(change_path)
        if (wp, sp) != (wc, sc):
            raise SystemExit(f"bench_compare: {parent_path} runs {wp} seed "
                             f"{sp} but {change_path} runs {wc} seed {sc}")
        by_workload.setdefault(wp or "unnamed", []).append(
            ((sp, rp), (sc, rc)))
    better = directions(args.benchmark)
    report = {"workloads": {name: compare_workload(runs, better)
                            for name, runs in by_workload.items()}}
    if args.digests:
        report["digests"] = compare_digests(args.digests)
    write_report(report, args.out)
    return 0


def write_report(report, out):
    """Write the report as JSON and print each throughput's medians and
    wins."""
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
    for name, entry in report["workloads"].items():
        for metric, m in entry["metrics"].items():
            if metric.endswith("req_per_s"):
                print(f"{name} {metric}: parent {m['parent_median']:.4g} "
                      f"change {m['change_median']:.4g} "
                      f"wins {m['wins']}/{m['pairs']}")


if __name__ == "__main__":
    sys.exit(main())
