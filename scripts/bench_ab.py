"""Alternating benchmark runs of a parent and a change checkout, compared
into one JSON file.

Each seed of each workload makes one pair: both checkouts run their own
`perfbench/run.py` on that workload and seed for the benchmark's
`run_seconds` (read from BENCHMARK.json), the parent first in
even-numbered pairs and the change first in odd-numbered ones, counted
over all pairs in order.  Each run's standard output is saved as
RUNS/<side>-<workload>-<seed>.txt.  With --digests, both checkouts then
run their own `scripts/report_digests.py` at each digest seed, saved as
RUNS/digests-<side>-<seed>.txt.  The pairs and digests are compared with
bench_compare.py's functions and written to --out, with the side that ran
first in each pair.  A run that exits nonzero stops the script.

    python scripts/bench_ab.py ../parent . --workload verify-ad \\
        --workload group-sparse --seeds 3001 3002 3003 3004 \\
        --digests 31 1 7 --runs runs --out BENCH_23.json
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_compare import (  # noqa: E402
    ROOT,
    compare_digests,
    compare_workload,
    directions,
    read_run,
    write_report,
)

SIDES = ("parent", "change")


def run_saved(checkout, script, args, path):
    """Run one checkout's own ``script`` with ``args`` and save its
    standard output to ``path``."""
    proc = subprocess.run(
        [sys.executable, str(Path(checkout) / script), *map(str, args)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    Path(path).write_text(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit(f"bench_ab: {script} {' '.join(map(str, args))} "
                         f"in {checkout} exited with {proc.returncode}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", action="append", required=True,
                   help="workload to run; repeat for several")
    p.add_argument("--seeds", nargs="+", type=int, required=True,
                   help="one pair per seed and workload")
    p.add_argument("--digests", nargs="+", type=int, default=[],
                   metavar="SEED", help="report_digests.py seeds to compare")
    p.add_argument("--runs", required=True,
                   help="directory for each run's standard output")
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    runs = Path(args.runs)
    runs.mkdir(parents=True, exist_ok=True)
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    better = directions(args.benchmark)
    seconds = json.loads(Path(args.benchmark).read_text())["run_seconds"]
    report = {"workloads": {}}
    number = 0
    for workload in args.workload:
        pairs, first = [], []
        for seed in args.seeds:
            order = SIDES if number % 2 == 0 else SIDES[::-1]
            result = {}
            for side in order:
                path = runs / f"{side}-{workload}-{seed}.txt"
                run_saved(checkouts[side], "perfbench/run.py",
                          ["--workload", workload, "--seed", seed,
                           "--seconds", seconds], path)
                _, _, result[side] = read_run(path)
            pairs.append(((seed, result["parent"]),
                          (seed, result["change"])))
            first.append(order[0])
            number += 1
        entry = compare_workload(pairs, better)
        entry["first"] = first
        report["workloads"][workload] = entry
    if args.digests:
        triples = []
        for seed in args.digests:
            paths = [runs / f"digests-{side}-{seed}.txt" for side in SIDES]
            for side, path in zip(SIDES, paths):
                run_saved(checkouts[side], "scripts/report_digests.py",
                          ["--seed", seed], path)
            triples.append((seed, *paths))
        report["digests"] = compare_digests(triples)
    write_report(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
