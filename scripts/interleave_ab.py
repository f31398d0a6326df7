"""In-process interleaved timing of a parent and a change checkout.

Both checkouts' `src/supermetric` packages are loaded in this one process,
under the names `supermetric_parent` and `supermetric_change`.  One
workload's payloads are built once, by the parent checkout's
`perfbench/workloads.py` with the benchmark's number of rounds, and every
request is sent to both sides' `cli.main` in turn: the parent first in
even-numbered repetitions and the change first in odd-numbered ones.  The
first request whose exit code, standard output or standard error differs
between the sides stops the script with exit status 1.  Otherwise it prints,
per verb and mode and for all requests of each mode, the mean time of each
side, the ratio of their sums (change over parent) and the median of the
per-request ratios.  On a host whose speed drifts, the two sides of one
request run a few milliseconds apart, so drift cancels in the ratios.

    python scripts/interleave_ab.py ../parent . --workload verify-ad \\
        --mode float64 --reps 3 --seed 31
"""

import os

# one BLAS/OpenMP thread, as in the benchmark, set before numpy is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SIDES = ("parent", "change")


def load_file(path, name):
    """The module at ``path``, imported under ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_package(checkout, name):
    """The checkout's `src/supermetric` imported as the package ``name``;
    returns its cli module."""
    src = Path(checkout) / "src" / "supermetric"
    if not (src / "cli.py").is_file():
        raise SystemExit(f"interleave_ab: no supermetric package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def build_workload(parent, package, workload, seed, workdir):
    """The workload's requests, built by the parent checkout's
    perfbench/workloads.py, which imports `supermetric`: that name points
    at ``package`` while the payloads are written."""
    bench = Path(parent) / "perfbench"
    rounds = load_file(bench / "run.py", "_interleave_run").ROUNDS
    saved = {k: v for k, v in sys.modules.items()
             if k == "supermetric" or k.startswith("supermetric.")}
    aliases = {"supermetric" + k[len(package):]: v
               for k, v in sys.modules.items()
               if k == package or k.startswith(package + ".")}
    sys.modules.update(aliases)
    try:
        workloads = load_file(bench / "workloads.py", "_interleave_workloads")
        return workloads.WORKLOADS[workload](seed, workdir,
                                             rounds=rounds[workload])
    finally:
        for k in aliases:
            del sys.modules[k]
        sys.modules.update(saved)


def execute(main, argv):
    """(seconds, exit code, stdout, stderr) of one request; each starts
    from an empty collector generation, as in the benchmark."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def differs(request, results):
    """A message naming what differs between the sides' results, or None."""
    (_, *a), (_, *b) = results
    for what, x, y in zip(("exit code", "stdout", "stderr"), a, b):
        if x != y:
            return (f"interleave_ab: {' '.join(request.argv)} "
                    f"({request.mode}): {what} differs between the sides")
    return None


def summary(times):
    """Lines of the table over ``times``: (verb, mode) -> [(parent s,
    change s)], with one "all" line per mode."""
    groups = dict(sorted(times.items()))
    for mode in sorted({m for _, m in times}):
        groups[("all", mode)] = [p for (_, m), pairs in times.items()
                                 if m == mode for p in pairs]
    lines = [f"{'verb':16s} {'mode':9s} {'n':>5s} {'parent_ms':>10s} "
             f"{'change_ms':>10s} {'ratio_sum':>10s} {'ratio_med':>10s}"]
    for (verb, mode), pairs in groups.items():
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        lines.append(
            f"{verb:16s} {mode:9s} {len(pairs):5d} "
            f"{statistics.fmean(parent) * 1e3:10.3f} "
            f"{statistics.fmean(change) * 1e3:10.3f} "
            f"{sum(change) / sum(parent):10.4f} "
            f"{statistics.median(c / p for p, c in pairs):10.4f}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True,
                   choices=("canonicalize-dense", "group-sparse",
                            "verify-ad"))
    p.add_argument("--mode", choices=("float64", "rational"),
                   help="time only this mode's requests")
    p.add_argument("--reps", type=int, default=1,
                   help="passes over every round's requests")
    p.add_argument("--seed", type=int, default=31)
    args = p.parse_args(argv)

    mains = {side: load_package(checkout, f"supermetric_{side}").main
             for side, checkout in zip(SIDES, (args.parent, args.change))}
    with tempfile.TemporaryDirectory() as workdir:
        wl = build_workload(args.parent, "supermetric_parent", args.workload,
                            args.seed, Path(workdir))
        for request in wl.warmup:
            for side in SIDES:
                execute(mains[side], request.argv)
        requests = [r for rnd in wl.rounds for r in rnd
                    if args.mode in (None, r.mode)]
        times = {}
        for rep in range(args.reps):
            order = SIDES if rep % 2 == 0 else SIDES[::-1]
            for request in requests:
                results = {side: execute(mains[side], request.argv)
                           for side in order}
                pair = [results[side] for side in SIDES]
                message = differs(request, pair)
                if message:
                    print(message, file=sys.stderr)
                    return 1
                times.setdefault((request.argv[0], request.mode), []).append(
                    tuple(r[0] for r in pair))
    print(f"interleave_ab workload={args.workload} seed={args.seed} "
          f"reps={args.reps} mode={args.mode or 'both'}")
    print("\n".join(summary(times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
