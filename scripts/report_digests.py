"""Digests of every report the benchmark's workloads produce for one seed.

Builds the payloads of the workloads in perfbench/workloads.py for one seed
(with the benchmark's number of rounds), sends every request of both
coefficient modes through `supermetric.cli.main` in this process, and
prints, per workload and for all of them together, one SHA-256 over each
request's exit code, standard output and standard error, with the number of
requests whose report fails the workload's check (each such request is
listed below its workload's lines).  Each line over both modes is followed
by one per mode (`group-sparse:float64`, `all:rational`, ...) over that
mode's requests alone, so a change can show one mode's reports untouched
while the other's move.  Two checkouts that print the same digests produced
byte-identical reports.

    python scripts/report_digests.py --seed 31
    python scripts/report_digests.py --seed 31 --workload group-sparse
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# one BLAS/OpenMP thread, as in the benchmark, set before numpy is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import ROUNDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from supermetric import cli  # noqa: E402

MODES = ("float64", "rational")


def send(request):
    """(exit code, stdout, stderr) of one request; a crash is its type and
    message in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(request.argv)
    except (Exception, SystemExit) as exc:
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def check(request, code, out, err):
    """The workload's failure message for one report, or None."""
    if code != 0:
        return f"exit {code} {err.strip()[:200]}"
    try:
        return request.check(json.loads(out))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"


class Tally:
    """Requests, failures and one running SHA-256 over their records."""

    def __init__(self):
        self.requests = self.failed = 0
        self.sha = hashlib.sha256()

    def add(self, record, failed):
        self.sha.update(record)
        self.requests += 1
        self.failed += failed

    def line(self, name):
        return (f"{name:<28} requests {self.requests:4d}  "
                f"failed {self.failed:3d}  {self.sha.hexdigest()}")


def digest_workload(name, seed, workdir, totals):
    """Feed every request of the workload into the tallies of ``totals``
    (keyed None for both modes, else by mode) and into its own; returns
    its tallies and its failure lines."""
    wl = WORKLOADS[name](seed, workdir, rounds=ROUNDS[name])
    own = {key: Tally() for key in (None, *MODES)}
    failures = []
    for request in (r for rnd in wl.rounds for r in rnd):
        code, out, err = send(request)
        record = f"{code}\n{out}\0{err}\0".encode()
        failure = check(request, code, out, err)
        for tallies in (own, totals):
            for key in (None, request.mode):
                tallies[key].add(record, failure is not None)
        if failure is not None:
            args = " ".join(Path(a).name for a in request.argv)
            failures.append(f"{args}: {failure}")
    return own, failures


def print_tallies(name, tallies):
    print(tallies[None].line(name))
    for mode in MODES:
        print(tallies[mode].line(f"{name}:{mode}"))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", action="append", choices=list(WORKLOADS),
                   help="workload to run (repeatable; default all)")
    args = p.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    totals = {key: Tally() for key in (None, *MODES)}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            workdir = Path(tmp) / name
            workdir.mkdir()
            own, failures = digest_workload(name, args.seed, workdir, totals)
            print_tallies(name, own)
            for failure in failures:
                print(f"  failed {failure}")
    print_tallies("all", totals)
    return 0


if __name__ == "__main__":
    sys.exit(main())
