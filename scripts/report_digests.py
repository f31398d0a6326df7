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
byte-identical reports.  With --expect FILE the printed lines are compared
with a saved run's: each line that differs is printed to standard error
beside the saved one, and any difference makes the exit status 1.

    python scripts/report_digests.py --seed 31
    python scripts/report_digests.py --seed 31 --workload group-sparse
    python scripts/report_digests.py --seed 31 --expect digests-31.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

# one BLAS/OpenMP thread, as in the benchmark, set before numpy is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

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


def digest_workload(wl, totals):
    """Feed every request of the workload into the tallies of ``totals``
    (keyed None for both modes, else by mode) and into its own; returns
    its tallies and its failure lines."""
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


def tally_lines(name, tallies):
    return [tallies[None].line(name)] + [
        tallies[mode].line(f"{name}:{mode}") for mode in MODES]


def differences(expected, lines):
    """Each line of a run that differs from the saved run's line at its
    place, as (saved line, new line), with None for a line one run lacks."""
    return [(want, got) for want, got in zip_longest(expected, lines)
            if want != got]


def main(argv=None):
    # imported here, so that importing this module for `differences`
    # leaves the benchmark's modules out
    from run import ROUNDS
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", action="append", choices=list(WORKLOADS),
                   help="workload to run (repeatable; default all)")
    p.add_argument("--expect", metavar="FILE",
                   help="saved output of a run to compare the lines with")
    args = p.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    totals = {key: Tally() for key in (None, *MODES)}
    lines = []

    def emit(new):
        for line in new:
            print(line)
        lines.extend(new)

    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            workdir = Path(tmp) / name
            workdir.mkdir()
            wl = WORKLOADS[name](args.seed, workdir, rounds=ROUNDS[name])
            own, failures = digest_workload(wl, totals)
            emit(tally_lines(name, own))
            emit([f"  failed {failure}" for failure in failures])
    emit(tally_lines("all", totals))
    if args.expect is None:
        return 0
    diff = differences(Path(args.expect).read_text().splitlines(), lines)
    for want, got in diff:
        print(f"expected: {want or '(no line)'}\n"
              f"     got: {got or '(no line)'}", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
