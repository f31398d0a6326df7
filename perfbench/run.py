#!/usr/bin/env python3
"""Benchmark of the supermetric CLI over three workloads and both modes.

    python3 perfbench/run.py --workload canonicalize-dense --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run is one process with one closed-loop client that calls
`supermetric.cli.main` in-process on payload files generated from the seed,
and checks every report.  `--trace 0` reports the end-to-end metrics;
`--trace 1` sends every request twice, untraced and then traced, and
reports per-layer self times and counts per request.  `--workload all` runs
each workload in a fresh child process.  The last line of standard output is
the result as one JSON object.  perfbench/README.md defines the metrics.
"""

import os

# one BLAS/OpenMP thread, set before numpy is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# rounds of distinct inputs generated per run; later rounds repeat them
ROUNDS = {"canonicalize-dense": 12, "group-sparse": 4, "verify-ad": 16}
SETUP_REPEATS = 3

# A fixed pure-Python loop is timed after every request, once per started
# REFERENCE_EVERY_S of request time.  The speed of the host the benchmark
# was written on (2-vCPU x86-64 VM, Python 3.11) drifts by up to 20% over
# seconds to minutes, and the loop's time drifts with it.  So each request's
# latency is scaled by REFERENCE_S / (median of the 2 * REFERENCE_WINDOW + 1
# loop samples nearest to it), and set-up time by the run's median.
# REFERENCE_S is close to the loop's median on that host.
REFERENCE_S = 2.0e-3
REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW = 5

LAYER_METRICS = (
    ("cli.self_ms", "ms"),
    ("serialization.parse_ms", "ms"),
    ("serialization.dump_ms", "ms"),
    ("serialization.report_kib", "KiB"),
    ("canonical.validate_ms", "ms"),
    ("canonical.orthogonalize_ms", "ms"),
    ("canonical.odd_complement_ms", "ms"),
    ("canonical.symplectic_ms", "ms"),
    ("canonical.body_reduce_ms", "ms"),
    ("canonical.congruence_ms", "ms"),
    ("canonical.p_terms_per_entry", "terms"),
    ("isometry.lie_membership_ms", "ms"),
    ("isometry.lie_membership_calls", "count"),
    ("isometry.is_isometry_ms", "ms"),
    ("isometry.lie_basis_ms", "ms"),
    ("group.semidirect_multiply_ms", "ms"),
    ("group.diamond_ms", "ms"),
    ("group.conjugate_action_ms", "ms"),
    ("group.embed_isometry_ms", "ms"),
    ("group.bch_series_ms", "ms"),
    ("matrices.matmul_ms", "ms"),
    ("matrices.matmul_calls", "count"),
    ("matrices.exp_log_ms", "ms"),
    ("matrices.ad_operator_ms", "ms"),
    ("matrices.ad_entries", "count"),
    ("algebra.mul_ms", "ms"),
    ("algebra.mul_calls", "count"),
    ("algebra.mul_term_pairs", "count"),
    ("algebra.invert_ms", "ms"),
    ("algebra.invert_calls", "count"),
)

# what the traced run must show for each workload's stated reason
REASONS = {
    "canonicalize-dense": {"pairs_min": 50,
                           "absent": ("isometry.", "group.",
                                      "matrices.ad_operator")},
    "group-sparse": {"pairs_max": 5,
                     "absent": ("canonical.", "matrices.ad_operator",
                                "group.bch_series")},
    "verify-ad": {"ad_share_min": 0.5},
}


def import_package():
    """Put the checkout's `src/` first on the path and import the CLI."""
    src = ROOT / "src"
    if not (src / "supermetric" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no supermetric package under {src}")
    sys.path.insert(0, str(src))
    from supermetric import cli
    return cli


def execute(main, request):
    """Send one request; returns (seconds, report text, failure or None).
    Each request starts from an empty collector generation, as a fresh
    process would."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(request.argv)
    except (Exception, SystemExit) as exc:     # a crash is a failed request
        code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if code != 0:
        return seconds, text, f"exit {code} {err.getvalue().strip()[:300]}"
    try:
        return seconds, text, request.check(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        return seconds, text, f"unreadable report: {exc!r}"


def reference_loop():
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - start


def payload_digest(wl):
    """SHA-256 over every measured request's arguments, with each payload
    path replaced by the file's bytes."""
    files = {str(p) for p in wl.files}
    h = hashlib.sha256()
    for req in (r for rnd in wl.rounds for r in rnd):
        for arg in req.argv:
            h.update(Path(arg).read_bytes() if arg in files else arg.encode())
            h.update(b"\0")
    return h.hexdigest()


def set_up(cli, name, seed, build):
    """Generate the inputs and send the warm-up requests."""
    from workloads import WORKLOADS

    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[name](seed, workdir, **{"rounds": ROUNDS[name], **build})
    warm_failures = [f for _, _, f in (execute(cli.main, r)
                                       for r in wl.warmup) if f]
    return wl, payload_digest(wl), warm_failures


class Tally:
    """Outcome of every measured request, checks included."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.seen = {}
        self.rational = hashlib.sha256()
        self.rational_reports = 0

    def record(self, key, req, text, failure, first_round):
        self.attempted += 1
        if failure is None:
            digest = hashlib.sha256(text.encode()).digest()
            if self.seen.setdefault(key, digest) != digest:
                failure = "report differs from the earlier one for this input"
        if failure is not None:
            self.failures.append(f"{req.argv[0]} {req.mode}: {failure}")
        if first_round and req.mode == "rational":
            self.rational.update(text.encode())
            self.rational_reports += 1


def run_rounds(wl, seconds, step):
    """Call `step(key, request, first_round)` round by round until `seconds`
    have passed; a started round is finished, and one round always runs."""
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        slot = r % len(wl.rounds)
        for i, req in enumerate(wl.rounds[slot]):
            step((slot, i), req, r == 0)
        r += 1


def percentile(values, q):
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all
    order statistics, steadier than one order statistic when few samples
    lie in the tail."""
    import numpy as np
    from scipy.special import betainc

    n = len(values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(np.dot(weights, sorted(values)))


def measure(wl, seconds, tally, main):
    """End-to-end metrics in seconds of the reference host; returns them and
    the run's median scale factor."""
    from workloads import MODES

    latency = {m: [] for m in MODES}
    loops = []

    def step(key, req, first_round):
        seconds_, text, failure = execute(main, req)
        latency[req.mode].append((seconds_, len(loops)))
        tally.record(key, req, text, failure, first_round)
        for _ in range(1 + int(seconds_ / REFERENCE_EVERY_S)):
            loops.append(reference_loop())

    run_rounds(wl, seconds, step)

    def scale(at):
        # median of the loop samples nearest to the request
        near = loops[max(0, at - REFERENCE_WINDOW):at + REFERENCE_WINDOW + 1]
        return REFERENCE_S / statistics.median(near)

    metrics = {}
    for mode in MODES:
        lat = [t * scale(at) for t, at in latency[mode]]
        metrics[f"{mode}.req_per_s"] = (len(lat) / sum(lat), "1/s")
        metrics[f"{mode}.latency_p50_ms"] = (percentile(lat, 0.5) * 1e3, "ms")
        metrics[f"{mode}.latency_p90_ms"] = (percentile(lat, 0.9) * 1e3, "ms")
        beyond = len(lat) - math.ceil(0.9 * len(lat))
        print(f"{mode}: {len(lat)} requests, p90 has {beyond} beyond it")
    run_scale = REFERENCE_S / statistics.median(loops)
    print(f"host speed: reference loop median "
          f"{statistics.median(loops) * 1e3:.4f} ms over {len(loops)} "
          f"samples; run scale {run_scale:.4f}")
    return metrics, run_scale


def trace(wl, seconds, tally, main):
    from tracer import ROOT as ROOT_SPAN, SPAN_COUNT, SPAN_METRIC, Tracer
    from workloads import MODES

    tracer = Tracer()
    root = tracer.span(main, ROOT_SPAN)
    totals = {m: dict.fromkeys([n for n, _ in LAYER_METRICS], 0.0)
              for m in MODES}
    entries = {m: 0 for m in MODES}
    requests = {m: 0 for m in MODES}
    wall = {m: [0.0, 0.0] for m in MODES}          # untraced, traced
    inclusive = {m: {} for m in MODES}

    def step(key, req, first_round):
        plain_s, plain_text, failure = execute(main, req)
        tally.record(key, req, plain_text, failure, first_round)
        tracer.request += 1
        first = len(tracer.start)
        pairs, ad = tracer.term_pairs, tracer.ad_entries
        tracer.install()
        try:
            traced_s, text, failure = execute(root, req)
        finally:
            tracer.uninstall()
        self_ns, calls, incl = tracer.request_spans(first)
        spent = sum(self_ns.values()) / 1e9
        if failure is None and abs(spent - traced_s) > 0.01 * traced_s + 5e-4:
            failure = (f"span self times add up to {spent:.6f} s, "
                       f"request took {traced_s:.6f} s")
        tally.record(key, req, text, failure, False)

        mode = req.mode
        requests[mode] += 1
        wall[mode][0] += plain_s
        wall[mode][1] += traced_s
        t = totals[mode]
        for name, ns in self_ns.items():
            t[SPAN_METRIC[name]] += ns / 1e6
        for name, n in calls.items():
            if name in SPAN_COUNT:
                t[SPAN_COUNT[name]] += n
        for name, ns in incl.items():
            inclusive[mode][name] = inclusive[mode].get(name, 0) + ns / 1e9
        t["algebra.mul_term_pairs"] += tracer.term_pairs - pairs
        t["matrices.ad_entries"] += tracer.ad_entries - ad
        t["serialization.report_kib"] += len(text.encode()) / 1024
        if req.argv[0] == "canonicalize" and failure is None:
            P = json.loads(text)["P"]["entries"]
            t["canonical.p_terms_per_entry"] += sum(len(e) for e in P)
            entries[mode] += len(P)

    run_rounds(wl, seconds, step)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}.npz"
    tracer.write(spans_path)
    print(f"spans: {len(tracer.start)} written to {spans_path}")

    metrics = {}
    for mode in MODES:
        t = totals[mode]
        for name, unit in LAYER_METRICS:
            if name == "canonical.p_terms_per_entry":
                value = t[name] / entries[mode] if entries[mode] else 0.0
            else:
                value = t[name] / requests[mode]
            metrics[f"{mode}.{name}"] = (value, unit)
        report_reason(wl.name, mode, t, inclusive[mode], wall[mode][1])
    metrics["trace_overhead_ratio"] = (
        sum(w[1] for w in wall.values()) / sum(w[0] for w in wall.values()),
        "ratio")
    return metrics


def report_reason(name, mode, totals, inclusive, traced_s):
    """Print whether the trace shows the layers the workload was chosen
    for; informational, it does not change the result."""
    want = REASONS[name]
    calls = totals["algebra.mul_calls"]
    pairs = totals["algebra.mul_term_pairs"] / calls if calls else 0.0
    ad_share = inclusive.get("matrices.ad_operator", 0.0) / traced_s
    checks = []
    if "pairs_min" in want:
        checks.append((f"term pairs per product {pairs:.1f} >= "
                       f"{want['pairs_min']}", pairs >= want["pairs_min"]))
    if "pairs_max" in want:
        checks.append((f"term pairs per product {pairs:.1f} <= "
                       f"{want['pairs_max']}", pairs <= want["pairs_max"]))
    if "ad_share_min" in want:
        checks.append((f"inclusive ad_operator share {ad_share:.3f} >= "
                       f"{want['ad_share_min']}",
                       ad_share >= want["ad_share_min"]))
    for prefix in want.get("absent", ()):
        hit = sorted(n for n in inclusive if n.startswith(prefix))
        checks.append((f"no {prefix}* span (seen: {hit})", not hit))
    for text, ok in checks:
        print(f"reason {mode}: {text}: {'met' if ok else 'NOT MET'}")


def run_workload(cli, name, seed, seconds, trace_on, main=None, build=None):
    """One measured run; returns (metrics, correct, attempted, failed) with
    metrics mapping name -> (value, unit)."""
    main = main or cli.main
    build = build or {}
    import_s = time.perf_counter() - _T0
    setups, digests, warm_failures = [], set(), []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl, digest, warm = set_up(cli, name, seed, build)
        setups.append(time.perf_counter() - start)
        digests.add(digest)
        warm_failures += warm
    # keep the harness's own objects out of the program's collections
    gc.collect()
    gc.freeze()
    tally = Tally()
    if trace_on:
        metrics = trace(wl, seconds, tally, main)
    else:
        metrics, scale = measure(wl, seconds, tally, main)
        metrics["setup_s"] = (
            (import_s + statistics.median(setups)) * scale, "s")
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")

    print(f"payload_sha256 {' '.join(sorted(digests))}")
    print(f"rational_report_sha256 {tally.rational.hexdigest()} "
          f"({tally.rational_reports} reports of the first round)")
    failed = len(tally.failures)
    print(f"failed_ratio {failed}/{tally.attempted} = "
          f"{failed / tally.attempted:.6g}")
    for line in (tally.failures + warm_failures)[:20]:
        print(f"failure: {line}", file=sys.stderr)
    if len(digests) != 1:
        print("failure: set-up is not deterministic", file=sys.stderr)
    correct = failed == 0 and not warm_failures and len(digests) == 1
    return metrics, correct, tally.attempted, failed


def emit(metrics, correct, attempted, failed):
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


def run_all(args):
    """Each workload in its own child process; prints every metric."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for name in ROUNDS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for k, v in result["metrics"].items():
            merged[f"{name}/{k}"] = (v["value"], v["unit"])
    emit(merged, correct, attempted, failed)
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*ROUNDS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    cli = import_package()
    if args.workload == "all":
        return run_all(args)
    import numpy
    import scipy

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} loop=closed "
          f"clients=1 nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__}")
    emit(*run_workload(cli, args.workload, args.seed, args.seconds,
                       args.trace == 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
