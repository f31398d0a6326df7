"""Smoke runs of the example scripts, each in a fresh interpreter."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("script", ["canonicalize_walkthrough.py",
                                    "series_decay.py"])
def test_script_runs(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_report_digests_on_group_sparse():
    # group-sparse, and verify-ad, the workload that reaches ad_operator:
    # each of their lines is the saved seed-31 line, so every report is
    # byte-identical to the saved run's
    proc = _run("report_digests.py", "--seed", "31",
                "--workload", "group-sparse", "--workload", "verify-ad")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    saved = (ROOT / "scripts" / "digests" / "seed-31.txt").read_text()
    assert lines[:6] == [line for line in saved.splitlines()
                         if line.split()[0].split(":")[0]
                         in ("group-sparse", "verify-ad")]
    # the "all" lines cover both workloads, so no saved line matches them
    assert [line.split()[:5] for line in lines[6:]] == [
        [name, "requests", count, "failed", "0"]
        for name, count in (("all", "176"), ("all:float64", "88"),
                            ("all:rational", "88"))]


def test_report_digests_on_canonicalize_dense():
    # the workload whose large float64 products run in one numpy pass: its
    # three lines are the saved seed-31 lines, in both modes
    proc = _run("report_digests.py", "--seed", "31",
                "--workload", "canonicalize-dense")
    assert proc.returncode == 0, proc.stderr
    saved = (ROOT / "scripts" / "digests" / "seed-31.txt").read_text()
    assert proc.stdout.splitlines()[:3] == [
        line for line in saved.splitlines()
        if line.split()[0].split(":")[0] == "canonicalize-dense"]


def _load_script(name, monkeypatch):
    """The script as a module; what its first lines set in this process's
    environment and module path is put back after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digests_expect_lists_each_differing_line(monkeypatch):
    differences = _load_script("report_digests", monkeypatch).differences
    saved = [f"{name:<28} requests  144  failed   0  {digest * 64}"
             for name, digest in (("group-sparse", "a"), ("all", "b"))]
    assert differences(saved, list(saved)) == []
    moved = [saved[0], saved[1].replace("b" * 64, "c" * 64)]
    assert differences(saved, moved) == [(saved[1], moved[1])]
    # a failure line that one run prints and the other does not shifts
    # every line after it
    failing = [saved[0], "  failed lie-basis x.json: exit 3", saved[1]]
    assert differences(saved, failing) == [
        (saved[1], failing[1]), (None, failing[2])]
    assert differences(saved, saved[:1]) == [(saved[1], None)]


def _run_file(path, seed, req_per_s, latency_ms):
    metrics = {"float64.req_per_s": {"value": req_per_s, "unit": "1/s"},
               "float64.latency_p50_ms": {"value": latency_ms, "unit": "ms"}}
    path.write_text(
        f"perfbench workload=canonicalize-dense seed={seed} seconds=1\n"
        "float64.req_per_s    1.0 1/s\n"
        + json.dumps({"correct": True, "attempted": 9, "failed": 0,
                      "metrics": metrics}) + "\n")
    return str(path)


def test_bench_compare_pairs_runs_and_counts_wins(tmp_path):
    pairs = []
    for seed, (before, after) in zip((5, 6), ((10.0, 12.0), (11.0, 10.5))):
        pairs += ["--pair",
                  _run_file(tmp_path / f"p{seed}.txt", seed, before, 50.0),
                  _run_file(tmp_path / f"c{seed}.txt", seed, after, 40.0)]
    digest_line = "all:rational  requests  4  failed  0  " + "a" * 64 + "\n"
    (tmp_path / "d.txt").write_text(digest_line)
    out = tmp_path / "bench.json"
    proc = _run("bench_compare.py", *pairs, "--out", str(out),
                "--digests", "31", str(tmp_path / "d.txt"),
                str(tmp_path / "d.txt"))
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(out.read_text())["workloads"]["canonicalize-dense"]
    assert entry["seeds"] == [5, 6]
    rate = entry["metrics"]["float64.req_per_s"]
    assert rate["better"] == "higher" and rate["unit"] == "1/s"
    assert rate["parent"] == [10.0, 11.0] and rate["change"] == [12.0, 10.5]
    assert rate["wins"] == 1 and rate["pairs"] == 2
    assert rate["parent_median"] == 10.5 and rate["change_median"] == 11.25
    assert rate["parent_iqr"] == 0.5
    # lower is better for a latency, so both pairs are won
    assert entry["metrics"]["float64.latency_p50_ms"]["wins"] == 2
    digests = json.loads(out.read_text())["digests"]["31"]
    assert digests["all:rational"]["same"] is True


_STUB_RUN = """\
import argparse, json
from pathlib import Path
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds"):
    p.add_argument(flag)
args = p.parse_args()
here = Path(__file__).resolve().parent.parent
with open(here.parent / "order.txt", "a") as log:
    log.write(f"{here.name} {args.workload} {args.seed}\\n")
rate = {"parent": 10.0, "change": 11.0}[here.name] + int(args.seed)
print(f"perfbench workload={args.workload} seed={args.seed} "
      f"seconds={args.seconds}")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    "float64.req_per_s": {"value": rate, "unit": "1/s"},
    "setup_s": {"value": 1.0, "unit": "s"}}}))
"""

_STUB_DIGESTS = """\
import sys
from pathlib import Path
side = Path(__file__).resolve().parent.parent.name
digest = ("a" if side == "parent" or sys.argv[2] == "1" else "b") * 64
print(f"all  requests  4  failed  0  {digest}")
"""


def test_bench_ab_alternates_the_sides_and_compares_the_pairs(tmp_path):
    for side in ("parent", "change"):
        for script, text in (("perfbench/run.py", _STUB_RUN),
                             ("scripts/report_digests.py", _STUB_DIGESTS)):
            (tmp_path / side / script).parent.mkdir(parents=True,
                                                    exist_ok=True)
            (tmp_path / side / script).write_text(text)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["run_seconds"] = 3
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    out = tmp_path / "bench.json"
    proc = _run("bench_ab.py", str(tmp_path / "parent"),
                str(tmp_path / "change"), "--workload", "verify-ad",
                "--workload", "group-sparse", "--seeds", "1", "2",
                "--digests", "1", "2", "--runs", str(tmp_path / "runs"),
                "--benchmark", str(tmp_path / "BENCHMARK.json"),
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    # each side's own run file, the first side alternating pair by pair
    assert (tmp_path / "order.txt").read_text().splitlines() == [
        "parent verify-ad 1", "change verify-ad 1",
        "change verify-ad 2", "parent verify-ad 2",
        "parent group-sparse 1", "change group-sparse 1",
        "change group-sparse 2", "parent group-sparse 2"]
    assert len(list((tmp_path / "runs").iterdir())) == 12
    # each run lasts the benchmark's run_seconds
    assert (tmp_path / "runs" / "change-group-sparse-2.txt").read_text() \
        .startswith("perfbench workload=group-sparse seed=2 seconds=3\n")
    report = json.loads(out.read_text())
    for name in ("verify-ad", "group-sparse"):
        entry = report["workloads"][name]
        assert entry["seeds"] == [1, 2]
        assert entry["first"] == ["parent", "change"]
        rate = entry["metrics"]["float64.req_per_s"]
        assert rate["parent"] == [11.0, 12.0]
        assert rate["change"] == [12.0, 13.0]
        assert rate["wins"] == 2 and rate["better"] == "higher"
        assert entry["metrics"]["setup_s"]["wins"] == 0
    assert report["digests"]["1"]["all"]["same"] is True
    assert report["digests"]["2"]["all"] == {
        "parent": "a" * 64, "change": "b" * 64, "same": False}


def test_interleave_ab_times_a_checkout_against_itself():
    # the repo against itself on group-sparse, one pass over its rounds:
    # every report matches, and each verb and mode gets one line
    proc = _run("interleave_ab.py", str(ROOT), str(ROOT),
                "--workload", "group-sparse", "--reps", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ("interleave_ab workload=group-sparse seed=31 "
                        "reps=1 mode=both")
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [
        [verb, mode] for verb in ("group-op", "isometry-check", "lie-basis",
                                  "all")
        for mode in ("float64", "rational")]
    # the 4 rounds hold 72 requests per mode; the warm-up is not timed
    assert [row[2] for row in rows[-2:]] == ["72", "72"]
    assert all(float(v) > 0 for row in rows for v in row[3:])


def test_interleave_ab_stops_at_the_first_differing_report(tmp_path):
    # the change side prints one more line after every report
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src", change / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(change / "src" / "supermetric" / "cli.py", "a") as cli:
        cli.write("\n_main = main\n\n\ndef main(argv=None):\n"
                  "    code = _main(argv)\n    print()\n    return code\n")
    proc = _run("interleave_ab.py", str(ROOT), str(change),
                "--workload", "group-sparse", "--mode", "rational")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("interleave_ab: ")
    assert proc.stderr.rstrip().endswith(
        "(rational): stdout differs between the sides")


# bounds of scripts/mode_diff.py's ratios, as README states them beside the
# gates: a float field's worst coefficient deviation from the exact report,
# relative to its largest exact coefficient, and a residual (the exact one
# of the float answer, and the reported one), relative to the verb's gate
FIELD_BOUND = 1e-12
RESIDUAL_SHARE_BOUND = 1e-3
# the exact residual of a float64 frame P, relative to eps ||P|| ||G|| (eps
# the float64 unit round-off): rounding the entries of a frame of norm ||P||
# moves its congruence by about that much, so this share stays under the
# bound however large ||P|| is, while the share of the fixed gate
# 1e-9 (1 + ||G||) grows with ||P||
EPS_SHARE_BOUND = 100


@pytest.mark.parametrize("m, n", [(2, 2), (3, 4)])
def test_float_canonical_form_matches_the_exact_one(monkeypatch, m, n):
    from supermetric.algebra import AlgebraConfig
    from supermetric.sampling import make_rng, random_metric

    mode_diff = _load_script("mode_diff", monkeypatch)
    cfg = AlgebraConfig(generator_count=6, coefficient_mode="float64")
    for seed in range(1, 5):
        ratios = mode_diff.compare(random_metric(make_rng(seed), cfg, m, n))
        for field in mode_diff.FIELDS:
            assert ratios[field] <= FIELD_BOUND, (seed, field, ratios)
        for share in ("exact", "reported"):
            assert ratios[share] <= RESIDUAL_SHARE_BOUND, (seed, share,
                                                           ratios)
        assert ratios["eps_PG"] <= EPS_SHARE_BOUND, (seed, ratios)


def _near_singular_metric():
    """A float64 (3|2) metric over 6 generators whose even body block is an
    exact rotation of diag(-8, 1/100, 9), under random_metric's grade-2
    souls at amplitude 1."""
    from supermetric.algebra import AlgebraConfig
    from supermetric.matrices import SuperMatrix
    from supermetric.sampling import make_rng, random_metric

    cfg = AlgebraConfig(generator_count=6, coefficient_mode="float64")
    G = random_metric(make_rng(1), cfg, 3, 2, soul_amp=1)
    c, s = Fraction(3, 5), Fraction(4, 5)
    Q = [[c, -s * c, s * s], [s, c * c, -c * s], [0, s, c]]
    eigenvalues = (-8, Fraction(1, 100), 9)
    rows = [list(row) for row in G.rows]
    for i in range(3):
        for j in range(3):
            body = sum(Q[i][k] * lam * Q[j][k]
                       for k, lam in enumerate(eigenvalues))
            rows[i][j] = rows[i][j].soul() + float(body)
    return SuperMatrix(cfg, G.shape, rows, "even")


def test_float_canonical_residual_follows_the_frame_norm(monkeypatch):
    # canonicalize-dense's c14 at seed 31 in small: the pivot of a
    # near-singular even body direction carries a soul about 1e3 times its
    # body, so 1/d is a long series and the frame P is large.  The float
    # answer's exact residual is then a large share of the fixed gate, but
    # still the rounding of a frame of that norm
    from supermetric.canonical import canonical_form, validate_metric

    mode_diff = _load_script("mode_diff", monkeypatch)
    G = _near_singular_metric()
    pivots = canonical_form(validate_metric(G)).d
    worst = max(float(d.soul().norm()) / abs(d.body()) for d in pivots)
    assert worst > 500
    ratios = mode_diff.compare(G)
    assert ratios["pivot"] == pytest.approx(worst, rel=1e-9)
    assert ratios["P_norm"] > 1e5, ratios
    assert ratios["exact"] > RESIDUAL_SHARE_BOUND, ratios
    assert ratios["eps_PG"] <= EPS_SHARE_BOUND, ratios


def _group_payloads(L, p, q, n, seed):
    """float64 group-op and isometry-check payloads built as the
    group-sparse benchmark builds them."""
    from supermetric.algebra import AlgebraConfig
    from supermetric.group import embed_isometry
    from supermetric.sampling import basis_for, make_rng, random_group_element
    from supermetric.serialization import (
        gamma_to_json,
        group_element_to_json,
        matrix_to_json,
    )

    cfg = AlgebraConfig(generator_count=L, coefficient_mode="float64")
    basis = basis_for(cfg, p, q, n)
    rng = make_rng(seed)
    head = {"algebra": {"generator_count": L, "coefficient_mode": "float64"},
            "gamma": gamma_to_json(basis.gamma)}
    h1 = random_group_element(rng, basis)
    h2 = random_group_element(rng, basis)
    N = embed_isometry(random_group_element(rng, basis))
    return {"group-op": dict(head, h1=group_element_to_json(h1),
                             h2=group_element_to_json(h2)),
            "isometry-check": dict(head, N=matrix_to_json(N))}


def test_float_group_verbs_match_the_exact_ones(monkeypatch, tmp_path):
    mode_diff = _load_script("mode_diff", monkeypatch)
    for seed in range(1, 5):
        for verb, payload in _group_payloads(6, 1, 1, 2, seed).items():
            ratios = mode_diff.compare_group(verb, payload, tmp_path)
            assert ratios["verdicts"] is True, (seed, verb, ratios)
            for field in ("product", "embedded"):
                assert (ratios[field] is None) == (verb != "group-op")
                assert (ratios[field] or 0.0) <= FIELD_BOUND, (seed, verb,
                                                               ratios)
            for share in ("exact", "reported"):
                assert ratios[share] <= RESIDUAL_SHARE_BOUND, (seed, verb,
                                                               ratios)


def test_mode_diff_reads_group_payloads_by_their_keys(tmp_path):
    paths = []
    for verb, payload in _group_payloads(4, 1, 1, 2, 1).items():
        path = tmp_path / f"{verb}.json"
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    proc = _run("mode_diff.py", *paths)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["payload", "product", "embedded", "exact",
                                "reported", "verdicts"]
    assert [line.split()[0] for line in lines[1:]] == [
        "group-op.json", "isometry-check.json", "worst"]
    assert lines[2].split()[1:3] == ["-", "-"]
    assert all(line.split()[-1] == "same" for line in lines[1:])


def test_mode_diff_prints_one_line_per_payload(tmp_path):
    from supermetric.algebra import AlgebraConfig
    from supermetric.sampling import make_rng, random_metric
    from supermetric.serialization import matrix_to_json

    cfg = AlgebraConfig(generator_count=4, coefficient_mode="float64")
    paths = []
    for seed in (1, 2):
        path = tmp_path / f"metric-{seed}.json"
        path.write_text(json.dumps({
            "algebra": {"generator_count": 4, "coefficient_mode": "float64"},
            "metric": matrix_to_json(random_metric(make_rng(seed), cfg, 2,
                                                   2))}))
        paths.append(str(path))
    proc = _run("mode_diff.py", *paths)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["payload", "P", "Gamma", "d_raw", "lambda",
                                "exact", "reported", "P_norm", "eps_PG",
                                "pivot"]
    assert [line.split()[0] for line in lines[1:]] == [
        "metric-1.json", "metric-2.json", "worst"]
    for line in lines[1:]:
        ratios = [float(v) for v in line.split()[1:]]
        assert all(v <= RESIDUAL_SHARE_BOUND for v in ratios[:6])
        assert ratios[6] >= 1 and ratios[7] <= EPS_SHARE_BOUND
        assert ratios[8] >= 0
