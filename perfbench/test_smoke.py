"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
cli = run.import_package()

TINY = {
    "canonicalize-dense": {"rounds": 1, "mix": ((2, 2, 4, 1),),
                           "warm": (2, 2, 3)},
    "group-sparse": {"rounds": 1, "mix": ((2, 2, 4),), "warm": (2, 2, 3)},
    "verify-ad": {"rounds": 1, "shape": (2, 2, 3), "warm": (2, 2, 3)},
}


def tiny_run(name, trace=False, main=None):
    return run.run_workload(cli, name, seed=3, seconds=0, trace_on=trace,
                            main=main, build=TINY[name])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.ROUNDS)
    assert set(TINY) == set(run.ROUNDS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_appears_with_its_unit(name, trace):
    metrics, correct, attempted, failed = tiny_run(name, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: unit for k, (_, unit) in metrics.items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(value) for value, _ in metrics.values())
    assert correct and failed == 0 and attempted >= 2


def flip_isometry(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    sys.stdout.write(out.getvalue().replace('"isometry": true',
                                            '"isometry": false'))
    return code


def crash(argv):
    raise RuntimeError("injected")


@pytest.mark.parametrize("main, bad", [(flip_isometry, 4), (crash, 6)])
def test_bad_reports_count_as_failures(main, bad):
    # one round of group-sparse: group-op, isometry-check and lie-basis in
    # each mode; a flipped isometry flag breaks the first two
    metrics, correct, attempted, failed = tiny_run("group-sparse", main=main)
    assert not correct
    assert (attempted, failed) == (6, bad)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_package():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "group-sparse",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
