"""Smoke runs of the example scripts, each in a fresh interpreter."""

import os
import subprocess
import sys
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
    proc = _run("report_digests.py", "--seed", "31",
                "--workload", "group-sparse")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:5] for line in lines] == [
        [name, "requests", count, "failed", "0"]
        for prefix in ("group-sparse", "all")
        for name, count in ((prefix, "144"),
                            (f"{prefix}:float64", "72"),
                            (f"{prefix}:rational", "72"))]
    digests = [line.split()[-1] for line in lines]
    assert all(len(d) == 64 for d in digests)
    # one workload: "all" repeats its lines, and the two modes differ
    assert digests[:3] == digests[3:] and len(set(digests)) == 3
