"""Shared fixtures and the acceptance-line reporter.

Acceptance tests register one line per criterion through the `acceptance`
fixture; the terminal summary prints them after the run so the pass/fail
status of each numbered criterion is visible regardless of capture mode.
"""

import os
from pathlib import Path

import pytest

from supermetric.algebra import AlgebraConfig
from supermetric.sampling import make_rng

# pyproject's `pythonpath` puts src/ on this process's path only; the CLI
# tests that start `python -m supermetric.cli` need it on the child's
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

_ACCEPTANCE_LINES = []


@pytest.fixture
def rational_cfg():
    return AlgebraConfig(generator_count=4, coefficient_mode="rational")


@pytest.fixture
def float_cfg():
    return AlgebraConfig(generator_count=4, coefficient_mode="float64")


@pytest.fixture
def make_config():
    def build(mode="rational", L=4, **kw):
        return AlgebraConfig(generator_count=L, coefficient_mode=mode, **kw)
    return build


@pytest.fixture
def rng():
    return make_rng(20240816)


class _AcceptanceLog:
    def record(self, number, name, passed, detail=""):
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        _ACCEPTANCE_LINES.append(
            (number, f"ACCEPTANCE {number} {name}: {status}{suffix}"))
        assert passed, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture
def acceptance():
    return _AcceptanceLog()


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
