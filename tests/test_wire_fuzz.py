"""Hostile wire payloads through the command line, in process.

Each verb gets a small valid payload (at most 4 generators, matrices of
side at most 4) and one at the work budgets' size, (4|4) over 8
generators; hypothesis changes or drops one field of it, or two.  Whatever
comes in, the run must end in exit 0, 2 or 3 with a JSON report on stdout
or one flat JSON error object on stderr, never with a traceback, and a
payload over a budget is refused within 1 s.
"""

import contextlib
import copy
import io
import json
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from supermetric.algebra import AlgebraConfig
from supermetric.cli import main
from supermetric.matrices import SuperMatrix
from supermetric.sampling import (
    basis_for,
    make_rng,
    random_group_element,
    random_metric,
)
from supermetric.serialization import (
    gamma_to_json,
    group_element_to_json,
    matrix_to_json,
)


def _payloads():
    """(verb, payload) pairs per verb: a small one, and one at (4|4) over
    8 generators."""
    cases = []
    for L, (p, q, n), basis_L in ((4, (1, 0, 2), 2), (8, (2, 2, 4), 8)):
        alg = {"generator_count": L, "coefficient_mode": "float64"}
        cfg = AlgebraConfig(**alg)
        basis = basis_for(cfg, p, q, n)
        rng = make_rng(7)
        gamma = gamma_to_json(basis.gamma)
        cases += [
            ("canonicalize", {"algebra": alg, "metric": matrix_to_json(
                random_metric(rng, cfg, p + q, n))}),
            ("isometry-check", {"algebra": alg, "gamma": gamma,
                                "N": matrix_to_json(SuperMatrix.identity(
                                    cfg, basis.gamma.shape))}),
            ("lie-basis", {"algebra": alg, "gamma": gamma, "L": basis_L}),
            ("group-op", {"algebra": alg, "gamma": gamma,
                          "h1": group_element_to_json(
                              random_group_element(rng, basis)),
                          "h2": group_element_to_json(
                              random_group_element(rng, basis))}),
        ]
    # the verify payload is its --config file
    cases += [("verify", {"generator_count": L, "coefficient_mode": "float64",
                          "m": m, "n": n})
              for L, m, n in ((2, 1, 2), (8, 4, 4))]
    return cases


_PAYLOADS = _payloads()


def _paths(node, prefix=()):
    """Every place in a JSON tree, the root excluded."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_HOSTILE = st.one_of(
    st.sampled_from([
        None, True, False, 0, 1, -1, 2, 1.5, -0.0, 1e308, -1e308, 5e-324,
        10 ** 400, 2 ** 63, 100000000, float("nan"), float("inf"),
        "1e999999999", "-1e-999999999", "1e400", "1e-400", "1/3", "1/0",
        "0.1", "x", "", "rational", "odd", [], {}, [1], [[1]], {"m": 1},
        [{"index": [9], "coeff": 1}], [{"index": [2, 1], "coeff": 1}],
    ]),
    st.integers(-2, 4),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-1, 4), max_size=3),
)


@st.composite
def _mutated(draw, fields=1):
    """A payload with ``fields`` places changed or dropped in turn, each
    drawn from the places left by the change before."""
    verb, payload = draw(st.sampled_from(_PAYLOADS))
    payload = copy.deepcopy(payload)
    for _ in range(fields):
        *head, last = draw(st.sampled_from(list(_paths(payload))))
        parent = payload
        for key in head:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = draw(_HOSTILE)
    return verb, payload


def _run(tmp_dir, verb, payload):
    path = tmp_dir / f"{verb}.json"
    path.write_text(json.dumps(payload))
    argv = (["verify", "--config", str(path)] if verb == "verify"
            else [verb, str(path)])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _metric(coeff, algebra=None, shape=None):
    payload = {"metric": {"shape": shape or {"m": 1, "n": 0},
                          "parity": "even", "entries": [coeff]}}
    if algebra is not None:
        payload["algebra"] = algebra
    return payload


def _one_generator_past(verb, **changes):
    """The (4|4) payload of ``verb`` over 9 generators, with ``changes``."""
    payload = copy.deepcopy([p for v, p in _PAYLOADS if v == verb][-1])
    payload["algebra"]["generator_count"] = 9
    payload.update(changes)
    return payload


def _canonicalize_with_z9():
    # the first entry gains z(1) z(9), so 9 generators are in use
    payload = _one_generator_past("canonicalize")
    payload["metric"]["entries"][0].append({"index": [1, 9], "coeff": 0.25})
    return payload


def _group_op_with_huge_body():
    payload = copy.deepcopy(next(p for verb, p in _PAYLOADS
                                 if verb == "group-op"))
    payload["h1"]["g_body"][0][0] = 1e308
    return payload


# payloads that once ran without bound or ended in a traceback; each must
# exit 2
_REPROS = [
    ("isometry-check",
     {"N": {"shape": {"m": 1, "n": 0}, "parity": "even", "entries": [1]},
      "gamma": {"eta": [1], "n": 100000000}}),
    ("canonicalize", _metric([{"index": [], "coeff": "1e999999999"}])),
    ("canonicalize", _metric("-1e-999999999")),
    ("canonicalize", _metric("1e400", {"coefficient_mode": "rational"})),
    ("canonicalize", _metric(10 ** 400, {"coefficient_mode": "rational"})),
    ("group-op", _group_op_with_huge_body()),
    ("canonicalize", _metric(1, {"coefficient_mode": ["x"]})),
    ("canonicalize", _metric(1, {"coefficient_mode": ""})),
    ("canonicalize", _metric(1, shape={"m": 1.5, "n": 0})),
    ("canonicalize", _metric(1, shape={"m": True, "n": 0})),
    ("canonicalize", _metric(1, shape={"m": "1", "n": 0})),
    ("canonicalize", _metric(1, algebra=5)),
    # shapes the verify suites cannot sample: m = 0 once looped forever
    ("verify", {"generator_count": 2, "m": 0, "n": 2}),
    ("verify", {"generator_count": 2, "m": 1, "n": 0}),
    ("verify", {"generator_count": 1, "m": 1, "n": 2}),
    # (1|0) over 24 generators, d = 1 + sum_{i<j} z(i) z(j): past the
    # canonicalize budget, once still running after 30 s
    ("canonicalize", {"algebra": {"generator_count": 24}, "metric": {
        "shape": {"m": 1, "n": 0}, "parity": "even",
        "entries": [[{"index": [], "coeff": 1}] + [
            {"index": [i, j], "coeff": 1}
            for i in range(1, 25) for j in range(i + 1, 25)]]}}),
    # (1|0) over 12 generators, every one of its 2048 even terms over a
    # 1000-digit denominator: inside the term budget, once 173 s of
    # Fraction arithmetic
    ("canonicalize", {"algebra": {"generator_count": 12,
                                  "coefficient_mode": "rational"},
                      "metric": {
        "shape": {"m": 1, "n": 0}, "parity": "even",
        "entries": [[{"index": [i + 1 for i in range(12) if bits >> i & 1],
                      "coeff": f"1/{10 ** 999 + bits}"}
                     for bits in range(4096)
                     if bits.bit_count() % 2 == 0]]}}),
    # the budgets' own size, (4|4) over 8 generators, and one generator
    # more
    ("canonicalize", _canonicalize_with_z9()),
    ("lie-basis", _one_generator_past("lie-basis", L=9)),
]


def _check_json_exit(tmp_dir, verb, payload):
    start = time.perf_counter()
    code, out, err = _run(tmp_dir, verb, payload)
    elapsed = time.perf_counter() - start
    assert code in (0, 2, 3)
    if out:
        report = json.loads(out)
        assert report["command"] == verb and err == ""
        assert code == (3 if report.get("status") == "fail" else 0)
    else:
        blob = json.loads(err)
        assert code in (2, 3) and blob["exit_code"] == code
        assert isinstance(blob["error"], str)
        if "over the budget" in blob["error"]:
            assert elapsed < 1.0


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_mutated())
def test_one_changed_field_ends_in_a_json_exit(tmp_path_factory, case):
    _check_json_exit(tmp_path_factory.getbasetemp(), *case)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=_mutated(fields=2))
def test_two_changed_fields_end_in_a_json_exit(tmp_path_factory, case):
    _check_json_exit(tmp_path_factory.getbasetemp(), *case)


for _case in _REPROS:
    test_one_changed_field_ends_in_a_json_exit = example(case=_case)(
        test_one_changed_field_ends_in_a_json_exit)


@pytest.mark.parametrize("verb, payload", _REPROS)
def test_old_hazards_exit_2_at_once(tmp_path, verb, payload):
    start = time.perf_counter()
    code, out, err = _run(tmp_path, verb, payload)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    blob = json.loads(err)
    assert blob["exit_code"] == 2 and "kind" in blob
