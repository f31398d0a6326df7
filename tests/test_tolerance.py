"""The float gate predicate, float64 overflow, and integer coefficients."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from supermetric.algebra import (
    GATE,
    AlgebraConfig,
    Supernumber,
    within_gate,
)
from supermetric.cli import main
from supermetric.errors import CoefficientOverflow, NumericalGateError
from supermetric.group import conjugate_action, embed_isometry
from supermetric.isometry import is_isometry, isometry_residual
from supermetric.matrices import SuperMatrix
from supermetric.sampling import (
    basis_for,
    make_rng,
    random_group_element,
    random_nil,
)

RAT = AlgebraConfig(generator_count=2, coefficient_mode="rational")


def test_within_gate_bound_and_non_finite_values():
    assert within_gate(GATE) and not within_gate(2 * GATE)
    assert within_gate(3 * GATE, 2.0) and not within_gate(3.5 * GATE, 2.0)
    assert within_gate(Fraction(1, 10 ** 11))
    assert within_gate(0, np.float64(1.0))
    for value, scale in ((math.nan, 0.0), (math.inf, 0.0), (0.0, math.inf),
                         (0.0, math.nan), (Fraction(10 ** 400), 0.0),
                         (0.0, 10 ** 400)):
        assert not within_gate(value, scale)


@pytest.mark.parametrize("tol", [None, 0.0])
def test_float_products_that_overflow_raise(tol):
    cfg = AlgebraConfig(generator_count=2, coefficient_mode="float64",
                        zero_tolerance=tol)
    big = cfg.scalar(1e200)
    with pytest.raises(CoefficientOverflow):
        big * big
    # each term product is finite, but their sum is not
    x, one = cfg.scalar(1.5e308), cfg.one()
    with pytest.raises(CoefficientOverflow):
        SuperMatrix(cfg, (1, 1), [[x, x], [x, x]]) @ \
            SuperMatrix(cfg, (1, 1), [[one, one], [one, one]])
    assert issubclass(CoefficientOverflow, NumericalGateError)


@pytest.mark.parametrize("tol", [None, 0.0])
def test_float_sums_that_overflow_raise(tol):
    cfg = AlgebraConfig(generator_count=2, coefficient_mode="float64",
                        zero_tolerance=tol)
    big, one = cfg.scalar(1e308), cfg.one()
    # a kept inf would make the next prune cut inf and drop every term
    with pytest.raises(CoefficientOverflow):
        big + big
    with pytest.raises(CoefficientOverflow):
        big - (-big)
    M = SuperMatrix(cfg, (1, 0), [[big]])
    with pytest.raises(CoefficientOverflow):
        M + M + M
    # an infinite operand term
    with pytest.raises(CoefficientOverflow):
        Supernumber(cfg, {0: math.inf}) + one
    assert (big + (-big)).is_zero() and (big + one).body() == 1e308


def _isometry_check(tmp_path, capsys, mode):
    payload = {
        "algebra": {"generator_count": 2, "coefficient_mode": mode},
        "gamma": {"eta": [1, 1], "n": 0},
        "N": {"shape": {"m": 2, "n": 0}, "parity": "even",
              "entries": [1e160, 0, 0, 1e160]},
    }
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(payload))
    code = main(["isometry-check", str(path)])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_isometry_check_overflow_exits_3(tmp_path, capsys):
    code, out, err = _isometry_check(tmp_path, capsys, "float64")
    assert code == 3 and out == ""
    blob = json.loads(err)
    assert blob["exit_code"] == 3 and blob["kind"] == "CoefficientOverflow"


def test_rational_residual_past_float_range_is_no_isometry(tmp_path,
                                                           capsys):
    code, out, err = _isometry_check(tmp_path, capsys, "rational")
    report = json.loads(out)
    assert code == 0 and err == "" and report["isometry"] is False
    # the wire reads 1e160 as the exact decimal 10^160
    assert Fraction(report["residual"]) == 10 ** 320 - 1


def test_numpy_integers_stay_exact_in_rational_mode():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = RAT.scalar(np.int64(2 ** 40))
        assert x * x == RAT.scalar(2 ** 80)
        assert type(x.body().numerator) is int
        rows = np.array([[2 ** 40, 0], [0, 1]], dtype=np.int64)
        M = SuperMatrix.from_real(RAT, rows, (2, 0), "even")
        assert (M @ M).rows[0][0] == RAT.scalar(2 ** 80)


def test_conjugate_action_takes_an_integer_ndarray():
    basis = basis_for(RAT, 1, 1, 2)
    Y = random_nil(make_rng(3), basis, terms=2)
    # a symplectic shear of the odd block, whose conjugation multiplies
    # entries by 2^80, past int64
    g = np.eye(4, dtype=np.int64)
    g[2, 3] = 2 ** 40
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = conjugate_action(g, Y)
    assert got.X == conjugate_action(g.tolist(), Y).X


@pytest.mark.parametrize("mode", ["rational", "float64"])
def test_isometry_residual_decides_is_isometry(mode):
    cfg = AlgebraConfig(generator_count=3, coefficient_mode=mode)
    basis = basis_for(cfg, 1, 1, 2)
    N = embed_isometry(random_group_element(make_rng(4), basis))
    resid, scale = isometry_residual(N, basis.gamma)
    assert is_isometry(N, basis.gamma) and within_gate(resid, scale)
    if cfg.rational:
        assert resid == 0
    bent = N + SuperMatrix.identity(cfg, N.shape)
    resid, scale = isometry_residual(bent, basis.gamma)
    assert not within_gate(resid, scale)
    assert not is_isometry(bent, basis.gamma)


@pytest.mark.parametrize("mode", ["rational", "float64"])
def test_metric_whose_norm_passes_the_float_range_canonicalizes(
        tmp_path, capsys, mode):
    # d = 1e308 (1 + z1 z2): each coefficient is finite, its l1 norm is not
    payload = {
        "algebra": {"generator_count": 2, "coefficient_mode": mode},
        "metric": {"shape": {"m": 1, "n": 0}, "parity": "even",
                   "entries": [[{"index": [], "coeff": 1e308},
                                {"index": [1, 2], "coeff": 1e308}]]},
    }
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(payload))
    code = main(["canonicalize", str(path)])
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert code == 0 and out.err == ""
    assert report["eta"] == [1] and float(Fraction(report["residual"])) == 0
