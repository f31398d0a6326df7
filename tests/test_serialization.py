"""Wire-format round trips and validation failures."""

import json
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supermetric import cli
from supermetric.algebra import AlgebraConfig, _IntegerBorn
from supermetric.errors import LengthMismatch, ShapeMismatch, ValidationError
from supermetric.isometry import GammaForm
from supermetric.sampling import (
    basis_for,
    make_rng,
    rand_homogeneous,
    random_group_element,
    standard_gamma,
)
from supermetric.serialization import (
    _IndexText,
    _slot_dtype,
    dumps,
    gamma_from_json,
    gamma_to_json,
    group_element_from_json,
    group_element_to_json,
    matrix_from_json,
    matrix_to_json,
    scalar_from_json,
    scalar_to_json,
    supernumber_from_json,
    supernumber_text,
    supernumber_to_json,
)

RAT = AlgebraConfig(generator_count=4, coefficient_mode="rational")
FLT = AlgebraConfig(generator_count=4, coefficient_mode="float64")


def test_scalar_wire_forms():
    assert scalar_to_json(Fraction(3, 5), RAT) == "3/5"
    assert scalar_to_json(2, RAT) == "2"
    assert scalar_to_json(2.5, FLT) == 2.5
    assert scalar_from_json("3/5", RAT) == Fraction(3, 5)
    assert scalar_from_json("3/5", FLT) == 0.6
    # decimal text reads digit for digit in rational mode
    assert scalar_from_json(0.1, RAT) == Fraction(1, 10)
    assert scalar_from_json("0.1", RAT) == Fraction(1, 10)
    with pytest.raises(ValidationError):
        scalar_from_json(True, RAT)
    with pytest.raises(ValidationError):
        scalar_from_json("3//5", RAT)
    with pytest.raises(ValidationError):
        scalar_from_json("1/0", RAT)
    with pytest.raises(ValidationError):
        scalar_from_json(None, FLT)


def test_scalar_past_the_int_text_limit_is_a_validation_error(monkeypatch,
                                                              tmp_path,
                                                              capsys):
    # built from ints, so no digits are parsed; writing it needs more digits
    # than Python converts from int to text
    huge = 10 ** (sys.get_int_max_str_digits() or 4300)
    for value in (Fraction(1, huge), Fraction(huge + 1, 3)):
        with pytest.raises(ValidationError, match="too many digits"):
            scalar_to_json(value, RAT)
    # the CLI turns it into exit 2 with the flat JSON error object
    monkeypatch.setitem(cli._COMMANDS, "lie-basis", lambda args: {
        "residual": scalar_to_json(Fraction(1, huge), RAT)})
    path = tmp_path / "basis.json"
    path.write_text("{}")
    assert cli.main(["lie-basis", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {
        "error": "a rational coefficient has too many digits to write",
        "kind": "ValidationError", "exit_code": 2}


def test_scalar_rejects_non_finite():
    for cfg in (RAT, FLT):
        for value in (float("inf"), float("-inf"), float("nan"), "inf",
                      "nan"):
            with pytest.raises(ValidationError):
                scalar_from_json(value, cfg)
    # beyond the float64 range in both modes, though exact in rational
    for cfg in (RAT, FLT):
        for value in ("1e400", 10 ** 400, "-" + "9" * 400, "1.8e308"):
            with pytest.raises(ValidationError, match="float64 range"):
                scalar_from_json(value, cfg)


def test_scalar_reads_the_exponent_before_the_value():
    # 10^|e| would take minutes to build; the exponent alone refuses it
    for cfg in (RAT, FLT):
        for value in ("1e999999999", "-2.5E-999999999", "1e-400",
                      "4.9e-324"):
            with pytest.raises(ValidationError, match="float64 range"):
                scalar_from_json(value, cfg)
        # zero with any exponent is zero
        assert scalar_from_json("0.0e999999999", cfg) == 0
    # in range, the value is exact and as Fraction reads it
    for text in ("1.7e308", "-5e-324", " 1_0.5e-3 ", ".5E1", "1.e2"):
        assert scalar_from_json(text, RAT) == Fraction(text)
        assert scalar_from_json(text, FLT) == float(Fraction(text))
    for text in ("1/2e3", "e5", "1e5e5", "1 e5", "1e"):
        with pytest.raises(ValidationError, match="unparseable"):
            scalar_from_json(text, RAT)
    # a long-hand fraction costs what its text costs, however small
    tiny = "1/1" + "0" * 1000
    assert scalar_from_json(tiny, RAT) == Fraction(1, 10 ** 1000)
    assert scalar_from_json(tiny, FLT) == 0.0


def test_supernumber_round_trip_exact():
    z = RAT.scalar(Fraction(-7, 3)) + RAT.term([1, 3], Fraction(2, 9)) \
        + RAT.term([1, 2, 3, 4], 5)
    data = supernumber_to_json(z)
    assert supernumber_from_json(data, RAT) == z
    # terms arrive ordered by multi-index
    masks = [sum(1 << (i - 1) for i in t["index"]) for t in data]
    assert masks == sorted(masks)
    # float mode carries plain numbers
    zf = FLT.scalar(0.5) + FLT.term([2], -1.25)
    dataf = supernumber_to_json(zf)
    assert all(isinstance(t["coeff"], float) for t in dataf)
    assert supernumber_from_json(dataf, FLT) == zf


def test_supernumber_random_round_trips():
    rng = make_rng(99)
    for cfg in (RAT, FLT):
        for parity in ("even", "odd"):
            for _ in range(10):
                z = rand_homogeneous(rng, cfg, parity)
                assert supernumber_from_json(
                    supernumber_to_json(z), cfg) == z


_FLOAT_COEFFS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([1e16, 1e-05, 5e-324, -1.5, -0.0, float("inf")]))
_BIG = 10 ** 40
_FRACTIONS = st.one_of(st.fractions(), st.builds(
    Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)))


@st.composite
def _supernumbers(draw):
    """A value of either mode over up to 24 generators, the empty one
    included; rational values are drawn built from a dict or born in the
    kernel (a product with a scalar of large denominator)."""
    L = draw(st.integers(1, 24))
    rational = draw(st.booleans())
    cfg = AlgebraConfig(generator_count=L, coefficient_mode="rational"
                        if rational else "float64")
    coeffs = _FRACTIONS if rational else _FLOAT_COEFFS
    terms = draw(st.dictionaries(st.integers(0, (1 << L) - 1), coeffs,
                                 max_size=6))
    z = cfg.from_terms(terms)
    if rational and not z.is_zero() and draw(st.booleans()):
        z = z * cfg.scalar(Fraction(draw(st.integers(1, _BIG)),
                                    draw(st.integers(1, _BIG))))
        assert isinstance(z, _IntegerBorn)
    return z


@settings(max_examples=300, deadline=None)
@given(z=_supernumbers())
def test_supernumber_text_is_the_compact_json_of_its_tree(z):
    text = supernumber_text(z, _IndexText())
    tree = supernumber_to_json(z)
    assert text == json.dumps(tree, sort_keys=True, separators=(",", ": "))
    if isinstance(z, _IntegerBorn):
        # written from the integer form, without its Fractions
        assert z._terms is None
    rational = z.config.rational
    assert tree == [{"index": list(indices),
                     "coeff": str(c) if rational else float(c)}
                    for indices, c in z.items()]


def test_supernumber_accepts_bare_scalars():
    assert supernumber_from_json(3, RAT) == RAT.scalar(3)
    assert supernumber_from_json("1/2", RAT) == RAT.scalar(Fraction(1, 2))
    assert supernumber_from_json(0.25, FLT) == FLT.scalar(0.25)


def test_supernumber_validation():
    with pytest.raises(ValidationError):
        supernumber_from_json({"index": [1], "coeff": 1}, RAT)
    with pytest.raises(ValidationError):
        supernumber_from_json([{"index": [1]}], RAT)
    with pytest.raises(ValidationError):
        supernumber_from_json([{"index": [1], "coeff": 1, "x": 0}], RAT)
    with pytest.raises(ValidationError):
        supernumber_from_json([{"index": [2, 1], "coeff": 1}], RAT)
    with pytest.raises(ValidationError):
        supernumber_from_json([{"index": [0], "coeff": 1}], RAT)
    with pytest.raises(ValidationError):
        supernumber_from_json([{"index": [5], "coeff": 1}], RAT)
    with pytest.raises(ValidationError):
        supernumber_from_json([{"index": [1, 1], "coeff": 1}], RAT)
    with pytest.raises(ValidationError):
        supernumber_from_json([{"index": [True], "coeff": 1}], RAT)
    dup = [{"index": [1], "coeff": 1}, {"index": [1], "coeff": 2}]
    with pytest.raises(ValidationError):
        supernumber_from_json(dup, RAT)


def test_matrix_round_trip():
    rng = make_rng(7)
    basis = basis_for(RAT, 1, 1, 2)
    from supermetric.sampling import random_member
    M = random_member(rng, basis, terms=4)
    data = matrix_to_json(M)
    assert data["shape"] == {"m": 2, "n": 2}
    assert data["parity"] == "even"
    assert len(data["entries"]) == 16
    back = matrix_from_json(data, RAT)
    assert (back - M).entry_norm_max() == 0
    assert back.parity_class == M.parity_class


def test_matrix_validation():
    with pytest.raises(ValidationError):
        matrix_from_json([], RAT)
    with pytest.raises(ValidationError):
        matrix_from_json({"shape": {"m": 1}, "parity": "even",
                          "entries": []}, RAT)
    with pytest.raises(LengthMismatch):
        matrix_from_json({"shape": {"m": 1, "n": 0}, "parity": "even",
                          "entries": []}, RAT)
    with pytest.raises(ShapeMismatch):
        matrix_from_json({"shape": {"m": -1, "n": 0}, "parity": "even",
                          "entries": []}, RAT)
    # block sizes are integers, not values that int() turns into one
    for m in (1.5, True, "1", 1.0, None):
        with pytest.raises(ShapeMismatch, match="integers"):
            matrix_from_json({"shape": {"m": m, "n": 0}, "parity": "even",
                              "entries": [1]}, RAT)


def test_gamma_round_trip_reduced_and_not():
    g = standard_gamma(RAT, 2, 1, 2)
    data = gamma_to_json(g)
    assert data == {"eta": ["1", "1", "-1"], "n": 2}
    back = gamma_from_json(data, RAT)
    assert back == g
    # eta entries with souls serialize as term lists
    e = RAT.one() + RAT.term([1, 2], Fraction(1, 3))
    g2 = GammaForm(RAT, (e,), 2)
    data2 = gamma_to_json(g2)
    assert isinstance(data2["eta"][0], list)
    assert gamma_from_json(data2, RAT) == g2


def test_gamma_validation():
    with pytest.raises(ValidationError):
        gamma_from_json({"eta": [1]}, RAT)
    with pytest.raises(ValidationError):
        gamma_from_json({"eta": [1], "n": True}, RAT)
    with pytest.raises(ValidationError):
        gamma_from_json({"eta": [1], "n": -2}, RAT)
    for eta in (1, "11", {"1": 1}):
        with pytest.raises(ValidationError, match="'eta' must be a list"):
            gamma_from_json({"eta": eta, "n": 2}, RAT)


def test_group_element_round_trip():
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 1, 1, 2)
        rng = make_rng(3)
        h = random_group_element(rng, basis)
        data = group_element_to_json(h)
        back = group_element_from_json(data, basis.gamma)
        assert back.g_body == h.g_body
        assert (back.n_part.X - h.n_part.X).entry_norm_max() == 0


def test_group_element_validation():
    gamma = standard_gamma(RAT, 1, 1, 2)
    with pytest.raises(ValidationError):
        group_element_from_json({"g_body": [[1]]}, gamma)
    with pytest.raises(ValidationError):
        group_element_from_json({"g_body": 3, "n_part": {}}, gamma)


def test_dumps_deterministic():
    payload_a = {"b": [1, 2], "a": {"y": "1/2", "x": 0.5}}
    payload_b = {"a": {"x": 0.5, "y": "1/2"}, "b": [1, 2]}
    sa, sb = dumps(payload_a), dumps(payload_b)
    assert sa == sb
    assert sa.endswith("\n")
    assert json.loads(sa) == payload_a
    # key order in the text itself is sorted
    assert sa.index('"a"') < sa.index('"b"')


def _indented(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      indent=2) + "\n"


# text that stresses the string masking: quotes, backslashes, the
# structural characters, control characters and non-ASCII text
_TEXT = st.text(st.one_of(st.sampled_from('"\\[]{},: \x00\x1f\t\n\ud800'),
                          st.characters()), max_size=8)
_SCALARS = st.one_of(
    st.none(), st.booleans(), _TEXT,
    st.integers(), st.sampled_from([10 ** 40, -(2 ** 70)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e-05, 1e16, float("nan"), float("-inf")]))
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(obj=_TREES)
def test_dumps_equals_indented_json(obj):
    assert dumps(obj) == _indented(obj)


def test_dumps_edge_trees():
    for obj in (0, "x", "[{,}]", "\\", '\\"', [], {}, [[]], [[], {}, [{}]],
                {"a": {"b": []}, "c": [{}, 1]}, {"\"[": ["\\", "]\\\"", ","]},
                {"\u00e9\u4e2d\U0001f600": "\x00\x1f\ud800"},
                {1: 2, 2.5: 3, 7: None}):
        assert dumps(obj) == _indented(obj), obj


def test_dumps_raises_as_json_does():
    circular = []
    circular.append(circular)
    looped = {}
    looped["self"] = looped
    for obj in ([object()], {"a": {1, 2}}, {(1,): 2}, {1: 2, "a": 3},
                circular, looped, [float("nan"), Fraction(1, 2)]):
        with pytest.raises((TypeError, ValueError)) as want:
            _indented(obj)
        with pytest.raises(want.type) as got:
            dumps(obj)
        assert str(got.value) == str(want.value), obj


def test_dumps_allocates_less_than_indented_json():
    # the largest lie-basis report of the benchmark mix: (4|4) at L=8
    cfg = AlgebraConfig(generator_count=8, coefficient_mode="rational")
    basis = basis_for(cfg, 2, 2, 4)
    report = {
        "gamma": gamma_to_json(basis.gamma),
        "g0": [matrix_to_json(M) for M in basis.g0],
        "g1": [matrix_to_json(M) for M in basis.g1],
        "hJ": [{"index": [i + 1 for i in range(bits.bit_length())
                          if bits >> i & 1], "position": pos}
               for bits, pos in basis.hJ],
    }
    assert len(basis.hJ) == 4096
    peaks = []
    for encode in (dumps, _indented):
        encode(report)
        tracemalloc.start()
        try:
            text = encode(report)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(text) > 400_000
    assert peaks[0] <= peaks[1], peaks


def test_slot_dtype_follows_the_output_length():
    int32_max = np.iinfo(np.int32).max
    # slots run from 0 to length - 1
    assert _slot_dtype(1) is np.int32
    assert _slot_dtype(int32_max) is np.int32
    assert _slot_dtype(int32_max + 1) is np.int64
    assert _slot_dtype(3 << 31) is np.int64
