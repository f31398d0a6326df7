"""JSON encoding of algebra values.

Wire forms:

    supernumber   [{"index": [1, 3], "coeff": -2.5}, ...]   increasing indices
    matrix        {"shape": {"m": 1, "n": 2}, "parity": "even",
                   "entries": [supernumber, ...]}           flat, row-major
    gamma         {"eta": [1, -1, ...], "n": 2}             entries may also be
                                                            supernumber lists
    group element {"g_body": [[...], ...], "n_part": matrix}

Rational coefficients are written as exact fraction strings ("3/5"); parsing
accepts numbers, fraction strings, and (in rational mode) decimal literals
read back digit-for-digit.  Dumps are deterministic: sorted keys, fixed
separators, no environment-dependent content.

`dumps(obj)` returns exactly the text of
`json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=2) + "\\n"`,
errors included.  Python's encoder is written in C only for compact output;
with `indent` set it falls back to a generator in pure Python.  So `dumps`
writes the indented text itself, in one recursive pass that knows the
nesting depth of every value: dicts with str keys (sorted), lists and
tuples are written at their depth, strings by the C string encoder, ints
and finite floats by their `repr`, non-finite floats and the literals by
JSON's names.  Any other value (another type, a dict subclass, a dict with
a non-str key) is written by `json.dumps(indent=2)` and moved to its depth,
so json writes it or raises its own error; a tree too deep to recurse into,
a circular one included, is handed to json whole.

A report of the CLI also holds `Fragment`s: an algebra value with the
writer of its own indented text at a given depth.  Each value writes its
text once, straight from its terms: a supernumber as `{"coeff": c,
"index": [i, j]}` records with `repr` floats (a non-finite one under its
JSON name) or "p/q" strings reduced from the integer form of a rational
value (one gcd a term, no `Fraction` built), and matrices, Γ, group
elements and the lie-basis tags as joins of those texts.  The index lists
come from one table per report, filled as (depth, bit mask) pairs are met.
`supernumber_to_json` and the other tree writers parse these same texts,
so one hand-written encoder serves the trees of payload writers and the
reports alike.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _string
from math import gcd, isfinite

from .algebra import AlgebraConfig, Supernumber, _bits_to_indices
from .errors import LengthMismatch, ShapeMismatch, ValidationError
from .isometry import GammaForm
from .matrices import BlockShape, SuperMatrix

_LITERALS = {None: "null", True: "true", False: "false"}


class Fragment:
    """A report value that writes its own JSON text:
    `write(value, depth, index)`, with `depth` the nesting depth of the
    value and `index` the report's `_IndexText`."""

    __slots__ = ("write", "value")

    def __init__(self, write, value):
        self.write = write
        self.value = value


class _IndexText(dict):
    """(depth, bit mask) -> text of its index list at that depth
    ("[\\n  1,\\n  3\\n]" at depth 0), made the first time the pair is
    met; one table serves one report."""

    def __missing__(self, key):
        depth, bits = key
        text = self[key] = _block(list(map(str, _bits_to_indices(bits))),
                                  depth)
        return text


def _newline(depth: int) -> str:
    """A line break to `depth` levels of two-space indent."""
    return "\n" + "  " * depth


def dumps(obj) -> str:
    """The report text: sorted keys, two-space indent, a final newline."""
    try:
        text = _text(obj, 0, _IndexText())
    except RecursionError:
        # circular or nested past the recursion limit: json names a cycle
        # or writes the tree, as it does on its own
        text = _json_text(obj, 0)
    return text + "\n"


def _text(obj, depth, index) -> str:
    """The indented text of `obj` at nesting depth `depth`."""
    kind = type(obj)
    if kind is str:
        return _string(obj)
    if kind is float:
        return _float(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is dict:
        if all(type(k) is str for k in obj):
            return _block([_string(k) + ": " + _text(obj[k], depth + 1, index)
                           for k in sorted(obj)], depth, "{}")
    elif kind is list or kind is tuple:
        return _block([_text(v, depth + 1, index) for v in obj], depth)
    elif kind is Fragment:
        return obj.write(obj.value, depth, index)
    elif obj is None or kind is bool:
        return _LITERALS[obj]
    # what json writes in its own way, or refuses with its own error
    return _json_text(obj, depth)


def _json_text(obj, depth) -> str:
    """json's own indented text of `obj`, moved to `depth`: every newline
    in it is a line break, since json escapes those in strings."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      indent=2).replace("\n", _newline(depth))


def _block(items: list, depth, brackets="[]") -> str:
    """The item texts, written at depth + 1, inside the brackets of a value
    at `depth`; with no items, the brackets alone."""
    if not items:
        return brackets
    line = _newline(depth + 1)
    return brackets[0] + line + ("," + line).join(items) + line[:-2] \
        + brackets[1]


def _float(x: float) -> str:
    """A float as JSON writes it, a non-finite one under JSON's name."""
    if isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# -- scalars ---------------------------------------------------------------------

# past Python's limit on the digits of an int-to-text conversion
_TOO_MANY_DIGITS = "a rational coefficient has too many digits to write"


def scalar_to_json(value, config: AlgebraConfig):
    if config.rational:
        value = Fraction(value)
        try:
            return str(value)
        except ValueError:
            raise ValidationError(_TOO_MANY_DIGITS) from None
    return float(value)


def scalar_from_json(value, config: AlgebraConfig):
    """Parse one coefficient; NaN, infinities and values beyond the float64
    range are rejected rather than carried into the arithmetic, in both
    modes."""
    if isinstance(value, str):
        try:
            exact = _parse_fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"unparseable coefficient {value!r}")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"coefficient must be a number, got {value!r}")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"coefficient must be finite, got {value!r}")
    else:
        # route through the decimal text so "0.1" means 1/10
        exact = Fraction(str(value)) if config.rational else value
    if abs(exact) > _FLOAT_MAX:
        raise ValidationError("coefficient exceeds the float64 range")
    return exact if config.rational else float(exact)


# a decimal literal with an exponent, in the grammar that Fraction reads
_EXPONENT_FORM = re.compile(
    r"\s*(?P<mantissa>[-+]?(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?)"
    r"[eE](?P<exp>[-+]?\d+(?:_\d+)*)\s*\Z")
_FLOAT_MAX = sys.float_info.max
_FLOAT_MIN = math.ulp(0.0)      # the smallest positive (subnormal) float64
_LOG10_2 = math.log10(2)


def _parse_fraction(text: str) -> Fraction:
    """The exact value of a coefficient string.

    Fraction(text) builds 10^|e| for an exponent e, a cost that the payload
    size does not bound, so the exponent is read first.  A nonzero value
    written with an exponent must lie in float64's range, from the smallest
    subnormal up to the largest finite value in magnitude; one whose decimal
    exponent is far outside is refused before it is built.  Other forms
    (integers, "p/q", plain decimals) cost what their text costs.
    """
    form = _EXPONENT_FORM.match(text)
    if form is None:
        return Fraction(text)
    mantissa = Fraction(form["mantissa"])
    if mantissa == 0:
        return mantissa
    exp = int(form["exp"])
    # log10 |mantissa|, to within one
    lead = (abs(mantissa.numerator).bit_length()
            - mantissa.denominator.bit_length()) * _LOG10_2
    if not -330 < lead + exp < 315:
        raise ValidationError(
            f"coefficient {text!r} is outside the float64 range")
    exact = mantissa * Fraction(10) ** exp
    if abs(exact) < _FLOAT_MIN:
        raise ValidationError(
            f"coefficient {text!r} is below the float64 range")
    return exact


# -- supernumbers -----------------------------------------------------------------

def supernumber_to_json(z: Supernumber) -> list:
    return json.loads(supernumber_text(z, 0, _IndexText()))


def supernumber_text(z: Supernumber, depth, index) -> str:
    """Text of the term list at `depth`, `index` an `_IndexText`."""
    write = _rational_text if z.config.rational else _float_text
    return write(z, depth, index)


def _float_text(z: Supernumber, depth, index) -> str:
    terms = z.terms
    if not terms:
        return "[]"
    values = list(map(float, terms.values()))
    coeffs = map(float.__repr__ if all(map(isfinite, values)) else _float,
                 values)
    return _term_list(coeffs, terms, depth, index)


def _rational_text(z: Supernumber, depth, index) -> str:
    """From the integer form (D, ((bits, N), ...)), each N / D reduced with
    one gcd, as str(Fraction(N, D)) writes it."""
    if z.is_zero():
        return "[]"
    den, items = z._int_form or z._integer_form()
    coeffs = []
    try:
        for _, n in items:
            g = gcd(n, den)
            coeffs.append(f'"{n // g}"' if g == den else
                          f'"{n // g}/{den // g}"')
    except ValueError:
        raise ValidationError(_TOO_MANY_DIGITS) from None
    return _term_list(coeffs, [b for b, _ in items], depth, index)


def _term_list(coeffs, masks, depth, index) -> str:
    """The {"coeff", "index"} records of a term list at `depth`."""
    inner = _newline(depth + 2)
    term = "{" + inner + '"coeff": %s,' + inner + '"index": %s' \
        + inner[:-2] + "}"
    indices = map(index.__getitem__, zip(repeat(depth + 2), masks))
    return _block(list(map(term.__mod__, zip(coeffs, indices))), depth)


def supernumber_from_json(data, config: AlgebraConfig) -> Supernumber:
    if isinstance(data, (int, float, str)) and not isinstance(data, bool):
        return config.scalar(scalar_from_json(data, config))
    if not isinstance(data, list):
        raise ValidationError("supernumber must be a list of terms")
    pairs = []
    for item in data:
        if not isinstance(item, dict) or set(item) != {"index", "coeff"}:
            raise ValidationError(
                "each term needs exactly the keys 'index' and 'coeff'")
        index = item["index"]
        if not isinstance(index, list) or any(
                not isinstance(i, int) or isinstance(i, bool) for i in index):
            raise ValidationError("'index' must be a list of integers")
        if any(i < 1 or i > config.generator_count for i in index):
            raise ValidationError(
                f"generator indices must lie in 1..{config.generator_count}")
        if any(b <= a for a, b in zip(index, index[1:])):
            raise ValidationError("'index' must be strictly increasing")
        key = 0
        for i in index:
            key |= 1 << (i - 1)
        pairs.append((key, scalar_from_json(item["coeff"], config)))
    if len({k for k, _ in pairs}) != len(pairs):
        raise ValidationError("duplicate multi-index in supernumber")
    return config.from_terms(dict(pairs))


# -- matrices --------------------------------------------------------------------

def matrix_to_json(M: SuperMatrix) -> dict:
    return json.loads(matrix_text(M, 0, _IndexText()))


def matrix_text(M: SuperMatrix, depth, index) -> str:
    write = _rational_text if M.config.rational else _float_text
    entries = _block([write(e, depth + 2, index)
                      for row in M.rows for e in row], depth + 1)
    shape = _text({"m": M.shape.m, "n": M.shape.n}, depth + 1, index)
    return _block(['"entries": ' + entries,
                   '"parity": ' + _string(M.parity_class),
                   '"shape": ' + shape], depth, "{}")


def matrix_from_json(data, config: AlgebraConfig) -> SuperMatrix:
    if not isinstance(data, dict):
        raise ValidationError("matrix must be a JSON object")
    try:
        shape = data["shape"]
        m, n = shape["m"], shape["n"]
        parity = data["parity"]
        entries = data["entries"]
    except (KeyError, TypeError):
        raise ValidationError(
            "matrix needs 'shape' {m, n}, 'parity' and 'entries'")
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (m, n)):
        raise ShapeMismatch("block sizes must be integers")
    if m < 0 or n < 0:
        raise ShapeMismatch("block sizes must be non-negative")
    k = m + n
    if not isinstance(entries, list) or len(entries) != k * k:
        raise LengthMismatch(
            f"expected {k * k} row-major entries, got "
            f"{len(entries) if isinstance(entries, list) else 'non-list'}")
    flat = [supernumber_from_json(e, config) for e in entries]
    rows = [flat[i * k:(i + 1) * k] for i in range(k)]
    return SuperMatrix(config, BlockShape(m, n), rows, parity)


# -- canonical forms ---------------------------------------------------------------

def gamma_to_json(gamma: GammaForm) -> dict:
    return json.loads(gamma_text(gamma, 0, _IndexText()))


def gamma_text(gamma: GammaForm, depth, index) -> str:
    """A soulless eta entry is written as its body scalar."""
    eta = [scalar_to_json(e.body(), gamma.config) if e.soul().is_zero()
           else Fragment(supernumber_text, e) for e in gamma.eta]
    return _text({"eta": eta, "n": gamma.n}, depth, index)


def gamma_from_json(data, config: AlgebraConfig) -> GammaForm:
    if not isinstance(data, dict) or "eta" not in data or "n" not in data:
        raise ValidationError("gamma needs 'eta' and 'n'")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError("'n' must be a non-negative integer")
    if not isinstance(data["eta"], list):
        raise ValidationError("'eta' must be a list of supernumbers")
    eta = [supernumber_from_json(e, config) for e in data["eta"]]
    return GammaForm(config, tuple(eta), n)


# -- group elements ----------------------------------------------------------------

def group_element_to_json(h) -> dict:
    return json.loads(group_element_text(h, 0, _IndexText()))


def group_element_text(h, depth, index) -> str:
    cfg = h.gamma.config
    body = [[scalar_to_json(v, cfg) for v in row] for row in h.g_body]
    return _text({"g_body": body,
                  "n_part": Fragment(matrix_text, h.n_part.X)}, depth, index)


# -- lie-basis tags ----------------------------------------------------------------

def tags_text(tags, depth, index) -> str:
    """The hJ records [{"index": [...], "position": pos}, ...] of a
    `LieBasis`'s (bits, pos) tags at `depth`, from one record head per
    mask."""
    inner = _newline(depth + 2)
    heads = {bits: "{" + inner + '"index": ' + index[depth + 2, bits] + ","
             + inner + '"position": '
             for bits in dict.fromkeys([bits for bits, _ in tags])}
    tail = inner[:-2] + "}"
    return _block([heads[bits] + str(pos) + tail for bits, pos in tags],
                  depth)


def group_parts_from_json(data, config: AlgebraConfig):
    """The body rows and the matrix X of a group element, parsed only: a
    caller weighs them before `GroupElement` and `NilElement` check them,
    since the membership check of X is itself a product."""
    if not isinstance(data, dict) or "g_body" not in data \
            or "n_part" not in data:
        raise ValidationError("group element needs 'g_body' and 'n_part'")
    body = data["g_body"]
    if not isinstance(body, list) or any(not isinstance(r, list)
                                         for r in body):
        raise ValidationError("'g_body' must be a matrix of numbers")
    rows = tuple([tuple([scalar_from_json(v, config) for v in r])
                  for r in body])
    return rows, matrix_from_json(data["n_part"], config)


def group_element_from_json(data, gamma: GammaForm):
    """A group element from its wire form, parsed and checked in one call."""
    from .group import GroupElement, NilElement

    rows, X = group_parts_from_json(data, gamma.config)
    return GroupElement(rows, NilElement(X, gamma))
