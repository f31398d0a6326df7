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
errors included, but makes it in two steps.  Python's encoder is written in
C only for compact output; with `indent` set it falls back to a generator
in pure Python.  So it first writes the compact text with the same
settings, and one vectorized numpy pass re-indents it: every bracket
and comma outside a string gets a newline and two spaces per nesting level
after it (openers, commas) or before it (closers), and an empty `[]` or
`{}` stays as it is.

The compact text of a plain tree comes from one C-encoder call.  A report
of the CLI also holds `Fragment`s among its top-level values: an algebra
value with the writer of its own compact text.  `dumps` then joins the
report's dicts and lists itself, keys sorted, and every other value still
goes through the C encoder; the fragments write themselves there, when the
report is written.  Each value writes its text once, straight from its
terms: a supernumber as `{"coeff": c,"index": [i,j]}` items with `repr`
floats (a non-finite one by the C encoder, which names it as JSON does) or
"p/q" strings reduced from the integer form of a rational value (one gcd
a term, no `Fraction` built), and matrices, Γ, group elements and the
lie-basis tags as joins of those texts.  The index lists come from one
table per report, filled as bit masks are met.  `supernumber_to_json` and
the other tree writers parse these same texts, so one hand-written encoder
serves the trees of payload writers and the reports alike.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from math import gcd, isfinite

import numpy as np

from .algebra import AlgebraConfig, Supernumber, _bits_to_indices
from .errors import LengthMismatch, ShapeMismatch, ValidationError
from .isometry import GammaForm
from .matrices import BlockShape, SuperMatrix

# byte classes of the compact text, for bytes.translate
_OPEN, _CLOSE, _COMMA, _QUOTE = 1, 2, 3, 4
_CLASS = bytes(dict(zip(b'[{]},"', (_OPEN, _OPEN, _CLOSE, _CLOSE, _COMMA,
                                    _QUOTE))).get(b, 0) for b in range(256))
_ESCAPE = re.compile(rb"\\.")
# the compact settings that dumps re-indents; ensure_ascii (the default)
# leaves only ASCII bytes
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ": "))


class Fragment:
    """A report value that writes its own compact JSON text:
    `write(value, index)`, with `index` the report's `_IndexText`."""

    __slots__ = ("write", "value")

    def __init__(self, write, value):
        self.write = write
        self.value = value


class _IndexText(dict):
    """Bit mask -> compact text of its index list ("[1,3]"), made the first
    time the mask is met; one table serves one report."""

    def __missing__(self, bits):
        text = self[bits] = f"[{','.join(map(str, _bits_to_indices(bits)))}]"
        return text


def dumps(obj) -> str:
    """The report text: sorted keys, two-space indent, a final newline."""
    if type(obj) is dict and any(type(v) is Fragment for v in obj.values()):
        text = _compact(obj, _IndexText())
    else:
        text = _COMPACT.encode(obj)
    raw = text.encode("ascii")
    out = _indent(raw, *_line_breaks(raw))
    return str(memoryview(out), "ascii")


def _compact(obj, index) -> str:
    """Compact text of a report: its dicts and lists joined here, its
    fragments written by themselves, every other value by the C encoder."""
    if type(obj) is Fragment:
        return obj.write(obj.value, index)
    if type(obj) is dict:
        return "{" + ",".join([_COMPACT.encode(k) + ": "
                               + _compact(obj[k], index)
                               for k in sorted(obj)]) + "}"
    if type(obj) is list:
        return "[" + ",".join([_compact(v, index) for v in obj]) + "]"
    return _COMPACT.encode(obj)


def _line_breaks(raw: bytes):
    """Where the indented text breaks its lines, and how wide each break is.

    Returns (at, width): a newline and width - 1 spaces go in before raw
    byte at[k].  Every bracket or comma outside a string breaks the line to
    the nesting depth after it: after an opener or a comma, before a
    closer.  An empty [] or {} stays on its line.
    """
    # escape pairs are blanked so that an escaped quote is not a quote;
    # they are two bytes each, since \uXXXX keeps its hex digits
    plain = _ESCAPE.sub(b"__", raw) if b"\\" in raw else raw
    cls = np.frombuffer(plain.translate(_CLASS), np.uint8)
    pos = np.flatnonzero(cls != 0)
    kind = cls[pos]
    # a bracket or comma inside a string follows an odd number of quotes
    # (a uint8 count wraps at 256, which keeps its parity)
    quote = kind == _QUOTE
    outside = (np.cumsum(quote, dtype=np.uint8) & 1) == 0
    outside &= ~quote
    pos, kind = pos[outside], kind[outside]
    # an opener right before a closer is an empty [] or {}
    empty = np.flatnonzero((kind[:-1] == _OPEN) & (kind[1:] == _CLOSE)
                           & (pos[1:] == pos[:-1] + 1))
    if empty.size:
        keep = np.ones(pos.size, bool)
        keep[empty] = False
        keep[empty + 1] = False
        pos, kind = pos[keep], kind[keep]
    step = (kind == _OPEN).view(np.int8) - (kind == _CLOSE).view(np.int8)
    width = np.cumsum(step, dtype=np.int32)
    width *= 2
    width += 1
    return pos + (kind != _CLOSE), width


def _indent(raw: bytes, at, width):
    """The raw bytes with the line breaks put in, and a final newline."""
    total = len(raw) + int(width.sum(dtype=np.int64)) + 1
    # slot[i]: output position of raw byte i, from one in-place cumsum
    slot = np.ones(len(raw), _slot_dtype(total))
    slot[0] = 0
    slot[at] += width
    np.cumsum(slot, out=slot)
    out = np.full(total, ord(" "), np.uint8)
    out[slot] = np.frombuffer(raw, np.uint8)
    out[slot[at] - width] = ord("\n")
    out[-1] = ord("\n")
    return out


def _slot_dtype(length: int):
    """Narrowest integer type that indexes a text of `length` bytes."""
    return np.int32 if length <= np.iinfo(np.int32).max else np.int64


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
    return json.loads(supernumber_text(z, _IndexText()))


def supernumber_text(z: Supernumber, index) -> str:
    """Compact text of the term list, `index` an `_IndexText`."""
    write = _rational_text if z.config.rational else _float_text
    return write(z, index)


def _float_text(z: Supernumber, index) -> str:
    terms = z.terms
    if not terms:
        return "[]"
    values = list(map(float, terms.values()))
    if all(map(isfinite, values)):
        coeffs = map(float.__repr__, values)
    else:
        # JSON's names for them; no float's text holds a comma
        coeffs = _COMPACT.encode(values)[1:-1].split(",")
    return _term_list(coeffs, map(index.__getitem__, terms))


def _rational_text(z: Supernumber, index) -> str:
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
    return _term_list(coeffs, map(index.__getitem__, [b for b, _ in items]))


def _term_list(coeffs, indices) -> str:
    return "[" + ",".join(map(_TERM.__mod__, zip(coeffs, indices))) + "]"


_TERM = '{"coeff": %s,"index": %s}'


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
    return json.loads(matrix_text(M, _IndexText()))


def matrix_text(M: SuperMatrix, index) -> str:
    write = _rational_text if M.config.rational else _float_text
    entries = ",".join([write(e, index) for row in M.rows for e in row])
    return '{"entries": [%s],"parity": %s,"shape": %s}' % (
        entries, _COMPACT.encode(M.parity_class),
        _COMPACT.encode({"m": M.shape.m, "n": M.shape.n}))


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
    return json.loads(gamma_text(gamma, _IndexText()))


def gamma_text(gamma: GammaForm, index) -> str:
    """A soulless eta entry is written as its body scalar."""
    eta = [_COMPACT.encode(scalar_to_json(e.body(), gamma.config))
           if e.soul().is_zero() else supernumber_text(e, index)
           for e in gamma.eta]
    return '{"eta": [%s],"n": %s}' % (",".join(eta),
                                      _COMPACT.encode(gamma.n))


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
    return json.loads(group_element_text(h, _IndexText()))


def group_element_text(h, index) -> str:
    cfg = h.gamma.config
    body = [[scalar_to_json(v, cfg) for v in row] for row in h.g_body]
    return '{"g_body": %s,"n_part": %s}' % (
        _COMPACT.encode(body), matrix_text(h.n_part.X, index))


# -- lie-basis tags ----------------------------------------------------------------

def tags_text(tags, index) -> str:
    """The hJ records [{"index": [...], "position": pos}, ...] of a
    `LieBasis`'s (bits, pos) tags, from one record head per mask."""
    heads = {bits: '{"index": ' + index[bits] + ',"position": '
             for bits in dict.fromkeys([bits for bits, _ in tags])}
    return "[" + ",".join([heads[bits] + str(pos) + "}"
                           for bits, pos in tags]) + "]"


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
