"""Arithmetic in a finitely generated Grassmann algebra with the l1 norm.

A supernumber is a finite real linear combination of products of
anticommuting generators z(1), ..., z(L).  Each square-free product is
identified by the set of generator indices that appear in it, stored as an
L-bit mask; the empty set labels the constant term.  With the l1 norm
(sum of absolute coefficients) the algebra is a Banach algebra, and every
element with no constant term (a "soul") is nilpotent, so all the series
used here (Neumann inversion, binomial inverse square root) terminate
exactly at finite L.

Two coefficient modes are supported:

* ``float64`` for speed, with relative pruning of cancellation dust;
* ``rational`` (exact: integer numerators over one common denominator,
  read as ``Fraction`` coefficients), the oracle mode in which every
  identity is checked exactly.

Values are immutable; all operations are pure functions that iterate terms
in ascending bitmask order, so float64 results are bit-reproducible.

Every Grassmann product, alone or summed, is the loop of one kernel,
``sum_of_products``, which computes sum_t x_t * y_t over a sequence of pairs
into a single dict; the small float64 matrix products of ``matrices`` run
the same loop inline, entry by entry.  The sign of z(I) z(J) for disjoint
I, J is the parity of popcount(I & mask(J)), where mask(J) marks the
generator positions with an odd number of J's indices below them (the idea
of a per-blade sign table, as in the precomputed multiplication tables of
pygae/clifford, https://github.com/pygae/clifford); ``_sign_mask`` forms it
from J's bits by five shifts, on one bitmask here and on an array of them in
the batched float64 matrix product of ``matrices``, one rule for both.  The
first time a value is the right operand of the kernel's loop it builds its
right-operand table, each term with its sign mask (in float64 also with its
negated coefficient), and keeps it, so a k x k matrix product made entry by
entry, which uses each right entry k times, builds it once.
Exactness rule: a rational value is an integer form, one common denominator
D and an integer numerator per term, every coefficient N / D with D the lcm
of the coefficients' denominators.  The kernel adds every term product as an
integer straight into an accumulator over one common denominator; a pair
whose D_x * D_y differs from it rescales the accumulator once, to their lcm.
Integer sums are exact in any order, so the result is the accumulator's
nonzero numerators with one gcd divided out.  Values the kernel returns,
every sum, and the negations and scalings of born values are born in that
form, and their ``Fraction`` coefficients are a view built the first time
``terms`` is read; a value built from a dict of ``Fraction``s gets its
integer form the first time it is an operand of the kernel or of a sum.  In
float64 mode the kernel adds every term product of every pair into one
accumulator, so each key is summed in pair order, then in left-term order,
and prunes it once, with one relative cut: ``zero_tolerance`` times the
largest |term product|.  A sum of several products is thus not the left
fold ``x_1*y_1 + x_2*y_2 + ...`` of the operators, which prunes each
product and each partial sum on its own.  Matrix products form only their
nonempty pairs (see ``matrices``), which the kernel skips anyway.

Sums have one rule per mode: in float64, x +- y is one merge
(``_float_sum``) of x's terms, then y's, with the bits of a kernel call over
(x, 1), (y, +-1), since c * (+-1.0) is exact; in rational mode, one sum of
the operands' integer forms.  Every float64 result, of the kernel, a sum or
a matrix entry, ends in one prune, ``_float_cut``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BodyNotInvertible,
    CoefficientOverflow,
    ConfigMismatch,
    NonZeroBody,
    ParityMismatch,
)

FLOAT64 = "float64"
RATIONAL = "rational"
_MODE_ALIASES = {"float64": FLOAT64, "rational": RATIONAL, "exact-rational": RATIONAL}

GENERATOR_CAP = 24
_INF = math.inf
# the zero scalar of each mode, shared (a Fraction is immutable)
_ZERO = {FLOAT64: 0.0, RATIONAL: Fraction(0)}

# -- the float thresholds, one table: each with the scale it multiplies and
# why it has its value; rational mode compares exactly and reads none
# the one relative gate of the checks that compare floats (entry equality,
# membership, isometry, body singularity, verify's identities), times
# 1 + the compared size (within_gate)
GATE = 1e-10
# the zero_tolerance default, the float64 prune cut (_float_cut), times the
# largest |term| summed into one result: about 45 ulps of it, above a
# cancellation's dust
_DEFAULT_FLOAT_TOLERANCE = 1e-14
# canonical._eigh_frame, absolute: a unit eigenvector's components below it
# are round-off, too small to fix its sign by
EIGENVECTOR_ROUNDOFF = 1e-12
# matrices._SliceSolver: a least-squares residual, times max(1, max |y|);
# looser than GATE, as it carries the conditioning of the slice grids
SLICE_RESIDUAL = 1e-8
# verify._sn_near: a ring identity of a few short products, times
# 1 + |x| + |y|; float round-off alone, far below GATE
RING_IDENTITY = 1e-12
# verify._section_ring: |xy| <= |x| |y| (1 + this), the norms' round-off
SUBMULTIPLICATIVE_SLACK = 1e-12
# verify._section_body_reduce: the reduced congruence residual, times
# 1 + |G|; a dyadic square root bounds it by float precision, not zero
BODY_REDUCE_RESIDUAL = 1e-9


def within_gate(value, scale=0.0) -> bool:
    """value <= GATE * (1 + scale) with that bound finite; a NaN, an
    infinity or a value past the float64 range fails."""
    try:
        return float(value) <= GATE * (1.0 + float(scale)) < math.inf
    except OverflowError:          # an int or Fraction beyond float range
        return False


@dataclass(frozen=True)
class AlgebraConfig:
    """Shared context for all supernumbers: generator count, coefficient mode,
    and the relative pruning tolerance (float64 mode only)."""

    generator_count: int = 6
    coefficient_mode: str = FLOAT64
    zero_tolerance: float = None  # type: ignore[assignment]  # resolved below

    def __post_init__(self):
        mode = self.coefficient_mode
        mode = _MODE_ALIASES.get(mode) if isinstance(mode, str) else None
        if mode is None:
            raise ConfigMismatch(
                f"unknown coefficient mode {self.coefficient_mode!r}")
        object.__setattr__(self, "coefficient_mode", mode)
        count = self.generator_count
        if isinstance(count, bool) or not isinstance(count, int) \
                or not 1 <= count <= GENERATOR_CAP:
            raise ConfigMismatch(
                f"generator count must be an integer in "
                f"[1, {GENERATOR_CAP}], got {count!r}")
        tol = self.zero_tolerance
        if tol is None:
            tol = 0.0 if mode == RATIONAL else _DEFAULT_FLOAT_TOLERANCE
            object.__setattr__(self, "zero_tolerance", tol)
        elif isinstance(tol, bool) or not isinstance(tol, numbers.Real) \
                or not _finite(tol) or tol < 0:
            # the prune cut zero_tolerance * (largest term) needs this
            raise ConfigMismatch(
                f"zero_tolerance must be a finite non-negative number, "
                f"got {tol!r}")
        elif mode == RATIONAL and tol != 0:
            raise ConfigMismatch("rational mode requires zero_tolerance = 0")

    @property
    def rational(self) -> bool:
        return self.coefficient_mode == RATIONAL

    def coerce(self, value):
        """Bring a scalar into this config's coefficient domain."""
        if self.rational:
            if isinstance(value, Fraction):
                return value
            if not isinstance(value, (int, float)) and \
                    isinstance(value, numbers.Integral):
                value = int(value)   # a numpy integer numerator would wrap
            return Fraction(value)
        return float(value)

    # -- constructors ----------------------------------------------------

    def zero(self) -> "Supernumber":
        return _ordered(self, {})

    def scalar(self, value) -> "Supernumber":
        c = self.coerce(value)
        return _ordered(self, {} if c == 0 else {0: c})

    def one(self) -> "Supernumber":
        return self.scalar(1)

    def generator(self, i: int) -> "Supernumber":
        """The generator z(i), 1-based."""
        if not (1 <= i <= self.generator_count):
            raise ConfigMismatch(
                f"generator index {i} outside 1..{self.generator_count}")
        return _ordered(self, {1 << (i - 1): self.coerce(1)})

    def term(self, indices, coeff=1) -> "Supernumber":
        """coeff * z(i1)...z(ik) for strictly increasing indices."""
        bits = _indices_to_bits(self, indices)
        c = self.coerce(coeff)
        return _ordered(self, {} if c == 0 else {bits: c})

    def from_terms(self, mapping) -> "Supernumber":
        """Build from {indices-tuple-or-bitmask: coeff}; zero coefficients drop."""
        acc = {}
        for key, coeff in mapping.items():
            bits = key if isinstance(key, int) else _indices_to_bits(self, key)
            c = self.coerce(coeff)
            if c != 0:
                acc[bits] = acc.get(bits, self.coerce(0)) + c
        return Supernumber(self, {b: c for b, c in acc.items() if c != 0})


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:          # an int or Fraction beyond float range
        return False


def _indices_to_bits(cfg, indices):
    bits = 0
    prev = 0
    for i in indices:
        if not (prev < i <= cfg.generator_count):
            raise ConfigMismatch(
                f"indices must be strictly increasing in "
                f"1..{cfg.generator_count}, got {tuple(indices)}")
        bits |= 1 << (i - 1)
        prev = i
    return bits


def _bits_to_indices(bits):
    out = []
    i = 1
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return tuple(out)


def _sign_mask(bits):
    """Mask of the positions with an odd number of set bits of ``bits``
    below them, so that z(I) z(J) = (-1)^popcount(I & mask(J)) z(I | J) for
    disjoint I, J.  A prefix XOR of ``bits << 1`` by five doubling shifts,
    exact at the positions below 32, which cover GENERATOR_CAP; the mask is
    non-negative, and below 2^57 for ``bits`` below 2^GENERATOR_CAP, so the
    same shifts take the masks of an int64 array of bitmasks at once (the
    batched product of ``matrices``)."""
    mask = bits << 1
    mask ^= mask << 1
    mask ^= mask << 2
    mask ^= mask << 4
    mask ^= mask << 8
    mask ^= mask << 16
    return mask


class Supernumber:
    """Immutable sparse element of the Grassmann algebra.

    ``terms`` maps bitmask -> nonzero coefficient and is kept in ascending
    bitmask order.  Do not mutate; construct through AlgebraConfig or the
    arithmetic operators.  This constructor sorts the dict it is given;
    results built inside, whose keys are ascending already, come from
    ``_ordered``, which keeps the dict as it is.

    A rational value's own representation is its integer form
    ``(D, ((bits, N), ...))``, bits ascending, where D is the lcm of the
    coefficients' denominators and each coefficient equals N / D.  Kernel
    results, every sum, and the negations and scalings of born values are
    born in it (see ``_IntegerBorn``) and build ``terms`` on first read; a
    value built here from a dict gets the form the first time it is an
    operand of ``sum_of_products`` or of a sum and keeps it.  ``_int_form``
    is ``None`` until then, and always in float64 mode.  Values read from
    the wire are such dicts of ``Fraction``s on purpose: their common
    denominator is the lcm of every term's, and building it at construction
    would run before the verbs' work budgets can refuse the payload (2048
    terms over 1000-digit denominators take minutes to bring to one
    denominator, while ``check_work_budget`` refuses them at once).

    ``_right`` is the right-operand table the kernel reads, ``None`` until
    the value is first a right operand of ``sum_of_products`` (the batched
    matrix product reads none): ``((bits, c, -c, sign_mask), ...)``
    in float64, ``((bits, N, sign_mask), ...)`` over the integer form in
    rational mode.
    """

    __slots__ = ("config", "terms", "_int_form", "_right")

    def __init__(self, config: AlgebraConfig, terms: dict):
        self.config = config
        self.terms = dict(sorted(terms.items()))
        self._int_form = None
        self._right = None

    def _integer_form(self):
        """Build and keep the integer form of a rational supernumber."""
        den = 1
        for c in self.terms.values():
            q = c.denominator
            if den % q:
                den = den // math.gcd(den, q) * q
        self._int_form = (den, tuple([
            (b, c.numerator * (den // c.denominator))
            for b, c in self.terms.items()]))
        return self._int_form

    def _right_table(self):
        """Build and keep the right-operand table (see the class doc)."""
        if self.config.rational:
            _, items = self._int_form or self._integer_form()
            self._right = tuple([(b, n, _sign_mask(b)) for b, n in items])
        else:
            self._right = tuple([(b, c, -c, _sign_mask(b))
                                 for b, c in self.terms.items()])
        return self._right

    # -- inspection ------------------------------------------------------

    def items(self):
        """Term list as (indices tuple, coefficient), ascending bitmask."""
        return [(_bits_to_indices(b), c) for b, c in self.terms.items()]

    def body(self):
        return self.terms.get(0, _ZERO[self.config.coefficient_mode])

    def soul(self) -> "Supernumber":
        return _ordered(self.config,
                        {b: c for b, c in self.terms.items() if b})

    def norm(self):
        """l1 norm; a Fraction in rational mode, float otherwise."""
        total = _ZERO[self.config.coefficient_mode]
        for c in self.terms.values():
            total += abs(c)
        return total

    def parity(self) -> str:
        if not self.terms:
            return "zero"
        kinds = {b.bit_count() & 1 for b in self.terms}
        if kinds == {0}:
            return "even"
        if kinds == {1}:
            return "odd"
        return "mixed"

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return _sum(self, other, False)

    __radd__ = __add__

    def __neg__(self):
        return _ordered(self.config, {b: -c for b, c in self.terms.items()})

    def __sub__(self, other):
        return _sum(self, other, True)

    def __rsub__(self, other):
        return _sum(self.config.scalar(other), self, True)

    def __mul__(self, other):
        if not isinstance(other, Supernumber):
            return self.scale(other)
        return sum_of_products(self.config, ((self, other),))

    def __rmul__(self, other):
        # scalars commute with everything, so left scaling is right scaling
        return self.scale(other)

    def scale(self, scalar):
        c0 = self.config.coerce(scalar)
        if c0 == 0:
            return self.config.zero()
        return _ordered(self.config,
                        {b: p for b, c in self.terms.items()
                         if (p := c * c0) != 0})

    def __truediv__(self, scalar):
        c0 = self.config.coerce(scalar)
        if c0 == 0:
            raise ZeroDivisionError("division of a supernumber by zero")
        if self.config.rational:
            return self.scale(Fraction(1) / c0)
        return self.scale(1.0 / c0)

    def __eq__(self, other):
        if isinstance(other, Supernumber):
            return self.config == other.config and self.terms == other.terms
        if isinstance(other, (int, float, Fraction)):
            return self.terms == ({} if other == 0
                                  else {0: self.config.coerce(other)})
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "Supernumber(0)"
        parts = []
        for b, c in self.terms.items():
            if b == 0:
                parts.append(f"{c}")
            else:
                idx = ",".join(str(i) for i in _bits_to_indices(b))
                parts.append(f"{c}*z({idx})")
        return "Supernumber(" + " + ".join(parts) + ")"


def _ordered(config: AlgebraConfig, terms: dict) -> Supernumber:
    """A value over ``terms`` itself, with no copy and no sort: the
    constructor of results built inside, whose keys are already ascending.
    ``Supernumber(config, terms)`` sorts whatever it is given."""
    z = object.__new__(Supernumber)
    z.config = config
    z.terms = terms
    z._int_form = None
    z._right = None
    return z


class _IntegerBorn(Supernumber):
    """A nonzero rational supernumber born in its integer form.

    ``terms`` is a view: the ``Fraction`` dict is built on its first read
    and kept.  Zero checks, the body, the soul, the parity, the norm,
    equality with another integer form, negation and scaling read the form
    itself, as the kernel and ``_sum`` do for every value, so a value
    that only feeds further arithmetic never builds its Fractions.  Sums
    need no override here: every rational sum is born already.  float64
    values never take this class, so their ``terms`` stays a plain slot.
    """

    __slots__ = ("_terms",)

    def __init__(self, config: AlgebraConfig, form):
        self.config = config
        self._int_form = form
        self._right = None
        self._terms = None

    @property
    def terms(self):
        terms = self._terms
        if terms is None:
            den, items = self._int_form
            terms = self._terms = {b: Fraction(n, den) for b, n in items}
        return terms

    def body(self):
        den, items = self._int_form
        bits, n = items[0]
        return _ZERO[RATIONAL] if bits else Fraction(n, den)

    def soul(self) -> Supernumber:
        den, items = self._int_form
        if items[0][0]:
            return self
        return _born(self.config, den, items[1:])

    def norm(self):
        den, items = self._int_form
        return Fraction(sum([abs(n) for _, n in items]), den)

    def parity(self) -> str:
        kinds = {b.bit_count() & 1 for b, _ in self._int_form[1]}
        if len(kinds) == 2:
            return "mixed"
        return "odd" if kinds.pop() else "even"

    def is_zero(self) -> bool:
        return False

    def __neg__(self):
        den, items = self._int_form
        return _IntegerBorn(self.config,
                            (den, tuple([(b, -n) for b, n in items])))

    def scale(self, scalar):
        c0 = self.config.coerce(scalar)
        if c0 == 0:
            return self.config.zero()
        p, q = c0.numerator, c0.denominator
        den, items = self._int_form
        return _born(self.config, den * q, [(b, n * p) for b, n in items])

    def __eq__(self, other):
        if isinstance(other, Supernumber) and other._int_form is not None:
            return self.config == other.config and \
                self._int_form == other._int_form
        return Supernumber.__eq__(self, other)


def _born(config: AlgebraConfig, den: int, items) -> Supernumber:
    """The rational sum of N / den z(bits) over ``items``, a sequence of
    (bits, N) with bits ascending and every N nonzero, with the gcd of den
    and every N divided out: lcm_i(den / gcd(den, N_i)) is
    den / gcd(den, N_1, ..., N_k), so den becomes the lcm of the reduced
    denominators."""
    if not items:
        return _ordered(config, {})
    g = math.gcd(den, *[n for _, n in items])
    if g != 1:
        den //= g
        items = [(b, n // g) for b, n in items]
    return _IntegerBorn(config, (den, tuple(items)))


def _sum(x: Supernumber, y, negate: bool) -> Supernumber:
    """x + y, or x - y with ``negate``; a scalar y is lifted first.  In
    float64 mode ``_float_sum``, the terms' sum under the one cut, bit for
    bit a kernel call over (x, 1), (y, +-1).  In rational mode both integer
    forms, built for a value from a dict on first use, go over the lcm of
    their denominators, and the result is born."""
    config = x.config
    if not isinstance(y, Supernumber):
        y = config.scalar(y)
    if not config.rational:
        return _float_sum(x, y, negate)
    if y.config is not config and y.config != config:
        raise ConfigMismatch("operands use different algebra configs")
    dx, xs = x._int_form or x._integer_form()
    dy, ys = y._int_form or y._integer_form()
    den = dx // math.gcd(dx, dy) * dy
    sx, sy = den // dx, -(den // dy) if negate else den // dy
    acc = {b: n * sx for b, n in xs}
    get = acc.get
    for b, n in ys:
        acc[b] = get(b, 0) + n * sy
    return _born(config, den, [(b, n) for b, n in sorted(acc.items()) if n])


def sum_of_products(config: AlgebraConfig, pairs) -> Supernumber:
    """sum_t x_t * y_t over an iterable of (x, y) supernumber pairs.

    Pairs with an empty factor are skipped.  In rational mode the sum is
    exact: integer numerators are added over one common denominator.  In
    float64 mode every term product of every pair goes into one
    accumulator: each key is summed in pair order, then in left-term
    order, and the sum is pruned once, dropping each coefficient whose
    magnitude is at most ``zero_tolerance`` times the largest |term
    product| (``_float_cut``).  Raises ConfigMismatch for any operand
    outside ``config``, and in float64 mode CoefficientOverflow when a term
    product or a kept sum is infinite.
    """
    if config.rational:
        return _rational_sum_of_products(config, pairs)
    # every term product goes into acc, and running is the largest
    # |term product|; 0.0 + c is c except for c = -0.0, which no prune
    # keeps, and a NaN c passes neither compare, as it fails abs(c) > cut
    acc = {}
    get = acc.get
    running = 0
    for x, y in pairs:
        if (x.config is not config and x.config != config) or \
                (y.config is not config and y.config != config):
            raise ConfigMismatch("operands use different algebra configs")
        if not (x.terms and y.terms):
            continue
        ys = y._right or y._right_table()
        for b1, c1 in x.terms.items():
            for b2, c2, neg2, mask in ys:
                if b1 & b2:
                    continue
                c = c1 * (neg2 if (b1 & mask).bit_count() & 1 else c2)
                key = b1 | b2
                acc[key] = get(key, 0.0) + c
                if c > running:
                    running = c
                elif -c > running:
                    running = -c
    return _float_cut(config, acc, running)


def _float_sum(x: Supernumber, y: Supernumber, negate: bool) -> Supernumber:
    """The float64 x + y, or x - y with ``negate``, as one kernel call over
    (x, 1), (y, +-1) gives it: x's terms, then y's (each negated for -),
    each added as acc.get(key, 0.0) + c with the running largest |c|, and
    ``_float_cut``.  c * 1.0 and c * -1.0 are exactly c and -c, so no
    product is formed.  Raises ConfigMismatch for a y outside x's config."""
    config = x.config
    if y.config is not config and y.config != config:
        raise ConfigMismatch("operands use different algebra configs")
    acc = {}
    get = acc.get
    running = 0
    for b, c in x.terms.items():
        acc[b] = 0.0 + c
        if c > running:
            running = c
        elif -c > running:
            running = -c
    for b, c in y.terms.items():
        if negate:
            c = -c
        acc[b] = get(b, 0.0) + c
        if c > running:
            running = c
        elif -c > running:
            running = -c
    return _float_cut(config, acc, running)


def _float_cut(config: AlgebraConfig, acc: dict, running) -> Supernumber:
    """The one float64 prune, which the kernel, ``_float_sum`` and the
    per-entry matrix product all end in: ``acc`` maps each key to its sum
    and ``running`` is the largest |term| added.  Each sum whose magnitude
    is at most ``zero_tolerance * running`` is dropped, and the rest are
    kept in ascending key order.  Raises CoefficientOverflow when the
    largest term or a kept sum is infinite (the cut would drop every term
    or keep inf); a NaN sum fails abs(c) > cut and is dropped."""
    if running == _INF:
        raise CoefficientOverflow("a float64 term product overflowed")
    cut = config.zero_tolerance * float(running)
    kept = {}
    for key, c in acc.items():
        a = abs(c)
        if a > cut:
            if a == _INF:
                raise CoefficientOverflow("a float64 sum overflowed")
            kept[key] = c
    return _ordered(config, dict(sorted(kept.items())) if len(kept) > 1
                    else kept)


def _rational_sum_of_products(config: AlgebraConfig, pairs) -> Supernumber:
    """The exact branch of ``sum_of_products``: every coefficient of the
    accumulator is acc[key] / den.  A pair whose denominator D_x * D_y
    differs from ``den`` rescales the accumulator once to their lcm.  The
    result is born in its integer form."""
    acc = {}
    get = acc.get
    den = 1
    for x, y in pairs:
        if (x.config is not config and x.config != config) or \
                (y.config is not config and y.config != config):
            raise ConfigMismatch("operands use different algebra configs")
        dx, xs = x._int_form or x._integer_form()
        dy, ys = y._int_form or y._integer_form()
        if not (xs and ys):
            continue
        ym = y._right or y._right_table()
        d = dx * dy
        scale = 1
        if d != den:
            g = math.gcd(den, d)
            if g != d:
                # d does not divide den: move the accumulator to the lcm
                grow = d // g
                for key in acc:
                    acc[key] *= grow
                den *= grow
            scale = den // d
        for b1, n1 in xs:
            if scale != 1:
                n1 *= scale
            for b2, n2, mask in ym:
                if b1 & b2:
                    continue
                key = b1 | b2
                if (b1 & mask).bit_count() & 1:
                    acc[key] = get(key, 0) - n1 * n2
                else:
                    acc[key] = get(key, 0) + n1 * n2
    return _born(config, den, [(b, n) for b, n in sorted(acc.items()) if n])


def invert(z: Supernumber) -> Supernumber:
    """Multiplicative inverse via the terminating Neumann series.

    z = b(1 + s/b) with b the body; the series for (1 + s/b)^{-1} ends
    because souls are nilpotent at finite L.
    """
    cfg = z.config
    b = z.body()
    if b == 0 or (not cfg.rational and abs(b) <= cfg.zero_tolerance):
        raise BodyNotInvertible("supernumber has zero body")
    minus_u = -(z.soul() / b)
    one = cfg.one()
    acc = one
    term = one
    for _ in range(cfg.generator_count + 1):
        term = term * minus_u
        if term.is_zero():
            break
        acc = acc + term
    return acc / b


def _rational_sqrt(value: Fraction):
    """Exact square root of a non-negative Fraction, or None."""
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def binomial_inverse_sqrt(mu: Supernumber) -> Supernumber:
    """w = (1 + mu)^{-1/2} with w*w*(1 + mu) = 1, for an even pure-soul mu;
    the binomial series terminates exactly.  A body is split off by the
    caller, as ``canonical.body_reduce`` does with soul / body: a nonzero
    one raises NonZeroBody."""
    if mu.parity() not in ("even", "zero"):
        raise ParityMismatch("binomial inverse sqrt needs an even argument")
    if mu.body() != 0:
        raise NonZeroBody("binomial inverse sqrt needs a pure-soul argument")
    cfg = mu.config
    acc = cfg.one()
    power = cfg.one()
    coeff = cfg.coerce(1)
    for k in range(1, cfg.generator_count + 1):
        power = power * mu
        if power.is_zero():
            break
        # running binomial(-1/2, k) via the ratio -(2k-1)/(2k)
        step = (Fraction(-(2 * k - 1), 2 * k) if cfg.rational
                else -(2 * k - 1) / (2 * k))
        coeff = coeff * step
        acc = acc + power.scale(coeff)
    return acc
