"""Block-graded square matrices over the Grassmann algebra.

A SuperMatrix has an (m|n) block shape and a declared parity class:

* even class: the m x m block A and n x n block B carry even entries,
  the off blocks C (m x n) and D (n x m) carry odd entries;
* odd class: the parities are flipped blockwise;
* general: no constraint.

The public constructors, ``from_real`` and ``from_blocks`` among them, check
the shape and the parity class and copy the rows, which is free for the tuple
rows those two assemble; results built inside are taken as they are
(``_trusted``).

Products visit nonzero entries only: ``@`` (and ``_mul_rows`` on rectangular
rows) indexes each operand in one pass, which also checks every entry's
config and counts the product's term pairs.  Each entry sums the term
products of its nonempty pairs in ascending inner index, so in float64 each
key of an entry is summed in inner-index order, then in left-term order,
then in right-term order, with one relative cut at the largest term
product.  A float64 product of 1000 term pairs or more forms them all in
one numpy pass whose bins add in that same order; any other product makes
one call of the Grassmann kernel per entry.  An entry with no such pair,
like a sum, negation or scaling of empty entries, is one shared zero.
Sums and differences are the entries' own ``+`` and ``-``: one kernel call
each in float64, one integer-form sum each in rational mode.

A matrix over the algebra is invertible exactly when its body is, and the
body is checked as a real matrix (``_body_inverse``, which metric
validation and the group's body inverses use).  exp/log are provided only
for zero-body and unipotent matrices, where the series are finite; each
starts from its first power, so neither multiplies by the identity.

The adjoint operator of an even-class element with respect to a basis comes
in two forms: supernumber coordinates over a list of real Lie-algebra
elements, or a flat real matrix over the single-index slices z(J) * X_i
read from the (J, i) tags of a LieBasis.  Both rest on one bracket core.
The algebra is the Grassmann algebra tensored with a real one, so with
X = sum_K z(K) X_K over real slices X_K every bracket with a basis element
is a Grassmann sign times a real bracket X_K B -+ B X_K of two real grids,
whose coordinates come from one solver per grid family, factored once per
call.  Both forms expose the same spectrum gate: a zero body makes
xi*I - ad invertible for every xi != 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

import numpy as np

from .algebra import (
    GATE,
    GENERATOR_CAP,
    SLICE_RESIDUAL,
    Supernumber,
    _ordered,
    _sign_mask,
    sum_of_products,
)
from .errors import (
    BasisDegenerate,
    BodyNotInvertible,
    ConfigMismatch,
    NonZeroBody,
    NonZeroBodyOperator,
    NotUnipotent,
    ParityMismatch,
    ShapeMismatch,
)


class BlockShape(NamedTuple):
    m: int
    n: int

    @property
    def total(self):
        return self.m + self.n


def _compose_parity(p: str, q: str) -> str:
    if p == "even" and q == "even":
        return "even"
    if {p, q} == {"even", "odd"}:
        return "odd"
    return "general"


def _known_class(parity_class: str) -> str:
    if parity_class not in ("even", "odd", "general"):
        raise ParityMismatch(f"unknown parity class {parity_class!r}")
    return parity_class


class SuperMatrix:
    """Immutable square matrix of supernumbers with a declared parity class.

    The public constructors check the shape and the parity class and copy
    the rows into tuples, which costs nothing for rows that are tuples
    already, as ``from_real`` and ``from_blocks`` build them; results built
    inside come from ``_trusted``.
    """

    __slots__ = ("config", "shape", "parity_class", "rows")

    def __init__(self, config, shape, rows, parity_class="general"):
        shape = BlockShape(*shape)
        k = shape.total
        if len(rows) != k or any(len(r) != k for r in rows):
            raise ShapeMismatch(
                f"expected {k}x{k} entries for shape ({shape.m}|{shape.n})")
        self.config = config
        self.shape = shape
        self.rows = tuple(tuple(r) for r in rows)
        self.parity_class = _known_class(parity_class)

    @classmethod
    def _trusted(cls, config, shape, rows, parity_class):
        """A matrix whose ``rows`` are a tuple of k tuples of k entries for
        the BlockShape ``shape``, taken as they are, unchecked."""
        M = object.__new__(cls)
        M.config = config
        M.shape = shape
        M.rows = rows
        M.parity_class = parity_class
        return M

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, config, shape, parity_class="even"):
        shape = BlockShape(*shape)
        k = shape.total
        return cls._trusted(config, shape, ((config.zero(),) * k,) * k,
                            _known_class(parity_class))

    @classmethod
    def identity(cls, config, shape):
        shape = BlockShape(*shape)
        z, one = config.zero(), config.one()
        k = shape.total
        rows = tuple([tuple([one if i == j else z for j in range(k)])
                      for i in range(k)])
        return cls._trusted(config, shape, rows, "even")

    @classmethod
    def from_real(cls, config, array, shape, parity_class="general"):
        """Lift a real (or Fraction) square array entrywise."""
        rows = [tuple([config.scalar(v) for v in row]) for row in array]
        return cls(config, shape, rows, parity_class)

    @classmethod
    def from_blocks(cls, config, A, C, D, B, parity_class="even"):
        """Assemble from raw 2D lists of supernumbers: [[A, C], [D, B]];
        a C or D given as None (or empty) is a zero block."""
        m, n = len(A), len(B)
        z = config.zero()
        rows = ([tuple(A[i]) + (tuple(C[i]) if C else (z,) * n)
                 for i in range(m)]
                + [(tuple(D[a]) if D else (z,) * m) + tuple(B[a])
                   for a in range(n)])
        return cls(config, BlockShape(m, n), rows, parity_class)

    # -- block access ----------------------------------------------------

    def block_a(self):
        m = self.shape.m
        return [list(r[:m]) for r in self.rows[:m]]

    def block_b(self):
        m = self.shape.m
        return [list(r[m:]) for r in self.rows[m:]]

    def block_c(self):
        m = self.shape.m
        return [list(r[m:]) for r in self.rows[:m]]

    def block_d(self):
        m = self.shape.m
        return [list(r[:m]) for r in self.rows[m:]]

    # -- arithmetic ------------------------------------------------------

    def _check_mate(self, other):
        if self.config != other.config:
            raise ConfigMismatch("matrices use different algebra configs")
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")

    def __matmul__(self, other):
        self._check_mate(other)
        rows = _mul_rows(self.config, self.rows, other.rows)
        return SuperMatrix._trusted(self.config, self.shape, rows,
                                    _compose_parity(self.parity_class,
                                                    other.parity_class))

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other, op):
        """op, ``operator.add`` or ``operator.sub``, of each pair of
        entries; where both are empty, one shared zero."""
        self._check_mate(other)
        cls = (self.parity_class if self.parity_class == other.parity_class
               else "general")
        zero = self.config.zero()
        rows = tuple([tuple([zero if a.is_zero() and b.is_zero() else op(a, b)
                             for a, b in zip(ra, rb)])
                      for ra, rb in zip(self.rows, other.rows)])
        return SuperMatrix._trusted(self.config, self.shape, rows, cls)

    def __neg__(self):
        zero = self.config.zero()
        rows = tuple([tuple([zero if e.is_zero() else -e for e in r])
                      for r in self.rows])
        return SuperMatrix._trusted(self.config, self.shape, rows,
                                    self.parity_class)

    def scale(self, scalar):
        zero = self.config.zero()
        rows = tuple([tuple([zero if e.is_zero() else e.scale(scalar)
                             for e in r])
                      for r in self.rows])
        return SuperMatrix._trusted(self.config, self.shape, rows,
                                    self.parity_class)

    # -- graded structure --------------------------------------------------

    def supertranspose(self):
        """Blockwise [[A^T, -D^T], [C^T, B^T]]; even class only, where it is
        an anti-homomorphism."""
        if self.parity_class != "even":
            raise ParityMismatch(
                "supertranspose is defined on the even class")
        m = self.shape.m
        cols = list(zip(*self.rows))       # the transpose, row by row
        rows = tuple([col[:m] + tuple([-e for e in col[m:]])
                      for col in cols[:m]]) + tuple(cols[m:])
        return SuperMatrix._trusted(self.config, self.shape, rows, "even")

    def body(self):
        """Entrywise body as a nested list of mode-native scalars."""
        return [[e.body() for e in r] for r in self.rows]

    def body_float(self) -> np.ndarray:
        return np.array([[float(e.body()) for e in r] for r in self.rows],
                        dtype=float)

    def has_zero_body(self) -> bool:
        return all(e.body() == 0 for r in self.rows for e in r)

    # -- norms and predicates ---------------------------------------------

    def entry_norm_max(self):
        worst = self.config.coerce(0)
        for r in self.rows:
            for e in r:
                v = e.norm()
                if v > worst:
                    worst = v
        return worst

    def induced_norm(self):
        """Max over rows of the summed entry l1 norms (submultiplicative)."""
        worst = self.config.coerce(0)
        for r in self.rows:
            total = self.config.coerce(0)
            for e in r:
                total += e.norm()
            if total > worst:
                worst = total
        return worst

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.rows for e in r)

    def check_parity_class(self) -> bool:
        """Entries actually match the declared class (zero always passes)."""
        if self.parity_class == "general":
            return True
        m = self.shape.m
        diag_kind = "even" if self.parity_class == "even" else "odd"
        off_kind = "odd" if self.parity_class == "even" else "even"
        k = self.shape.total
        for i in range(k):
            for j in range(k):
                p = self.rows[i][j].parity()
                if p == "zero":
                    continue
                want = diag_kind if (i < m) == (j < m) else off_kind
                if p != want:
                    return False
        return True

    def __eq__(self, other):
        return (isinstance(other, SuperMatrix)
                and self.config == other.config
                and self.shape == other.shape
                and self.rows == other.rows)

    __hash__ = None

    def __repr__(self):
        return (f"SuperMatrix(({self.shape.m}|{self.shape.n}), "
                f"{self.parity_class})")


# A float64 product of at least this many term pairs (the sum over t of the
# terms in column t of a times those in row t of b) forms all its term
# products in one numpy pass.  The pass has a fixed cost of about 0.2 ms,
# so the per-entry kernel is faster below about 500 pairs; timed on the
# products of three `canonicalize-dense` and `verify-ad` rounds, the pass
# took 0.78 of the per-entry time at 1000-1200 pairs and 0.37 at 10k-30k.
# At seed 31, products of 1000 pairs or more hold 97% of the term pairs of
# `canonicalize-dense` and none of `group-sparse`.
_BATCH_PAIRS = 1000
# term pairs per chunk of output rows in one numpy pass, which bounds its
# arrays: the largest `canonicalize-dense` product at seed 31 (79k pairs)
# is one chunk, and a dense (4|4) L=8 product at the canonicalize budget
# limit (8.4M pairs) runs row by row
_CHUNK_PAIRS = 1 << 18


def _mul_rows(config, a, b):
    """The product of a p x q and a q x r list of supernumber rows, from the
    nonzero entries only, as a tuple of tuple rows.

    Each entry sums the term products of the pairs (a[i][t], b[t][j]) with
    both factors nonempty, in ascending t, so in float64 each key is summed
    in t order, then in left-term order, then in right-term order, and
    pruned once against the entry's largest term product.  A float64
    product of ``_BATCH_PAIRS`` term pairs or more computes them all in one
    numpy pass (``_products_at_once``), with the same bits; a smaller one,
    and every rational one, makes one ``sum_of_products`` call per entry.
    An entry with no such pair is one zero shared by the product, with no
    kernel call.  Every entry of both operands is checked against
    ``config`` once (``_operand_index``), so a foreign one raises
    ConfigMismatch, empty or not.
    """
    a_rows, cols, col_masks, pairs = _operand_index(config, a, b)
    if pairs >= _BATCH_PAIRS:
        rows = _products_at_once(config, a_rows, cols, pairs)
        if rows is not None:
            return rows
    zero = config.zero()
    return tuple([tuple([sum_of_products(config, [(e, col[t]) for t, e in nz
                                                  if t in col])
                         if mask & col_mask else zero
                         for col, col_mask in zip(cols, col_masks)])
                  for nz, mask in a_rows])


def _operand_index(config, a, b):
    """One pass over each operand of a product of the p x q rows ``a`` and
    the q x r rows ``b``, which checks every entry against ``config`` and
    indexes the nonzero ones: each row of a as ([(t, entry)], the bitmask
    of its t), each column of b as {t: entry} in ascending t with the
    bitmask of those t, and in float64 the product's term pairs, the sum
    over t of the terms in column t of a times those in row t of b (0 in
    rational mode)."""
    # a rational entry says it is zero without building its Fractions, a
    # float64 one reads its terms slot and counts them
    rational = config.rational
    a_terms = [0] * len(b)
    a_rows = []
    for row in a:
        nz = []
        mask = 0
        for t, e in enumerate(row):
            if e.config is not config and e.config != config:
                raise ConfigMismatch(
                    "matrix entries use different algebra configs")
            if rational:
                if e.is_zero():
                    continue
            elif e.terms:
                a_terms[t] += len(e.terms)
            else:
                continue
            nz.append((t, e))
            mask |= 1 << t
        a_rows.append((nz, mask))
    r = len(b[0]) if b else 0
    cols = [{} for _ in range(r)]
    col_masks = [0] * r
    pairs = 0
    for t, row in enumerate(b):
        bit = 1 << t
        b_terms = 0
        for j, f in enumerate(row):
            if f.config is not config and f.config != config:
                raise ConfigMismatch(
                    "matrix entries use different algebra configs")
            if rational:
                if f.is_zero():
                    continue
            elif f.terms:
                b_terms += len(f.terms)
            else:
                continue
            cols[j][t] = f
            col_masks[j] |= bit
        pairs += a_terms[t] * b_terms
    return a_rows, cols, col_masks, pairs


def _products_at_once(config, a_rows, cols, pairs):
    """The float64 product indexed by ``_operand_index`` as ``a_rows``,
    ``cols`` and its ``pairs`` term pairs, every term product in one numpy
    pass, with the bits of the per-entry kernel; None when a term product
    or a sum is not finite, for the per-entry route to raise its
    CoefficientOverflow.

    For each t the left terms of column t (by row, then term) meet the
    right terms of row t (by column, then term) as an outer product; the
    disjoint pairs, concatenated over ascending t, are summed per (entry,
    bitmask) by ``np.bincount``, which adds in input order from 0.0, so
    each key is summed in t, then left-term, then right-term order.  The
    sign is the kernel's rule, popcount(b1 & mask) odd, with every right
    term's mask taken from its bitmask in the same pass (``_sign_mask`` on
    the array), so no right-operand table is built or read; each term
    product is c1 * (-c2 or c2), as in ``sum_of_products``.  A product of
    more than ``_CHUNK_PAIRS`` term pairs runs in chunks of whole output
    rows, which leaves every entry's order as it is.
    """
    p, r = len(a_rows), len(cols)
    by_col = {}
    for i, (nz, _) in enumerate(a_rows):
        for t, e in nz:
            by_col.setdefault(t, []).append((i, e.terms))
    by_row = {}
    for j, col in enumerate(cols):
        for t, f in col.items():
            by_row.setdefault(t, []).append((j, f.terms))
    # the left and right terms of each t that has both, in ascending t,
    # and their places
    l_bits, l_coef, l_row = [], [], []
    r_bits, r_coef, r_col = [], [], []
    spans = []
    for t in sorted(by_col.keys() & by_row.keys()):
        l0, r0 = len(l_bits), len(r_bits)
        for i, terms in by_col[t]:
            l_bits.extend(terms)
            l_coef.extend(terms.values())
            l_row.extend([i] * len(terms))
        for j, terms in by_row[t]:
            r_bits.extend(terms)
            r_coef.extend(terms.values())
            r_col.extend([j] * len(terms))
        spans.append((l0, len(l_bits), r0, len(r_bits)))
    l_bits, l_coef = np.array(l_bits, dtype=np.int64), np.array(l_coef)
    l_row = np.array(l_row, dtype=np.int64)
    r_bits, r_coef = np.array(r_bits, dtype=np.int64), np.array(r_coef)
    r_mask = _sign_mask(r_bits)
    # a pair's bin is one int64, its entry i * r + j shifted past the
    # GENERATOR_CAP bits of its bitmask b1 | b2: the sum of its left term's
    # (i * r, b1) and its right term's (j, b2)
    l_key = l_row * (r << GENERATOR_CAP) | l_bits
    r_key = np.array(r_col, dtype=np.int64) << GENERATOR_CAP | r_bits
    step = max(1, p * _CHUNK_PAIRS // max(pairs, 1))
    zero = config.zero()
    out = [[zero] * r for _ in range(p)]
    # each entry's cut is zero_tolerance times its largest |term product|
    running = np.zeros(p * r)
    for i0 in range(0, p, step):
        # the disjoint pairs of rows i0.. of each t, as flat places in
        # that t's outer product
        flats, widths, l_offs, r_offs = [], [], [], []
        for l0, l1, r0, r1 in spans:
            if step < p:
                l0, l1 = l0 + np.searchsorted(l_row[l0:l1], [i0, i0 + step])
            if l1 > l0:
                flats.append(np.flatnonzero(
                    (l_bits[l0:l1, None] & r_bits[r0:r1]) == 0))
                widths.append(r1 - r0)
                l_offs.append(l0)
                r_offs.append(r0)
        if not flats:
            continue
        counts = [len(flat) for flat in flats]
        li, ri = np.divmod(np.concatenate(flats), np.repeat(widths, counts))
        li += np.repeat(l_offs, counts)
        ri += np.repeat(r_offs, counts)
        c2 = r_coef[ri]
        odd = np.bitwise_count(l_bits[li] & r_mask[ri]) & 1
        with np.errstate(over="ignore"):
            prod = l_coef[li] * np.where(odd, -c2, c2)
        if not np.isfinite(prod).all():
            return None
        packed = l_key[li] + r_key[ri]
        bins, where = np.unique(packed, return_inverse=True)
        sums = np.bincount(where, weights=prod)
        if not np.isfinite(sums).all():
            return None
        np.fmax.at(running, packed >> GENERATOR_CAP, np.abs(prod))
        bin_entry = bins >> GENERATOR_CAP
        keep = np.abs(sums) > config.zero_tolerance * running[bin_entry]
        terms = zip((bins[keep] & ((1 << GENERATOR_CAP) - 1)).tolist(),
                    sums[keep].tolist())
        sizes = np.bincount(bin_entry[keep], minlength=p * r).tolist()
        for n, size in enumerate(sizes):
            if size:
                out[n // r][n % r] = _ordered(config,
                                              dict(islice(terms, size)))
    return tuple([tuple(row) for row in out])


# -- real/rational matrix helpers ----------------------------------------------

def exact_inverse(rows):
    """Inverse of a square Fraction matrix by Gaussian elimination.
    Returns None when singular."""
    k = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(k)]
           for i in range(k)]
    for col in range(k):
        pivot = None
        for r in range(col, k):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        a[col] = [v / p for v in a[col]]
        inv[col] = [v / p for v in inv[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return inv


# -- inversion, exp, log --------------------------------------------------------

def _body_inverse(rows, rational):
    """Inverse of a square real matrix given by its rows of mode scalars:
    exact in rational mode, and in float64 gated on the ratio of its
    smallest to largest singular value; BodyNotInvertible when singular."""
    if rational:
        inv = exact_inverse(rows)
        if inv is None:
            raise BodyNotInvertible("matrix body is singular")
        return inv
    bf = np.array(rows, dtype=float)
    svals = np.linalg.svd(bf, compute_uv=False)
    if svals[-1] <= GATE * max(svals[0], 1e-300):
        raise BodyNotInvertible(
            f"matrix body is numerically singular "
            f"(smallest/largest singular value = {svals[-1]:.3e}/{svals[0]:.3e})")
    return np.linalg.inv(bf)


def exp_zero_body(X: SuperMatrix) -> SuperMatrix:
    """Finite exponential sum for a zero-body matrix; the result is unipotent.

    The sum starts as I + X and term k is X^k / k!, formed from term k - 1
    for k >= 2; it stops at the first zero term, or after L + 1 terms.  A
    zero X makes no product."""
    if not X.has_zero_body():
        raise NonZeroBody("exponential input must have zero body")
    cfg = X.config
    acc = SuperMatrix.identity(cfg, X.shape) + X
    term = X
    last = cfg.generator_count + 1 if not X.is_zero() else 1
    for k in range(2, last + 1):
        term = (term @ X).scale(Fraction(1, k) if cfg.rational else 1.0 / k)
        if term.is_zero():
            break
        acc = acc + term
    return SuperMatrix._trusted(
        cfg, X.shape, acc.rows,
        "even" if X.parity_class == "even" else "general")


def log_unipotent(U: SuperMatrix) -> SuperMatrix:
    """Finite logarithm for a matrix whose body is exactly the identity.

    With S = U - I the sum starts as S and step k adds (-1)^(k+1) S^k / k,
    from k = 2 on, until S^k is zero or k passes L + 1; a zero S makes no
    product."""
    cfg = U.config
    k = U.shape.total
    for i in range(k):
        for j in range(k):
            if U.rows[i][j].body() != (1 if i == j else 0):
                raise NotUnipotent("matrix body must equal the identity")
    S = U - SuperMatrix.identity(cfg, U.shape)
    acc = power = S
    last = cfg.generator_count + 1 if not S.is_zero() else 1
    for step in range(2, last + 1):
        power = power @ S
        if power.is_zero():
            break
        sign = 1 if step % 2 == 1 else -1
        acc = acc + power.scale(Fraction(sign, step) if cfg.rational
                                else sign / step)
    return SuperMatrix._trusted(
        cfg, U.shape, acc.rows,
        "even" if U.parity_class == "even" else "general")


# -- adjoint operators -----------------------------------------------------------

@dataclass
class AdOperator:
    """The map Y -> [X, Y] in coordinates over a declared basis.

    Over a list of real matrices the entries are supernumbers acting on
    supernumber coordinates from the left, and levels is None; over the
    tagged family of a LieBasis the matrix is flat and real, levels[i]
    records each slot's index bitmask, and written lists the (row, column)
    of every entry that was set; every other entry is zero.
    """
    source: SuperMatrix
    matrix: SuperMatrix
    levels: tuple = None
    written: list = None

    @property
    def coordinate_field(self) -> str:
        """"grassmann" over a real basis, "real" over a tagged family."""
        return "grassmann" if self.levels is None else "real"

    def body_matrix(self):
        """The induced operator on body coordinates.

        Grassmann coordinates: entrywise body.  Real coordinates: the
        sub-block on empty-index slots (index-raising parts cannot feed back).
        """
        if self.coordinate_field == "grassmann":
            return self.matrix.body()
        idx = [i for i, lv in enumerate(self.levels) if lv == 0]
        return [[self.matrix.rows[i][j].body() for j in idx] for i in idx]

    def has_zero_body(self) -> bool:
        return all(v == 0 for row in self.body_matrix() for v in row)


def _flatten_slices(M: SuperMatrix):
    """Decompose a matrix into {index bitmask: real coefficient grid}."""
    k = M.shape.total
    out = {}
    for i in range(k):
        for j in range(k):
            for bits, c in M.rows[i][j].terms.items():
                grid = out.get(bits)
                if grid is None:
                    grid = [[M.config.coerce(0)] * k for _ in range(k)]
                    out[bits] = grid
                grid[i][j] = c
    return out


def _vec(grid):
    return [v for row in grid for v in row]


def _grid_mul(p, q):
    """Product of two square real grids; each entry sums its nonzero
    products in index order, as the Grassmann kernel folds them."""
    out = [[0] * len(q) for _ in p]
    for row, prow in zip(out, p):
        for a, qrow in zip(prow, q):
            if a:
                for j, b in enumerate(qrow):
                    if b:
                        row[j] += a * b
    return out


def _slice_bracket(solver, left, grid, right):
    """Coordinates over ``solver`` of the real bracket left.grid - grid.right,
    or None when it vanishes; with no solver only a vanishing bracket is in
    the span."""
    vec = [a - b for a, b in zip(_vec(_grid_mul(left, grid)),
                                 _vec(_grid_mul(grid, right)))]
    if not any(vec):
        return None
    if solver is None:
        raise BasisDegenerate("bracket leaves the span of the given slices")
    return solver.solve(vec)


class _SliceSolver:
    """Real coordinates against a fixed list of real grids, factored once.

    Construction refuses a dependent list.  Rational mode keeps the exact
    left inverse (A^T A)^{-1} A^T of the column matrix A and checks A x == y
    exactly; float64 keeps the pseudo-inverse and gates the residual.
    """

    def __init__(self, cfg, grids):
        self.cfg = cfg
        columns = [_vec(g) for g in grids]
        if not cfg.rational:
            a = np.array(columns, dtype=float).T
            if np.linalg.matrix_rank(a) < len(grids):
                raise BasisDegenerate("basis elements are linearly dependent")
            self._pinv = np.linalg.pinv(a)
            self._a = a
            return
        # the nonzeros of A by column, and of A^T by position
        self._cols = [[(t, v) for t, v in enumerate(c) if v] for c in columns]
        at = [[] for _ in columns[0]]
        for i, col in enumerate(self._cols):
            for t, v in col:
                at[t].append((i, v))
        gram = [[0] * len(columns) for _ in columns]
        for entries in at:
            for i, u in entries:
                for j, v in entries:
                    gram[i][j] += u * v
        inv = exact_inverse(gram)
        if inv is None:
            raise BasisDegenerate("basis elements are linearly dependent")
        # the left inverse by position t: x = sum_t y_t * left[t]
        self._left = [[(i, c) for i, row in enumerate(inv)
                       if (c := sum(row[j] * v for j, v in entries))]
                      for entries in at]

    def solve(self, vec):
        if self.cfg.rational:
            x = [0] * len(self._cols)
            for y, left in zip(vec, self._left):
                if y:
                    for i, c in left:
                        x[i] += c * y
            back = [0] * len(vec)
            for xi, col in zip(x, self._cols):
                if xi:
                    for t, v in col:
                        back[t] += xi * v
            if back != vec:
                raise BasisDegenerate("vector leaves the basis span")
            return x
        y = np.array(vec, dtype=float)
        x = self._pinv @ y
        resid = np.max(np.abs(self._a @ x - y)) if len(y) else 0.0
        scale = max(1.0, float(np.max(np.abs(y))))
        if resid > SLICE_RESIDUAL * scale:
            raise BasisDegenerate(
                f"bracket leaves the basis span (residual {resid:.3e})")
        return [float(v) for v in x]


def _element_block_kind(M: SuperMatrix) -> str:
    """'even' if only the diagonal blocks are populated, 'odd' if only the
    off blocks are, else 'mixed'."""
    m = M.shape.m
    k = M.shape.total
    diag = off = False
    for i in range(k):
        for j in range(k):
            if not M.rows[i][j].is_zero():
                if (i < m) == (j < m):
                    diag = True
                else:
                    off = True
    if diag and off:
        return "mixed"
    return "odd" if off else "even"


def ad_operator(X: SuperMatrix, basis) -> AdOperator:
    """Adjoint operator of X over a list of real matrices, or over the
    tagged family z(J) X_i of a LieBasis, read from its (J, i) tags.

    Both routes write X = sum_K z(K) X_K with real slices X_K and take only
    real brackets X_K B - B X~ of those slices with real grids B, solved
    over one factored solver per grid family.

    A list of real matrices B_j: the operator carries supernumber entries
    M[k][j] = sum_K z(K) c_k(K, j), with c(K, j) the coordinates of
    X_K B_j - B_j X~.  X~ = X_K, except that against an odd-kind B_j (off
    blocks only) the odd-kind part of X_K changes sign, which makes the
    bracket of two odd-kind elements their anticommutator; composition then
    matches operator products for even-class arguments.

    A LieBasis: slot j with tag (J, i) is the real grid of element i at
    level J, which is what z(J) X_i flattens to, and the family is not
    formed.  The bracket with X has one slice per K disjoint from J,
    sigma(K, J) (X_K B - (-1)^(|J||K|) B X_K) at level K | J, where sigma
    is the sign of z(K) z(J).  The flat real coordinate matrix is returned,
    with level tags recorded.
    """
    from .isometry import LieBasis

    tagged = isinstance(basis, LieBasis)
    elements = basis.elements() if tagged else basis
    positions = [pos for _, pos in basis.hJ] if tagged \
        else range(len(basis))
    if not positions:
        raise BasisDegenerate("empty basis")
    cfg = X.config
    grids = {}     # the real grid of each element in use, by position
    for pos in positions:
        if pos not in grids:
            b = elements[pos]
            if b.config != cfg:
                raise ConfigMismatch("basis element uses a different config")
            if b.shape != X.shape:
                raise ShapeMismatch("basis element shape differs from X")
            slices = _flatten_slices(b)
            if not slices:
                raise BasisDegenerate("zero basis element")
            if set(slices) != {0}:
                raise BasisDegenerate("basis elements must be real")
            grids[pos] = slices[0]
    if tagged:
        return _ad_flat(X, basis.hJ, grids)
    return _ad_structure_constants(X, basis, [grids[pos] for pos in positions])


def _ad_structure_constants(X, basis, grids):
    cfg = X.config
    r = len(basis)
    solver = _SliceSolver(cfg, grids)
    odd = [_element_block_kind(b) == "odd" for b in basis]
    terms = [[{} for _ in range(r)] for _ in range(r)]
    for K, XK in _flatten_slices(X).items():
        x = solver.solve(_vec(XK))       # raises when X leaves the span
        # X~ = X_K^ev - X_K^od = X_K - 2 X_K^od
        od = [(xi, g) for xi, g, o in zip(x, grids, odd) if o and xi]
        flipped = [[v - 2 * sum(xi * g[p][q] for xi, g in od)
                    for q, v in enumerate(row)] for p, row in enumerate(XK)]
        for j, B in enumerate(grids):
            coords = _slice_bracket(solver, XK, B, flipped if odd[j] else XK)
            for k, c in enumerate(coords or ()):
                if c != 0:
                    terms[k][j][K] = c
    rows = tuple([tuple([Supernumber(cfg, t) for t in row]) for row in terms])
    mat = SuperMatrix._trusted(cfg, BlockShape(r, 0), rows, "general")
    return AdOperator(X, mat)


def _ad_flat(X, tags, grids):
    """The flat operator over the tagged family; slot j with tag (J, i)
    has the grid ``grids[i]`` at level J."""
    cfg = X.config
    r = len(tags)
    levels = tuple(J for J, _ in tags)
    # group basis slots by index bitmask; levels that hold the same basis
    # elements in the same order hold the same grids and share one solver,
    # so each grid family is factored once
    groups = {}
    for slot, lv in enumerate(levels):
        groups.setdefault(lv, []).append(slot)
    families = {}            # positions of a family -> its number in solvers
    solvers = []
    family_of = {}
    grid_of = [None] * r     # (family number, place in the family) per slot
    for lv, slots in groups.items():
        key = tuple([tags[s][1] for s in slots])
        if key not in families:
            families[key] = len(solvers)
            solvers.append(_SliceSolver(cfg, [grids[pos] for pos in key]))
        family_of[lv] = families[key]
        for place, s in enumerate(slots):
            grid_of[s] = (families[key], place)

    slices = _flatten_slices(X)
    negated = {K: [[-v for v in row] for row in XK]
               for K, XK in slices.items()}
    # the operator is sparse: a row's entries start as one shared
    # (immutable) zero when its first nonzero coordinate is lifted, and a
    # row that gets none is one shared zero row; K -> K | J is one to one,
    # so a column gets each of its entries written at most once
    zero = cfg.zero()
    rows = {}    # row number -> its entries, for rows holding a nonzero
    written = []     # (row, column) of each entry set, in write order
    memo = {}    # coordinates by (K, grid of B, sign, family of the level)
    for j, (J, pos) in enumerate(tags):
        B = grids[pos]
        mask = _sign_mask(J)
        for K, XK in slices.items():
            if K & J:
                continue
            level = K | J
            swap = J.bit_count() & K.bit_count() & 1   # (-1)^(|J||K|) = -1
            family = family_of.get(level)
            key = (K, grid_of[j], swap, family)
            if key not in memo:
                memo[key] = _slice_bracket(
                    None if family is None else solvers[family],
                    XK, B, negated[K] if swap else XK)
            if memo[key] is None:
                continue
            flip = (K & mask).bit_count() & 1       # sigma(K, J) = -1
            for s, c in zip(groups[level], memo[key]):
                if c != 0:
                    row = rows.get(s)
                    if row is None:
                        row = rows[s] = [zero] * r
                    row[j] = cfg.scalar(-c if flip else c)
                    written.append((s, j))
    empty = (zero,) * r
    mat = SuperMatrix._trusted(
        cfg, BlockShape(r, 0),
        tuple([tuple(rows[s]) if s in rows else empty for s in range(r)]),
        "general")
    return AdOperator(X, mat, levels, written)


def spectrum_gate(ad: AdOperator, xi) -> str:
    """'invertible' or 'singular' for xi*I - ad, decided at body level.

    With a zero-body operator the shifted matrix has body xi*I, so it is
    invertible exactly when xi differs from zero; no tolerance applies.
    """
    if not ad.has_zero_body():
        raise NonZeroBodyOperator(
            "spectrum gate requires a zero-body adjoint operator")
    return "singular" if xi == 0 else "invertible"
