"""The zero-body group under exact BCH and its semi-direct extension.

Zero-body even matrices satisfying the membership conditions form a group
under X <> Y = log(exp X exp Y): both series are finite here, so the
operation is exact, and the operator spectrum of every bracket map is {0},
which is what makes the composition globally defined.

An independent truncated-series route evaluates the same composition from
commutator word tables.  The per-word coefficients are generated
programmatically: a word w of length N receives

    c_w = (1/N) * sum over splittings of w into blocks X^r Y^s
          of (-1)^(n-1) / (n * prod r_i! s_i!)

and the word is applied as the right-nested bracket
[w_1, [w_2, ... [w_{N-1}, w_N]]].  The words share suffixes, so one series
call keeps every bracket it has formed by suffix and forms each one once
(86 brackets through order 6, where the 72 words taken apart would need
286).  Orders 1 and 2 reproduce X + Y and X + Y + [X,Y]/2; all table
entries are cross-validated against the exact route in the tests.

A zero-body element keeps its exponential once it has been formed, so the
group law and the embedding exponentiate each operand once, and the group
law's result keeps the product exp X exp Y it took the logarithm of.

The group built here is the semi-direct product of body-level isometries
with the zero-body group: (g1, n1) o (g2, n2) = (g1 g2, n1 <> alpha(g1) n2)
where alpha is conjugation, realized concretely because conjugating an
exponential is exponentiating a conjugate.  The paper's covering group, the
simply connected cover of the body isometries (the local spin group), is not
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .algebra import within_gate
from .errors import (
    ConfigMismatch,
    DegenerateBody,
    NonZeroBody,
    NormBoundViolation,
    NotBodyIsometry,
    NotBodyReduced,
    NotLieElement,
    NotUnipotent,
    ShapeMismatch,
)
from .isometry import GammaForm, violated_conditions
from .matrices import (
    SuperMatrix,
    _body_inverse,
    _grid_mul,
    exp_zero_body,
    log_unipotent,
)

MAX_SERIES_ORDER = 6


# -- word tables -----------------------------------------------------------------

def _block_splittings(word):
    """All ways to cut the word into consecutive nonempty blocks of the form
    X^r Y^s; yields tuples of (r, s) per block."""
    n = len(word)

    def block_shapes(i, j):
        # the slice word[i:j] as X^r Y^s, or None
        r = 0
        k = i
        while k < j and word[k] == "X":
            r += 1
            k += 1
        s = j - k
        if any(ch != "Y" for ch in word[k:j]):
            return None
        return (r, s)

    def rec(i):
        if i == n:
            yield ()
            return
        for j in range(i + 1, n + 1):
            shape = block_shapes(i, j)
            if shape is None:
                continue
            for rest in rec(j):
                yield (shape,) + rest

    yield from rec(0)


@lru_cache(maxsize=None)
def _word_table(order: int):
    """[(coefficient, word string)] for homogeneous degree = order."""
    out = []
    for mask in range(1 << order):
        word = "".join("Y" if (mask >> i) & 1 else "X" for i in range(order))
        c = Fraction(0)
        for blocks in _block_splittings(word):
            nb = len(blocks)
            denom = nb
            for r, s in blocks:
                denom *= math.factorial(r) * math.factorial(s)
            c += Fraction((-1) ** (nb - 1), denom)
        c /= order
        if c != 0:
            out.append((c, word))
    return tuple(out)


def _nested_bracket(brackets, word):
    """[w_1, [w_2, ... [w_{N-1}, w_N]]] through ``brackets``, which maps
    each word formed so far (the letters included) to its bracket."""
    acc = brackets.get(word)
    if acc is None:
        x = brackets[word[0]]
        inner = _nested_bracket(brackets, word[1:])
        acc = brackets[word] = x @ inner - inner @ x
    return acc


def bch_series(X: SuperMatrix, Y: SuperMatrix, max_order: int) -> SuperMatrix:
    """Truncated composition series sum of the word tables up to
    ``max_order``, which must lie in 1..MAX_SERIES_ORDER (ConfigMismatch).

    Zero-body inputs need no gate.  Otherwise the norm bound
    ||X|| + ||Y|| <= log 2 (induced norms) is enforced.
    """
    if not 1 <= max_order <= MAX_SERIES_ORDER:
        raise ConfigMismatch(
            f"series order must lie in 1..{MAX_SERIES_ORDER}")
    if not (X.has_zero_body() and Y.has_zero_body()):
        total = float(X.induced_norm()) + float(Y.induced_norm())
        if total > math.log(2):
            raise NormBoundViolation(
                f"||X|| + ||Y|| = {total:.6g} exceeds log 2")
    acfg = X.config
    brackets = {"X": X, "Y": Y}
    acc = SuperMatrix.zeros(acfg, X.shape, "general")
    for order in range(1, max_order + 1):
        for coeff, word in _word_table(order):
            term = _nested_bracket(brackets, word)
            if term.is_zero():
                continue
            acc = acc + term.scale(coeff if acfg.rational else float(coeff))
    return acc


# -- the zero-body group -----------------------------------------------------------

@dataclass(frozen=True)
class NilElement:
    """Even zero-body matrix satisfying the membership conditions, which the
    constructor checks; members built from members come from ``_trusted``."""
    X: SuperMatrix
    gamma: GammaForm

    def __post_init__(self):
        if self.X.shape != self.gamma.shape:
            raise ShapeMismatch(f"{self.X.shape} vs {self.gamma.shape}")
        if not self.X.has_zero_body():
            raise NonZeroBody("group-algebra elements must have zero body")
        violated = violated_conditions(self.X, self.gamma)
        if violated:
            raise NotLieElement(
                f"membership conditions violated: {violated}")

    @classmethod
    def _trusted(cls, X: SuperMatrix, gamma: GammaForm, exp=None):
        """An element whose X is a member by construction, unchecked; an
        ``exp`` given is kept as its exponential."""
        element = object.__new__(cls)
        element.__dict__.update(X=X, gamma=gamma)
        if exp is not None:
            element.__dict__["exp"] = exp
        return element

    def __neg__(self):
        return NilElement._trusted(-self.X, self.gamma)

    @cached_property
    def exp(self) -> SuperMatrix:
        """exp(X), formed on first use and kept by this element."""
        return exp_zero_body(self.X)


def diamond(X: NilElement, Y: NilElement) -> NilElement:
    """Exact group law log(exp X exp Y) on zero-body elements.  The result
    keeps U = exp X exp Y as its exponential: exp(log U) is U exactly in
    rational mode, and in float64 U is one rounding closer to the operands."""
    if X.gamma != Y.gamma:
        raise ShapeMismatch("operands live over different canonical forms")
    U = X.exp @ Y.exp
    try:
        Z = log_unipotent(U)
    except NotUnipotent:    # souls past 1 / zero_tolerance pruned it
        raise DegenerateBody("the group law lost its identity body to "
                             "float64 pruning") from None
    return NilElement._trusted(Z, X.gamma, exp=U)


# -- body group and the semi-direct product ----------------------------------------

def _real_block_diag_ok(M, m, n, scale):
    k = m + n
    for i in range(k):
        for j in range(k):
            if (i < m) != (j < m) and not within_gate(abs(M[i][j]), scale):
                return False
    return True


@dataclass(frozen=True)
class GroupElement:
    """Pair of a body-level isometry matrix and a zero-body element."""
    g_body: tuple
    n_part: NilElement

    def __post_init__(self):
        gamma = self.n_part.gamma
        # conjugating by a body isometry keeps members only for eta = +-1
        if not gamma.body_reduced:
            raise NotBodyReduced("group elements need eta entries +-1")
        rows = self.g_body
        k = gamma.m + gamma.n
        if len(rows) != k or any(len(r) != k for r in rows):
            raise ShapeMismatch("body matrix has the wrong size")
        # each entry as the mode's Python scalar, numpy scalars included
        coerce = gamma.config.coerce
        native = Fraction if gamma.config.rational else float
        rows = tuple(tuple(v if type(v) is native else coerce(v) for v in row)
                     for row in rows)
        object.__setattr__(self, "g_body", rows)
        floats = [[float(v) for v in row] for row in rows]
        scale = max((abs(v) for r in floats for v in r), default=0.0)
        if not _real_block_diag_ok(floats, gamma.m, gamma.n, scale):
            raise NotBodyIsometry("body matrix must be block diagonal")
        gb = np.array(floats)
        Gb = gamma.body_float()
        # entries near the float64 limit overflow the product to an inf or
        # nan residual, which the gate fails
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.max(np.abs(gb.T @ Gb @ gb - Gb))
        if not within_gate(resid, scale * scale):
            raise NotBodyIsometry(
                "body matrix does not preserve the body of the form")

    @property
    def gamma(self):
        return self.n_part.gamma

    @classmethod
    def identity(cls, gamma: GammaForm):
        k = gamma.m + gamma.n
        eye = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        X = SuperMatrix.zeros(gamma.config, gamma.shape, "even")
        return cls(tuple(map(tuple, eye)), NilElement(X, gamma))


def _conjugate(g_rows, Y: NilElement) -> NilElement:
    """g Y g^{-1}, unchecked: a member again for a body isometry g, which
    the semi-direct product's operands carry.  The rows of g may be Python
    numbers or a numpy array."""
    gamma = Y.gamma
    cfg = gamma.config
    G = SuperMatrix.from_real(cfg, g_rows, gamma.shape, "even")
    # inverted from G's coerced bodies, where numpy integers are Python ints
    Gi = SuperMatrix.from_real(cfg, _body_inverse(G.body(), cfg.rational),
                               gamma.shape, "even")
    return NilElement._trusted(G @ Y.X @ Gi, gamma)


def conjugate_action(g_rows, Y: NilElement) -> NilElement:
    """alpha(g): Y -> g Y g^{-1}, checked for membership: NotLieElement
    when the conjugate is not a member, as when g is no body isometry.  The
    rows of g may be Python numbers or a numpy array."""
    return NilElement(_conjugate(g_rows, Y).X, Y.gamma)


def semidirect_multiply(h1: GroupElement, h2: GroupElement) -> GroupElement:
    if h1.gamma != h2.gamma:
        raise ShapeMismatch("operands live over different canonical forms")
    g = _grid_mul(h1.g_body, h2.g_body)
    n = diamond(h1.n_part, _conjugate(h1.g_body, h2.n_part))
    return GroupElement(g, n)


def semidirect_inverse(h: GroupElement) -> GroupElement:
    cfg = h.gamma.config
    ginv = _body_inverse(h.g_body, cfg.rational)
    n = _conjugate(ginv, -h.n_part)
    return GroupElement(ginv, n)


def embed_isometry(h: GroupElement) -> SuperMatrix:
    """Concrete isometry exp(n) * g realizing the pair; products of pairs
    map to products of matrices."""
    gamma = h.gamma
    G = SuperMatrix.from_real(gamma.config, h.g_body, gamma.shape, "even")
    return h.n_part.exp @ G
