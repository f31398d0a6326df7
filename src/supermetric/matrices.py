"""Block-graded square matrices over the Grassmann algebra.

A SuperMatrix has an (m|n) block shape and a declared parity class:

* even class: the m x m block A and n x n block B carry even entries,
  the off blocks C (m x n) and D (n x m) carry odd entries;
* odd class: the parities are flipped blockwise;
* general: no constraint.

Inversion goes through the body factorization N = B(I + B^{-1}S): the body
is inverted as a real matrix autonomously and the soul correction is a
terminating Neumann sum, mirroring the fact that a matrix over the algebra
is invertible exactly when its body is.  exp/log are provided only for
zero-body and unipotent matrices, where the series are finite.

The adjoint operator of an even-class element with respect to a basis comes
in two forms: supernumber coordinates over a real Lie-algebra basis (built
through graded structure constants), or a flat real matrix over a basis of
single-index slices z(J) * X_i.  Both expose the same spectrum gate: a zero
body makes xi*I - ad invertible for every xi != 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraConfig, Supernumber, sum_of_products
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

_BODY_GATE = 1e-10  # relative smallest-singular-value gate, float64 mode


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


class SuperMatrix:
    """Immutable square matrix of supernumbers with a declared parity class."""

    __slots__ = ("config", "shape", "parity_class", "rows")

    def __init__(self, config, shape, rows, parity_class="general"):
        shape = BlockShape(*shape)
        k = shape.total
        if len(rows) != k or any(len(r) != k for r in rows):
            raise ShapeMismatch(
                f"expected {k}x{k} entries for shape ({shape.m}|{shape.n})")
        if parity_class not in ("even", "odd", "general"):
            raise ParityMismatch(f"unknown parity class {parity_class!r}")
        self.config = config
        self.shape = shape
        self.rows = tuple(tuple(r) for r in rows)
        self.parity_class = parity_class

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, config, shape, parity_class="even"):
        shape = BlockShape(*shape)
        z = config.zero()
        k = shape.total
        return cls(config, shape, [[z] * k for _ in range(k)], parity_class)

    @classmethod
    def identity(cls, config, shape):
        shape = BlockShape(*shape)
        z, one = config.zero(), config.one()
        k = shape.total
        rows = [[one if i == j else z for j in range(k)] for i in range(k)]
        return cls(config, shape, rows, "even")

    @classmethod
    def from_real(cls, config, array, shape, parity_class="general"):
        """Lift a real (or Fraction) square array entrywise."""
        rows = [[config.scalar(v) for v in row] for row in array]
        return cls(config, shape, rows, parity_class)

    @classmethod
    def from_blocks(cls, config, A, C, D, B, parity_class="even"):
        """Assemble from raw 2D lists of supernumbers: [[A, C], [D, B]]."""
        m, n = len(A), len(B)
        z = config.zero()
        A = A or []
        rows = []
        for i in range(m):
            rows.append(list(A[i]) + list(C[i] if C else [z] * n))
        for a in range(n):
            rows.append(list(D[a] if D else [z] * m) + list(B[a]))
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
        cfg = self.config
        cols = list(zip(*other.rows))
        rows = [[sum_of_products(cfg, zip(ri, col), from_zero=True)
                 for col in cols] for ri in self.rows]
        return SuperMatrix(self.config, self.shape, rows,
                           _compose_parity(self.parity_class,
                                           other.parity_class))

    def __add__(self, other):
        self._check_mate(other)
        cls = (self.parity_class if self.parity_class == other.parity_class
               else "general")
        rows = [[a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)]
        return SuperMatrix(self.config, self.shape, rows, cls)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        rows = [[-e for e in r] for r in self.rows]
        return SuperMatrix(self.config, self.shape, rows, self.parity_class)

    def scale(self, scalar):
        rows = [[e.scale(scalar) for e in r] for r in self.rows]
        return SuperMatrix(self.config, self.shape, rows, self.parity_class)

    def transpose_plain(self):
        """Entrywise transpose with no block signs; for use on one-block
        carriers (shape (k|0) or (0|k)) where it is the honest transpose."""
        k = self.shape.total
        rows = [[self.rows[j][i] for j in range(k)] for i in range(k)]
        return SuperMatrix(self.config, self.shape, rows, self.parity_class)

    # -- graded structure --------------------------------------------------

    def supertranspose(self):
        """Blockwise [[A^T, -D^T], [C^T, B^T]]; even class only, where it is
        an anti-homomorphism."""
        if self.parity_class != "even":
            raise ParityMismatch(
                "supertranspose is defined on the even class")
        m, n = self.shape
        A, B = self.block_a(), self.block_b()
        C, D = self.block_c(), self.block_d()
        At = [[A[j][i] for j in range(m)] for i in range(m)]
        Bt = [[B[j][i] for j in range(n)] for i in range(n)]
        Ct = [[C[j][i] for j in range(m)] for i in range(n)]     # n x m
        mDt = [[-D[j][i] for j in range(n)] for i in range(m)]   # m x n
        return SuperMatrix.from_blocks(self.config, At, mDt, Ct, Bt, "even")

    def body(self):
        """Entrywise body as a nested list of mode-native scalars."""
        return [[e.body() for e in r] for r in self.rows]

    def body_float(self) -> np.ndarray:
        return np.array([[float(e.body()) for e in r] for r in self.rows],
                        dtype=float)

    def soul_matrix(self):
        rows = [[e.soul() for e in r] for r in self.rows]
        return SuperMatrix(self.config, self.shape, rows, self.parity_class)

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


def exact_solve(columns, rhs_list):
    """Solve B x = y over Fractions for each y in rhs_list, where B has the
    given columns (length-d lists).  Returns list of coordinate lists, or
    None if the columns are dependent or some y leaves their span."""
    d, r = len(columns[0]) if columns else 0, len(columns)
    a = [[Fraction(columns[j][i]) for j in range(r)] for i in range(d)]
    ys = [[Fraction(y[i]) for y in rhs_list] for i in range(d)]
    pivots = []
    row = 0
    for col in range(r):
        pivot = None
        for rr in range(row, d):
            if a[rr][col] != 0:
                pivot = rr
                break
        if pivot is None:
            return None  # dependent columns
        a[row], a[pivot] = a[pivot], a[row]
        ys[row], ys[pivot] = ys[pivot], ys[row]
        p = a[row][col]
        a[row] = [v / p for v in a[row]]
        ys[row] = [v / p for v in ys[row]]
        for rr in range(d):
            if rr != row and a[rr][col] != 0:
                f = a[rr][col]
                a[rr] = [v - f * w for v, w in zip(a[rr], a[row])]
                ys[rr] = [v - f * w for v, w in zip(ys[rr], ys[row])]
        pivots.append(row)
        row += 1
    # consistency: rows past the pivots must have zero right-hand side
    for rr in range(row, d):
        if any(v != 0 for v in ys[rr]):
            return None
    out = []
    for j in range(len(rhs_list)):
        out.append([ys[i][j] for i in range(r)])
    return out


# -- inversion, exp, log --------------------------------------------------------

def body_matrix(N: SuperMatrix):
    """Entrywise body; odd blocks of an even-class matrix are zero by parity."""
    if N.config.rational:
        return [[e.body() for e in r] for r in N.rows]
    return N.body_float()


def _body_inverse(N: SuperMatrix):
    if N.config.rational:
        inv = exact_inverse(N.body())
        if inv is None:
            raise BodyNotInvertible("matrix body is singular")
        return inv
    bf = N.body_float()
    svals = np.linalg.svd(bf, compute_uv=False)
    if svals[-1] <= _BODY_GATE * max(svals[0], 1e-300):
        raise BodyNotInvertible(
            f"matrix body is numerically singular "
            f"(smallest/largest singular value = {svals[-1]:.3e}/{svals[0]:.3e})")
    return np.linalg.inv(bf)


def invert_matrix(N: SuperMatrix) -> SuperMatrix:
    """Exact inverse through the body factorization N = B(I + B^{-1}S)."""
    cfg = N.config
    binv = _body_inverse(N)
    lift_binv = SuperMatrix.from_real(
        cfg, binv, N.shape,
        "even" if N.parity_class == "even" else "general")
    S = N.soul_matrix()
    T = lift_binv @ S
    acc = SuperMatrix.identity(cfg, N.shape)
    term = acc
    for _ in range(cfg.generator_count + 1):
        term = term @ (-T)
        if term.is_zero():
            break
        acc = acc + term
    out = acc @ lift_binv
    cls = "even" if N.parity_class == "even" else "general"
    return SuperMatrix(cfg, N.shape, out.rows, cls)


def exp_zero_body(X: SuperMatrix) -> SuperMatrix:
    """Finite exponential sum for a zero-body matrix; the result is unipotent."""
    if not X.has_zero_body():
        raise NonZeroBody("exponential input must have zero body")
    cfg = X.config
    acc = SuperMatrix.identity(cfg, X.shape)
    term = acc
    for k in range(1, cfg.generator_count + 2):
        term = (term @ X).scale(Fraction(1, k) if cfg.rational else 1.0 / k)
        if term.is_zero():
            break
        acc = acc + term
    return SuperMatrix(cfg, X.shape, acc.rows,
                       "even" if X.parity_class == "even" else "general")


def log_unipotent(U: SuperMatrix) -> SuperMatrix:
    """Finite logarithm for a matrix whose body is exactly the identity."""
    cfg = U.config
    k = U.shape.total
    for i in range(k):
        for j in range(k):
            if U.rows[i][j].body() != (1 if i == j else 0):
                raise NotUnipotent("matrix body must equal the identity")
    S = U - SuperMatrix.identity(cfg, U.shape)
    acc = SuperMatrix.zeros(cfg, U.shape, "general")
    power = SuperMatrix.identity(cfg, U.shape)
    for step in range(1, cfg.generator_count + 2):
        power = power @ S
        if power.is_zero():
            break
        sign = 1 if step % 2 == 1 else -1
        acc = acc + power.scale(Fraction(sign, step) if cfg.rational
                                else sign / step)
    return SuperMatrix(cfg, U.shape, acc.rows,
                       "even" if U.parity_class == "even" else "general")


# -- adjoint operators -----------------------------------------------------------

@dataclass
class AdOperator:
    """The map Y -> [X, Y] in coordinates over a declared basis.

    coordinate_field is "grassmann" (supernumber entries over a real basis,
    acting on supernumber coordinates from the left) or "real" (flat matrix
    over single-index slices; levels[i] records each slice's index bitmask).
    """
    source: SuperMatrix
    matrix: SuperMatrix
    basis_tag: str
    coordinate_field: str
    levels: tuple = None

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


class _SliceSolver:
    """Solves real coordinates against a fixed list of real grids."""

    def __init__(self, cfg, grids):
        self.cfg = cfg
        self.grids = grids
        self.columns = [_vec(g) for g in grids]
        if cfg.rational:
            self._np = None
        else:
            a = np.array(self.columns, dtype=float).T
            if np.linalg.matrix_rank(a) < len(grids):
                raise BasisDegenerate("basis elements are linearly dependent")
            self._np = np.linalg.pinv(a)
            self._a = a

    def solve(self, vec):
        if self.cfg.rational:
            sol = exact_solve(self.columns, [vec])
            if sol is None:
                raise BasisDegenerate(
                    "coordinates not uniquely solvable over the basis")
            return sol[0]
        y = np.array(vec, dtype=float)
        x = self._np @ y
        resid = np.max(np.abs(self._a @ x - y)) if len(y) else 0.0
        scale = max(1.0, float(np.max(np.abs(y))))
        if resid > 1e-8 * scale:
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


def graded_bracket(P: SuperMatrix, Q: SuperMatrix) -> SuperMatrix:
    """Bracket of two bare real basis elements: commutator, except the
    anticommutator when both sit in the off-diagonal (odd) blocks."""
    both_odd = (_element_block_kind(P) == "odd"
                and _element_block_kind(Q) == "odd")
    return (P @ Q + Q @ P) if both_odd else (P @ Q - Q @ P)


# cache values keep a reference to the basis objects so the ids in the key
# stay bound to them (an id can be recycled only after its object is freed)
_SOLVER_CACHE = {}


def _cache_get(key):
    entry = _SOLVER_CACHE.get(key)
    return entry[1] if entry is not None else None


def _cache_put(key, pinned, value):
    if len(_SOLVER_CACHE) > 64:
        _SOLVER_CACHE.clear()
    _SOLVER_CACHE[key] = (pinned, value)


def _solver_for(cfg, key, pinned, grids):
    solver = _cache_get(key)
    if solver is None:
        solver = _SliceSolver(cfg, grids)
        _cache_put(key, pinned, solver)
    return solver


def ad_operator(X: SuperMatrix, basis, basis_tag="basis") -> AdOperator:
    """Adjoint operator of X over the given basis.

    All-real basis: the operator carries supernumber entries M[k][j] =
    sum_i f_ijk x^i built from graded structure constants, where x^i are
    X's coordinates; composition then matches operator products for
    even-class arguments.  Mixed single-index basis (slices z(J) X_i):
    brackets are taken directly and the flat real coordinate matrix is
    returned, with level tags recorded.
    """
    if not basis:
        raise BasisDegenerate("empty basis")
    cfg = X.config
    for b in basis:
        if b.config != cfg:
            raise ConfigMismatch("basis element uses a different config")
        if b.shape != X.shape:
            raise ShapeMismatch("basis element shape differs from X")
    decomps = [_flatten_slices(b) for b in basis]
    if any(len(d) == 0 for d in decomps):
        raise BasisDegenerate("zero basis element")
    if all(set(d) == {0} for d in decomps):
        return _ad_structure_constants(X, basis, decomps, basis_tag)
    if any(len(d) != 1 for d in decomps):
        raise BasisDegenerate(
            "basis elements must be real or single-index slices")
    return _ad_flat(X, basis, decomps, basis_tag)


def _ad_structure_constants(X, basis, decomps, basis_tag):
    cfg = X.config
    r = len(basis)
    grids = [d[0] for d in decomps]
    basis = tuple(basis)
    ids = tuple(id(b) for b in basis)
    solver = _solver_for(cfg, ("sc", ids), basis, grids)

    cache_key = ("fijk", ids)
    fijk = _cache_get(cache_key)
    if fijk is None:
        fijk = []
        for bi in basis:
            row = []
            for bj in basis:
                bracket = graded_bracket(bi, bj)
                slices = _flatten_slices(bracket)
                if not slices:
                    row.append([cfg.coerce(0)] * r)
                    continue
                if set(slices) != {0}:
                    raise BasisDegenerate("bracket of basis elements is "
                                          "not a real matrix")
                row.append(solver.solve(_vec(slices[0])))
            fijk.append(row)
        _cache_put(cache_key, basis, fijk)

    # X's coordinates over the basis, slice by slice
    lam = [cfg.zero() for _ in range(r)]
    for bits, grid in _flatten_slices(X).items():
        coords = solver.solve(_vec(grid))
        for i, c in enumerate(coords):
            if c != 0:
                lam[i] = lam[i] + Supernumber(cfg, {bits: cfg.coerce(c)})

    rows = [[cfg.zero() for _ in range(r)] for _ in range(r)]
    for i in range(r):
        li = lam[i]
        if li.is_zero():
            continue
        for j in range(r):
            for k in range(r):
                f = fijk[i][j][k]
                if f != 0:
                    rows[k][j] = rows[k][j] + li.scale(f)
    mat = SuperMatrix(cfg, BlockShape(r, 0), rows, "general")
    return AdOperator(X, mat, basis_tag, "grassmann")


def _ad_flat(X, basis, decomps, basis_tag):
    cfg = X.config
    r = len(basis)
    levels = tuple(next(iter(d)) for d in decomps)
    # group basis slots by index bitmask; levels whose grids are equal share
    # one solver, so each distinct grid family is rank-checked once
    groups = {}
    for slot, lv in enumerate(levels):
        groups.setdefault(lv, []).append(slot)
    families = {}
    solvers = {}
    for lv, slots in groups.items():
        grids = [decomps[s][lv] for s in slots]
        key = tuple(tuple(_vec(g)) for g in grids)
        solver = families.get(key)
        if solver is None:
            solver = families[key] = _SliceSolver(cfg, grids)
        solvers[lv] = solver

    # the operator is sparse: entries start as one shared (immutable) zero
    # and only nonzero coordinates are lifted; each slot sits at a single
    # level, so a bracket writes each entry of its column at most once
    zero = cfg.zero()
    rows = [[zero] * r for _ in range(r)]
    for j, b in enumerate(basis):
        z = X @ b - b @ X
        for bits, grid in _flatten_slices(z).items():
            if bits not in groups:
                raise BasisDegenerate(
                    "bracket leaves the span of the given slices")
            coords = solvers[bits].solve(_vec(grid))
            for s, c in zip(groups[bits], coords):
                if c != 0:
                    rows[s][j] = cfg.scalar(c)
    mat = SuperMatrix(cfg, BlockShape(r, 0), rows, "general")
    return AdOperator(X, mat, basis_tag, "real", levels)


def spectrum_gate(ad: AdOperator, xi) -> str:
    """'invertible' or 'singular' for xi*I - ad, decided at body level.

    With a zero-body operator the shifted matrix has body xi*I, so it is
    invertible exactly when xi differs from zero; no tolerance applies.
    """
    if not ad.has_zero_body():
        raise NonZeroBodyOperator(
            "spectrum gate requires a zero-body adjoint operator")
    return "singular" if xi == 0 else "invertible"
