"""Canonical form of an even graded-symmetric Gram matrix.

The pipeline takes a valid metric matrix G (symmetric even-even block A,
skew even-odd structure, invertible bodies) to diag(eta, J) in three
congruence stages, each an even transition N acting as G -> N^ST G N:

1. orthogonalize_even: a real eigendecomposition of the body of A fixes a
   deterministic starting frame, then Gram-Schmidt over the even subalgebra
   (which is commutative, so plain transposes apply) diagonalizes A exactly.
2. odd_complement: the mixed blocks are eliminated by shearing the odd
   frame with coefficients d_j^{-1} g(e_j, f_alpha); the odd-odd block
   changes only by products of odd entries, so its body is untouched.
3. symplectic_reduce: greedy pairing of the skew odd-odd block into exact
   2x2 blocks [[0, 1], [-1, 0]], interleaved adjacently.

body_reduce then rescales each diagonal entry d to +-1 when the soul is
dominated by the body (ratio ||s(d)|| / |body(d)| < 1; always possible at
finite truncation, gated in strict mode), sorting +1 entries first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import (
    Supernumber,
    binomial_inverse_sqrt,
    invert,
    _rational_sqrt,
)
from .errors import (
    BodyNotInvertible,
    ConvergenceViolation,
    DegenerateBody,
    NotEven,
    NotGradedSymmetric,
    OddDimensionOdd,
    ValidationError,
)
from .matrices import SuperMatrix, _body_inverse, _mul_rows

_GATE = 1e-10


@dataclass(frozen=True)
class SuperMetric:
    """A validated metric Gram matrix with cached blocks."""
    matrix: SuperMatrix

    @property
    def m(self):
        return self.matrix.shape.m

    @property
    def n(self):
        return self.matrix.shape.n

    @property
    def config(self):
        return self.matrix.config


@dataclass
class CanonicalizationResult:
    P: SuperMatrix
    Gamma: SuperMatrix
    d: list
    reducibility: list = field(default_factory=list)
    body_reduced: bool = False

    @property
    def body_reducible(self):
        return all(r["condition_met"] for r in self.reducibility)


def _entries_equal(x: Supernumber, y: Supernumber, tol_scale) -> bool:
    diff = x - y
    if x.config.rational:
        return diff.is_zero()
    return float(diff.norm()) <= 1e-10 * (1.0 + tol_scale)


def _raw_transpose(rows):
    if not rows:
        return []
    return [[rows[i][j] for i in range(len(rows))]
            for j in range(len(rows[0]))]


def _raw_mul(a, b):
    # a: p x q, b: q x r lists of supernumbers; each entry folds from its
    # first nonzero product
    if not a or not b:
        return [[] for _ in a]
    return _mul_rows(a[0][0].config, a, b, from_zero=False)


def canonical_term_pairs(m: int, n: int, k: int) -> int:
    """Term pairs that the budget charges canonicalizing an (m|n) metric
    whose entries use k generators: (m+n)^3 entry products per matrix
    product, each of at most 4^(k-1) term pairs, as two elements of one
    parity over k generators hold 2^(k-1) terms each."""
    return (m + n) ** 3 << max(2 * k - 2, 0)


# the figure of (4|4) at L=8: 512 entry products of 4^7 term pairs each
CANONICAL_BUDGET = canonical_term_pairs(4, 4, 8)


def check_canonical_budget(G: SuperMatrix) -> None:
    """Refuse a metric past CANONICAL_BUDGET before any work on it; k is
    the number of generators in the union of all term bitmasks of G."""
    used = 0
    for row in G.rows:
        for entry in row:
            for bits in entry.terms:
                used |= bits
    m, n = G.shape
    k = used.bit_count()
    pairs = canonical_term_pairs(m, n, k)
    if pairs > CANONICAL_BUDGET:
        raise ValidationError(
            f"canonicalize at ({m}|{n}) over {k} generators in use needs "
            f"{pairs} term pairs, over the budget of {CANONICAL_BUDGET} "
            f"((4|4) over 8 generators)")


def validate_metric(G: SuperMatrix) -> SuperMetric:
    """Check evenness, graded symmetry, even odd-dimension, and body
    invertibility of both diagonal blocks."""
    if G.parity_class != "even" or not G.check_parity_class():
        raise NotEven("metric matrix must be of even class "
                      "(even diagonal blocks, odd off blocks)")
    m, n = G.shape
    if n % 2 != 0:
        raise OddDimensionOdd(f"odd dimension n = {n} must be even")
    scale = float(G.entry_norm_max())
    A, B = G.block_a(), G.block_b()
    C, D = G.block_c(), G.block_d()
    for i in range(m):
        for j in range(m):
            if not _entries_equal(A[i][j], A[j][i], scale):
                raise NotGradedSymmetric("even-even block is not symmetric")
    for a in range(n):
        for b in range(n):
            if not _entries_equal(B[a][b], -B[b][a], scale):
                raise NotGradedSymmetric("odd-odd block is not skew")
    for i in range(m):
        for a in range(n):
            if not _entries_equal(C[i][a], D[a][i], scale):
                raise NotGradedSymmetric("mixed blocks fail D = C^T")
    for rows, name in ((A, "even-even"), (B, "odd-odd")):
        if not rows:
            continue
        try:
            _body_inverse(SuperMatrix(G.config, (len(rows), 0), rows))
        except BodyNotInvertible:
            raise DegenerateBody(
                f"body of the {name} block is singular") from None
    return SuperMetric(G)


def _eigh_frame(A_rows, cfg):
    """Deterministic real frame from the body of A: eigenvalues descending,
    each eigenvector's first nonvanishing component positive."""
    m = len(A_rows)
    bf = np.array([[float(e.body()) for e in r] for r in A_rows])
    w, v = np.linalg.eigh(bf)
    order = np.argsort(-w, kind="stable")
    v = v[:, order]
    for col in range(m):
        lead = 0.0
        for i in range(m):
            if abs(v[i, col]) > 1e-12:
                lead = v[i, col]
                break
        if lead < 0:
            v[:, col] = -v[:, col]
    if cfg.rational:
        # binary floats are dyadic rationals, so this lift is exact and the
        # later stages stay exact even though v only approximately
        # diagonalizes the body
        return [[Fraction(float(v[i, j])) for j in range(m)] for i in range(m)]
    return [[float(v[i, j]) for j in range(m)] for i in range(m)]


def orthogonalize_even(metric: SuperMetric):
    """Diagonalize the even-even block over the even subalgebra.

    Returns (P0, d): P0 is the m x m transition (as raw supernumber rows)
    with P0^T A P0 = diag(d), each body(d_i) nonzero.
    """
    cfg = metric.config
    m = metric.m
    A = metric.matrix.block_a()
    if m == 0:
        return [], []
    frame = _eigh_frame(A, cfg)
    P = [[cfg.scalar(frame[i][j]) for j in range(m)] for i in range(m)]
    Abar = _raw_mul(_raw_transpose(P), _raw_mul(A, P))

    def pair(x, y):
        # x^T Abar y for coordinate columns (lists of supernumbers)
        acc = cfg.zero()
        for i in range(m):
            if x[i].is_zero():
                continue
            for j in range(m):
                if not y[j].is_zero():
                    acc = acc + x[i] * Abar[i][j] * y[j]
        return acc

    cols = [[cfg.one() if i == k else cfg.zero() for i in range(m)]
            for k in range(m)]
    fs = []
    ds = []
    inv_ds = []
    for k in range(m):
        f = cols[k]
        for l in range(len(fs)):
            coeff = pair(cols[k], fs[l]) * inv_ds[l]
            if not coeff.is_zero():
                f = [fi - coeff * gl for fi, gl in zip(f, fs[l])]
        dk = pair(f, f)
        body = dk.body()
        limit = _GATE * (1.0 + float(dk.norm())) if not cfg.rational else 0
        if body == 0 or (not cfg.rational and abs(float(body)) <= limit):
            raise DegenerateBody(
                f"diagonal entry {k} lost its body during orthogonalization")
        fs.append(f)
        ds.append(dk)
        inv_ds.append(invert(dk))
    # assemble P0 = frame @ gram-schmidt columns
    gs = [[fs[k][i] for k in range(m)] for i in range(m)]
    P0 = _raw_mul(P, gs)
    return P0, ds


def odd_complement(metric: SuperMetric, P0, d):
    """Extend P0 to the full space and shear away the mixed blocks.

    Returns (P1, G1) with P1 the full (m|n) transition and G1 the updated
    Gram matrix, whose mixed blocks vanish identically.
    """
    cfg = metric.config
    m, n = metric.m, metric.n
    G = metric.matrix
    z = cfg.zero()
    # lift P0 to diag(P0, I) and transform
    I_n = [[cfg.one() if a == b else z for b in range(n)] for a in range(n)]
    P_even = SuperMatrix.from_blocks(cfg, P0, None, None, I_n, "even")
    G1 = P_even.supertranspose() @ G @ P_even
    Cp = G1.block_c()  # entries g(e_i, f_alpha) in the new even frame
    inv_d = [invert(di) for di in d]
    W = [[inv_d[j] * Cp[j][a] for a in range(n)] for j in range(m)]
    shear = SuperMatrix.from_blocks(
        cfg,
        [[cfg.one() if i == j else z for j in range(m)] for i in range(m)],
        [[-W[i][a] for a in range(n)] for i in range(m)],
        None,
        I_n,
        "even")
    P1 = P_even @ shear
    G2 = shear.supertranspose() @ G1 @ shear
    return P1, G2


def symplectic_reduce(B1, cfg):
    """Bring a skew even block with invertible body to the interleaved
    standard symplectic form.  B1 is raw n x n supernumber rows; returns Q
    (raw rows) with Q^T B1 Q equal to the block diagonal of [[0,1],[-1,0]].
    """
    n = len(B1)
    if n == 0:
        return []
    z = cfg.zero()

    def w_pair(x, y):
        acc = cfg.zero()
        for i in range(n):
            if x[i].is_zero():
                continue
            for j in range(n):
                if not y[j].is_zero():
                    acc = acc + x[i] * B1[i][j] * y[j]
        return acc

    bscale = max((abs(float(e.body())) for r in B1 for e in r), default=0.0)
    remaining = [[cfg.one() if i == k else z for i in range(n)]
                 for k in range(n)]
    pairs = []
    while remaining:
        u = remaining.pop(0)
        scores = [abs(float(w_pair(u, w).body())) for w in remaining]
        floor = 0.0 if cfg.rational else _GATE * bscale
        if not scores or max(scores) <= floor:
            raise DegenerateBody(
                "no partner with nonzero body pairing remains")
        w = remaining.pop(scores.index(max(scores)))
        zval = w_pair(u, w)
        w = [invert(zval) * wi for wi in w]          # now w_pair(u, w) = 1
        for idx, x in enumerate(remaining):
            cu = w_pair(x, w)
            cw = w_pair(x, u)
            remaining[idx] = [xi - cu * ui + cw * wi
                              for xi, ui, wi in zip(x, u, w)]
        pairs.append((u, w))
    cols = []
    for u, w in pairs:
        cols.append(u)
        cols.append(w)
    return [[cols[k][i] for k in range(n)] for i in range(n)]


def standard_symplectic(cfg, n) -> list:
    """Raw rows of the block diagonal of n/2 copies of [[0,1],[-1,0]]."""
    rows = [[cfg.zero() for _ in range(n)] for _ in range(n)]
    for k in range(0, n, 2):
        rows[k][k + 1] = cfg.one()
        rows[k + 1][k] = cfg.scalar(-1)
    return rows


def canonical_form(metric: SuperMetric) -> CanonicalizationResult:
    """Compose the three stages; P^ST G P = diag(eta, J) with eta = diag(d)."""
    cfg = metric.config
    m, n = metric.m, metric.n
    z = cfg.zero()
    P0, d = orthogonalize_even(metric)
    P1, G2 = odd_complement(metric, P0, d)
    Q = symplectic_reduce(G2.block_b(), cfg)
    I_m = [[cfg.one() if i == j else z for j in range(m)] for i in range(m)]
    lift_Q = SuperMatrix.from_blocks(cfg, I_m, None, None, Q, "even")
    P = P1 @ lift_Q
    eta_rows = [[d[i] if i == j else z for j in range(m)] for i in range(m)]
    Gamma = SuperMatrix.from_blocks(
        cfg, eta_rows, None, None, standard_symplectic(cfg, n), "even")
    reducibility = []
    for di in d:
        ratio = _soul_body_ratio(di)
        reducibility.append({
            "ratio": ratio,
            "condition_met": bool(ratio < 1),
            "sign": None,
        })
    return CanonicalizationResult(P, Gamma, list(d), reducibility)


def _soul_body_ratio(di: Supernumber):
    b = di.body()
    soul_norm = di.soul().norm()
    if di.config.rational:
        return Fraction(soul_norm) / abs(b)
    return float(soul_norm) / abs(float(b))


def body_reduce(result: CanonicalizationResult,
                strict: bool = False) -> CanonicalizationResult:
    """Rescale eta entries to exactly +-1, sorting +1 before -1.

    The scaling factor for entry d is w / sqrt(|body(d)|) with w the
    terminating inverse square root of 1 + soul(d)/body(d); its square times
    d is the body's sign exactly.  In strict mode entries whose soul/body
    ratio reaches 1 are refused.
    """
    cfg = result.P.config
    m = len(result.d)
    n = result.Gamma.shape.n
    z = cfg.zero()
    lambdas = []
    signs = []
    ratios = []
    scale_exact = []
    for i, di in enumerate(result.d):
        b = di.body()
        ratio = _soul_body_ratio(di)
        if strict and ratio >= 1:
            raise ConvergenceViolation(
                f"entry {i}: soul/body ratio {float(ratio):.6g} >= 1 "
                "refused in strict mode")
        mu = di.soul() / b
        w = binomial_inverse_sqrt(mu)
        if cfg.rational:
            root = _rational_sqrt(Fraction(1) / abs(b))
            if root is not None:
                lam = w.scale(root)
                scale_exact.append(True)
            else:
                lam = w.scale(Fraction(1.0 / math.sqrt(float(abs(b)))))
                scale_exact.append(False)
        else:
            lam = w.scale(1.0 / math.sqrt(abs(float(b))))
            scale_exact.append(True)
        lambdas.append(lam)
        signs.append(1 if b > 0 else -1)
        ratios.append(ratio)
    order = sorted(range(m), key=lambda i: (0 if signs[i] > 0 else 1, i))
    # transition: first the diagonal rescale, then the sign-sorting permutation
    resc_rows = [[lambdas[i] if i == j else z for j in range(m)]
                 for i in range(m)]
    perm_rows = [[cfg.one() if order[j] == i else z for j in range(m)]
                 for i in range(m)]
    step = _raw_mul(resc_rows, perm_rows)
    I_n = [[cfg.one() if a == b else z for b in range(n)] for a in range(n)]
    lift = SuperMatrix.from_blocks(cfg, step, None, None, I_n, "even")
    new_P = result.P @ lift
    new_d = [cfg.scalar(signs[i]) for i in order]
    eta_rows = [[new_d[i] if i == j else z for j in range(m)]
                for i in range(m)]
    Gamma = SuperMatrix.from_blocks(
        cfg, eta_rows, None, None, standard_symplectic(cfg, n), "even")
    reducibility = []
    for i in order:
        reducibility.append({
            "index": i,
            "ratio": ratios[i],
            "condition_met": bool(ratios[i] < 1),
            "sign": signs[i],
            "scale_exact": scale_exact[i],
            "lambda": lambdas[i],
        })
    return CanonicalizationResult(new_P, Gamma, new_d, reducibility,
                                  body_reduced=True)


def congruence(P: SuperMatrix, G: SuperMatrix) -> SuperMatrix:
    """G -> P^ST G P, the transformation law of Gram matrices here."""
    return P.supertranspose() @ G @ P
