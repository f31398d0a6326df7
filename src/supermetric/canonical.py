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

Stages 1 and 3 are built from bilinear forms x^T M y and frame updates.  A
form takes the covector x^T M once, as a one-row product, and pairs it with
each y in one kernel call; an update x + sum c v is one kernel call per
coordinate.  Each is one accumulator and one prune, so in float64 its bits
are those of that fold, and rational results are the exact values.

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
    EIGENVECTOR_ROUNDOFF,
    GATE,
    Supernumber,
    binomial_inverse_sqrt,
    invert,
    sum_of_products,
    within_gate,
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
from .isometry import GammaForm
from .matrices import BlockShape, SuperMatrix, _body_inverse, _mul_rows


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

    @property
    def body_reducible(self):
        return all(r["condition_met"] for r in self.reducibility)


def _entries_equal(x: Supernumber, y: Supernumber, tol_scale) -> bool:
    diff = x - y
    # an exact zero passes even where the float bound overflows
    return diff.is_zero() or (not x.config.rational
                              and within_gate(diff.norm(), tol_scale))


def _covector(cfg, x, rows):
    """x^T M for a coordinate column x (a list of supernumbers) and the rows
    of M, as a one-row product: each entry one sum over i of x_i M_ij."""
    return _mul_rows(cfg, (x,), rows)[0]


def _bilinear(cfg, covector, y):
    """x^T M y from the covector x^T M: the sum over j of covector_j y_j in
    one kernel call, one accumulator and one prune.  A stage forms each
    covector once and pairs it with every y it needs."""
    return sum_of_products(cfg, zip(covector, y))


def _shifted(cfg, x, steps):
    """x + sum c v over the (c, v) of ``steps``, scalar c and column v,
    coordinate by coordinate, each in one kernel call over the pairs
    (1, x_i), (c, v_i), ...: one accumulator and one prune."""
    one = cfg.one()
    return [sum_of_products(cfg, [(one, xi)] + [(c, v[i]) for c, v in steps])
            for i, xi in enumerate(x)]


def canonical_term_pairs(m: int, n: int, k: int) -> int:
    """Term pairs that the budget charges canonicalizing an (m|n) metric
    whose entries use k generators: (m+n)^3 entry products per matrix
    product, each of at most 4^(k-1) term pairs, as two elements of one
    parity over k generators hold 2^(k-1) terms each."""
    return (m + n) ** 3 << max(2 * k - 2, 0)


# the figure of (4|4) at L=8: 512 entry products of 4^7 term pairs each
CANONICAL_BUDGET = canonical_term_pairs(4, 4, 8)


def check_work_budget(verb, config, shape, entries, scalars=()) -> None:
    """Refuse a request past CANONICAL_BUDGET before any work on it, in one
    pass over its supernumber ``entries`` and real ``scalars``: k is the
    number of generators in the union of all term bitmasks, and in rational
    mode each term pair is charged w^2, w the 64-bit words of the largest
    numerator or denominator, as a product of two such coefficients costs
    that many word products."""
    used = 0
    big = 0         # its bit length is the largest of the ORed magnitudes
    if config.rational:
        for entry in entries:
            for bits, c in entry.terms.items():
                used |= bits
                big |= abs(c.numerator) | c.denominator
        for c in scalars:
            big |= abs(c.numerator) | c.denominator
    else:
        for entry in entries:
            for bits in entry.terms:
                used |= bits
    m, n = shape
    k = used.bit_count()
    words = max(1, -(-big.bit_length() // 64))
    pairs = canonical_term_pairs(m, n, k) * words ** 2
    if pairs > CANONICAL_BUDGET:
        raise ValidationError(
            f"{verb} at ({m}|{n}) over {k} generators in use, with "
            f"coefficients of up to {words} 64-bit words, needs {pairs} "
            f"word-weighted term pairs, over the budget of "
            f"{CANONICAL_BUDGET} ((4|4) over 8 generators)")


def validate_metric(G: SuperMatrix) -> SuperMetric:
    """Check evenness, graded symmetry, even odd-dimension, and body
    invertibility of both diagonal blocks."""
    if G.parity_class != "even" or not G.check_parity_class():
        raise NotEven("metric matrix must be of even class "
                      "(even diagonal blocks, odd off blocks)")
    m, n = G.shape
    if n % 2 != 0:
        raise OddDimensionOdd(f"odd dimension n = {n} must be even")
    scale = G.entry_norm_max()
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
            _body_inverse([[e.body() for e in r] for r in rows],
                          G.config.rational)
        except BodyNotInvertible:
            raise DegenerateBody(
                f"body of the {name} block is singular") from None
    return SuperMetric(G)


def _eigh_frame(A: SuperMatrix, cfg):
    """Deterministic real frame from the body of A: eigenvalues descending,
    each eigenvector's first nonvanishing component positive."""
    m = A.shape.m
    w, v = np.linalg.eigh(A.body_float())
    order = np.argsort(-w, kind="stable")
    v = v[:, order]
    for col in range(m):
        lead = 0.0
        for i in range(m):
            if abs(v[i, col]) > EIGENVECTOR_ROUNDOFF:
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

    Returns (P0, d): P0 is the m x m transition, an (m|0) SuperMatrix,
    with P0^T A P0 = diag(d), each body(d_i) nonzero.
    """
    cfg = metric.config
    m = metric.m
    if m == 0:
        return SuperMatrix._trusted(cfg, BlockShape(0, 0), (), "general"), []
    shape = BlockShape(m, 0)
    A = SuperMatrix._trusted(
        cfg, shape, tuple([r[:m] for r in metric.matrix.rows[:m]]), "even")
    P = SuperMatrix.from_real(cfg, _eigh_frame(A, cfg), (m, 0), "even")
    Abar = (P.supertranspose() @ (A @ P)).rows

    fs = []
    ds = []
    inv_ds = []
    for k in range(m):
        # f_k = e_k - sum_l (e_k^T Abar f_l / d_l) f_l: each coefficient
        # reads e_k, whose covector is row k of Abar, not the partly updated
        # column, so the whole update is one step
        f = _shifted(cfg, [cfg.one() if i == k else cfg.zero()
                           for i in range(m)],
                     [(-(_bilinear(cfg, Abar[k], g) * inv_d), g)
                      for g, inv_d in zip(fs, inv_ds)])
        dk = _bilinear(cfg, _covector(cfg, f, Abar), f)
        body = dk.body()
        if body == 0 or (not cfg.rational
                         and within_gate(abs(body), dk.norm())):
            raise DegenerateBody(
                f"diagonal entry {k} lost its body during orthogonalization")
        fs.append(f)
        ds.append(dk)
        inv_ds.append(invert(dk))
    # assemble P0 = frame @ gram-schmidt columns
    gs = tuple([tuple([fs[k][i] for k in range(m)]) for i in range(m)])
    return P @ SuperMatrix._trusted(cfg, shape, gs, "even"), ds


def odd_complement(metric: SuperMetric, P0, d):
    """Extend P0 to the full space and shear away the mixed blocks.

    Returns (P1, B2): P1 is the full (m|n) transition, and B2 the odd-odd
    block of P1^ST G P1, an (n|0) SuperMatrix; the mixed blocks of that
    Gram matrix vanish identically and are not formed.
    """
    cfg = metric.config
    m, n = metric.m, metric.n
    G = metric.matrix
    # lift P0 to diag(P0, I) and transform
    I_n = SuperMatrix.identity(cfg, (n, 0)).rows
    P_even = SuperMatrix.from_blocks(cfg, P0.rows, None, None, I_n, "even")
    G1 = P_even.supertranspose() @ G @ P_even
    Cp = G1.block_c()  # entries g(e_i, f_alpha) in the new even frame
    inv_d = [invert(di) for di in d]
    W = [[inv_d[j] * Cp[j][a] for a in range(n)] for j in range(m)]
    shear = SuperMatrix.from_blocks(
        cfg,
        SuperMatrix.identity(cfg, (m, 0)).rows,
        [[-W[i][a] for a in range(n)] for i in range(m)],
        None,
        I_n,
        "even")
    P1 = P_even @ shear
    # rows m.. of shear^ST G1 times the last n columns of shear: each entry
    # is the fold the full product shear^ST @ G1 @ shear makes for it
    odd_rows = _mul_rows(cfg, shear.supertranspose().rows[m:], G1.rows)
    B2 = _mul_rows(cfg, odd_rows, [row[m:] for row in shear.rows])
    return P1, SuperMatrix._trusted(cfg, BlockShape(n, 0), B2, "even")


def symplectic_reduce(B1, cfg):
    """Bring a skew even block with invertible body to the interleaved
    standard symplectic form.  B1 is raw n x n supernumber rows; returns Q
    (raw rows) with Q^T B1 Q equal to the block diagonal of [[0,1],[-1,0]].
    """
    n = len(B1)
    if n == 0:
        return []
    z = cfg.zero()
    bscale = max((abs(float(e.body())) for r in B1 for e in r), default=0.0)
    remaining = [[cfg.one() if i == k else z for i in range(n)]
                 for k in range(n)]
    pairs = []
    while remaining:
        u = remaining.pop(0)
        u_cov = _covector(cfg, u, B1)
        pairings = [_bilinear(cfg, u_cov, w) for w in remaining]
        scores = [abs(float(p.body())) for p in pairings]
        floor = 0.0 if cfg.rational else GATE * bscale
        if not scores or max(scores) <= floor:
            raise DegenerateBody(
                "no partner with nonzero body pairing remains")
        best = scores.index(max(scores))
        w = remaining.pop(best)
        zinv = invert(pairings[best])
        w = [zinv * wi for wi in w]                  # now u^T B1 w = 1
        for idx, x in enumerate(remaining):
            x_cov = _covector(cfg, x, B1)
            cu = _bilinear(cfg, x_cov, w)
            cw = _bilinear(cfg, x_cov, u)
            remaining[idx] = _shifted(cfg, x, ((-cu, u), (cw, w)))
        pairs.append((u, w))
    cols = []
    for u, w in pairs:
        cols.append(u)
        cols.append(w)
    return [[cols[k][i] for k in range(n)] for i in range(n)]


def canonical_form(metric: SuperMetric) -> CanonicalizationResult:
    """Compose the three stages; P^ST G P = diag(eta, J) with eta = diag(d)."""
    cfg = metric.config
    P0, d = orthogonalize_even(metric)
    P1, B2 = odd_complement(metric, P0, d)
    Q = symplectic_reduce(B2.rows, cfg)
    I_m = SuperMatrix.identity(cfg, (metric.m, 0)).rows
    P = P1 @ SuperMatrix.from_blocks(cfg, I_m, None, None, Q, "even")
    Gamma = GammaForm(cfg, d, metric.n).matrix()
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
    shape = BlockShape(m, 0)
    resc = SuperMatrix._trusted(
        cfg, shape, tuple([tuple([lambdas[i] if i == j else z
                                  for j in range(m)]) for i in range(m)]),
        "even")
    one = cfg.one()
    perm = SuperMatrix._trusted(
        cfg, shape, tuple([tuple([one if order[j] == i else z
                                  for j in range(m)]) for i in range(m)]),
        "even")
    I_n = SuperMatrix.identity(cfg, (n, 0)).rows
    lift = SuperMatrix.from_blocks(cfg, (resc @ perm).rows, None, None, I_n,
                                   "even")
    new_P = result.P @ lift
    new_d = [cfg.scalar(signs[i]) for i in order]
    Gamma = GammaForm(cfg, new_d, n).matrix()
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
    return CanonicalizationResult(new_P, Gamma, new_d, reducibility)


def congruence(P: SuperMatrix, G: SuperMatrix) -> SuperMatrix:
    """G -> P^ST G P, the transformation law of Gram matrices here."""
    return P.supertranspose() @ G @ P
