"""Seeded random generators for property suites.

Everything here draws from a caller-supplied numpy Generator, so a fixed
seed fixes the full value stream; the verification report depends on
nothing else.  Rational draws use small integer numerators and
denominators to keep exact arithmetic fast.  Random metrics retry until
the integer bodies are exactly invertible, which keeps the validity
precondition honest instead of probabilistic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import AlgebraConfig, Supernumber
from .errors import ShapeMismatch, ValidationError
from .isometry import GammaForm, LieBasis, _scale_by_supernumber, lie_basis
from .matrices import SuperMatrix, exact_inverse


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


def rand_coeff(rng, config: AlgebraConfig, amp=1, nonzero=False):
    """Mode-native scalar, roughly in [-2, 2] * amp."""
    num = int(rng.integers(-12, 13))
    den = int(rng.integers(1, 7))
    if nonzero and num == 0:
        num = 7
    if config.rational:
        return Fraction(num, den) * Fraction(amp).limit_denominator(64)
    return float(num) / float(den) * float(amp)


def rand_indices(rng, L: int, grade: int):
    if grade == 0:
        return ()
    picked = rng.choice(L, size=grade, replace=False)
    return tuple(sorted(int(i) + 1 for i in picked))


def rand_pure(rng, config: AlgebraConfig, grade: int, amp=1,
              nonzero=True) -> Supernumber:
    return config.term(rand_indices(rng, config.generator_count, grade),
                       rand_coeff(rng, config, amp, nonzero))


def _grades(L, parity, include_body):
    if parity == "even":
        out = ([0] if include_body else []) + [g for g in (2, 4) if g <= L]
    else:
        out = [g for g in (1, 3) if g <= L]
    if not out:   # only the even souls at L = 1
        raise ValidationError(
            f"no {parity} soul grade to sample with {L} generator(s)")
    return out


def _pick(rng, grades):
    """One grade, the draw ``rng.choice(grades)`` makes from the same
    stream, at a fraction of its cost."""
    return grades[int(rng.integers(0, len(grades)))]


def rand_homogeneous(rng, config: AlgebraConfig, parity: str, amp=1,
                     terms=2, include_body=True, body_nonzero=False
                     ) -> Supernumber:
    """Random supernumber of pure parity built from a few sampled terms."""
    grades = _grades(config.generator_count, parity, include_body)
    acc = config.zero()
    for t in range(terms):
        grade = _pick(rng, grades)
        nonzero = body_nonzero and grade == 0
        acc = acc + rand_pure(rng, config, grade, amp, nonzero=nonzero)
    if body_nonzero and acc.body() == 0:
        acc = acc + config.scalar(rand_coeff(rng, config, amp, nonzero=True))
    return acc


# -- metrics ----------------------------------------------------------------------

def _int_rows(rng, k, lo, hi):
    return [[int(rng.integers(lo, hi + 1)) for _ in range(k)]
            for _ in range(k)]


def _invertible(rows):
    """Whether an integer matrix is invertible; the empty one is."""
    return not rows or exact_inverse(
        [[Fraction(v) for v in row] for row in rows]) is not None


def random_metric(rng, config: AlgebraConfig, m: int, n: int,
                  soul_amp=Fraction(1, 4)) -> SuperMatrix:
    """Valid graded-symmetric metric with invertible diagonal-block bodies.

    A = A^T even, B = -B^T even with a symplectic-like invertible body,
    D = C^T odd; soul terms are grade-2 (diagonal blocks) and grade-1/3
    (off blocks) with amplitude soul_amp.
    """
    if n % 2:
        raise ShapeMismatch("odd block size must be even")
    z = config.zero()

    while True:
        raw = _int_rows(rng, m, -2, 2)
        a_body = [[raw[i][j] + raw[j][i] + (3 * (1 if rng.integers(0, 2)
                                                 else -1) if i == j else 0)
                   for j in range(m)] for i in range(m)]
        if _invertible(a_body):
            break
    while True:
        raw = _int_rows(rng, n, -1, 1)
        b_body = [[raw[i][j] - raw[j][i] for j in range(n)]
                  for i in range(n)]
        for p in range(0, n, 2):
            b_body[p][p + 1] += 2
            b_body[p + 1][p] -= 2
        if _invertible(b_body):
            break

    A = [[z for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            e = config.scalar(a_body[i][j])
            if int(rng.integers(0, 10)) < 7:
                e = e + rand_pure(rng, config, 2, soul_amp)
            A[i][j] = e
            A[j][i] = e
    B = [[z for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = config.scalar(b_body[i][j])
            if int(rng.integers(0, 10)) < 7:
                e = e + rand_pure(rng, config, 2, soul_amp)
            B[i][j] = e
            B[j][i] = -e
    C = [[z for _ in range(n)] for _ in range(m)]
    for i in range(m):
        for al in range(n):
            if int(rng.integers(0, 10)) < 8:
                grade = 3 if (config.generator_count >= 3
                              and int(rng.integers(0, 4)) == 0) else 1
                C[i][al] = rand_pure(rng, config, grade, soul_amp)
    D = [[C[i][al] for i in range(m)] for al in range(n)]
    return SuperMatrix.from_blocks(config, A, C, D, B, "even")


# -- algebra elements over a canonical form -----------------------------------------

def random_member(rng, basis: LieBasis, terms=3, soul_only=False,
                  amp=1) -> SuperMatrix:
    """Random element of the graded span: sum of z(J) * X with |J| matching
    the parity of X; soul_only keeps every |J| >= 1 so the body vanishes."""
    cfg = basis.gamma.config
    L = cfg.generator_count
    flat = basis.elements()
    if not flat:
        raise ValidationError(
            f"the Lie basis of ({basis.gamma.m}|{basis.gamma.n}) is empty; "
            f"there is no member to sample")
    dim0 = len(basis.g0)
    acc = SuperMatrix.zeros(cfg, basis.gamma.shape, "even")
    for _ in range(terms):
        pos = int(rng.integers(0, len(flat)))
        parity = "even" if pos < dim0 else "odd"
        grades = _grades(L, parity, include_body=not soul_only)
        grade = _pick(rng, grades)
        factor = rand_pure(rng, cfg, grade, amp)
        acc = acc + _scale_by_supernumber(flat[pos], factor)
    return acc


def random_nil(rng, basis: LieBasis, terms=3, amp=1):
    from .group import NilElement

    X = random_member(rng, basis, terms=terms, soul_only=True, amp=amp)
    return NilElement._trusted(X, basis.gamma)


# rational points on the isometry groups: (c, s) with c^2 + s^2 = 1 for
# definite eta pairs, c^2 - s^2 = 1 for mixed ones
_CIRCLE = [(Fraction(3, 5), Fraction(4, 5)),
           (Fraction(5, 13), Fraction(12, 13)),
           (Fraction(8, 17), Fraction(15, 17))]
_HYPERBOLA = [(Fraction(5, 4), Fraction(3, 4)),
              (Fraction(13, 12), Fraction(5, 12)),
              (Fraction(17, 8), Fraction(15, 8))]


def random_body_isometry(rng, gamma: GammaForm, factors=3):
    """Real matrix preserving the body of Gamma, block diagonal.

    A product of exact factors (Pythagorean rotations, rational hyperbolic
    boosts, unit-determinant pair maps), drawn the same way in both modes;
    each entry is then brought into the mode by ``config.coerce``, so a
    float64 body is the rational one rounded entry by entry.
    """
    m, n = gamma.m, gamma.n
    k = m + n
    eta = [1 if e.body() > 0 else -1 for e in gamma.eta]
    out = [[Fraction(1 if i == j else 0) for j in range(k)]
           for i in range(k)]

    def apply(rows2, i, j):
        # left-multiply by the factor supported on rows/columns i, j
        for col in range(k):
            vi, vj = out[i][col], out[j][col]
            out[i][col] = rows2[0][0] * vi + rows2[0][1] * vj
            out[j][col] = rows2[1][0] * vi + rows2[1][1] * vj

    for _ in range(factors):
        if m >= 2 and (n == 0 or rng.integers(0, 2)):
            i = int(rng.integers(0, m - 1))
            j = int(rng.integers(i + 1, m))
            c, s = (_CIRCLE if eta[i] == eta[j]
                    else _HYPERBOLA)[int(rng.integers(0, 3))]
            if rng.integers(0, 2):
                s = -s
            if eta[i] == eta[j]:
                apply([[c, -s], [s, c]], i, j)
            else:
                apply([[c, s], [s, c]], i, j)
        elif n:
            p = m + 2 * int(rng.integers(0, n // 2))
            t = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            kind = int(rng.integers(0, 3))
            if kind == 0:
                apply([[Fraction(1), t], [Fraction(0), Fraction(1)]],
                      p, p + 1)
            elif kind == 1:
                apply([[Fraction(1), Fraction(0)], [t, Fraction(1)]],
                      p, p + 1)
            else:
                u = Fraction(int(rng.integers(1, 4)),
                             int(rng.integers(1, 4)))
                apply([[u, Fraction(0)], [Fraction(0), 1 / u]], p, p + 1)
    coerce = gamma.config.coerce
    return [[coerce(v) for v in row] for row in out]


def random_group_element(rng, basis: LieBasis, terms=2, amp=Fraction(1, 2)):
    from .group import GroupElement

    g = random_body_isometry(rng, basis.gamma)
    n = random_nil(rng, basis, terms=terms, amp=amp)
    return GroupElement(tuple(map(tuple, g)), n)


def standard_gamma(config: AlgebraConfig, p: int, q: int, n: int
                   ) -> GammaForm:
    """Body-reduced diag(+1 x p, -1 x q, J)."""
    eta = tuple([1] * p + [-1] * q)
    return GammaForm(config, eta, n)


def basis_for(config: AlgebraConfig, p: int, q: int, n: int) -> LieBasis:
    return lie_basis(standard_gamma(config, p, q, n))
