"""Isometries of the canonical form and their linearization.

Gamma = diag(eta, J) with eta a diagonal of even invertible supernumbers
(or +-1 after body reduction) and J the standard symplectic block.  An even
matrix N is an isometry when N^ST Gamma N = Gamma; differentiating gives the
linear membership conditions on an even matrix l with blocks [[a, c], [d, b]]:

    (1) a^T eta + eta a = 0
    (2) b^T J + J b = 0
    (3) eta c - d^T J = 0

which together are equivalent to l^ST Gamma = -Gamma l (the fourth block of
the matrix identity is the transpose of (3)).  Both forms are computed and
compared on every `lie_membership` call; `violated_conditions` evaluates the
three conditions alone.

For body-reduced Gamma the real solutions split into a block-diagonal part
(skew part eta*S plus symplectic part J*T) and an off-diagonal part where d
determines c; bases for both are enumerated here, together with the family
z(J) * X over multi-indices of matching parity that spans the even part of
the tensor algebra at truncation L.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AlgebraConfig, Supernumber, within_gate
from .errors import (
    DegenerateBody,
    NotBodyReduced,
    ParityMismatch,
    ShapeMismatch,
    ValidationError,
)
from .matrices import BlockShape, SuperMatrix, _mul_rows


def standard_symplectic(cfg, n) -> list:
    """Raw rows of the block diagonal of n/2 copies of [[0,1],[-1,0]]."""
    rows = [[cfg.zero() for _ in range(n)] for _ in range(n)]
    for k in range(0, n, 2):
        rows[k][k + 1] = cfg.one()
        rows[k + 1][k] = cfg.scalar(-1)
    return rows


@dataclass(frozen=True)
class GammaForm:
    """diag(eta, J) given by the eta diagonal and the odd dimension n."""
    config: AlgebraConfig
    eta: tuple
    n: int

    def __post_init__(self):
        object.__setattr__(self, "eta", tuple(
            e if isinstance(e, Supernumber) else self.config.scalar(e)
            for e in self.eta))
        for e in self.eta:
            if e.body() == 0:
                raise DegenerateBody("eta entries must have nonzero body")
        if self.n % 2 != 0:
            raise ShapeMismatch("symplectic dimension must be even")

    @property
    def m(self):
        return len(self.eta)

    @property
    def shape(self):
        return BlockShape(self.m, self.n)

    @property
    def body_reduced(self) -> bool:
        return all(e.soul().is_zero() and abs(e.body()) == 1
                   for e in self.eta)

    def matrix(self) -> SuperMatrix:
        cfg = self.config
        m, n = self.m, self.n
        z = cfg.zero()
        eta_rows = [[self.eta[i] if i == j else z for j in range(m)]
                    for i in range(m)]
        return SuperMatrix.from_blocks(
            cfg, eta_rows, None, None, standard_symplectic(cfg, n), "even")

    def body_float(self) -> np.ndarray:
        """The body of diag(eta, J) as a read-only float array, built once
        per form."""
        return self._body_float

    @cached_property
    def _body_float(self):
        body = self.matrix().body_float()
        body.flags.writeable = False
        return body


def isometry_residual(N: SuperMatrix, gamma: GammaForm):
    """(residual, scale): the largest entry norm of N^ST Gamma N - Gamma and
    its gate scale ||N||^2 ||Gamma|| (induced norms).  The same relative
    gate applies in both modes: a rational residual is an exact value
    compared against it."""
    if N.parity_class != "even":
        raise ParityMismatch("isometry candidates must be even class")
    if N.shape != gamma.shape:
        raise ShapeMismatch(f"{N.shape} vs {gamma.shape}")
    G = gamma.matrix()
    residual = (N.supertranspose() @ G @ N - G).entry_norm_max()
    norm = N.induced_norm()
    return residual, norm * norm * G.induced_norm()


def is_isometry(N: SuperMatrix, gamma: GammaForm) -> bool:
    return within_gate(*isometry_residual(N, gamma))


def _membership_scale(ell: SuperMatrix, gamma: GammaForm):
    return ell.induced_norm() * (1 + sum(e.norm() for e in gamma.eta))


def violated_conditions(ell: SuperMatrix, gamma: GammaForm) -> list:
    """Names of the linear conditions (1)-(3) that ell fails, in order
    ("even-even", "odd-odd", "mixed"); empty for a member."""
    if ell.parity_class != "even":
        raise ParityMismatch("membership is defined for even-class matrices")
    if ell.shape != gamma.shape:
        raise ShapeMismatch(f"{ell.shape} vs {gamma.shape}")
    cfg = ell.config
    m, n = gamma.m, gamma.n
    scale = _membership_scale(ell, gamma)

    a, b = ell.block_a(), ell.block_b()
    c, d = ell.block_c(), ell.block_d()
    eta = gamma.eta
    J = standard_symplectic(cfg, n)

    # (1) a^T eta + eta a
    r1 = [[a[j][i] * eta[j] + eta[i] * a[i][j] for j in range(m)]
          for i in range(m)]
    # (2) b^T J + J b
    r2 = [[x + y for x, y in zip(rx, ry)]
          for rx, ry in zip(_mul_rows(cfg, list(zip(*b)), J),
                            _mul_rows(cfg, J, b))]
    # (3) eta c - d^T J, with d^T J rectangular (m x n)
    dtj = _mul_rows(cfg, list(zip(*d)), J)
    r3 = [[eta[i] * c[i][al] - dtj[i][al] for al in range(n)]
          for i in range(m)]

    def block_ok(rows):
        return within_gate(max((e.norm() for row in rows for e in row),
                               default=0), scale)

    violated = []
    if not block_ok(r1):
        violated.append("even-even")
    if n and not block_ok(r2):
        violated.append("odd-odd")
    if n and m and not block_ok(r3):
        violated.append("mixed")
    return violated


def lie_membership(ell: SuperMatrix, gamma: GammaForm) -> dict:
    """Check the three linear conditions and the single matrix identity.

    Returns {"member": bool, "violated": [names], "agree": bool}; "agree"
    records that the two formulations reached the same verdict.
    """
    violated = violated_conditions(ell, gamma)
    triple_ok = not violated

    G = gamma.matrix()
    single = ell.supertranspose() @ G + G @ ell
    single_ok = within_gate(single.entry_norm_max(),
                            _membership_scale(ell, gamma))
    return {
        "member": triple_ok,
        "violated": violated,
        "agree": triple_ok == single_ok,
    }


@dataclass
class LieBasis:
    """Real bases of the block-diagonal and off-diagonal parts, plus the
    index-tagged family spanning the even tensor part at truncation L."""
    gamma: GammaForm
    g0: list
    g1: list
    hJ: list  # (bitmask, flat element position) pairs; positions index g0+g1

    @property
    def dims(self):
        return {"g0": len(self.g0), "g1": len(self.g1), "hJ": len(self.hJ)}

    def elements(self):
        return list(self.g0) + list(self.g1)


def _scale_by_supernumber(M: SuperMatrix, s: Supernumber) -> SuperMatrix:
    rows = tuple([tuple([s * e for e in r]) for r in M.rows])
    cls = "even" if (M.parity_class == "odd" and s.parity() == "odd") else \
          ("even" if M.parity_class == "even" and s.parity() == "even"
           else "general")
    return SuperMatrix._trusted(M.config, M.shape, rows, cls)


def lie_basis(gamma: GammaForm, L: int = None) -> LieBasis:
    """Enumerate bases; needs a body-reduced form (+-1 eta entries).

    g0: eta*S for skew S, and J*T for symmetric T, as block-diagonal
    even-class matrices (dimension m(m-1)/2 + n(n+1)/2).
    g1: for each unit d-block E[alpha,i] the off-diagonal element with
    c = eta^{-1} d^T J (dimension m*n), odd class.
    hJ: g0 tags paired with even-size index sets, g1 tags with odd-size
    ones, over generators 1..L, in ascending (bits, pos) order.
    """
    if not gamma.body_reduced:
        raise NotBodyReduced("basis enumeration needs eta entries +-1")
    cfg = gamma.config
    if L is None:
        L = cfg.generator_count
    m, n = gamma.m, gamma.n
    z = cfg.zero()
    eta_sign = [1 if e.body() > 0 else -1 for e in gamma.eta]

    def block_diag_mat(a_rows, b_rows):
        return SuperMatrix.from_blocks(cfg, a_rows, None, None, b_rows,
                                       "even")

    g0 = []
    # skew part of the even block: columns of eta * (E_ij - E_ji), i < j
    for i in range(m):
        for j in range(i + 1, m):
            rows = [[z] * m for _ in range(m)]
            rows[i][j] = cfg.scalar(eta_sign[i])
            rows[j][i] = cfg.scalar(-eta_sign[j])
            g0.append(block_diag_mat(
                rows, [[z] * n for _ in range(n)]))
    # symplectic part: J * T over a symmetric basis T
    J = standard_symplectic(cfg, n)
    for al in range(n):
        for ga in range(al, n):
            T = [[z] * n for _ in range(n)]
            T[al][ga] = cfg.one()
            if ga != al:
                T[ga][al] = cfg.one()
            g0.append(block_diag_mat([[z] * m for _ in range(m)],
                                     _mul_rows(cfg, J, T)))
    g1 = []
    for al in range(n):
        for i in range(m):
            d_rows = [[z] * m for _ in range(n)]
            d_rows[al][i] = cfg.one()
            # c = eta^{-1} d^T J: single nonzero row i with eta_i^{-1} J[al]
            c_rows = [[z] * n for _ in range(m)]
            for be in range(n):
                val = J[al][be]
                if not val.is_zero():
                    c_rows[i][be] = val.scale(eta_sign[i])
            g1.append(SuperMatrix.from_blocks(
                cfg, [[z] * m for _ in range(m)], c_rows, d_rows,
                [[z] * n for _ in range(n)], "odd"))

    hJ = []
    flat_len = len(g0) + len(g1)
    for bits in range(1 << L):
        even_bits = bits.bit_count() % 2 == 0
        lo = 0 if even_bits else len(g0)
        hi = len(g0) if even_bits else flat_len
        for pos in range(lo, hi):
            hJ.append((bits, pos))
    return LieBasis(gamma, g0, g1, hJ)


def basis_report_slots(m: int, n: int, L: int) -> int:
    """Records plus entry slots of a lie-basis report at (m|n) over L
    generators: r0 = dim g0 + dim g1 real elements of (m+n)^2 entries each,
    and the hJ tags, dim g0 of them at L = 0 and 2^(L-1) r0 above."""
    dim0 = m * (m - 1) // 2 + n * (n + 1) // 2
    r0 = dim0 + m * n
    tags = r0 << (L - 1) if L else dim0
    return r0 * (m + n) ** 2 + tags


# the figure of (4|4) at L=8: 32 elements of 64 entries and 4096 tags
BASIS_BUDGET = basis_report_slots(4, 4, 8)


def check_basis_budget(m: int, n: int, L: int) -> None:
    """Refuse a lie-basis report past BASIS_BUDGET before it is built."""
    slots = basis_report_slots(m, n, L)
    if slots > BASIS_BUDGET:
        raise ValidationError(
            f"lie-basis at ({m}|{n}) with L={L} needs {slots} records and "
            f"entry slots, over the budget of {BASIS_BUDGET} ((4|4) at L=8)")

