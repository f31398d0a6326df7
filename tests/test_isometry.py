"""Canonical-form invariance groups: membership tests and basis enumeration."""

from fractions import Fraction

import pytest

from supermetric.algebra import AlgebraConfig
from supermetric.errors import (
    DegenerateBody,
    NotBodyReduced,
    ParityMismatch,
    ShapeMismatch,
)
from supermetric.isometry import (
    GammaForm,
    is_isometry,
    lie_basis,
    lie_membership,
    violated_conditions,
)
from supermetric.matrices import SuperMatrix, exp_zero_body
from supermetric.sampling import (
    basis_for,
    make_rng,
    random_body_isometry,
    random_member,
    standard_gamma,
)

from hj_family import hJ_matrices

RAT = AlgebraConfig(generator_count=4, coefficient_mode="rational")
FLT = AlgebraConfig(generator_count=4, coefficient_mode="float64")


def test_gamma_form_validation():
    with pytest.raises(DegenerateBody):
        GammaForm(RAT, (RAT.term([1, 2], 1),), 0)
    with pytest.raises(ShapeMismatch):
        GammaForm(RAT, (1,), 1)
    g = GammaForm(RAT, (1, -1), 2)
    assert g.body_reduced
    assert g.shape == (2, 2)
    # integer entries are coerced to supernumbers
    assert g.eta[0] == RAT.one()


def test_gamma_form_with_soul_is_not_reduced():
    e = RAT.one() + RAT.term([1, 2], Fraction(1, 2))
    g = GammaForm(RAT, (e,), 2)
    assert not g.body_reduced
    with pytest.raises(NotBodyReduced):
        lie_basis(g)


def test_gamma_matrix_layout():
    g = standard_gamma(RAT, 2, 1, 2)
    M = g.matrix()
    assert M.shape == (3, 2)
    A = M.block_a()
    assert [A[i][i].body() for i in range(3)] == [1, 1, -1]
    B = M.block_b()
    assert B[0][1] == RAT.one() and B[1][0] == RAT.scalar(-1)


def test_identity_is_isometry_and_scaled_is_not():
    for cfg in (RAT, FLT):
        g = standard_gamma(cfg, 1, 1, 2)
        I = SuperMatrix.identity(cfg, g.shape)
        assert is_isometry(I, g)
        assert not is_isometry(I.scale(2), g)


def test_is_isometry_input_gates():
    g = standard_gamma(RAT, 1, 1, 2)
    with pytest.raises(ShapeMismatch):
        is_isometry(SuperMatrix.identity(RAT, (1, 2)), g)
    odd = SuperMatrix.zeros(RAT, g.shape, "odd")
    with pytest.raises(ParityMismatch):
        is_isometry(odd, g)


def test_basis_dimensions():
    for m, n in [(1, 0), (2, 2), (3, 2), (2, 4)]:
        p = (m + 1) // 2
        basis = basis_for(RAT, p, m - p, n)
        dims = basis.dims
        assert dims["g0"] == m * (m - 1) // 2 + n * (n + 1) // 2
        assert dims["g1"] == m * n
        L = RAT.generator_count
        assert dims["hJ"] == (1 << (L - 1)) * (dims["g0"] + dims["g1"])


@pytest.mark.parametrize("L", [8, 0])
def test_basis_tags_come_sorted_and_counted(L):
    # (4|4): dim g0 = 6 + 10, dim g1 = 16
    cfg = AlgebraConfig(generator_count=8, coefficient_mode="rational")
    basis = lie_basis(standard_gamma(cfg, 2, 2, 4), L)
    assert basis.hJ == sorted(basis.hJ)
    dims = basis.dims
    assert (dims["g0"], dims["g1"]) == (16, 16)
    assert dims["hJ"] == ((1 << (L - 1)) * 32 if L else 16)


def test_basis_elements_satisfy_membership():
    basis = basis_for(RAT, 1, 1, 2)
    gamma = basis.gamma
    for X in basis.g0:
        rep = lie_membership(X, gamma)
        assert rep["member"] and rep["agree"]
    # g1 elements are odd class; their even-class carriers are the
    # generator multiples
    zeta = RAT.generator(1)
    for X in basis.g1:
        rows = [[zeta * e for e in r] for r in X.rows]
        carrier = SuperMatrix(RAT, X.shape, rows, "even")
        rep = lie_membership(carrier, gamma)
        assert rep["member"] and rep["agree"]


def test_index_tagged_family_members():
    basis = basis_for(RAT, 1, 1, 2)
    gamma = basis.gamma
    mats = hJ_matrices(basis)
    assert len(mats) == basis.dims["hJ"]
    for M in mats:
        rep = lie_membership(M, gamma)
        assert rep["member"] and rep["agree"]
    # tag parity matches slot parity: even masks with g0, odd with g1
    split = len(basis.g0)
    for bits, pos in basis.hJ:
        if pos < split:
            assert bin(bits).count("1") % 2 == 0
        else:
            assert bin(bits).count("1") % 2 == 1


def test_random_members_accepted_and_corruption_detected():
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 2, 1, 2)
        gamma = basis.gamma
        rng = make_rng(42)
        for _ in range(5):
            X = random_member(rng, basis, terms=3)
            rep = lie_membership(X, gamma)
            assert rep["member"] and rep["agree"]
            bump = SuperMatrix.zeros(cfg, gamma.shape, "even")
            rows = [list(r) for r in bump.rows]
            rows[0][0] = cfg.scalar(Fraction(1, 7))
            bad = X + SuperMatrix(cfg, gamma.shape, rows, "even")
            rep2 = lie_membership(bad, gamma)
            assert not rep2["member"]
            assert "even-even" in rep2["violated"]
            assert rep2["agree"]


def test_violation_labels_per_block():
    gamma = standard_gamma(RAT, 1, 1, 2)
    z = RAT.zero()
    m, n = gamma.m, gamma.n
    k = m + n

    def with_entry(i, j, val):
        rows = [[z] * k for _ in range(k)]
        rows[i][j] = val
        cls = "even"
        return SuperMatrix(RAT, gamma.shape, rows, cls)

    # symmetric even-even perturbation: only condition (1) trips
    rep = lie_membership(with_entry(0, 0, RAT.one()), gamma)
    assert rep["violated"] == ["even-even"]
    # symmetric odd-odd perturbation b = E_{00}: b^T J + J b has a nonzero
    # diagonal, tripping condition (2)
    rep = lie_membership(with_entry(m, m, RAT.one()), gamma)
    assert rep["violated"] == ["odd-odd"]
    # c-block entry with no balancing d-block partner
    rep = lie_membership(with_entry(0, m, RAT.generator(1)), gamma)
    assert rep["violated"] == ["mixed"]
    for case in (with_entry(0, 0, RAT.one()),
                 with_entry(m, m, RAT.one()),
                 with_entry(0, m, RAT.generator(1)),
                 with_entry(0, 0, z)):
        rep = lie_membership(case, gamma)
        assert rep["agree"]
        # the three conditions alone reach the same list
        assert violated_conditions(case, gamma) == rep["violated"]


def test_exponentials_of_members_are_isometries():
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 1, 1, 2)
        gamma = basis.gamma
        rng = make_rng(7)
        for _ in range(4):
            X = random_member(rng, basis, terms=3, soul_only=True)
            N = exp_zero_body(X)
            assert is_isometry(N, gamma)
            G = gamma.matrix()
            resid = (N.supertranspose() @ G @ N - G).entry_norm_max()
            if cfg.rational:
                assert resid == 0


def test_body_isometries_preserve_gamma():
    for cfg in (RAT, FLT):
        gamma = standard_gamma(cfg, 2, 1, 2)
        rng = make_rng(11)
        for _ in range(4):
            rows = random_body_isometry(rng, gamma)
            N = SuperMatrix.from_real(cfg, rows, gamma.shape, "even")
            assert is_isometry(N, gamma)
            if cfg.rational:
                G = gamma.matrix()
                assert (N.supertranspose() @ G @ N - G).entry_norm_max() == 0
