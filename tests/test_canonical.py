"""Metric validation, the three-stage canonical pipeline, body reduction."""

from fractions import Fraction

import pytest

from supermetric import canonical
from supermetric.algebra import AlgebraConfig, invert
from supermetric.canonical import (
    CanonicalizationResult,
    body_reduce,
    canonical_form,
    congruence,
    odd_complement,
    orthogonalize_even,
    symplectic_reduce,
    validate_metric,
)
from supermetric.errors import (
    ConvergenceViolation,
    DegenerateBody,
    NotEven,
    NotGradedSymmetric,
    OddDimensionOdd,
)
from supermetric.isometry import standard_symplectic
from supermetric.matrices import SuperMatrix
from supermetric.sampling import make_rng, random_metric

RAT = AlgebraConfig(generator_count=4, coefficient_mode="rational")
FLT = AlgebraConfig(generator_count=4, coefficient_mode="float64")


def _diag_metric(cfg, diag_entries, n):
    """diag(entries) + standard symplectic block, mixed blocks zero."""
    m = len(diag_entries)
    z = cfg.zero()
    A = [[diag_entries[i] if i == j else z for j in range(m)]
         for i in range(m)]
    return SuperMatrix.from_blocks(
        cfg, A, [[z] * n for _ in range(m)], [[z] * m for _ in range(n)],
        standard_symplectic(cfg, n), "even")


def _residual(P, G, Gamma):
    return (congruence(P, G) - Gamma).entry_norm_max()


def test_validate_rejects_odd_odd_dimension():
    G = _diag_metric(RAT, [RAT.one()], 0)
    bad = SuperMatrix.from_blocks(
        RAT, [[RAT.one()]], [[RAT.zero()]], [[RAT.zero()]],
        [[RAT.zero()]], "even")
    with pytest.raises(OddDimensionOdd):
        validate_metric(bad)
    assert validate_metric(G).m == 1


def test_validate_rejects_wrong_parity():
    z = RAT.zero()
    rows = [[z, RAT.one()], [RAT.one(), z]]
    M = SuperMatrix(RAT, (1, 1), rows, "odd")
    with pytest.raises(NotEven):
        validate_metric(M)
    # even class but an odd entry sits in the even-even block
    rows2 = [[RAT.generator(1), z], [z, RAT.one()]]
    M2 = SuperMatrix(RAT, (2, 0), rows2, "even")
    with pytest.raises(NotEven):
        validate_metric(M2)


def test_validate_rejects_symmetry_failures():
    z = RAT.zero()
    one = RAT.one()
    # even-even block not symmetric
    A = [[one, RAT.scalar(2)], [RAT.scalar(3), one]]
    G = SuperMatrix.from_blocks(RAT, A, [[z] * 0, [z] * 0], [],
                                [], "even")
    with pytest.raises(NotGradedSymmetric):
        validate_metric(G)
    # odd-odd block not skew
    B = [[z, one], [one, z]]
    G2 = SuperMatrix.from_blocks(RAT, [], [], [[z] * 0, [z] * 0], B, "even")
    with pytest.raises(NotGradedSymmetric):
        validate_metric(G2)
    # mixed blocks unbalanced
    g1 = RAT.generator(1)
    G3 = SuperMatrix.from_blocks(
        RAT, [[one]], [[g1, z]], [[z], [z]],
        [[z, one], [-one, z]], "even")
    with pytest.raises(NotGradedSymmetric):
        validate_metric(G3)


def test_validate_rejects_degenerate_bodies():
    z = RAT.zero()
    one = RAT.one()
    soul = RAT.term([1, 2], 1)
    with pytest.raises(DegenerateBody):
        validate_metric(_diag_metric(RAT, [soul], 0))
    # skew block with zero body
    B = [[z, soul], [-soul, z]]
    G = SuperMatrix.from_blocks(RAT, [[one]], [[z, z]], [[z], [z]], B, "even")
    with pytest.raises(DegenerateBody):
        validate_metric(G)


def test_standard_symplectic_square_and_skew():
    n = 4
    J = SuperMatrix.from_blocks(RAT, [], [], [[] for _ in range(n)],
                                standard_symplectic(RAT, n), "even")
    I = SuperMatrix.identity(RAT, (0, n))
    assert (J @ J + I).entry_norm_max() == 0
    Jrows = J.block_b()
    for a in range(n):
        for b in range(n):
            assert Jrows[a][b] == -Jrows[b][a]


def test_canonical_fixed_point():
    # a matrix already in canonical form (signs sorted) passes through with
    # the identity transition, exactly
    G = _diag_metric(RAT, [RAT.one(), RAT.scalar(-1)], 2)
    res = canonical_form(validate_metric(G))
    I = SuperMatrix.identity(RAT, (2, 2))
    assert (res.P - I).entry_norm_max() == 0
    assert (res.Gamma - G).entry_norm_max() == 0
    red = body_reduce(res)
    assert (red.P - I).entry_norm_max() == 0
    assert (red.Gamma - G).entry_norm_max() == 0
    assert [r["sign"] for r in red.reducibility] == [1, -1]


def test_body_reduce_single_entry_worked_case():
    # d = -4 + z_{12}: the rescale is 1/2 + (1/16) z_{12} and squares
    # against d to exactly -1
    d0 = RAT.scalar(-4) + RAT.term([1, 2], 1)
    G = _diag_metric(RAT, [d0], 0)
    res = canonical_form(validate_metric(G))
    assert res.d[0] == d0
    red = body_reduce(res)
    lam = red.reducibility[0]["lambda"]
    assert lam == RAT.scalar(Fraction(1, 2)) + RAT.term([1, 2], Fraction(1, 16))
    assert lam * lam * d0 == RAT.scalar(-1)
    assert red.reducibility[0]["scale_exact"]
    assert red.reducibility[0]["sign"] == -1
    assert red.reducibility[0]["ratio"] == Fraction(1, 4)
    assert _residual(red.P, G, red.Gamma) == 0


def test_body_reduce_sorts_positive_first():
    # the pipeline orders the diagonal by descending body on its own, so a
    # descent-violating result has to be assembled by hand
    d_neg = RAT.scalar(-1) + RAT.term([3, 4], Fraction(1, 3))
    d_pos = RAT.scalar(Fraction(9, 4))
    G = _diag_metric(RAT, [d_neg, d_pos], 0)
    res = CanonicalizationResult(
        SuperMatrix.identity(RAT, (2, 0)), G, [d_neg, d_pos])
    red = body_reduce(res)
    assert [e.body() for e in red.d] == [1, -1]
    # records follow the sorted order but remember original positions
    assert [r["index"] for r in red.reducibility] == [1, 0]
    assert _residual(red.P, G, red.Gamma) == 0


def test_pipeline_orders_diagonal_by_descending_body():
    d_neg = RAT.scalar(-1) + RAT.term([3, 4], Fraction(1, 3))
    d_pos = RAT.scalar(Fraction(9, 4))
    G = _diag_metric(RAT, [d_neg, d_pos], 0)
    res = canonical_form(validate_metric(G))
    assert [e.body() for e in res.d] == [Fraction(9, 4), -1]
    red = body_reduce(res)
    assert [e.body() for e in red.d] == [1, -1]
    assert _residual(red.P, G, red.Gamma) == 0


def test_body_reduce_strict_gate():
    d0 = RAT.one() + RAT.term([1, 2], 2)   # soul twice the body
    G = _diag_metric(RAT, [d0], 0)
    res = canonical_form(validate_metric(G))
    with pytest.raises(ConvergenceViolation):
        body_reduce(res, strict=True)
    # outside strict mode truncation still gives an exact reduction
    red = body_reduce(res)
    assert not red.body_reducible
    assert red.reducibility[0]["ratio"] == 2
    assert _residual(red.P, G, red.Gamma) == 0


def test_body_reduce_dyadic_fallback_flagged():
    # |body| = 3 has no rational square root; the dyadic stand-in is flagged
    # and leaves a tiny residual
    d0 = RAT.scalar(3) + RAT.term([1, 2], 1)
    G = _diag_metric(RAT, [d0], 0)
    red = body_reduce(canonical_form(validate_metric(G)))
    assert red.reducibility[0]["scale_exact"] is False
    resid = _residual(red.P, G, red.Gamma)
    assert resid != 0
    assert float(resid) < 1e-14


def test_pipeline_random_metrics_rational_exact():
    rng = make_rng(2024)
    for m, n in [(1, 0), (2, 2), (3, 2), (2, 4)]:
        G = random_metric(rng, RAT, m, n)
        metric = validate_metric(G)
        res = canonical_form(metric)
        assert _residual(res.P, G, res.Gamma) == 0
        for di in res.d:
            assert di.body() != 0
        # eta block of Gamma is diagonal, odd block is the standard form
        B = res.Gamma.block_b()
        J = standard_symplectic(RAT, n)
        for a in range(n):
            for b in range(n):
                assert B[a][b] == J[a][b]


def test_pipeline_random_metrics_float():
    rng = make_rng(77)
    for m, n in [(2, 2), (3, 4)]:
        G = random_metric(rng, FLT, m, n)
        res = canonical_form(validate_metric(G))
        scale = float(G.entry_norm_max())
        assert float(_residual(res.P, G, res.Gamma)) < 1e-9 * (1 + scale)
        red = body_reduce(res)
        assert float(_residual(red.P, G, red.Gamma)) < 1e-8 * (1 + scale)
        assert all(e.body() in (1.0, -1.0) for e in red.d)


def test_reduced_result_round_trips_via_congruence():
    rng = make_rng(31)
    G = random_metric(rng, RAT, 2, 2)
    red = body_reduce(canonical_form(validate_metric(G)))
    if all(r["scale_exact"] for r in red.reducibility):
        assert _residual(red.P, G, red.Gamma) == 0
    signs = [r["sign"] for r in red.reducibility]
    assert signs == sorted(signs, reverse=True)
    assert all(e.soul().is_zero() and abs(e.body()) == 1 for e in red.d)


def _full_odd_odd_block(metric, P0, d):
    """The odd-odd block of shear^ST G1 shear formed as the whole product,
    with G1 and the shear built as odd_complement builds them."""
    cfg, m, n = metric.config, metric.m, metric.n
    I_n = SuperMatrix.identity(cfg, (n, 0)).rows
    P_even = SuperMatrix.from_blocks(cfg, P0.rows, None, None, I_n, "even")
    G1 = P_even.supertranspose() @ metric.matrix @ P_even
    Cp = G1.block_c()
    W = [[invert(d[j]) * Cp[j][a] for a in range(n)] for j in range(m)]
    shear = SuperMatrix.from_blocks(
        cfg, SuperMatrix.identity(cfg, (m, 0)).rows,
        [[-W[i][a] for a in range(n)] for i in range(m)], None, I_n, "even")
    return (shear.supertranspose() @ G1 @ shear).block_b()


@pytest.mark.parametrize("mode", ["float64", "rational"])
def test_odd_complement_forms_the_odd_odd_block_of_the_full_product(mode):
    cfg = AlgebraConfig(generator_count=8, coefficient_mode=mode)
    for seed in (1, 2, 3):
        metric = validate_metric(random_metric(make_rng(seed), cfg, 3, 4))
        P0, d = orthogonalize_even(metric)
        _, B2 = odd_complement(metric, P0, d)
        assert B2.shape == (4, 0) and B2.parity_class == "even"
        want = _full_odd_odd_block(metric, P0, d)
        for got_row, want_row in zip(B2.rows, want):
            for got, ref in zip(got_row, want_row):
                # float64 bit for bit: the same terms in the same order
                assert list(got.terms.items()) == list(ref.terms.items())


@pytest.mark.parametrize("cfg", [RAT, FLT])
def test_symplectic_reduce_inverts_each_pairing_once(monkeypatch, cfg):
    calls = []
    monkeypatch.setattr(canonical, "invert",
                        lambda z: calls.append(z) or invert(z))
    J = standard_symplectic(cfg, 4)
    # soul terms in the pairings, so that each inverse has work to do
    s = cfg.term([1, 2], Fraction(1, 3))
    B = [[e + s if e.body() > 0 else e - s if e.body() < 0 else e
          for e in row] for row in J]
    Q = symplectic_reduce(B, cfg)
    assert len(calls) == 2
    M = SuperMatrix(cfg, (4, 0), B, "even")
    Qm = SuperMatrix(cfg, (4, 0), Q, "even")
    out = Qm.supertranspose() @ M @ Qm
    for a in range(4):
        for b in range(4):
            assert canonical._entries_equal(out.rows[a][b], J[a][b], 1.0)
