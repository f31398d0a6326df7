"""Metric validation, the three-stage canonical pipeline, body reduction."""

from fractions import Fraction

import pytest

from supermetric import canonical
from supermetric.algebra import AlgebraConfig, invert, sum_of_products
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


# -- bilinear forms and frame updates against references ---------------------

def _bilinear_fold(cfg, rows, x, y):
    """x^T M y folded term by term with the operators from zero, two
    products and one sum per (i, j): the exact reference."""
    acc = cfg.zero()
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if not yj.is_zero():
                acc = acc + xi * rows[i][j] * yj
    return acc


def _update_fold(cfg, x, steps):
    """x + sum c v by the operators, one step and one coordinate at a time."""
    for c, v in steps:
        x = [xi + c * vi for xi, vi in zip(x, v)]
    return x


def _covector_per_entry(cfg, x, rows):
    """x^T M, each entry one kernel call over ascending i."""
    return [sum_of_products(cfg, [(xi, row[j]) for xi, row in zip(x, rows)])
            for j in range(len(rows[0]))]


def _bilinear_by_covector(cfg, rows, x, y):
    """x^T M y as the covector x^T M, then one kernel call over j."""
    return sum_of_products(cfg, zip(_covector_per_entry(cfg, x, rows), y))


def _update_in_one_call(cfg, x, steps):
    """x + sum c v, each coordinate one kernel call over (1, x_i), (c, v_i)."""
    one = cfg.one()
    return [sum_of_products(cfg, [(one, xi)] + [(c, v[i]) for c, v in steps])
            for i, xi in enumerate(x)]


def _units(cfg, size):
    return [[cfg.one() if i == k else cfg.zero() for i in range(size)]
            for k in range(size)]


def _orthogonalize_reference(metric, form, update):
    """(P0, d) of orthogonalize_even, each form and frame update taken by
    ``form`` and ``update``."""
    cfg, m = metric.config, metric.m
    A = SuperMatrix(cfg, (m, 0), [r[:m] for r in metric.matrix.rows[:m]],
                    "even")
    P = SuperMatrix.from_real(cfg, canonical._eigh_frame(A, cfg), (m, 0),
                              "even")
    Abar = (P.supertranspose() @ (A @ P)).rows
    fs, ds = [], []
    for e_k in _units(cfg, m):
        f = update(cfg, e_k, [(-(form(cfg, Abar, e_k, g) * invert(d)), g)
                              for g, d in zip(fs, ds)])
        fs.append(f)
        ds.append(form(cfg, Abar, f, f))
    gs = [[fs[k][i] for k in range(m)] for i in range(m)]
    return P @ SuperMatrix(cfg, (m, 0), gs, "even"), ds


def _symplectic_reference(B1, cfg, form, update):
    """symplectic_reduce's Q, each form and frame update taken by ``form``
    and ``update``."""
    n = len(B1)
    remaining = _units(cfg, n)
    cols = []
    while remaining:
        u = remaining.pop(0)
        pairings = [form(cfg, B1, u, w) for w in remaining]
        scores = [abs(float(p.body())) for p in pairings]
        best = scores.index(max(scores))
        w = remaining.pop(best)
        zinv = invert(pairings[best])
        w = [zinv * wi for wi in w]
        remaining = [update(cfg, x, [(-form(cfg, B1, x, w), u),
                                     (form(cfg, B1, x, u), w)])
                     for x in remaining]
        cols += [u, w]
    return [[cols[k][i] for k in range(n)] for i in range(n)]


def _stages(metric):
    """(P0, d) and Q of the pipeline's first and third stages, and the
    odd-odd block rows that the third stage reduces."""
    P0, d = orthogonalize_even(metric)
    _, B2 = odd_complement(metric, P0, d)
    return P0, d, symplectic_reduce(B2.rows, metric.config), B2.rows


def _hex(entries):
    return [[(b, c.hex()) for b, c in e.terms.items()] for e in entries]


@pytest.mark.parametrize("m, n, L", [(3, 4, 8), (2, 6, 6)])
def test_forms_and_frames_are_the_exact_fold_in_rational(m, n, L):
    cfg = AlgebraConfig(generator_count=L, coefficient_mode="rational")
    for seed in (1, 2):
        metric = validate_metric(random_metric(make_rng(seed), cfg, m, n))
        P0, d, Q, B2 = _stages(metric)
        ref_P0, ref_d = _orthogonalize_reference(metric, _bilinear_fold,
                                                 _update_fold)
        assert P0 == ref_P0 and d == ref_d
        assert Q == _symplectic_reference(B2, cfg, _bilinear_fold,
                                          _update_fold)


@pytest.mark.parametrize("m, n, L", [(3, 4, 8), (2, 6, 6)])
def test_forms_and_frames_are_one_kernel_call_each_in_float64(m, n, L):
    # a covector, then one kernel call per form; one call per coordinate
    # per frame update: the same bits, key order included
    cfg = AlgebraConfig(generator_count=L, coefficient_mode="float64")
    for seed in (1, 2):
        metric = validate_metric(random_metric(make_rng(seed), cfg, m, n))
        P0, d, Q, B2 = _stages(metric)
        ref_P0, ref_d = _orthogonalize_reference(
            metric, _bilinear_by_covector, _update_in_one_call)
        assert _hex(d) == _hex(ref_d)
        assert [_hex(r) for r in P0.rows] == [_hex(r) for r in ref_P0.rows]
        ref_Q = _symplectic_reference(B2, cfg, _bilinear_by_covector,
                                      _update_in_one_call)
        assert [_hex(r) for r in Q] == [_hex(r) for r in ref_Q]
        # dense x and y, where the stages' vectors are often unit columns
        for x in B2:
            covector = canonical._covector(cfg, x, B2)
            assert _hex(covector) == _hex(_covector_per_entry(cfg, x, B2))
            for y in B2:
                assert _hex([canonical._bilinear(cfg, covector, y)]) == \
                    _hex([_bilinear_by_covector(cfg, B2, x, y)])


def test_symplectic_reduce_forms_one_covector_per_u_and_updated_x(
        monkeypatch):
    cfg = AlgebraConfig(generator_count=6, coefficient_mode="float64")
    metric = validate_metric(random_metric(make_rng(1), cfg, 2, 6))
    P0, d = orthogonalize_even(metric)
    _, B2 = odd_complement(metric, P0, d)
    lefts = []

    def recording(config, a, b):
        lefts.append(a)
        return mul_rows(config, a, b)

    mul_rows = canonical._mul_rows
    monkeypatch.setattr(canonical, "_mul_rows", recording)
    symplectic_reduce(B2.rows, cfg)
    # one covector per round's u (three rounds) and per column updated
    # after u and its partner leave: 4 in the first round, 2 in the second
    assert len(lefts) == 3 + 4 + 2
    assert all(len(a) == 1 for a in lefts)
