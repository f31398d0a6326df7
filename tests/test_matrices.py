"""Block matrices: graded transpose, inversion, exp/log, adjoint operators."""

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from supermetric import matrices, verify
from supermetric.algebra import GENERATOR_CAP, AlgebraConfig, Supernumber, \
    _sign_mask, sum_of_products
from supermetric.errors import (
    BasisDegenerate,
    BodyNotInvertible,
    CoefficientOverflow,
    ConfigMismatch,
    NonZeroBody,
    NonZeroBodyOperator,
    NotUnipotent,
    ParityMismatch,
    ShapeMismatch,
)
from supermetric.isometry import _scale_by_supernumber
from supermetric.matrices import (
    BlockShape,
    SuperMatrix,
    _element_block_kind,
    _flatten_slices,
    _mul_rows,
    _SliceSolver,
    ad_operator,
    exp_zero_body,
    log_unipotent,
    spectrum_gate,
)
from supermetric.sampling import basis_for, make_rng, random_member, \
    random_metric, random_nil

from hj_family import hJ_matrices

RAT = AlgebraConfig(generator_count=4, coefficient_mode="rational")
FLT = AlgebraConfig(generator_count=4, coefficient_mode="float64")


def _sample_even(cfg):
    """Invertible even-class (1|2) matrix with souls in every block."""
    z = cfg.zero()
    A = [[cfg.scalar(2) + cfg.term([1, 2], Fraction(1, 3))]]
    B = [[z, cfg.one() + cfg.term([3, 4], 1)],
         [-(cfg.one() + cfg.term([3, 4], 1)), z]]
    C = [[cfg.generator(1), cfg.term([2], -2)]]
    D = [[cfg.term([1, 2, 3], 1)], [cfg.generator(4)]]
    return SuperMatrix.from_blocks(cfg, A, C, D, B, "even")


def test_shape_and_parity_checks():
    M = _sample_even(RAT)
    assert M.shape == BlockShape(1, 2)
    assert M.check_parity_class()
    with pytest.raises(ParityMismatch):
        SuperMatrix.zeros(RAT, (1, 1), "strange")
    N = SuperMatrix.zeros(RAT, (2, 0), "even")
    with pytest.raises(ShapeMismatch):
        M @ N
    with pytest.raises(ConfigMismatch):
        M @ _sample_even(FLT)


def test_public_constructors_keep_their_checks():
    z = RAT.zero()
    with pytest.raises(ShapeMismatch):
        SuperMatrix(RAT, (1, 1), [[z, z], [z]])
    with pytest.raises(ShapeMismatch):
        SuperMatrix(RAT, (1, 1), [[z, z]])
    with pytest.raises(ParityMismatch):
        SuperMatrix(RAT, (1, 1), [[z, z], [z, z]], "strange")
    with pytest.raises(ShapeMismatch):
        SuperMatrix.from_real(RAT, [[1, 0], [0]], (1, 1))
    with pytest.raises(ParityMismatch):
        SuperMatrix.from_real(RAT, [[1, 0], [0, 1]], (1, 1), "strange")
    with pytest.raises(ShapeMismatch):
        SuperMatrix.from_blocks(RAT, [[z]], [[z, z]], None, [[z]])
    # list rows are copied into tuples
    rows = [[z, z], [z, z]]
    M = SuperMatrix(RAT, (1, 1), rows)
    rows[0][0] = RAT.one()
    assert M.rows == ((z, z), (z, z))


@pytest.mark.parametrize("cfg", [RAT, FLT], ids=["rational", "float64"])
def test_trusted_results_have_tuple_rows_of_ascending_entries(cfg):
    M = _sample_even(cfg)
    N = M - SuperMatrix.from_real(cfg, M.body(), M.shape, "even")
    X = random_member(make_rng(3), basis_for(cfg, 1, 0, 2), terms=4,
                      soul_only=True)
    results = [M @ M, M @ N, M + N, M - N, -M, M.scale(3), N, M.scale(0),
               exp_zero_body(X), log_unipotent(exp_zero_body(X)),
               SuperMatrix.zeros(cfg, (1, 2), "odd"),
               SuperMatrix.identity(cfg, (1, 2)),
               M, SuperMatrix.from_real(cfg, [[1, 0, 2], [0, 3, 0],
                                              [-1, 0, 1]], (1, 2), "even"),
               _scale_by_supernumber(M, cfg.generator(2))]
    for R in results:
        k = R.shape.total
        assert type(R.rows) is tuple and len(R.rows) == k
        for row in R.rows:
            assert type(row) is tuple and len(row) == k
            for e in row:
                assert list(e.terms) == sorted(e.terms)
        # a trusted result equals its public rebuild
        assert R == SuperMatrix(cfg, R.shape, [list(r) for r in R.rows],
                                R.parity_class)


def _dusty_matrix(rng, cfg, k):
    """k x k entries of up to four terms, each coefficient near 1 or near the
    prune tolerance, so that products straddle the prune cut."""
    tiny = cfg.zero_tolerance or 1e-3
    rows = []
    for _ in range(k):
        row = []
        for _ in range(k):
            terms = {}
            for _ in range(int(rng.integers(0, 5))):
                c = float(rng.uniform(0.8, 1.25))
                if rng.integers(0, 3) == 0:
                    c = float(rng.uniform(0.5, 2.5)) * tiny
                c = c if rng.integers(0, 2) else -c
                terms[int(rng.integers(0, 16))] = \
                    Fraction(c) if cfg.rational else c
            row.append(Supernumber(cfg, terms))
        rows.append(row)
    return rows


def _same_bits(x, y):
    return list(x.terms.items()) == list(y.terms.items()) and \
        all(type(a) is type(b) for a, b in zip(x.terms.values(),
                                              y.terms.values()))


def test_matmul_is_the_operator_fold_bit_for_bit():
    # each entry of A @ B, and of _mul_rows on a rectangular corner of the
    # same rows, is the kernel's sum of A[i][t]*B[t][j] over t (see _fold);
    # float dust near the cut and empty entries included
    for mode, tol in (("rational", None), ("float64", None),
                      ("float64", 1e-3), ("float64", 0.0)):
        cfg = AlgebraConfig(generator_count=4, coefficient_mode=mode,
                            zero_tolerance=tol)
        rng = make_rng(31)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            a, b = _dusty_matrix(rng, cfg, k), _dusty_matrix(rng, cfg, k)
            prod = SuperMatrix(cfg, (k, 0), a) @ SuperMatrix(cfg, (k, 0), b)
            p, r = (int(v) for v in rng.integers(1, k + 1, size=2))
            rect = _mul_rows(cfg, a[:p], [row[:r] for row in b])
            assert len(rect) == p and all(len(row) == r for row in rect)
            for i in range(k):
                for j in range(k):
                    want = _fold(cfg, [(a[i][t], b[t][j]) for t in range(k)])
                    assert _same_bits(prod.rows[i][j], want)
                    if i < p and j < r:
                        assert _same_bits(rect[i][j], want)


def test_matmul_rejects_an_entry_from_another_config():
    other = AlgebraConfig(generator_count=5, coefficient_mode="rational")
    M = _sample_even(RAT)
    for foreign in (other.generator(5), other.zero()):
        rows = [list(r) for r in M.rows]
        rows[1][2] = foreign
        N = SuperMatrix(RAT, M.shape, rows, "general")
        with pytest.raises(ConfigMismatch):
            M @ N
        with pytest.raises(ConfigMismatch):
            N @ M


def _fold(cfg, pairs):
    """sum_t e_t * f_t term by term, densely over every t, as the kernel
    promises it: every term product goes into one dict, each key summed in
    pair order, then in left-term order, and one cut at zero_tolerance
    times the largest |term product| drops what is at or under it.  The
    sign of z(I) z(J) counts the pairs i in I, j in J with i > j."""
    acc, top, zero = {}, 0, cfg.coerce(0)
    for e, f in pairs:
        for b1, c1 in e.terms.items():
            for b2, c2 in f.terms.items():
                if b1 & b2:
                    continue
                swaps = sum((b1 >> (j + 1)).bit_count()
                            for j in range(cfg.generator_count) if b2 >> j & 1)
                c = c1 * c2 if swaps % 2 == 0 else c1 * -c2
                acc[b1 | b2] = acc.get(b1 | b2, zero) + c
                top = max(top, abs(c))
    cut = cfg.zero_tolerance * top
    return Supernumber(cfg, {key: c for key, c in acc.items()
                             if abs(c) > cut})


def test_mul_rows_is_the_dense_fold_bit_for_bit():
    # rectangular p x q by q x r, with a row of a and a column of b emptied
    # in some products; dust near the cut from _dusty_matrix
    for mode, tol in (("rational", None), ("float64", None),
                      ("float64", 1e-3), ("float64", 0.0)):
        cfg = AlgebraConfig(generator_count=4, coefficient_mode=mode,
                            zero_tolerance=tol)
        rng = make_rng(47)
        for trial in range(30):
            p, q, r = (int(v) for v in rng.integers(1, 5, size=3))
            a = [row[:q] for row in _dusty_matrix(rng, cfg, max(p, q))[:p]]
            b = [row[:r] for row in _dusty_matrix(rng, cfg, max(q, r))[:q]]
            if trial % 3 == 0:
                a[int(rng.integers(0, p))] = [cfg.zero()] * q
            if trial % 3 == 1:
                col = int(rng.integers(0, r))
                for row in b:
                    row[col] = cfg.zero()
            out = _mul_rows(cfg, a, b)
            assert len(out) == p and all(len(row) == r for row in out)
            for i in range(p):
                for j in range(r):
                    want = _fold(cfg, [(a[i][t], b[t][j]) for t in range(q)])
                    assert _same_bits(out[i][j], want)


def test_products_refuse_a_foreign_zero_that_no_pair_reaches():
    # the foreign zero sits in an empty row (or column), so no kernel call
    # would ever see it; it raises on either side of `@` and _mul_rows
    other = AlgebraConfig(generator_count=5, coefficient_mode="rational")
    z, g = RAT.zero(), RAT.generator(1)
    full = [[g, g], [g, g]]
    for place in ((0, 0), (1, 1)):
        rows = [[z, z], [z, z]]
        rows[place[0]][place[1]] = other.zero()
        bad = SuperMatrix(RAT, (2, 0), rows)
        good = SuperMatrix(RAT, (2, 0), full)
        for left, right in ((bad, good), (good, bad)):
            with pytest.raises(ConfigMismatch):
                left @ right
            with pytest.raises(ConfigMismatch):
                _mul_rows(RAT, left.rows, right.rows)


def test_products_call_the_kernel_only_where_a_pair_is_nonzero(monkeypatch):
    calls = []

    def counting(config, pairs):
        calls.append(list(pairs))
        return sum_of_products(config, calls[-1])

    monkeypatch.setattr(matrices, "sum_of_products", counting)
    for cfg in (RAT, FLT):
        z, g1, g2 = cfg.zero(), cfg.generator(1), cfg.generator(2)
        one = cfg.one()
        # row 1 of a is empty, column 2 of b is empty, and a[0][t] b[t][0]
        # meet only at t = 2
        a = [[g1, z, g2], [z, z, z], [one, g2, z]]
        b = [[z, one, z], [z, g1, z], [g1, g2, z]]
        A, B = SuperMatrix(cfg, (3, 0), a), SuperMatrix(cfg, (3, 0), b)
        for product in (lambda: A @ B, lambda: _mul_rows(cfg, a, b)):
            calls.clear()
            out = product()
            rows = out.rows if isinstance(out, SuperMatrix) else out
            # (0, 0), (0, 1), (2, 1); (2, 0) has no nonzero pair either
            assert [[(x, y) for x, y in c] for c in calls] == [
                [(g2, g1)], [(g1, one), (g2, g2)], [(one, one), (g2, g1)]]
            empty = [rows[i][j] for i in range(3) for j in range(3)
                     if (i, j) not in ((0, 0), (0, 1), (2, 1))]
            assert all(e is empty[0] and e.is_zero() for e in empty)
        # 0 + 0 and 0 - 0 are the shared zero as well
        for out in (A + B, A - B):
            assert out.rows[1][0] is out.rows[1][2] and out.rows[1][0] == z
            assert out.rows[0][0] == g1 and out.rows[2][0] in (one + g1,
                                                               one - g1)


def _dense_rows(rng, cfg, m, n, terms, rows=None, cols=None):
    """Rows ``rows`` x columns ``cols`` of a seeded even-class (m|n) matrix
    over cfg's generators: each entry holds ``terms`` random bitmasks of its
    block's parity, with coefficients of mixed sign and size, so that keys
    meet many times and some sums cancel near the cut."""
    L = cfg.generator_count
    by_parity = [[bits for bits in range(1 << L) if bits.bit_count() % 2 == p]
                 for p in (0, 1)]
    k = m + n
    out = []
    for i in (range(k) if rows is None else rows):
        row = []
        for j in (range(k) if cols is None else cols):
            pool = by_parity[(i < m) != (j < m)]
            picked = rng.choice(len(pool), size=min(terms, len(pool)),
                                replace=False)
            row.append(Supernumber(cfg, {
                pool[int(s)]: float(rng.normal()) * 10.0 ** int(
                    rng.integers(-3, 4)) for s in picked}))
        out.append(row)
    return out


def _per_entry(cfg, a, b):
    """Each entry as the per-entry route computes it: one sum_of_products
    over the nonempty pairs in ascending t."""
    return [[sum_of_products(cfg, [(a[i][t], b[t][j]) for t in range(len(b))
                                   if a[i][t].terms and b[t][j].terms])
             for j in range(len(b[0]))] for i in range(len(a))]


def _hex_terms(rows):
    """Every entry as its (key, float.hex) list, in the entry's key order."""
    return [[[(key, c.hex()) for key, c in e.terms.items()] for e in row]
            for row in rows]


def _pairs(a, b):
    return sum(sum(len(row[t].terms) for row in a)
               * sum(len(f.terms) for f in b[t]) for t in range(len(b)))


def _at_once(cfg, a, b):
    """The batched route on the index that _mul_rows builds."""
    a_rows, cols, _, pairs = matrices._operand_index(cfg, a, b)
    assert pairs == _pairs(a, b)
    return matrices._products_at_once(cfg, a_rows, cols, pairs)


@pytest.mark.parametrize("m, n, terms", [(3, 4, 24), (4, 4, 16)])
def test_products_at_once_match_the_per_entry_kernel_bit_for_bit(m, n, terms):
    # dense L=8 products, square and in the rectangular forms that
    # canonical.odd_complement makes (n x k by k x k, n x k by k x n)
    k = m + n
    for tol in (None, 1e-3):
        cfg = AlgebraConfig(generator_count=8, coefficient_mode="float64",
                            zero_tolerance=tol)
        rng = make_rng(25 + m)
        a, b = _dense_rows(rng, cfg, m, n, terms), \
            _dense_rows(rng, cfg, m, n, terms)
        low = _dense_rows(rng, cfg, m, n, terms, rows=range(m, k))
        right = _dense_rows(rng, cfg, m, n, terms, cols=range(m, k))
        for x, y in ((a, b), (low, b), (low, right)):
            assert _pairs(x, y) >= matrices._BATCH_PAIRS
            want = _hex_terms(_per_entry(cfg, x, y))
            assert _hex_terms(_at_once(cfg, x, y)) == want
            assert _hex_terms(_mul_rows(cfg, x, y)) == want
        prod = SuperMatrix(cfg, (m, n), a, "even") @ \
            SuperMatrix(cfg, (m, n), b, "even")
        assert _hex_terms(prod.rows) == _hex_terms(_per_entry(cfg, a, b))


def test_products_at_once_bound_their_arrays_at_the_budget_limit():
    # a dense (4|4) L=8 product, every entry full (128 terms), is the
    # canonicalize budget limit: 8.4M term pairs, which run row by row;
    # in one unchunked pass they raised the peak RSS by about 87 MiB
    cfg = AlgebraConfig(generator_count=8, coefficient_mode="float64")
    a, b = (_dense_rows(make_rng(seed), cfg, 4, 4, 128) for seed in (1, 2))
    assert _pairs(a, b) > 8 * matrices._CHUNK_PAIRS
    tracemalloc.start()
    try:
        out = _at_once(cfg, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert _hex_terms(out) == _hex_terms(_per_entry(cfg, a, b))


def test_sign_masks_of_a_bitmask_array_give_the_int_parity():
    # the batched product takes every right term's mask by _sign_mask on
    # an int64 array and its parity by np.bitwise_count
    low = 1 << 12
    masks = _sign_mask(np.arange(low, dtype=np.int64))
    want = [_sign_mask(b) for b in range(low)]
    assert masks.dtype == np.int64 and masks.tolist() == want
    # every (a, b) below 2^12, against parities counted by int.bit_count
    parity = np.array([x.bit_count() & 1 for x in range(low)])
    low_masks = np.array([mask & (low - 1) for mask in want])
    for a0 in range(0, low, 256):
        a = np.arange(a0, a0 + 256, dtype=np.int64)[:, None]
        assert np.array_equal(np.bitwise_count(a & masks) & 1,
                              parity[a & low_masks])
    rng = make_rng(26)
    a = rng.integers(0, 1 << GENERATOR_CAP, size=3000)
    b = rng.integers(0, 1 << GENERATOR_CAP, size=3000) & ~a
    odd = np.bitwise_count(a & _sign_mask(b)) & 1
    assert odd.tolist() == [(int(x) & _sign_mask(int(y))).bit_count() & 1
                            for x, y in zip(a, b)]


def test_products_at_once_build_no_right_operand_table():
    cfg = AlgebraConfig(generator_count=8, coefficient_mode="float64")
    a, b = (_dense_rows(make_rng(seed), cfg, 3, 4, 24) for seed in (5, 6))
    out = _at_once(cfg, a, b)
    assert all(e._right is None for rows in (a, b) for row in rows
               for e in row)
    assert _hex_terms(out) == _hex_terms(_per_entry(cfg, a, b))


def _padded(cfg, x, y):
    """The 2 x 1 by 1 x 2 product of [x, pad] and [y, pad]: entry (0, 0)
    is x * y, and the 60-term pads lift it past the batch threshold."""
    pad = Supernumber(cfg, {bits: 1.0 + bits / 256 for bits in range(4, 64)})
    return [[x], [pad], [cfg.zero()]], [[y, pad]]


def test_products_at_once_cut_and_empty_entries():
    cfg = AlgebraConfig(generator_count=8, coefficient_mode="float64",
                        zero_tolerance=0.5)
    z1, z2 = 1, 2
    # x * y: key z2 is 8, key z1z2 is -6 + 12, which cancels to exactly
    # the cut 0.5 * 12 and is dropped
    x = Supernumber(cfg, {0: 1.0, z1: 1.5})
    y = Supernumber(cfg, {z2: 8.0, z1 | z2: -6.0})
    a, b = _padded(cfg, x, y)
    out = _at_once(cfg, a, b)
    assert out[0][0].terms == {z2: 8.0}
    assert _hex_terms(out) == _hex_terms(_per_entry(cfg, a, b))
    # z1 * z1 has no disjoint pair: the entry is the product's shared zero,
    # as the empty third row's entries are
    a, b = _padded(cfg, Supernumber(cfg, {z1: 1.0}),
                   Supernumber(cfg, {z1: 2.0}))
    out = _at_once(cfg, a, b)
    assert out[0][0].is_zero() and out[0][0] is out[2][0] is out[2][1]
    assert _hex_terms(out) == _hex_terms(_per_entry(cfg, a, b))


@pytest.mark.parametrize("x, y, message", [
    ({0: 1e200, 1: 1.0}, {2: 1e200}, "term product overflowed"),
    # z1 * z2 and 1 * z1z2 are finite, and their sum is not
    ({0: 1e308, 1: 1e308}, {2: 1.0, 3: 1.0}, "sum overflowed"),
])
def test_products_at_once_leave_an_overflow_to_the_per_entry_route(
        x, y, message):
    cfg = AlgebraConfig(generator_count=8, coefficient_mode="float64")
    a, b = _padded(cfg, Supernumber(cfg, x), Supernumber(cfg, y))
    assert _pairs(a, b) >= matrices._BATCH_PAIRS
    assert _at_once(cfg, a, b) is None
    with pytest.raises(CoefficientOverflow, match=message) as per_entry:
        _per_entry(cfg, a, b)
    with pytest.raises(CoefficientOverflow) as product:
        _mul_rows(cfg, a, b)
    assert str(product.value) == str(per_entry.value)


def test_products_pick_their_route_by_term_pairs(monkeypatch):
    cfg = AlgebraConfig(generator_count=12, coefficient_mode="float64")
    routed = []

    def recording(config, a_rows, cols, pairs):
        routed.append(pairs)
        return batched(config, a_rows, cols, pairs)

    batched = matrices._products_at_once
    monkeypatch.setattr(matrices, "_products_at_once", recording)
    limit = matrices._BATCH_PAIRS
    for left, right in ((40, 25), (37, 27)):     # 1000 and 999 pairs
        x = Supernumber(cfg, {bits: 1.0 for bits in range(left)})
        y = Supernumber(cfg, {bits << 6: 2.0 for bits in range(right)})
        assert len(x.terms) * len(y.terms) in (limit, limit - 1)
        out = _mul_rows(cfg, [[x]], [[y]])
        assert _hex_terms(out) == _hex_terms(_per_entry(cfg, [[x]], [[y]]))
    assert routed == [limit]
    # a rational product of any size makes per-entry kernel calls
    rat = AlgebraConfig(generator_count=12, coefficient_mode="rational")
    x = Supernumber(rat, {bits: Fraction(1) for bits in range(40)})
    _mul_rows(rat, [[x]], [[x]])
    assert routed == [limit]
    # a foreign entry, empty or not, is refused before any route runs
    other = AlgebraConfig(generator_count=13, coefficient_mode="float64")
    a, b = _padded(cfg, cfg.generator(1), cfg.generator(2))
    for foreign in (other.zero(), other.generator(13)):
        for rows in (a, b):
            saved, rows[-1][0] = rows[-1][0], foreign
            with pytest.raises(ConfigMismatch):
                _mul_rows(cfg, a, b)
            rows[-1][0] = saved
    assert routed == [limit]


def test_wrongly_placed_entries_fail_parity_check():
    z = RAT.zero()
    rows = [[RAT.generator(1), z], [z, z]]
    M = SuperMatrix(RAT, BlockShape(1, 1), rows, "even")
    assert not M.check_parity_class()


def test_supertranspose_blocks_and_antihomomorphism():
    M = _sample_even(RAT)
    N = _sample_even(RAT) @ _sample_even(RAT)
    st = M.supertranspose()
    # [[A^T, -D^T], [C^T, B^T]]
    assert st.block_a()[0][0] == M.block_a()[0][0]
    assert st.block_c()[0][0] == -M.block_d()[0][0]
    assert st.block_d()[0][0] == M.block_c()[0][0]
    assert (M @ N).supertranspose() == N.supertranspose() @ M.supertranspose()
    with pytest.raises(ParityMismatch):
        SuperMatrix.zeros(RAT, (1, 1), "odd").supertranspose()


def _blockwise_supertranspose(M):
    """[[A^T, -D^T], [C^T, B^T]] assembled from the four blocks."""
    m, n = M.shape
    A, B, C, D = M.block_a(), M.block_b(), M.block_c(), M.block_d()
    return SuperMatrix.from_blocks(
        M.config,
        [[A[j][i] for j in range(m)] for i in range(m)],
        [[-D[j][i] for j in range(n)] for i in range(m)],
        [[C[j][i] for j in range(m)] for i in range(n)],
        [[B[j][i] for j in range(n)] for i in range(n)], "even")


@pytest.mark.parametrize("cfg", [RAT, FLT], ids=["rational", "float64"])
def test_supertranspose_is_the_blockwise_form(cfg):
    rng = make_rng(6)
    cases = [_sample_even(cfg), random_metric(rng, cfg, 2, 2),
             random_metric(rng, cfg, 2, 0), random_metric(rng, cfg, 0, 2),
             SuperMatrix.from_real(cfg, [[1, 2, 0], [3, 4, 0], [0, 0, 5]],
                                   (2, 1), "even")]
    for M in cases:
        st = M.supertranspose()
        assert st == _blockwise_supertranspose(M)
        assert st.parity_class == "even" and st.shape == M.shape
        assert type(st.rows) is tuple
        assert all(type(row) is tuple for row in st.rows)
        # an anti-homomorphism, exactly in rational mode: (M N)^ST equals
        # N^ST M^ST, here with N = M^ST
        if cfg.rational:
            assert (M @ st).supertranspose() == st.supertranspose() @ st


@pytest.mark.parametrize("cfg", [RAT, FLT], ids=["rational", "float64"])
def test_body_inverse_of_real_rows(cfg):
    def rows(values):
        return [[cfg.coerce(v) for v in r] for r in values]
    inv = matrices._body_inverse(rows([[2, 1], [1, 1]]), cfg.rational)
    if cfg.rational:
        assert inv == [[1, -1], [-1, 2]]
    else:
        assert inv.ravel().tolist() == pytest.approx([1, -1, -1, 2])
    with pytest.raises(BodyNotInvertible):
        matrices._body_inverse(rows([[1, 2], [2, 4]]), cfg.rational)
    # near singular: exact in rational mode, refused by the float64 gate
    near = rows([[1, 1], [1, 1 + 2 ** -40]])
    if cfg.rational:
        assert matrices._body_inverse(near, True)[0][0] == 2 ** 40 + 1
    else:
        with pytest.raises(BodyNotInvertible):
            matrices._body_inverse(near, False)


def test_supertranspose_involution_sign():
    # on the even class the double supertranspose flips the sign of the
    # off-diagonal blocks
    M = _sample_even(RAT)
    twice = M.supertranspose().supertranspose()
    assert twice.block_a() == M.block_a()
    assert twice.block_b() == M.block_b()
    assert twice.block_c()[0][0] == -M.block_c()[0][0]
    assert twice.block_d()[0][0] == -M.block_d()[0][0]


def test_body_of_odd_class_vanishes():
    z = RAT.zero()
    rows = [[z, RAT.generator(1)], [RAT.generator(2), z]]
    M = SuperMatrix(RAT, BlockShape(1, 1), rows, "odd")
    assert M.has_zero_body()
    assert all(v == 0 for r in M.body() for v in r)


def test_exp_log_round_trip():
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 1, 1, 2)
        rng = make_rng(5)
        X = random_member(rng, basis, terms=3, soul_only=True)
        U = exp_zero_body(X)
        back = log_unipotent(U)
        resid = (back - X).entry_norm_max()
        inv_resid = (U @ exp_zero_body(-X) -
                     SuperMatrix.identity(cfg, X.shape)).entry_norm_max()
        if cfg.rational:
            assert resid == 0
            assert inv_resid == 0
        else:
            assert float(resid) < 1e-12
            assert float(inv_resid) < 1e-12


def _exp_from_identity(X):
    """The exponential as first written: the sum and the first term start
    at the identity, and every term is one product."""
    cfg = X.config
    acc = SuperMatrix.identity(cfg, X.shape)
    term = acc
    for k in range(1, cfg.generator_count + 2):
        term = (term @ X).scale(Fraction(1, k) if cfg.rational else 1.0 / k)
        if term.is_zero():
            break
        acc = acc + term
    return acc


def _log_from_identity(U):
    """The logarithm as first written: the sum starts at zero and the
    first power at the identity."""
    cfg = U.config
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
    return acc


def _bits(M):
    """Entries as (index set, exact value or float hex) lists, in order."""
    return [[[(k, v.hex() if isinstance(v, float) else v)
              for k, v in e.terms.items()] for e in row] for row in M.rows]


def _nil_samples(mode):
    """Zero-body elements of (1|2) at L=8 and (3|4) at L=6: sampled nil
    elements of two and four terms."""
    for (p, q, n), L in (((1, 0, 2), 8), ((2, 1, 4), 6)):
        cfg = AlgebraConfig(generator_count=L, coefficient_mode=mode)
        basis = basis_for(cfg, p, q, n)
        rng = make_rng(7 + L)
        for t in range(3):
            yield random_nil(rng, basis, terms=2 + 2 * (t % 2)).X


@pytest.mark.parametrize("mode", ["float64", "rational"])
def test_series_from_the_first_power_match_the_identity_start(mode):
    # equal in rational mode, bit for bit in float64: I @ X is X itself
    # once each entry of X is pruned against its largest term, as every
    # sampled, summed or multiplied entry already is, and S = U - I is a
    # difference, so starting from X (and from S) only drops that product
    for X in _nil_samples(mode):
        U = exp_zero_body(X)
        assert _bits(U) == _bits(_exp_from_identity(X))
        V = U @ exp_zero_body(X.scale(-2))
        for W in (U, V):
            assert _bits(log_unipotent(W)) == _bits(_log_from_identity(W))


def test_exp_keeps_a_small_term_the_identity_start_pruned():
    # a float64 X built with a term at most zero_tolerance times its
    # entry's largest, as a wire payload may be: I @ X dropped that term
    # before it reached X^2, while X^2 now keeps it where it is the only
    # product; the two results differ by that term alone, inside the cut
    cfg = AlgebraConfig(generator_count=6, coefficient_mode="float64")
    small = 0.25 * cfg.zero_tolerance * 3.0
    rows = [[cfg.zero()] * 3 for _ in range(3)]
    rows[0][1] = Supernumber(cfg, {0b11: 3.0, 0b11000: small})
    rows[1][2] = Supernumber(cfg, {0b110: 2.0})
    X = SuperMatrix(cfg, BlockShape(1, 2), rows, "general")
    U, old = exp_zero_body(X), _exp_from_identity(X)
    assert U.rows[0][2].terms == {0b11110: small}
    assert old.rows[0][2].is_zero()
    assert [[e.terms for e in row] for row in (U - old).rows] == [
        [{}, {}, {0b11110: small}], [{}, {}, {}], [{}, {}, {}]]
    assert _bits(log_unipotent(U)) == _bits(_log_from_identity(U))


def _is_identity(rows):
    return all(e == (1 if i == j else 0)
               for i, row in enumerate(rows) for j, e in enumerate(row))


@pytest.mark.parametrize("mode", ["float64", "rational"])
def test_series_make_no_identity_product(monkeypatch, mode):
    # with X^0 = I counted, each series makes one product fewer than the
    # number of nonzero powers, and none of them has an identity left
    # factor; a zero X, or U = I, makes none
    lefts = []

    def counted(config, a, b):
        lefts.append(a)
        return _mul_rows(config, a, b)

    monkeypatch.setattr(matrices, "_mul_rows", counted)
    for X in _nil_samples(mode):
        I = SuperMatrix.identity(X.config, X.shape)
        U = exp_zero_body(X)
        for M, series in ((X, lambda: exp_zero_body(X)),
                          (U - I, lambda: log_unipotent(U))):
            powers = [I]
            while not powers[-1].is_zero():
                powers.append(powers[-1] @ M)
            del lefts[:]
            series()
            assert len(lefts) == len(powers) - 2
            assert not any(_is_identity(a) for a in lefts)
    del lefts[:]
    exp_zero_body(SuperMatrix.zeros(X.config, X.shape))
    log_unipotent(I)
    assert lefts == []


def test_exp_rejects_nonzero_body():
    M = _sample_even(RAT)
    with pytest.raises(NonZeroBody):
        exp_zero_body(M)


def test_log_rejects_non_unipotent():
    M = _sample_even(RAT)
    with pytest.raises(NotUnipotent):
        log_unipotent(M)
    # identity plus a body perturbation is still rejected
    I = SuperMatrix.identity(RAT, (1, 2))
    with pytest.raises(NotUnipotent):
        log_unipotent(I.scale(2))


def graded_bracket(P: SuperMatrix, Q: SuperMatrix) -> SuperMatrix:
    """Bracket of two bare real basis elements: commutator, except the
    anticommutator when both sit in the off-diagonal (odd) blocks."""
    both_odd = (_element_block_kind(P) == "odd"
                and _element_block_kind(Q) == "odd")
    return (P @ Q + Q @ P) if both_odd else (P @ Q - Q @ P)


def _structure_constants_reference(X, basis):
    """The structure-constant operator through the table f_ijk of graded
    brackets of basis elements: M[k][j] = sum_i f_ijk x^i, where x^i are
    X's supernumber coordinates."""
    cfg = X.config
    r = len(basis)
    solver = _SliceSolver(cfg, [_flatten_slices(b)[0] for b in basis])

    def coords(M):
        slices = _flatten_slices(M)
        assert set(slices) <= {0}
        if not slices:
            return [cfg.coerce(0)] * r
        return solver.solve([v for row in slices[0] for v in row])

    fijk = [[coords(graded_bracket(bi, bj)) for bj in basis] for bi in basis]
    lam = [cfg.zero() for _ in range(r)]
    for bits, grid in _flatten_slices(X).items():
        vec = [v for row in grid for v in row]
        for i, c in enumerate(solver.solve(vec)):
            if c != 0:
                lam[i] = lam[i] + Supernumber(cfg, {bits: cfg.coerce(c)})
    rows = [[cfg.zero() for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if fijk[i][j][k] != 0 and not lam[i].is_zero():
                    rows[k][j] = rows[k][j] + lam[i].scale(fijk[i][j][k])
    return SuperMatrix(cfg, BlockShape(r, 0), rows, "general")


def test_graded_bracket_kinds():
    cfg = RAT
    basis = basis_for(cfg, 1, 1, 2)
    even_el = basis.g0[0]
    odd_el = basis.g1[0]
    # even with anything: plain commutator
    assert graded_bracket(even_el, odd_el) == \
        even_el @ odd_el - odd_el @ even_el
    # both odd-kind: anticommutator
    assert graded_bracket(odd_el, basis.g1[1]) == \
        odd_el @ basis.g1[1] + basis.g1[1] @ odd_el


def test_ad_structure_constants_route():
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 1, 1, 2)
        rng = make_rng(9)
        X = random_nil(rng, basis, terms=2)
        ad = ad_operator(X.X, basis.elements())
        assert ad.coordinate_field == "grassmann"
        r = len(basis.elements())
        assert ad.matrix.shape == BlockShape(r, 0)
        assert ad.has_zero_body()


def _unit_basis_with_a_mixed_element(cfg, shape):
    """The unit matrices E_ab, which span every real matrix, with E_00
    replaced by E_00 + E_0m: diagonal and off blocks at once."""
    m, k = shape.m, shape.total
    out = []
    for a in range(k):
        for b in range(k):
            rows = [[cfg.zero()] * k for _ in range(k)]
            rows[a][b] = cfg.one()
            if (a, b) == (0, 0):
                rows[0][m] = cfg.one()
            out.append(SuperMatrix(cfg, shape, rows, "general"))
    return out


def test_ad_structure_constants_match_the_fijk_reference():
    # against the graded-bracket table, for a nil X, an X with a body, and
    # a basis whose first element is mixed-kind: rational entry for entry;
    # float64 sums in another order, so within a few hundred ulps
    for mode in ("rational", "float64"):
        for L, (p, q) in ((4, (1, 0)), (4, (1, 1)), (8, (1, 0))):
            cfg = AlgebraConfig(generator_count=L, coefficient_mode=mode)
            basis = basis_for(cfg, p, q, 2)
            flat = basis.elements()
            mixed = _unit_basis_with_a_mixed_element(cfg, basis.gamma.shape)
            assert _element_block_kind(mixed[0]) == "mixed"
            rng = make_rng(41 + L + q)
            for X in (random_nil(rng, basis, terms=3).X,
                      random_member(rng, basis, terms=3)):
                assert not X.is_zero()
                for b in (flat, mixed):
                    ad = ad_operator(X, b)
                    ref = _structure_constants_reference(X, b)
                    assert not ad.matrix.is_zero()
                    if cfg.rational:
                        assert ad.matrix == ref
                    else:
                        assert (ad.matrix - ref).entry_norm_max() <= \
                            1e-13 * ref.entry_norm_max()


def test_ad_dependent_basis_is_refused_for_a_zero_x():
    # the solvers factor their grids up front, so a dependent basis is
    # refused even when X has no slice to solve
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 1, 1, 2)
        zero = SuperMatrix.zeros(cfg, basis.gamma.shape, "even")
        flat = basis.elements()
        for dependent in ([flat[0], flat[0]],
                          flat + [flat[0].scale(2) + flat[1]],
                          dataclasses.replace(
                              basis, hJ=basis.hJ + basis.hJ[-1:])):
            with pytest.raises(BasisDegenerate):
                ad_operator(zero, dependent)


def test_ad_composition_matches_operator_product():
    # for even-class arguments the coordinate matrices compose: the operator
    # of ad X followed by ad Y acts as the matrix product
    cfg = RAT
    basis = basis_for(cfg, 1, 1, 2)
    rng = make_rng(13)
    X = random_nil(rng, basis, terms=2)
    Y = random_nil(rng, basis, terms=2)
    flat = basis.elements()
    adX = ad_operator(X.X, flat)
    adY = ad_operator(Y.X, flat)
    prod = adX.matrix @ adY.matrix

    # apply the composite to each basis element directly and compare with
    # the column of the matrix product
    for j, bj in enumerate(flat):
        inner = Y.X @ bj - bj @ Y.X
        outer = X.X @ inner - inner @ X.X
        col = [prod.rows[k][j] for k in range(len(flat))]
        recomposed = SuperMatrix.zeros(cfg, X.X.shape, "even")
        for k, c in enumerate(col):
            if not c.is_zero():
                rows = [[c * e for e in r] for r in flat[k].rows]
                recomposed = recomposed + SuperMatrix(
                    cfg, X.X.shape, rows, "general")
        assert (recomposed - outer).entry_norm_max() == 0


def test_ad_flat_route_levels_and_nilpotence():
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 1, 1, 2)
        rng = make_rng(17)
        X = random_nil(rng, basis, terms=2)
        ad = ad_operator(X.X, basis)
        assert ad.coordinate_field == "real"
        assert len(ad.levels) == len(basis.hJ)
        assert ad.has_zero_body()
        # soul source strictly raises the index level, so some power of the
        # flat matrix vanishes
        power = ad.matrix
        for _ in range(cfg.generator_count):
            power = power @ ad.matrix
        assert power.is_zero() or float(power.entry_norm_max()) < 1e-30


def _index_sets(M):
    return {bits for row in M.rows for e in row for bits in e.terms}


def _flat_reference(X, family):
    """The flat operator entry by entry: one solver per index level, each
    bracket solved slice by slice, and every one of the r*r scalars lifted."""
    cfg = X.config
    r = len(family)
    levels = [_index_sets(b).pop() for b in family]
    slots = {}
    for s, lv in enumerate(levels):
        slots.setdefault(lv, []).append(s)

    def grid(M, lv):
        return [[e.terms.get(lv, cfg.coerce(0)) for e in row]
                for row in M.rows]

    solvers = {lv: _SliceSolver(cfg, [grid(family[s], lv) for s in ss])
               for lv, ss in slots.items()}
    cols = []
    for b in family:
        z = X @ b - b @ X
        col = [cfg.coerce(0)] * r
        for lv in _index_sets(z):
            vec = [v for row in grid(z, lv) for v in row]
            for s, c in zip(slots[lv], solvers[lv].solve(vec)):
                col[s] = col[s] + c
        cols.append(col)
    rows = [[cfg.scalar(cols[j][i]) for j in range(r)] for i in range(r)]
    return SuperMatrix(cfg, BlockShape(r, 0), rows, "general")


def test_ad_flat_matches_entrywise_reference():
    # shapes (1|2) and (2|2) at L=4, and (1|2) at L=8 (r = 640)
    for mode in ("rational", "float64"):
        for L, p, q in ((4, 1, 0), (4, 1, 1), (8, 1, 0)):
            cfg = AlgebraConfig(generator_count=L, coefficient_mode=mode)
            basis = basis_for(cfg, p, q, 2)
            X = random_nil(make_rng(29), basis, terms=2)
            ad = ad_operator(X.X, basis)
            assert not ad.matrix.is_zero()
            assert ad.matrix == _flat_reference(X.X, hJ_matrices(basis))
            assert ad.levels == tuple(bits for bits, _ in basis.hJ)


def test_ad_from_lie_basis_tags_matches_the_family():
    # shapes (1|2) and (2|2) at L=4, and (1|2) at L=8 (r = 640)
    for mode in ("rational", "float64"):
        for L, p, q in ((4, 1, 0), (4, 1, 1), (8, 1, 0)):
            cfg = AlgebraConfig(generator_count=L, coefficient_mode=mode)
            basis = basis_for(cfg, p, q, 2)
            X = random_nil(make_rng(37), basis, terms=2)
            ad = ad_operator(X.X, basis)
            ref = _flat_reference(X.X, hJ_matrices(basis))
            assert ad.coordinate_field == "real"
            assert ad.matrix == ref and not ad.matrix.is_zero()
            assert all(type(a) is type(b)
                       for ra, rb in zip(ad.matrix.rows, ref.rows)
                       for x, y in zip(ra, rb)
                       for a, b in zip(x.terms.values(), y.terms.values()))


def test_ad_from_lie_basis_tags_raises_as_the_family_does():
    basis = basis_for(RAT, 1, 0, 2)
    X = random_nil(make_rng(31), basis, terms=2)
    zero = SuperMatrix.zeros(RAT, X.X.shape, "even")
    other = basis_for(FLT, 1, 0, 2).g0[0]
    wide = SuperMatrix.zeros(RAT, (2, 2), "even")
    low = [t for t in basis.hJ if t[0] <= 1]
    thin = [t for t in basis.hJ if t[1] not in (0, len(basis.g0))]
    cases = [
        (dataclasses.replace(basis, hJ=[]), BasisDegenerate),
        # levels {} and {1} only, then one slice fewer at every level
        (dataclasses.replace(basis, hJ=low), BasisDegenerate),
        (dataclasses.replace(basis, hJ=thin), BasisDegenerate),
        (dataclasses.replace(basis, hJ=basis.hJ + basis.hJ[-1:]),
         BasisDegenerate),
        (dataclasses.replace(basis, g0=[zero] + basis.g0[1:]),
         BasisDegenerate),
        (dataclasses.replace(basis, g0=[wide] + basis.g0[1:]),
         ShapeMismatch),
    ]
    for tagged, error in cases:
        family = hJ_matrices(tagged)
        with pytest.raises(error):
            ad_operator(X.X, family)
        with pytest.raises(error):
            ad_operator(X.X, tagged)
    # a family over another config cannot be formed at all; its level-0
    # member is the element itself
    assert basis.hJ[0] == (0, 0)
    with pytest.raises(ConfigMismatch):
        ad_operator(X.X, [other] + hJ_matrices(basis)[1:])
    with pytest.raises(ConfigMismatch):
        ad_operator(X.X, dataclasses.replace(basis, g0=[other] + basis.g0[1:]))


def test_ad_flat_rejects_brackets_outside_the_slices():
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 1, 0, 2)
        X = random_nil(make_rng(31), basis, terms=2)
        # only index sets {} and {1}: the soul of X raises brackets to
        # levels the tags do not have
        low = [(bits, pos) for bits, pos in basis.hJ if bits <= 1]
        with pytest.raises(BasisDegenerate):
            ad_operator(X.X, dataclasses.replace(basis, hJ=low))
        # every level, but one slice fewer at each: the brackets leave the
        # span of what is left at their level
        thin = [(bits, pos) for bits, pos in basis.hJ
                if pos not in (0, len(basis.g0))]
        with pytest.raises(BasisDegenerate):
            ad_operator(X.X, dataclasses.replace(basis, hJ=thin))


def test_ad_flat_allocation_follows_nonzeros():
    # (1|2) at L=8: r = 640, so 409,600 entries of which a few hundred are
    # nonzero; lifting every entry separately peaked at about 54 MiB and
    # building every row at 6.6 MiB, while sharing one tuple among the rows
    # without a nonzero stays under 4 MiB
    cfg = AlgebraConfig(generator_count=8, coefficient_mode="float64")
    basis = basis_for(cfg, 1, 0, 2)
    X = random_nil(make_rng(3), basis, terms=2)
    ad_operator(X.X, basis)
    tracemalloc.start()
    try:
        ad = ad_operator(X.X, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ad.matrix.rows) == len(basis.hJ) == 640
    assert peak <= 4.5 * 2 ** 20, peak


@pytest.mark.parametrize("mode", ["float64", "rational"])
def test_ad_flat_shares_one_zero_row(mode):
    # (1|2) at L=8: r = 640 rows, of which only those that receive a
    # nonzero coordinate are built; every other row is one shared tuple
    cfg = AlgebraConfig(generator_count=8, coefficient_mode=mode)
    basis = basis_for(cfg, 1, 0, 2)
    X = random_nil(make_rng(3), basis, terms=2)
    rows = ad_operator(X.X, basis).matrix.rows
    assert type(rows) is tuple and len(rows) == 640
    assert all(type(row) is tuple and len(row) == 640 for row in rows)
    empty = [row for row in rows if all(e.is_zero() for e in row)]
    held = len(rows) - len(empty)
    assert empty and held
    assert all(row is empty[0] for row in empty)
    assert len({id(row) for row in rows}) <= 1 + held


def test_ad_rejects_bad_bases():
    cfg = RAT
    basis = basis_for(cfg, 1, 1, 2)
    rng = make_rng(21)
    X = random_nil(rng, basis, terms=2)
    with pytest.raises(BasisDegenerate):
        ad_operator(X.X, [])
    with pytest.raises(BasisDegenerate):
        ad_operator(X.X, [SuperMatrix.zeros(cfg, X.X.shape, "even")])
    dup = [basis.g0[0], basis.g0[0]]
    with pytest.raises(BasisDegenerate):
        ad_operator(X.X, dup)
    # a list of single-index slices is no real basis: the flat operator is
    # read from the tags of a LieBasis only
    with pytest.raises(BasisDegenerate, match="real"):
        ad_operator(X.X, hJ_matrices(basis))
    other = basis_for(FLT, 1, 1, 2)
    with pytest.raises(ConfigMismatch):
        ad_operator(X.X, other.elements())


def test_spectrum_gate():
    cfg = RAT
    basis = basis_for(cfg, 1, 1, 2)
    rng = make_rng(25)
    X = random_nil(rng, basis, terms=2)
    ad = ad_operator(X.X, basis.elements())
    assert spectrum_gate(ad, 0) == "singular"
    assert spectrum_gate(ad, Fraction(1, 7)) == "invertible"
    assert spectrum_gate(ad, -3) == "invertible"
    member = random_member(rng, basis, terms=2)  # nonzero body allowed
    ad_bad = ad_operator(member, basis.elements())
    if not ad_bad.has_zero_body():
        with pytest.raises(NonZeroBodyOperator):
            spectrum_gate(ad_bad, 1)


@pytest.mark.parametrize("mode", ["float64", "rational"])
def test_verify_ad_section_fails_where_a_flat_entry_does_not_raise_its_level(
        monkeypatch, mode):
    cfg = AlgebraConfig(generator_count=4, coefficient_mode=mode)
    basis = basis_for(cfg, 1, 0, 2)
    assert verify._section_ad(make_rng(5), basis, 1) == []
    exact = verify.ad_operator
    levels = exact(random_nil(make_rng(5), basis).X, basis).levels
    top = next(s for s, lv in enumerate(levels) if lv)
    low = levels.index(0)
    up = next(s for s, lv in enumerate(levels)
              if lv & levels[top] == levels[top] and lv != levels[top])
    one = cfg.scalar(1)
    # a same-level entry, one lowered to level 0, one raised (allowed), and
    # a same-level entry beside a zero other than the operator's shared one;
    # each planted unlisted, as a stray write would be, and listed, as
    # _ad_flat records a write
    for (changes, failing), listed in itertools.product(
            (({(top, top): one}, [(top, top)]),
             ({(low, top): one}, [(low, top)]),
             ({(up, top): one}, []),
             ({(top, top): one, (top, low): cfg.zero()}, [(top, top)])),
            (False, True)):
        def mutated(X, b):
            ad = exact(X, b)
            if ad.levels is None:
                return ad
            rows = [list(row) for row in ad.matrix.rows]
            for (s, j), value in changes.items():
                rows[s][j] = value
            return dataclasses.replace(ad, matrix=SuperMatrix(
                cfg, ad.matrix.shape, rows, "general"),
                written=ad.written + list(changes) * listed)

        monkeypatch.setattr(verify, "ad_operator", mutated)
        want = [f"flat entry ({s}, {j}) does not raise level {levels[j]} "
                f"(row level {levels[s]})" for s, j in failing]
        assert verify._section_ad(make_rng(5), basis, 1) == want


@pytest.mark.parametrize("mode", ["float64", "rational"])
def test_ad_flat_lists_every_entry_it_writes(mode):
    cfg = AlgebraConfig(generator_count=6, coefficient_mode=mode)
    basis = basis_for(cfg, 2, 0, 2)
    ad = ad_operator(random_nil(make_rng(4), basis, terms=3).X, basis)
    nonzero = {(s, j) for s, row in enumerate(ad.matrix.rows)
               for j, e in enumerate(row) if not e.is_zero()}
    assert nonzero and len(set(ad.written)) == len(ad.written)
    assert set(ad.written) == nonzero
    assert ad_operator(random_nil(make_rng(4), basis).X,
                       basis.elements()).written is None


@pytest.mark.parametrize("mode", ["float64", "rational"])
def test_verify_sees_a_sign_flip_in_the_flat_operator(monkeypatch, mode):
    # every flat entry negated keeps the levels, the zero body and the
    # spectrum gate, so only the rebuilt brackets of the checked columns
    # can tell
    cfg = AlgebraConfig(generator_count=4, coefficient_mode=mode)
    assert verify.run_verify(cfg, 1, 1, 2)["status"] == "pass"
    exact = matrices._ad_flat

    def flipped(*args):
        ad = exact(*args)
        return dataclasses.replace(ad, matrix=-ad.matrix)

    monkeypatch.setattr(matrices, "_ad_flat", flipped)
    report = verify.run_verify(cfg, 1, 1, 2)
    assert report["status"] == "fail"
    ad = next(s for s in report["sections"] if s["name"] == "ad_spectrum")
    assert ad["failures"] and all(
        line.startswith("flat column ") and line.endswith(
            "does not rebuild its bracket") for line in ad["failures"])
