"""Composition series, the zero-body group, and the semi-direct product."""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm, logm

from supermetric import group, verify
from supermetric.algebra import AlgebraConfig, within_gate
from supermetric.errors import (
    ConfigMismatch,
    NonZeroBody,
    NormBoundViolation,
    NotBodyIsometry,
    NotLieElement,
    ShapeMismatch,
)
from supermetric.group import (
    GroupElement,
    NilElement,
    _nested_bracket,
    _word_table,
    bch_series,
    conjugate_action,
    diamond,
    embed_isometry,
    semidirect_inverse,
    semidirect_multiply,
)
from supermetric.isometry import GammaForm, is_isometry, \
    violated_conditions
from supermetric.matrices import SuperMatrix, exp_zero_body, log_unipotent
from supermetric.sampling import (
    basis_for,
    make_rng,
    random_group_element,
    random_nil,
    standard_gamma,
)
from supermetric.serialization import group_element_from_json, \
    group_element_to_json

RAT = AlgebraConfig(generator_count=4, coefficient_mode="rational")
FLT = AlgebraConfig(generator_count=4, coefficient_mode="float64")


def test_series_order_bounds():
    X = SuperMatrix.from_real(FLT, [[0.0, 0.11], [-0.11, 0.0]], (2, 0),
                              "even")
    for order in (1, 6):
        bch_series(X, X, order)
    for order in (0, 7):
        with pytest.raises(ConfigMismatch):
            bch_series(X, X, order)


def test_word_table_low_orders():
    assert sorted(_word_table(1)) == [(1, "X"), (1, "Y")]
    # the two surviving length-2 words carry +-1/4 and recombine to
    # [X, Y] / 2; pure powers drop out
    table2 = dict((w, c) for c, w in _word_table(2))
    assert table2 == {"XY": Fraction(1, 4), "YX": Fraction(-1, 4)}
    words3 = {w for _, w in _word_table(3)}
    assert "XXX" not in words3 and "YYY" not in words3


def test_series_low_orders_explicit():
    basis = basis_for(RAT, 1, 1, 2)
    rng = make_rng(1)
    X = random_nil(rng, basis, terms=2).X
    Y = random_nil(rng, basis, terms=2).X
    s1 = bch_series(X, Y, 1)
    assert (s1 - (X + Y)).entry_norm_max() == 0
    s2 = bch_series(X, Y, 2)
    half_bracket = (X @ Y - Y @ X).scale(Fraction(1, 2))
    assert (s2 - (X + Y + half_bracket)).entry_norm_max() == 0


def test_series_matches_exact_route_on_first_grade():
    # soul entries of grade one exhaust the truncated algebra by degree
    # L, so the order-L series and the exact logarithm route agree term
    # for term
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 1, 1, 2)
        rng = make_rng(23)
        for _ in range(3):
            X = _grade_one_nil(rng, basis)
            Y = _grade_one_nil(rng, basis)
            Z_series = bch_series(X.X, Y.X, cfg.generator_count)
            Z_exact = diamond(X, Y)
            resid = (Z_series - Z_exact.X).entry_norm_max()
            if cfg.rational:
                assert resid == 0
            else:
                assert float(resid) < 1e-12


def _grade_one_nil(rng, basis):
    cfg = basis.gamma.config
    acc = SuperMatrix.zeros(cfg, basis.gamma.shape, "even")
    flat = basis.elements()
    split = len(basis.g0)
    for _ in range(3):
        pos = int(rng.integers(0, len(flat)))
        base = flat[pos]
        k = int(rng.integers(1, cfg.generator_count + 1))
        z = cfg.generator(k)
        if pos < split:
            # even slot needs an even factor; pair two generators
            k2 = 1 + (k % cfg.generator_count)
            z = z * cfg.generator(k2)
            if z.is_zero():
                continue
        rows = [[z * e for e in r] for r in base.rows]
        acc = acc + SuperMatrix(cfg, base.shape, rows, "even")
    return NilElement(acc, basis.gamma)


def _nested_bracket_per_word(mats, word):
    """The reference: every word's bracket formed from its letters."""
    acc = mats[word[-1]]
    for ch in reversed(word[:-1]):
        x = mats[ch]
        acc = x @ acc - acc @ x
    return acc


def _series_per_word(X, Y, max_order):
    cfg = X.config
    acc = SuperMatrix.zeros(cfg, X.shape, "general")
    for order in range(1, max_order + 1):
        for coeff, word in _word_table(order):
            term = _nested_bracket_per_word({"X": X, "Y": Y}, word)
            if not term.is_zero():
                acc = acc + term.scale(coeff if cfg.rational
                                       else float(coeff))
    return acc


def _bits(M):
    """Entries as (index set, exact value or float hex) lists, in order."""
    return [[[(k, v.hex() if isinstance(v, float) else v)
              for k, v in e.terms.items()] for e in row] for row in M.rows]


def test_series_with_shared_brackets_matches_the_per_word_reference():
    # orders 1..6: equal in rational mode, bit for bit in float64, on souls
    # whose order-6 brackets survive and on small real matrices
    a = [[0.0, 0.11], [-0.11, 0.0]]
    b = [[0.05, 0.02], [0.02, -0.05]]
    real = [SuperMatrix.from_real(FLT, m, (2, 0), "even") for m in (a, b)]
    for mode in ("rational", "float64"):
        cfg = AlgebraConfig(generator_count=6, coefficient_mode=mode)
        basis = basis_for(cfg, 1, 1, 2)
        rng = make_rng(41)
        pairs = [(_grade_one_nil(rng, basis).X, _grade_one_nil(rng, basis).X)
                 for _ in range(2)]
        pairs.append((random_nil(rng, basis, terms=3).X,
                      random_nil(rng, basis, terms=3).X))
        if mode == "float64":
            pairs.append(tuple(real))
        for X, Y in pairs:
            for order in range(1, 7):
                got = bch_series(X, Y, order)
                assert _bits(got) == _bits(_series_per_word(X, Y, order))


def test_series_forms_each_bracket_once(monkeypatch):
    # the 72 words through order 6 have 86 distinct suffixes of two or more
    # letters, so 172 products where the words taken apart need 572
    words = [w for order in range(1, 7) for _, w in _word_table(order)]
    suffixes = {w[i:] for w in words for i in range(len(w) - 1)}
    assert (len(words), len(suffixes)) == (72, 86)
    assert 2 * sum(len(w) - 1 for w in words) == 572
    X = SuperMatrix.from_real(FLT, [[0.0, 0.11], [-0.11, 0.0]], (2, 0),
                              "even")
    Y = SuperMatrix.from_real(FLT, [[0.05, 0.02], [0.02, -0.05]], (2, 0),
                              "even")
    calls = []
    matmul = SuperMatrix.__matmul__

    def counting(self, other):
        calls.append(1)
        return matmul(self, other)
    monkeypatch.setattr(SuperMatrix, "__matmul__", counting)
    bch_series(X, Y, 6)
    assert len(calls) == 172
    brackets = {"X": X, "Y": Y}
    for w in words:
        _nested_bracket(brackets, w)
    assert set(brackets) - {"X", "Y"} == suffixes


def test_series_against_numeric_logarithm():
    # nonzero-body inputs below the norm gate: the order-6 series tracks
    # the numeric matrix logarithm
    a = np.array([[0.0, 0.11], [-0.11, 0.0]])
    b = np.array([[0.05, 0.02], [0.02, -0.05]])
    X = SuperMatrix.from_real(FLT, a.tolist(), (2, 0), "even")
    Y = SuperMatrix.from_real(FLT, b.tolist(), (2, 0), "even")
    Z = bch_series(X, Y, 6)
    ref = logm(expm(a) @ expm(b))
    got = np.array(Z.body_float())
    assert np.max(np.abs(got - ref)) < 1e-8


def test_series_norm_gate():
    a = [[0.0, 0.5], [-0.5, 0.0]]
    X = SuperMatrix.from_real(FLT, a, (2, 0), "even")
    with pytest.raises(NormBoundViolation):
        bch_series(X, X, 4)
    # pure souls pass regardless of size
    big = SuperMatrix.zeros(FLT, (2, 0), "even")
    rows = [list(r) for r in big.rows]
    rows[0][1] = FLT.term([1, 2], 40.0)
    rows[1][0] = FLT.term([3, 4], -40.0)
    soul_mat = SuperMatrix(FLT, (2, 0), rows, "even")
    bch_series(soul_mat, soul_mat, 4)


def test_nil_element_validation():
    gamma = standard_gamma(RAT, 1, 1, 2)
    body = SuperMatrix.identity(RAT, gamma.shape)
    with pytest.raises(NonZeroBody):
        NilElement(body, gamma)
    z = RAT.zero()
    k = gamma.m + gamma.n
    rows = [[z] * k for _ in range(k)]
    rows[0][0] = RAT.term([1, 2], 1)   # symmetric diagonal soul: not skew
    with pytest.raises(NotLieElement,
                       match=r"membership conditions violated: "
                             r"\['even-even'\]"):
        NilElement(SuperMatrix(RAT, gamma.shape, rows, "even"), gamma)
    with pytest.raises(ShapeMismatch):
        NilElement(SuperMatrix.zeros(RAT, (1, 2), "even"), gamma)


def test_nil_element_checks_only_the_three_conditions(monkeypatch):
    # l^ST G + G l, the single-identity formulation, is for lie_membership
    # reports; validation needs only the block conditions
    basis = basis_for(RAT, 1, 1, 2)
    members = [random_nil(make_rng(s), basis, terms=2).X for s in range(3)]

    def no_supertranspose(self):
        raise AssertionError("the single identity was computed")
    monkeypatch.setattr(SuperMatrix, "supertranspose", no_supertranspose)
    for X in members:
        assert NilElement(X, basis.gamma).X is X


def test_members_built_from_members_are_not_checked_again(monkeypatch):
    # membership is checked where a matrix comes in from outside: on the
    # wire, once per element; the group law and sampling trust members
    basis = basis_for(FLT, 2, 1, 2)
    gamma = basis.gamma
    rng = make_rng(8)
    wire = [group_element_to_json(random_group_element(rng, basis))
            for _ in range(2)]
    calls = []

    def counted(ell, form):
        calls.append(ell)
        return violated_conditions(ell, form)
    monkeypatch.setattr(group, "violated_conditions", counted)
    h1, h2 = (group_element_from_json(h, gamma) for h in wire)
    assert len(calls) == 2
    semidirect_multiply(h1, h2)
    semidirect_inverse(h1)
    random_nil(rng, basis, terms=2)
    assert len(calls) == 2


def test_verify_reports_a_law_that_leaves_the_group(monkeypatch):
    # verify asserts membership of the laws' final values itself: a product
    # outside the group is a failure line, not a NotLieElement crash
    law = group.diamond

    def leaves_the_group(X, Y):
        Z = law(X, Y).X
        rows = [list(r) for r in Z.rows]
        rows[0][0] = rows[0][0] + Z.config.term([1, 2], 1)
        return NilElement._trusted(
            SuperMatrix(Z.config, Z.shape, rows, "even"), X.gamma)
    monkeypatch.setattr(group, "diamond", leaves_the_group)
    monkeypatch.setattr(verify, "diamond", leaves_the_group)
    report = verify.run_verify(RAT, seed=1, m=1, n=2)
    assert report["status"] == "fail"
    sections = {s["name"]: s for s in report["sections"]}
    for name in ("bch", "semidirect"):
        assert sections[name]["status"] == "fail"
        assert "case 0: product not a member" in sections[name]["failures"]


def test_diamond_group_axioms_exact():
    basis = basis_for(RAT, 1, 1, 2)
    gamma = basis.gamma
    rng = make_rng(5)
    e = NilElement(SuperMatrix.zeros(RAT, gamma.shape, "even"), gamma)
    for _ in range(3):
        X = random_nil(rng, basis, terms=3)
        Y = random_nil(rng, basis, terms=3)
        W = random_nil(rng, basis, terms=3)
        assert (diamond(X, e).X - X.X).entry_norm_max() == 0
        assert (diamond(e, X).X - X.X).entry_norm_max() == 0
        assert diamond(X, -X).X.is_zero()
        lhs = diamond(diamond(X, Y), W)
        rhs = diamond(X, diamond(Y, W))
        assert (lhs.X - rhs.X).entry_norm_max() == 0


def test_diamond_exponentiates_each_operand_once(monkeypatch):
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 1, 1, 2)
        rng = make_rng(43)
        X = random_nil(rng, basis, terms=3)
        Y = random_nil(rng, basis, terms=3)
        # the kept exponential leaves the law bit for bit as it was
        ref = log_unipotent(exp_zero_body(X.X) @ exp_zero_body(Y.X))
        assert _bits(diamond(X, Y).X) == _bits(ref)
        assert _bits(X.exp) == _bits(exp_zero_body(X.X))
        # equality and hashing still see only the fields
        twin = NilElement(X.X, X.gamma)
        assert X == twin and "exp" in vars(X) and "exp" not in vars(twin)
        for element in (X, twin):
            with pytest.raises(TypeError):
                hash(element)
        calls = []
        monkeypatch.setattr("supermetric.group.exp_zero_body",
                            lambda M: calls.append(M) or exp_zero_body(M))
        Z = random_nil(rng, basis, terms=3)
        diamond(diamond(X, Z), Z)
        diamond(Z, Y)
        # Z once; diamond(X, Z) keeps the product it took the logarithm
        # of, and X and Y were formed above
        assert len(calls) == 1
        monkeypatch.undo()


def test_diamond_result_carries_its_exponential():
    # the kept product exp X exp Y is exp(log U) exactly in rational mode
    # and within the gate in float64; chained, as verify's associativity
    # check chains them
    for cfg in (RAT, FLT):
        for p, q, n, seed in ((1, 1, 2, 5), (2, 1, 2, 6), (1, 0, 4, 7)):
            basis = basis_for(cfg, p, q, n)
            rng = make_rng(seed)
            X, Y, W = (random_nil(rng, basis, terms=4) for _ in range(3))
            for D in (diamond(X, Y), diamond(diamond(X, Y), W),
                      diamond(W, diamond(X, -Y))):
                formed = exp_zero_body(D.X)
                if cfg.rational:
                    assert D.exp == formed
                else:
                    gap = (D.exp - formed).entry_norm_max()
                    assert within_gate(gap, formed.entry_norm_max())
                assert D.exp.parity_class == formed.parity_class == "even"


def test_diamond_rejects_mismatched_forms():
    g1 = GammaForm(RAT, (1, 1), 2)
    g2 = GammaForm(RAT, (1, -1), 2)
    X = NilElement(SuperMatrix.zeros(RAT, g1.shape, "even"), g1)
    Y = NilElement(SuperMatrix.zeros(RAT, g2.shape, "even"), g2)
    with pytest.raises(ShapeMismatch):
        diamond(X, Y)


def test_group_element_validation():
    gamma = standard_gamma(RAT, 1, 1, 2)
    nil = NilElement(SuperMatrix.zeros(RAT, gamma.shape, "even"), gamma)
    k = gamma.m + gamma.n
    eye = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    h = GroupElement(tuple(map(tuple, eye)), nil)
    # an integer ndarray comes out as the same tuples of Python Fractions
    from_array = GroupElement(np.eye(k, dtype=np.int64), nil)
    assert from_array.g_body == h.g_body
    assert all(type(v.numerator) is int for r in from_array.g_body for v in r)
    with pytest.raises(NotBodyIsometry):
        GroupElement(tuple(tuple(2 * v for v in r) for r in eye), nil)
    off = [list(r) for r in eye]
    off[0][k - 1] = 1
    with pytest.raises(NotBodyIsometry):
        GroupElement(tuple(map(tuple, off)), nil)
    with pytest.raises(ShapeMismatch):
        GroupElement(((1,),), nil)


def test_conjugation_is_an_automorphism():
    basis = basis_for(RAT, 2, 1, 2)
    gamma = basis.gamma
    rng = make_rng(9)
    h1 = random_group_element(rng, basis)
    h2 = random_group_element(rng, basis)
    Y = random_nil(rng, basis, terms=3)
    # alpha(g) respects diamond
    gY = conjugate_action(h1.g_body, Y)
    Z = random_nil(rng, basis, terms=3)
    lhs = conjugate_action(h1.g_body, diamond(Y, Z))
    rhs = diamond(gY, conjugate_action(h1.g_body, Z))
    assert (lhs.X - rhs.X).entry_norm_max() == 0
    # alpha(g1 g2) = alpha(g1) alpha(g2)
    from supermetric.matrices import _grid_mul
    g12 = _grid_mul(h1.g_body, h2.g_body)
    lhs2 = conjugate_action(g12, Y)
    rhs2 = conjugate_action(h1.g_body, conjugate_action(h2.g_body, Y))
    assert (lhs2.X - rhs2.X).entry_norm_max() == 0


def test_conjugate_action_refuses_a_non_isometry():
    basis = basis_for(RAT, 1, 1, 2)
    Y = random_nil(make_rng(5), basis, terms=3)
    g = [[2 if i == j == 0 else int(i == j) for j in range(4)]
         for i in range(4)]
    # diag(2, 1, 1, 1) scales the first eta direction: g Y g^-1 leaves G0
    assert violated_conditions(group._conjugate(g, Y).X, basis.gamma)
    with pytest.raises(NotLieElement):
        conjugate_action(g, Y)
    # an isometry passes, and the semi-direct product's trusted
    # conjugation gives the same element
    h = random_group_element(make_rng(6), basis)
    assert conjugate_action(h.g_body, Y).X == \
        group._conjugate(h.g_body, Y).X


def test_group_element_reads_gamma_body_once_and_coerces_to_native():
    for cfg, native in ((RAT, Fraction), (FLT, float)):
        gamma = standard_gamma(cfg, 1, 1, 2)
        body = gamma.body_float()
        assert body is gamma.body_float() and not body.flags.writeable
        X = SuperMatrix.zeros(cfg, gamma.shape, "even")
        eye = [[np.int64(i == j) if i else int(i == j) for j in range(4)]
               for i in range(4)]
        h = GroupElement(eye, NilElement(X, gamma))
        assert all(type(v) is native for row in h.g_body for v in row)
        assert h.g_body == GroupElement.identity(gamma).g_body
        assert gamma.body_float() is body


def test_package_import_leaves_scipy_out():
    code = ("import sys, supermetric; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_semidirect_group_axioms():
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 1, 1, 2)
        gamma = basis.gamma
        rng = make_rng(17)
        e = GroupElement.identity(gamma)
        for _ in range(3):
            h1 = random_group_element(rng, basis)
            h2 = random_group_element(rng, basis)
            h3 = random_group_element(rng, basis)
            assert _ge_close(semidirect_multiply(h1, e), h1, cfg)
            assert _ge_close(semidirect_multiply(e, h1), h1, cfg)
            assert _ge_close(
                semidirect_multiply(h1, semidirect_inverse(h1)), e, cfg)
            lhs = semidirect_multiply(semidirect_multiply(h1, h2), h3)
            rhs = semidirect_multiply(h1, semidirect_multiply(h2, h3))
            assert _ge_close(lhs, rhs, cfg)


def _ge_close(a, b, cfg):
    db = max((abs(float(x - y)) for ra, rb in zip(a.g_body, b.g_body)
              for x, y in zip(ra, rb)), default=0.0)
    dn = float((a.n_part.X - b.n_part.X).entry_norm_max())
    if cfg.rational:
        return db == 0 and dn == 0
    # nil entries grow through conjugation, so gate relative to their size
    scale = 1.0 + float(a.n_part.X.entry_norm_max())
    return db < 1e-9 and dn < 1e-10 * scale


def test_embedding_is_a_homomorphism():
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 2, 1, 2)
        gamma = basis.gamma
        rng = make_rng(21)
        for _ in range(3):
            h1 = random_group_element(rng, basis)
            h2 = random_group_element(rng, basis)
            lhs = embed_isometry(semidirect_multiply(h1, h2))
            rhs = embed_isometry(h1) @ embed_isometry(h2)
            resid = (lhs - rhs).entry_norm_max()
            if cfg.rational:
                assert resid == 0
            else:
                assert float(resid) < 1e-9
            assert is_isometry(lhs, gamma)
