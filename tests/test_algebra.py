"""Grassmann coefficient ring: construction, arithmetic, inversion."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supermetric.algebra import (
    GENERATOR_CAP,
    AlgebraConfig,
    Supernumber,
    _sign_mask,
    binomial_inverse_sqrt,
    invert,
    sum_of_products,
)
from supermetric.errors import (
    BodyNotInvertible,
    CoefficientOverflow,
    ConfigMismatch,
    NonZeroBody,
    ParityMismatch,
)
from supermetric import algebra, matrices
from supermetric.cli import main
from supermetric.matrices import SuperMatrix
from supermetric.sampling import make_rng, random_metric
from supermetric.serialization import dumps, matrix_to_json

RAT = AlgebraConfig(generator_count=4, coefficient_mode="rational")
FLT = AlgebraConfig(generator_count=4, coefficient_mode="float64")


def test_config_validation():
    with pytest.raises(ConfigMismatch):
        AlgebraConfig(generator_count=0)
    with pytest.raises(ConfigMismatch):
        AlgebraConfig(generator_count=25)
    for mode in ("decimal", ["x"], {"rational": 1}, None, 1):
        with pytest.raises(ConfigMismatch):
            AlgebraConfig(coefficient_mode=mode)
    with pytest.raises(ConfigMismatch):
        AlgebraConfig(zero_tolerance=-1e-3)
    # the exact mode accepts its long alias and ignores the tolerance
    cfg = AlgebraConfig(coefficient_mode="exact-rational")
    assert cfg.rational
    assert cfg.zero_tolerance == 0
    # the prune cut zero_tolerance * (largest term) needs a finite real
    for tol in (float("nan"), float("inf"), 1e400, 10 ** 400, "x", True,
                [1e-14]):
        with pytest.raises(ConfigMismatch):
            AlgebraConfig(zero_tolerance=tol)
    for count in (7.5, "8", True, None):
        with pytest.raises(ConfigMismatch):
            AlgebraConfig(generator_count=count)
    assert AlgebraConfig(zero_tolerance=0).zero_tolerance == 0
    assert AlgebraConfig(zero_tolerance=Fraction(1, 10)).zero_tolerance \
        == Fraction(1, 10)


def test_constructors_and_term_ordering():
    z = RAT.term([1, 3], 2) + RAT.scalar(5) + RAT.term([2], -1)
    assert [idx for idx, _ in z.items()] == [(), (2,), (1, 3)]
    assert z.body() == 5
    with pytest.raises(ConfigMismatch):
        RAT.term([3, 1])
    with pytest.raises(ConfigMismatch):
        RAT.term([1, 1])
    with pytest.raises(ConfigMismatch):
        RAT.generator(5)


def _ascending_keys(z):
    keys = list(z.terms)
    return keys == sorted(keys)


@pytest.mark.parametrize("cfg", [RAT, FLT], ids=["rational", "float64"])
def test_internal_results_keep_ascending_keys(cfg):
    # results are built with the order-keeping constructor, which takes its
    # dict as it is; each one must still list its terms in ascending order.
    # Every operand is built by the public constructor from a descending
    # dict, so a plain (dict-built) rational value goes through the same
    # paths as a float64 one
    def built(mapping):
        return Supernumber(cfg, {b: cfg.coerce(c) for b, c in
                                 sorted(mapping.items(), reverse=True)})

    x = built({0: 2, 0b1000: 1, 0b0110: -3})
    y = built({0b0001: 5, 0b1100: Fraction(1, 3), 0: -1})
    w = built({0b0101: 7, 0b0010: 2})
    assert list(x.terms) == [0, 0b0110, 0b1000]
    # x + y merges y's keys 1 and 12 after x's own, out of order
    values = [x + y, y + x, x - y, y - x, -x, x * y, y * x, x * w,
              x.scale(3), (x * y).scale(Fraction(1, 7)), x.soul(),
              (x * y).soul(), (x + y) * (x - y), (x * y) + (y * w)]
    # a multi-pair sum whose accumulator first meets key 12, then keys 1
    # and 5 below it
    z = [cfg.generator(i) for i in range(1, 5)]
    values.append(sum_of_products(cfg, [(z[2], z[3]), (built({0: 1}), z[0]),
                                        (z[0], z[2]), (x, y)]))
    values.append(sum_of_products(cfg, [(y, w), (w, x), (x, y)]))
    assert len(values[-2].terms) > 2
    for v in values:
        assert _ascending_keys(v), v.terms


def test_public_constructor_still_sorts():
    z = Supernumber(FLT, {5: 1.0, 1: 2.0})
    assert list(z.terms) == [1, 5]
    r = Supernumber(RAT, {5: Fraction(1), 1: Fraction(2), 3: Fraction(1)})
    assert list(r.terms) == [1, 3, 5]
    assert z == Supernumber(FLT, {1: 2.0, 5: 1.0})


def test_generator_anticommutation():
    for cfg in (RAT, FLT):
        for i in range(1, 5):
            gi = cfg.generator(i)
            assert (gi * gi).is_zero()
            for j in range(i + 1, 5):
                gj = cfg.generator(j)
                assert gi * gj == -(gj * gi)


def test_product_sign_rule():
    # z1 z2 * z3 = z1 z2 z3; z2 * z1 z3 picks up one transposition
    assert RAT.term([1, 2]) * RAT.generator(3) == RAT.term([1, 2, 3])
    assert RAT.generator(2) * RAT.term([1, 3]) == RAT.term([1, 2, 3], -1)
    # overlap annihilates
    assert (RAT.term([1, 2]) * RAT.term([2, 3])).is_zero()


def test_worked_product():
    # (1 + 2 z1 z2)(3 z2 - z1) = 3 z2 - z1 - 2 z1 z2 z1 ... overlap kills the
    # cross terms except -2 z1 z2 * z1 = 0 and 6 z1 z2 z2 = 0
    x = RAT.one() + RAT.term([1, 2], 2)
    y = RAT.term([2], 3) - RAT.generator(1)
    assert x * y == RAT.term([2], 3) - RAT.generator(1)


def test_body_soul_split_and_norm():
    z = RAT.scalar(3) - RAT.term([1, 2], 4)
    assert z.body() == 3 and z.soul() == RAT.term([1, 2], -4)
    assert z.norm() == 7
    assert z.soul().body() == 0 and z.body() != 0


def test_parity_classification():
    assert RAT.zero().parity() == "zero"
    assert (RAT.scalar(2) + RAT.term([1, 2])).parity() == "even"
    assert (RAT.generator(1) + RAT.term([1, 2, 3])).parity() == "odd"
    assert (RAT.generator(1) + RAT.one()).parity() == "mixed"


def test_scalar_comparison_and_arithmetic_coercion():
    assert RAT.scalar(Fraction(3, 2)) == Fraction(3, 2)
    assert RAT.zero() == 0
    z = RAT.generator(1)
    assert 2 * z == z + z
    assert (z - z).is_zero()
    assert z / 2 == z.scale(Fraction(1, 2))


def test_scale_matches_the_two_product_expression():
    def reference(z, scalar):
        # reference form: each product computed twice, in the filter and
        # for the value
        c0 = z.config.coerce(scalar)
        if c0 == 0:
            return z.config.zero()
        return Supernumber(z.config, {b: c * c0 for b, c in z.terms.items()
                                      if c * c0 != 0})

    rng = make_rng(17)
    for cfg in (RAT, FLT):
        for _ in range(40):
            z = cfg.from_terms({int(rng.integers(0, 16)): cfg.coerce(
                Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))))
                for _ in range(6)})
            for scalar in (0, 1, -3, Fraction(2, 7), 0.1):
                got, want = z.scale(scalar), reference(z, scalar)
                assert list(got.terms.items()) == list(want.terms.items())
                assert all(type(g) is type(w) for g, w in
                           zip(got.terms.values(), want.terms.values()))
    # a float product that underflows to zero is dropped, not kept as 0.0
    z = Supernumber(FLT, {0: 1e-200, 3: 2.0})
    got = z.scale(1e-200)
    assert got.terms == reference(z, 1e-200).terms == {3: 2e-200}
    assert got.terms[3].hex() == (2.0 * 1e-200).hex()


def test_config_mismatch_between_modes():
    with pytest.raises(ConfigMismatch):
        RAT.one() + FLT.one()


def test_float_pruning_is_relative():
    cfg = AlgebraConfig(generator_count=4, coefficient_mode="float64",
                        zero_tolerance=1e-14)
    big = cfg.scalar(1.0)
    tiny = cfg.term([1, 2], 1e-20)
    assert (big + tiny).soul().is_zero()
    # the same small coefficient survives when everything is at its scale
    alone = cfg.term([1, 2], 1e-20) + cfg.term([1, 3], 2e-20)
    assert len(alone.terms) == 2


def test_invert_round_trip_exact():
    z = RAT.scalar(Fraction(-7, 3)) + RAT.term([1, 2], Fraction(1, 5)) \
        + RAT.term([1, 2, 3, 4], 2)
    assert z * invert(z) == RAT.one()
    assert invert(z) * z == RAT.one()


def test_invert_zero_body_gated():
    with pytest.raises(BodyNotInvertible):
        invert(RAT.generator(1))
    tiny = AlgebraConfig(generator_count=4, coefficient_mode="float64")
    with pytest.raises(BodyNotInvertible):
        invert(tiny.scalar(1e-16) + tiny.term([1, 2], 1.0))


def test_binomial_inverse_sqrt_identities():
    mu = RAT.term([1, 2], Fraction(2, 3)) + RAT.term([3, 4], Fraction(-1, 2))
    w = binomial_inverse_sqrt(mu)
    assert w * w * (RAT.one() + mu) == RAT.one()
    # a rational square body is split off by the caller, as body_reduce
    # does: 9/16 + z(1,2) = 9/16 (1 + 16/9 z(1,2)), and the answer stays exact
    d = RAT.scalar(Fraction(9, 16)) + RAT.term([1, 2], 1)
    w2 = binomial_inverse_sqrt(d.soul() / d.body()).scale(Fraction(4, 3))
    assert w2 * w2 * d == RAT.one()


def test_binomial_gates():
    with pytest.raises(ParityMismatch):
        binomial_inverse_sqrt(RAT.generator(1))
    # a nonzero body of any sign or size is the caller's to split off
    for mu in (RAT.scalar(-1) + RAT.term([1, 2], 1), RAT.scalar(1),
               RAT.scalar(Fraction(-7, 16)) + RAT.term([1, 2], 1),
               FLT.scalar(0.5) + FLT.term([1, 2], 0.7)):
        with pytest.raises(NonZeroBody):
            binomial_inverse_sqrt(mu)
    # a pure soul of any size terminates exactly
    big = RAT.term([1, 2], 5)
    w = binomial_inverse_sqrt(big)
    assert w * w * (RAT.one() + big) == RAT.one()


def test_binomial_soul_example():
    w = binomial_inverse_sqrt(RAT.term([1, 2]))
    assert w == RAT.one() + RAT.term([1, 2], Fraction(-1, 2))
    assert binomial_inverse_sqrt(RAT.zero()) == RAT.one()


def test_invert_two_soul_blocks():
    z = RAT.scalar(2) + RAT.term([1, 2]) + RAT.term([3, 4])
    expected = RAT.scalar(Fraction(1, 2)) \
        + RAT.term([1, 2], Fraction(-1, 4)) \
        + RAT.term([3, 4], Fraction(-1, 4)) \
        + RAT.term([1, 2, 3, 4], Fraction(1, 4))
    assert invert(z) == expected


def test_one_plus_nilpotent_inverse():
    z = RAT.one() + RAT.term([1, 2])
    assert invert(z) == RAT.one() - RAT.term([1, 2])


def test_float_binomial_matches_series():
    cfg = FLT
    mu = cfg.term([1, 2], 0.25) + cfg.term([2, 3], -0.125)
    w = binomial_inverse_sqrt(mu)
    resid = w * w * (cfg.one() + mu) - cfg.one()
    assert float(resid.norm()) < 1e-12


# -- property layer ---------------------------------------------------------------

def _masks(cfg):
    return st.integers(min_value=0,
                       max_value=(1 << cfg.generator_count) - 1)


def _rational_supernumbers(cfg):
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    pair = st.tuples(_masks(cfg), coeffs)
    return st.lists(pair, max_size=5).map(
        lambda ps: Supernumber(cfg, {m: c for m, c in ps if c != 0}))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms_property(data):
    cfg = RAT
    x = data.draw(_rational_supernumbers(cfg))
    y = data.draw(_rational_supernumbers(cfg))
    z = data.draw(_rational_supernumbers(cfg))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert x * cfg.one() == x


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_norm_submultiplicative_property(data):
    cfg = RAT
    x = data.draw(_rational_supernumbers(cfg))
    y = data.draw(_rational_supernumbers(cfg))
    assert (x * y).norm() <= x.norm() * y.norm()
    assert (x + y).norm() <= x.norm() + y.norm()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_supercommutativity_property(data):
    # graded commutativity for homogeneous elements:
    # x y = (-1)^{|x||y|} y x
    cfg = RAT
    ex = data.draw(st.integers(0, 1))
    ey = data.draw(st.integers(0, 1))

    def homogeneous(par):
        masks = [m for m in range(1 << cfg.generator_count)
                 if m.bit_count() % 2 == par]
        pair = st.tuples(st.sampled_from(masks),
                         st.fractions(min_value=-3, max_value=3,
                                      max_denominator=6))
        return st.lists(pair, max_size=4).map(
            lambda ps: Supernumber(cfg, {m: c for m, c in ps if c != 0}))

    x = data.draw(homogeneous(ex))
    y = data.draw(homogeneous(ey))
    sign = -1 if (ex and ey) else 1
    assert x * y == (y * x).scale(sign)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_invert_property(data):
    cfg = RAT
    soul = data.draw(_rational_supernumbers(cfg))
    body = data.draw(st.fractions(min_value=Fraction(1, 4), max_value=4,
                                  max_denominator=8))
    sign = data.draw(st.sampled_from([1, -1]))
    z = cfg.scalar(body * sign) + soul.soul()
    assert z * invert(z) == cfg.one()


# -- the sum-of-products kernel against a term-by-term reference -----------

def _merge_inversions(a, b):
    """Reference sign: the number of pairs (i in a, j in b) with i > j,
    counted bit by bit."""
    count = 0
    while b:
        low = b & -b
        count += (a >> low.bit_length()).bit_count()
        b ^= low
    return count


def _reference_prune(cfg, acc, running):
    if cfg.rational or cfg.zero_tolerance == 0:
        return {b: c for b, c in acc.items() if c != 0}
    cut = cfg.zero_tolerance * float(running)
    return {b: c for b, c in acc.items() if abs(c) > cut}


def _reference_sum(cfg, pairs):
    """sum_t x_t * y_t term by term, as the kernel promises it: every term
    product goes into one dict, each key summed in pair order, then in
    left-term order, and one prune against the largest term product."""
    acc, running, zero = {}, 0, cfg.coerce(0)
    for x, y in pairs:
        for b1, c1 in x.terms.items():
            for b2, c2 in y.terms.items():
                if b1 & b2:
                    continue
                c = c1 * c2
                if _merge_inversions(b1, b2) & 1:
                    c = -c
                acc[b1 | b2] = acc.get(b1 | b2, zero) + c
                running = max(running, abs(c))
    return Supernumber(cfg, _reference_prune(cfg, acc, running))


def _reference_mul(x, y):
    return _reference_sum(x.config, [(x, y)])


def _reference_add(x, y):
    cfg = x.config
    acc = dict(x.terms)
    running = max((abs(c) for c in x.terms.values()), default=0)
    for b, c in y.terms.items():
        acc[b] = acc.get(b, cfg.coerce(0)) + c
        running = max(running, abs(c))
    return Supernumber(cfg, _reference_prune(cfg, acc, running))


def _bitwise_equal(a, b):
    return list(a.terms.items()) == list(b.terms.items()) and \
        all(type(c) is type(d) for c, d in zip(a.terms.values(),
                                                b.terms.values()))


def test_sign_mask_matches_merge_inversions():
    full = (1 << 8) - 1
    for a in range(1 << 8):
        for b in range(1 << 8):
            if a & b == 0:
                assert (a & _sign_mask(b)).bit_count() & 1 \
                    == _merge_inversions(a, b) & 1
    assert (full & _sign_mask(full)) >= 0
    rng = make_rng(77)
    top = 1 << GENERATOR_CAP
    for _ in range(3000):
        a = int(rng.integers(0, top))
        b = int(rng.integers(0, top)) & ~a
        assert (a & _sign_mask(b)).bit_count() & 1 \
            == _merge_inversions(a, b) & 1


def _random_element(rng, cfg, tiny):
    """Up to six terms; each coefficient is near 1 or near tiny, either
    sign, so that products of the two kinds straddle the prune cut."""
    terms = {}
    for _ in range(int(rng.integers(0, 7))):
        c = float(rng.uniform(0.5, 2.5)) * tiny if rng.integers(0, 3) == 0 \
            else float(rng.uniform(0.8, 1.25))
        c = c if rng.integers(0, 2) else -c
        terms[int(rng.integers(0, 1 << cfg.generator_count))] = \
            Fraction(c) if cfg.rational else c
    return Supernumber(cfg, terms)


def _random_pairs(rng, cfg, tiny):
    pairs = [(_random_element(rng, cfg, tiny), _random_element(rng, cfg, tiny))
             for _ in range(int(rng.integers(1, 4)))]
    if rng.integers(0, 2):
        # near-cancellation: the same product again, perturbed at O(tiny)
        x, y = pairs[0]
        pairs.append((x, y.scale(-(1 + float(rng.uniform(-3, 3)) * tiny))))
    return pairs


@pytest.mark.parametrize("mode,tol", [("float64", None), ("float64", 1e-3),
                                      ("float64", 0.0), ("rational", None)])
def test_kernel_equals_reference_fold_bit_for_bit(mode, tol):
    # few generators, so that term products often share a key
    cfg = AlgebraConfig(generator_count=4, coefficient_mode=mode,
                        zero_tolerance=tol)
    # terms of O(tiny) land near the prune cut tolerance * (largest term)
    tiny = cfg.zero_tolerance or 1e-3
    rng = make_rng(4242)
    for _ in range(1500):
        pairs = _random_pairs(rng, cfg, tiny)
        # the first run builds the right operands' tables; the rerun reads
        # them, and the swapped run builds the left factors' tables, so a
        # stale table, or one built from the wrong side, fails one of them
        for case in (pairs, pairs, [(y, x) for x, y in pairs]):
            got = sum_of_products(cfg, iter(case))
            assert _bitwise_equal(got, _reference_sum(cfg, case))
            x, y = case[0]
            assert _bitwise_equal(x * y, _reference_mul(x, y))
            assert _bitwise_equal(x + y, _reference_add(x, y))


@pytest.mark.parametrize("tol", [None, 1e-3, 0.0])
def test_float_sums_are_one_kernel_call_each(monkeypatch, tol):
    cfg = AlgebraConfig(generator_count=4, coefficient_mode="float64",
                        zero_tolerance=tol)
    calls = []
    kernel = algebra.sum_of_products

    def counting(config, pairs):
        calls.append(config)
        return kernel(config, pairs)
    monkeypatch.setattr(algebra, "sum_of_products", counting)

    def hexes(z):
        return [(b, float.hex(c)) for b, c in z.terms.items()]
    tiny = cfg.zero_tolerance or 1e-3
    rng = make_rng(2929)
    for _ in range(500):
        x = _random_element(rng, cfg, tiny)
        y = _random_element(rng, cfg, tiny)
        if rng.integers(0, 2):
            # near-cancellation: y close to -x
            y = _reference_add(y.scale(tiny), x.scale(-1.0))
        s = float(rng.uniform(-2, 2))
        for got, want in ((lambda: x + y, _reference_add(x, y)),
                          (lambda: x - y, _reference_add(x, -y)),
                          (lambda: x + s, _reference_add(x, cfg.scalar(s))),
                          (lambda: s - x, _reference_add(cfg.scalar(s), -x))):
            calls.clear()
            out = got()
            assert calls == [cfg]
            assert hexes(out) == hexes(want)
    # the units of a config's sums are built once and shared
    assert cfg._units is cfg._units


def test_kernel_float_dust_at_the_cut():
    cfg = AlgebraConfig(generator_count=4, coefficient_mode="float64",
                        zero_tolerance=1e-3)
    one, z1, z2 = cfg.one(), cfg.generator(1), cfg.generator(2)
    # a lone product keeps 8e-4 z2 against its largest term product 0.5
    x = one + z1
    y = one.scale(0.5) + z1.scale(0.5) + z2.scale(8e-4)
    alone = sum_of_products(cfg, [(x, y)])
    assert alone.terms == {0: 0.5, 1: 1.0, 2: 8e-4, 3: 8e-4}
    assert _bitwise_equal(alone, x * y)


def test_kernel_empty_and_overlapping_pairs():
    for cfg in (RAT, FLT):
        z = cfg.zero()
        g1, g12 = cfg.generator(1), cfg.term([1, 2])
        for pairs in ([], [(z, g1)], [(g1, z), (z, z)], [(g1, g12)],
                      [(g1, g1), (g12, g12)]):
            out = sum_of_products(cfg, pairs)
            assert out.is_zero() and out.config == cfg
        assert sum_of_products(cfg, [(g1, g12), (z, g1), (g1, g1)]) == z
        assert sum_of_products(cfg, [(cfg.generator(2), g1), (g1, z)]) \
            == -g12


def test_kernel_checks_every_pair_config():
    for cfg in (RAT, FLT):
        other = AlgebraConfig(generator_count=5,
                              coefficient_mode=cfg.coefficient_mode)
        z, one = cfg.zero(), cfg.one()
        # a foreign pair after a nonempty one, or after an empty one
        for pairs in ([(one, other.one())],
                      [(one, one), (other.zero(), one)],
                      [(one, one), (other.one(), other.one())],
                      [(z, one), (other.one(), one)],
                      [(one, z), (one, other.generator(5))],
                      [(z, z), (other.zero(), one)]):
            with pytest.raises(ConfigMismatch):
                sum_of_products(cfg, pairs)
    with pytest.raises(ConfigMismatch):
        RAT.one() * FLT.one()


@pytest.mark.parametrize("tol", [None, 0.0])
def test_kernel_float_overflow(tol):
    cfg = AlgebraConfig(generator_count=4, coefficient_mode="float64",
                        zero_tolerance=tol)
    big, one, z1 = cfg.scalar(1e200), cfg.one(), cfg.generator(1)
    # a term product overflows, though another pair is finite
    with pytest.raises(CoefficientOverflow, match="term product"):
        sum_of_products(cfg, [(one, z1), (big, big)])
    # every term product is finite, but a partial sum overflows to inf; a
    # later term cannot bring it back, though the exact sum is 1e308
    top = cfg.scalar(1e308)
    with pytest.raises(CoefficientOverflow, match="sum overflowed"):
        sum_of_products(cfg, [(top, one), (one, top), (top, -one)])
    assert sum_of_products(cfg, [(top, one), (top, -one), (one, top)]) \
        == top


def test_kernel_sum_that_cancels_is_empty():
    for cfg in (FLT, RAT):
        x = cfg.one() + cfg.generator(1)
        y = cfg.generator(2).scale(3) + cfg.term([3, 4], 2)
        out = sum_of_products(cfg, [(x, y), (-x, y), (y, x), (x, -y),
                                    (-y, x), (x, y)])
        assert out.is_zero() and out.config == cfg


def test_kernel_zero_tolerance_keeps_every_nonzero_sum():
    # 1e-20 z1 is under the default cut of 1e-14 times the largest term
    # product, 1.0; with zero_tolerance=0 only exact zeros drop
    for tol, kept in ((None, {0: 1.0}), (0.0, {0: 1.0, 1: 1e-20})):
        cfg = AlgebraConfig(generator_count=4, coefficient_mode="float64",
                            zero_tolerance=tol)
        one, z1, z2 = cfg.one(), cfg.generator(1), cfg.generator(2)
        out = sum_of_products(cfg, [(one, one), (z1.scale(1e-20), one),
                                    (z2, one), (one, -z2)])
        assert out.terms == kept


# -- the rational kernel against the unreduced (numerator, denominator) path --

def _reference_rational_products(config, pairs):
    """The former rational branch of sum_of_products: every term product goes
    into the accumulator as an unreduced (numerator, denominator) pair."""
    masks, acc = {}, {}
    for x, y in pairs:
        if x.config != config or y.config != config:
            raise ConfigMismatch("operands use different algebra configs")
        if not (x.terms and y.terms):
            continue
        ys = []
        for b2, c2 in y.terms.items():
            mask = masks.get(b2)
            if mask is None:
                mask = masks[b2] = _sign_mask(b2)
            ys.append((b2, c2.numerator, c2.denominator, mask))
        for b1, c1 in x.terms.items():
            n1, d1 = c1.numerator, c1.denominator
            for b2, n2, d2, mask in ys:
                if b1 & b2:
                    continue
                n = n1 * n2
                if (b1 & mask).bit_count() & 1:
                    n = -n
                d = d1 * d2
                key = b1 | b2
                prev = acc.get(key)
                if prev is None:
                    acc[key] = (n, d)
                elif prev[1] == d:
                    acc[key] = (prev[0] + n, d)
                else:
                    pn, pd = prev
                    g = math.gcd(pd, d)
                    acc[key] = (pn * (d // g) + n * (pd // g), pd // g * d)
    return Supernumber(config, {b: Fraction(n, d)
                                for b, (n, d) in acc.items() if n})


_PRIMES = [p for p in range(2, 4000)
           if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _denominators(rng, kind):
    if kind == "small":
        return int(rng.integers(1, 9))
    if kind == "dyadic":
        return 1 << int(rng.integers(0, 61))
    return _PRIMES[int(rng.integers(0, len(_PRIMES)))]


def _rational_element(rng, cfg, kind, max_terms=6):
    terms = {}
    for _ in range(int(rng.integers(0, max_terms + 1))):
        c = Fraction(int(rng.integers(-9, 10)), _denominators(rng, kind))
        terms[int(rng.integers(0, 1 << cfg.generator_count))] = c
    return Supernumber(cfg, {b: c for b, c in terms.items() if c})


def _rand_indices(rng, cfg):
    picked = rng.choice(cfg.generator_count,
                        size=int(rng.integers(0, cfg.generator_count + 1)),
                        replace=False)
    return sorted(int(i) + 1 for i in picked)


def _same(got, want):
    return got == want and list(got.terms.items()) == \
        list(want.terms.items()) and \
        all(type(c) is Fraction for c in got.terms.values())


@pytest.mark.parametrize("kind", ["small", "dyadic", "prime"])
def test_rational_kernel_equals_pair_path(kind):
    cfg = AlgebraConfig(generator_count=5, coefficient_mode="rational")
    rng = make_rng(9001)
    for _ in range(400):
        pairs = [(_rational_element(rng, cfg, kind),
                  _rational_element(rng, cfg, kind))
                 for _ in range(int(rng.integers(0, 6)))]
        if pairs and rng.integers(0, 2):
            # the same products again with the sign flipped: the sum is 0
            pairs += [(x, -y) for x, y in pairs]
            assert sum_of_products(cfg, pairs).is_zero()
        snapshot = [(list(x.terms.items()), list(y.terms.items()))
                    for x, y in pairs]
        assert _same(sum_of_products(cfg, iter(pairs)),
                     _reference_rational_products(cfg, pairs))
        # operands keep their terms, and a second use reads the kept form
        assert snapshot == [(list(x.terms.items()), list(y.terms.items()))
                            for x, y in pairs]
        assert _same(sum_of_products(cfg, pairs),
                     _reference_rational_products(cfg, pairs))


def test_rational_kernel_one_term_and_reused_operands():
    cfg = AlgebraConfig(generator_count=6, coefficient_mode="rational")
    rng = make_rng(17)
    shared = _rational_element(rng, cfg, "prime", max_terms=8)
    assert shared._int_form is None
    for i in range(60):
        kind = ("small", "dyadic", "prime")[i % 3]
        lone = cfg.term(_rand_indices(rng, cfg),
                        Fraction(int(rng.integers(1, 9)),
                                 _denominators(rng, kind)))
        other = _rational_element(rng, cfg, kind)
        for pairs in ([(shared, lone)], [(lone, shared)],
                      [(shared, other), (lone, shared), (other, lone)],
                      [(shared, shared), (lone, lone)]):
            assert _same(sum_of_products(cfg, pairs),
                         _reference_rational_products(cfg, pairs))
    den, form = shared._int_form
    assert [b for b, _ in form] == list(shared.terms)
    assert all(Fraction(n, den) == c
               for (_, n), c in zip(form, shared.terms.values()))


def test_body_and_norm_return_the_shared_zero(monkeypatch):
    calls = []
    coerce = AlgebraConfig.coerce
    monkeypatch.setattr(AlgebraConfig, "coerce",
                        lambda self, v: calls.append(v) or coerce(self, v))
    for cfg, kind in ((RAT, Fraction), (FLT, float)):
        soul = cfg.generator(1)
        born = soul * cfg.generator(2)       # an integer form when rational
        calls.clear()
        for z in (soul, born, Supernumber(cfg, {})):
            assert type(z.body()) is kind and z.body() == 0
        assert type(cfg.zero().norm()) is kind and cfg.zero().norm() == 0
        assert calls == []
        assert soul.norm() == 1 and born.norm() == 1


def test_float_supernumbers_never_gain_an_integer_form():
    x = FLT.one() + FLT.generator(1).scale(0.5) + FLT.term([2, 3], 0.25)
    y = FLT.generator(2) - FLT.term([1, 4], 3.0)
    for out in (x * y, y * x, sum_of_products(FLT, [(x, y), (y, x)])):
        assert out._int_form is None
    assert x._int_form is None and y._int_form is None


def _rebuilt_form(z):
    """The integer form of a fresh value built from z's Fractions."""
    return Supernumber(z.config, dict(z.terms))._integer_form()


def _check_born(z):
    """A nonzero rational result is born in its integer form, which equals
    the form rebuilt from its Fractions: the same D, the same numerators,
    ascending bits.  A zero result is the empty value."""
    if z.is_zero():
        assert type(z) is Supernumber and z.terms == {}
        return
    assert type(z) is algebra._IntegerBorn
    den, items = z._int_form
    assert z._int_form == _rebuilt_form(z)
    assert [b for b, _ in items] == sorted(b for b, _ in items)
    assert all(n for _, n in items) and den >= 1


@pytest.mark.parametrize("kind", ["small", "dyadic", "prime"])
def test_rational_kernel_results_are_born_in_their_integer_form(kind):
    cfg = AlgebraConfig(generator_count=5, coefficient_mode="rational")
    rng = make_rng(9002)
    born = []
    for _ in range(300):
        # fresh operands and earlier results, in either slot
        pool = [_rational_element(rng, cfg, kind) for _ in range(3)] + \
            born[-3:]
        pairs = [(pool[int(rng.integers(0, len(pool)))],
                  pool[int(rng.integers(0, len(pool)))])
                 for _ in range(int(rng.integers(0, 6)))]
        cancel = bool(pairs) and bool(rng.integers(0, 2))
        if cancel:
            pairs += [(x, -y) for x, y in pairs]
        out = sum_of_products(cfg, pairs)
        assert _same(out, _reference_rational_products(cfg, pairs))
        _check_born(out)
        if cancel:
            assert out.is_zero()
        elif not out.is_zero():
            born.append(out)
    assert born


def test_rational_kernel_reduces_its_denominator():
    cfg = AlgebraConfig(generator_count=4, coefficient_mode="rational")
    z1, z2 = cfg.generator(1), cfg.generator(2)
    quarter = cfg.term([1], Fraction(1, 4))
    # 1/4 + 1/4 over D = 4 is 1/2: D falls to 2
    out = sum_of_products(cfg, [(quarter, z2), (quarter, z2)])
    assert out._int_form == (2, ((0b11, 1),))
    # (2/3)(3/2) over D = 6 is 1
    out = cfg.term([1], Fraction(2, 3)) * cfg.term([2], Fraction(3, 2))
    assert out._int_form == (1, ((0b11, 1),))
    # D grows to lcm(4, 9) = 36 across the pairs, then 1/4 + 3/4 leaves 9
    ninth = cfg.term([3], Fraction(1, 9))
    out = sum_of_products(cfg, [(quarter, z2), (ninth, z1),
                                (quarter.scale(3), z2)])
    assert out._int_form == (9, ((0b11, 9), (0b101, -1)))
    for z in (out, out.soul(), -out, out.scale(Fraction(9, 2)), out / 3):
        _check_born(z)


def test_integer_form_arithmetic_matches_fraction_arithmetic():
    cfg = AlgebraConfig(generator_count=5, coefficient_mode="rational")
    rng = make_rng(4242)
    one = cfg.one()
    for i in range(300):
        kind = ("small", "dyadic", "prime")[i % 3]
        a = _rational_element(rng, cfg, kind)
        b = _rational_element(rng, cfg, kind)
        x, y = a * one, one * b      # born copies of a and b
        c = Fraction(int(rng.integers(-9, 10)), _denominators(rng, kind))
        # every sum, whatever its operands were built from, is born; the
        # wanted sums add Fraction dicts term by term
        two = cfg.scalar(2)
        a_b, a_mb = _reference_add(a, b), _reference_add(a, -b)
        for got, want in ((-x, -a), (x.soul(), a.soul()),
                          (x + y, a_b), (x + b, a_b), (b + x, a_b),
                          (a + b, a_b), (x - y, a_mb), (x - b, a_mb),
                          (a - y, a_mb), (a - b, a_mb),
                          (b - x, _reference_add(b, -a)),
                          (x + 2, _reference_add(a, two)),
                          (2 - x, _reference_add(two, -a)),
                          (2 - a, _reference_add(two, -a)),
                          (x - x, cfg.zero()), (a - a, cfg.zero()),
                          (x.scale(c), a.scale(c)), (c * x, c * a),
                          (x / (c or 1), a / (c or 1))):
            assert _same(got, want)
            _check_born(got)
        assert (x.body(), x.norm(), x.parity(), x.is_zero()) \
            == (a.body(), a.norm(), a.parity(), a.is_zero())
        assert (x == y) == (a == b) and (x == a) and (a == x)
        assert x == _reference_rational_products(cfg, [(a, one)])


def test_series_chains_build_fractions_only_for_their_result(monkeypatch):
    builds = []
    view = algebra._IntegerBorn.terms.fget

    def counting(self):
        if self._terms is None:
            builds.append(self)
        return view(self)
    monkeypatch.setattr(algebra._IntegerBorn, "terms", property(counting))
    cfg = AlgebraConfig(generator_count=6, coefficient_mode="rational")
    x = cfg.from_terms({(): 3, (1, 2): Fraction(1, 3), (3, 4): Fraction(2, 5),
                        (1, 5): Fraction(-4, 7)})
    y = cfg.one() + cfg.term([5, 6], Fraction(1, 11))
    z = x * y
    sigma = (z.soul() * z.soul()).scale(Fraction(1, 13)) + z.soul() * x
    assert sigma.body() == 0 and sigma.parity() == "even"
    for chain, check in ((lambda: invert(z), lambda w: w * z == 1),
                         (lambda: binomial_inverse_sqrt(sigma),
                          lambda w: w * w * (1 + sigma) == 1)):
        builds.clear()
        w = chain()
        assert builds == [] and type(w) is algebra._IntegerBorn
        w.terms
        assert builds == [w]
        assert check(w)


def _prime_metric(cfg, m, n, per_entry, seed):
    """A metric with random_metric's bodies under souls of ``per_entry``
    terms each, whose denominators are distinct primes, so that nearly every
    pair of a product brings a new denominator."""
    rng = make_rng(seed)
    bodies = random_metric(rng, cfg, m, n).rows
    primes = iter(_PRIMES)
    L = cfg.generator_count

    def soul(grades):
        terms = {}
        for _ in range(per_entry):
            grade = grades[int(rng.integers(0, len(grades)))]
            bits = sum(1 << int(i)
                       for i in rng.choice(L, size=grade, replace=False))
            terms[bits] = terms.get(bits, 0) + \
                Fraction(int(rng.integers(1, 4)), next(primes))
        return cfg.from_terms(terms)

    k = m + n
    rows = [[cfg.zero()] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            if j < m or (i >= m and i != j):
                # even diagonal blocks: A symmetric, B skew with zero diagonal
                e = bodies[i][j] + soul((2, 4))
                rows[i][j], rows[j][i] = e, (e if j < m else -e)
            elif i < m <= j:
                rows[i][j] = rows[j][i] = soul((1, 3))   # D = C^T
    return SuperMatrix(cfg, (m, n), rows, "even")


def test_prime_denominator_canonicalize_matches_pair_path(tmp_path, capsys,
                                                          monkeypatch):
    cfg = AlgebraConfig(generator_count=6, coefficient_mode="rational")
    G = _prime_metric(cfg, 2, 2, 4, seed=5)
    path = tmp_path / "metric.json"
    path.write_text(dumps({"algebra": {"generator_count": 6,
                                       "coefficient_mode": "rational"},
                           "metric": matrix_to_json(G)}))
    assert main(["canonicalize", str(path)]) == 0
    report = capsys.readouterr().out
    calls = []

    def reference(config, pairs, from_zero=False):
        calls.append(config)
        return _reference_rational_products(config, pairs)

    # every product, `*` or of matrices and raw rows, calls it through these
    for module in (algebra, matrices):
        monkeypatch.setattr(module, "sum_of_products", reference)
    assert main(["canonicalize", str(path)]) == 0
    assert calls and capsys.readouterr().out == report
