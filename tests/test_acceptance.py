"""Acceptance gate: one test per numbered criterion.

Each test drives the public API at the stated sample counts and tolerances
and registers a single PASS/FAIL line through the `acceptance` fixture; the
lines are printed in the terminal summary.  Tolerances follow the contract:
exact comparisons in rational mode, relative 1e-12 (kernel) or stated
absolute bounds elsewhere in float64.
"""

import subprocess
import sys
import time
from fractions import Fraction

from supermetric.algebra import (
    AlgebraConfig,
    binomial_inverse_sqrt,
    invert,
)
from supermetric.canonical import (
    body_reduce,
    canonical_form,
    congruence,
    validate_metric,
)
from supermetric.group import (
    GroupElement,
    NilElement,
    bch_series,
    conjugate_action,
    diamond,
    embed_isometry,
    semidirect_inverse,
    semidirect_multiply,
)
from supermetric.isometry import (
    is_isometry,
    lie_membership,
    standard_symplectic,
)
from supermetric.matrices import (
    SuperMatrix,
    _grid_mul,
    ad_operator,
    exp_zero_body,
    spectrum_gate,
)
from supermetric.sampling import (
    basis_for,
    make_rng,
    rand_homogeneous,
    rand_indices,
    random_group_element,
    random_member,
    random_metric,
    random_nil,
    standard_gamma,
)

RAT = AlgebraConfig(generator_count=4, coefficient_mode="rational")
FLT = AlgebraConfig(generator_count=4, coefficient_mode="float64")


def _near(a, b, rtol=1e-12):
    if a.config.rational:
        return a == b
    scale = 1.0 + max(float(a.norm()), float(b.norm()))
    return float((a - b).norm()) <= rtol * scale


def test_criterion_1_grassmann_kernel(acceptance):
    t0 = time.monotonic()
    failures = 0
    total = 0
    for cfg in (FLT, RAT):
        rng = make_rng(101)
        L = cfg.generator_count
        for _ in range(5000):
            total += 1
            x = rand_homogeneous(rng, cfg, "even", terms=2) \
                + rand_homogeneous(rng, cfg, "odd", terms=1)
            y = rand_homogeneous(rng, cfg,
                                 "odd" if rng.integers(0, 2) else "even",
                                 terms=2)
            w = rand_homogeneous(rng, cfg, "even", terms=2)
            ok = _near((x * y) * w, x * (y * w))
            ok = ok and _near(x * (y + w), x * y + x * w)
            ok = ok and _near(cfg.one() * x, x)
            # generator anticommutation, exact in both modes
            i, j = rand_indices(rng, L, 2)
            gi, gj = cfg.generator(i), cfg.generator(j)
            ok = ok and (gi * gj + gj * gi).is_zero()
            ok = ok and (gi * gi).is_zero()
            # graded sign rule on a homogeneous pair
            u = rand_homogeneous(rng, cfg, "odd", terms=1,
                                 include_body=False)
            v = rand_homogeneous(rng, cfg,
                                 "odd" if rng.integers(0, 2) else "even",
                                 terms=1)
            sign = -1 if (u.parity() == "odd" and v.parity() == "odd") else 1
            ok = ok and _near(u * v, (v * u).scale(sign))
            # submultiplicativity of the coefficient norm
            lhs = (x * y).norm()
            rhs = x.norm() * y.norm()
            slack = 0 if cfg.rational else 1e-12 * (1.0 + float(rhs))
            ok = ok and float(lhs) <= float(rhs) + float(slack)
            if not ok:
                failures += 1
    elapsed = time.monotonic() - t0
    acceptance.record(
        1, "grassmann-kernel",
        failures == 0 and elapsed < 10.0,
        f"{total} samples, {failures} failures, {elapsed:.1f}s")


def test_criterion_2_inversion_binomial(acceptance):
    rng = make_rng(202)
    failures = 0
    for _ in range(1000):
        z = rand_homogeneous(rng, RAT, "even", terms=3, body_nonzero=True)
        if abs(z.body()) < Fraction(1, 10):
            z = z + RAT.scalar(Fraction(1, 2))
        if abs(z.body()) < Fraction(1, 10):
            failures += 1
            continue
        if not (z * invert(z) == RAT.one()):
            failures += 1
        mu = z.soul() / z.body()
        w = binomial_inverse_sqrt(mu)
        if not (w * w * (RAT.one() + mu) == RAT.one()):
            failures += 1
    # normalized criterion: after scaling to unit norm, ratio < 1 is the
    # same statement as soul norm < 1/2
    counterexamples = 0
    checked = 0
    for k in range(1000):
        d = rand_homogeneous(rng, RAT, "even", terms=3, body_nonzero=True)
        if k % 4 == 0:
            # park some samples right at the boundary: soul norm equal to
            # or a hair away from the body
            s = RAT.term([1, 2], Fraction(1, 1))
            eps = Fraction(int(rng.integers(-1, 2)), 256)
            d = RAT.scalar(1 + eps) + s
        norm = d.norm()
        if norm == 0:
            continue
        dt = d / norm
        checked += 1
        ratio_lt = Fraction(d.soul().norm()) < abs(d.body())
        half_lt = Fraction(dt.soul().norm()) < Fraction(1, 2)
        if ratio_lt != half_lt:
            counterexamples += 1
    acceptance.record(
        2, "inversion-binomial",
        failures == 0 and counterexamples == 0 and checked >= 1000 - 10,
        f"1000 inversion pairs, {checked} normalized samples, "
        f"{counterexamples} counterexamples")


def test_criterion_3_canonicalization(acceptance):
    t0 = time.monotonic()
    shapes = [(1, 0), (1, 2), (2, 2), (3, 2), (2, 4), (4, 2), (3, 4),
              (2, 0), (3, 0), (4, 4)]
    worst_float = 0.0
    failures = 0
    done = 0
    for mode_cfg, count in ((FLT, 170), (RAT, 30)):
        rng = make_rng(303)
        for k in range(count):
            m, n = shapes[k % len(shapes)]
            G = random_metric(rng, mode_cfg, m, n)
            res = canonical_form(validate_metric(G))
            resid = (congruence(res.P, G) - res.Gamma).entry_norm_max()
            if mode_cfg.rational:
                if resid != 0:
                    failures += 1
            else:
                worst_float = max(worst_float, float(resid))
                if float(resid) > 1e-9:
                    failures += 1
            if any(di.body() == 0 for di in res.d):
                failures += 1
            J = standard_symplectic(mode_cfg, n)
            B = res.Gamma.block_b()
            if any(B[a][b] != J[a][b] for a in range(n) for b in range(n)):
                failures += 1
            done += 1
    elapsed = time.monotonic() - t0
    acceptance.record(
        3, "canonicalization",
        failures == 0 and done == 200 and elapsed < 60.0,
        f"200 metrics, worst float residual {worst_float:.2e}, "
        f"{elapsed:.1f}s")


def _perfect_square_metric(rng, cfg, bodies, n):
    """Metric whose diagonal bodies are (signed) squares of rationals and
    whose remaining structure is soul-only, so the rescale stays exact."""
    m = len(bodies)
    z = cfg.zero()
    A = [[z] * m for _ in range(m)]
    for i in range(m):
        A[i][i] = cfg.scalar(bodies[i]) + cfg.term(
            rand_indices(rng, cfg.generator_count, 2), Fraction(1, 4))
        for j in range(i + 1, m):
            if rng.integers(0, 10) < 7:
                soul = cfg.term(rand_indices(rng, cfg.generator_count, 2),
                                Fraction(int(rng.integers(-2, 3)), 4))
                A[i][j] = soul
                A[j][i] = soul
    C = [[cfg.term(rand_indices(rng, cfg.generator_count, 1),
                   Fraction(int(rng.integers(-2, 3)), 3))
          for _ in range(n)] for _ in range(m)]
    D = [[C[i][al] for i in range(m)] for al in range(n)]
    B = [[z] * n for _ in range(n)]
    for k in range(0, n, 2):
        B[k][k + 1] = cfg.one()
        B[k + 1][k] = cfg.scalar(-1)
    for a in range(n):
        for b in range(a + 1, n):
            soul = cfg.term(rand_indices(rng, cfg.generator_count, 2),
                            Fraction(int(rng.integers(-1, 2)), 5))
            B[a][b] = B[a][b] + soul
            B[b][a] = B[b][a] - soul
    return SuperMatrix.from_blocks(cfg, A, C, D, B, "even")


def test_criterion_4_body_reduction(acceptance):
    rng = make_rng(404)
    pool = [Fraction(1), Fraction(4), Fraction(9, 4), Fraction(25, 4),
            Fraction(1, 4), Fraction(16)]
    failures = 0
    exact_checked = 0
    for trial in range(12):
        m = 1 + trial % 3
        n = (trial % 2) * 2
        mags = list(rng.choice(len(pool), size=m, replace=False))
        bodies = [pool[i] * (1 if rng.integers(0, 2) else -1) for i in mags]
        G = _perfect_square_metric(rng, RAT, bodies, n)
        res = canonical_form(validate_metric(G))
        red = body_reduce(res)
        signs = [rec["sign"] for rec in red.reducibility]
        if signs != sorted(signs, reverse=True):
            failures += 1
        for i, e in enumerate(red.d):
            if e != RAT.scalar(signs[i]):
                failures += 1
        for rec in red.reducibility:
            if not rec["scale_exact"]:
                failures += 1
                continue
            lam = rec["lambda"]
            if lam * lam * res.d[rec["index"]] != RAT.scalar(rec["sign"]):
                failures += 1
            exact_checked += 1
        if (congruence(red.P, G) - red.Gamma).entry_norm_max() != 0:
            failures += 1
    # ordering and exact +-1 entries also hold for generic metrics where
    # the scale may need the flagged dyadic stand-in
    for mode_cfg in (RAT, FLT):
        rng2 = make_rng(405)
        for _ in range(10):
            G = random_metric(rng2, mode_cfg, 2, 2)
            red = body_reduce(canonical_form(validate_metric(G)))
            signs = [rec["sign"] for rec in red.reducibility]
            if signs != sorted(signs, reverse=True):
                failures += 1
            for i, e in enumerate(red.d):
                if e != mode_cfg.scalar(signs[i]):
                    failures += 1
    acceptance.record(
        4, "body-reduction",
        failures == 0 and exact_checked >= 20,
        f"12 exact-square metrics ({exact_checked} rescales verified "
        f"exactly), 20 generic metrics, {failures} failures")


def test_criterion_5_isometry_algebra(acceptance):
    failures = 0
    # 10^3 membership checks, both verdicts, both formulations agreeing
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 2, 1, 2)
        gamma = basis.gamma
        rng = make_rng(505)
        k = gamma.m + gamma.n
        for t in range(250):
            X = random_member(rng, basis, terms=3)
            rep = lie_membership(X, gamma)
            if not (rep["member"] and rep["agree"]):
                failures += 1
            rows = [list(r) for r in
                    SuperMatrix.zeros(cfg, gamma.shape, "even").rows]
            which = t % 3
            if which == 0:
                rows[0][0] = cfg.scalar(Fraction(1, 3))
            elif which == 1:
                rows[gamma.m][gamma.m] = cfg.scalar(Fraction(1, 3))
            else:
                rows[0][gamma.m] = cfg.generator(1)
            bad = X + SuperMatrix(cfg, gamma.shape, rows, "even")
            rep2 = lie_membership(bad, gamma)
            if rep2["member"] or not rep2["agree"]:
                failures += 1
    # exponentials of 100 soul elements
    worst = 0.0
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 1, 1, 2)
        gamma = basis.gamma
        G = gamma.matrix()
        rng = make_rng(506)
        for _ in range(50):
            X = random_member(rng, basis, terms=3, soul_only=True)
            N = exp_zero_body(X)
            resid = (N.supertranspose() @ G @ N - G).entry_norm_max()
            if cfg.rational and resid != 0:
                failures += 1
            worst = max(worst, float(resid))
            if float(resid) > 1e-10 or not is_isometry(N, gamma):
                failures += 1
    # dimension formulas across the stated range
    for m in range(1, 5):
        for n in (0, 2, 4):
            basis = basis_for(RAT, (m + 1) // 2, m // 2, n)
            dims = basis.dims
            if dims["g0"] != m * (m - 1) // 2 + n * (n + 1) // 2:
                failures += 1
            if dims["g1"] != m * n:
                failures += 1
    acceptance.record(
        5, "isometry-algebra",
        failures == 0,
        f"1000 membership checks, 100 exponentials "
        f"(worst residual {worst:.2e}), 12 dimension pairs")


def test_criterion_6_spectral_gates(acceptance):
    failures = 0
    total = 0
    for cfg in (FLT, RAT):
        for (p, q, n), count in (((1, 1, 2), 400), ((1, 1, 4), 100)):
            basis = basis_for(cfg, p, q, n)
            flat = basis.elements()
            rng = make_rng(606)
            for _ in range(count):
                total += 1
                X = random_nil(rng, basis, terms=2)
                ad = ad_operator(X.X, flat)
                if not ad.has_zero_body():
                    failures += 1
                if spectrum_gate(ad, 0) != "singular":
                    failures += 1
                for _ in range(20):
                    num = int(rng.integers(1, 60)) * \
                        (1 if rng.integers(0, 2) else -1)
                    xi = Fraction(num, int(rng.integers(1, 7))) \
                        if cfg.rational else num / 7.0
                    if spectrum_gate(ad, xi) != "invertible":
                        failures += 1
    acceptance.record(
        6, "spectral-gates",
        failures == 0 and total == 1000,
        f"{total} elements x 21 spectrum points, {failures} failures")


def _grade_mixed_nil(rng, basis, draws=4):
    # even slots take two-generator factors, odd slots single generators,
    # so series terms of every order up to the truncation survive
    cfg = basis.gamma.config
    acc = SuperMatrix.zeros(cfg, basis.gamma.shape, "even")
    flat = basis.elements()
    split = len(basis.g0)
    for _ in range(draws):
        pos = int(rng.integers(0, len(flat)))
        base = flat[pos]
        k = int(rng.integers(1, cfg.generator_count + 1))
        z = cfg.generator(k)
        if pos < split:
            k2 = 1 + (k % cfg.generator_count)
            z = z * cfg.generator(k2)
            if z.is_zero():
                continue
        rows = [[z * e for e in r] for r in base.rows]
        acc = acc + SuperMatrix(cfg, base.shape, rows, "even")
    return NilElement(acc, basis.gamma)


def test_criterion_7_composition_series(acceptance):
    failures = 0
    # group axioms for the exact route
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 1, 1, 2)
        gamma = basis.gamma
        e = NilElement(SuperMatrix.zeros(cfg, gamma.shape, "even"), gamma)
        rng = make_rng(707)
        for _ in range(10):
            X = random_nil(rng, basis, terms=3)
            Y = random_nil(rng, basis, terms=3)
            W = random_nil(rng, basis, terms=3)
            r_id = (diamond(X, e).X - X.X).entry_norm_max()
            r_inv = diamond(X, -X).X.entry_norm_max()
            r_asc = (diamond(diamond(X, Y), W).X
                     - diamond(X, diamond(Y, W)).X).entry_norm_max()
            if cfg.rational:
                if r_id != 0 or r_inv != 0 or r_asc != 0:
                    failures += 1
            elif max(float(r_id), float(r_inv), float(r_asc)) > 1e-10:
                failures += 1
        # order-2 series closes the quadratic expansion
        for _ in range(10):
            X = random_nil(rng, basis, terms=2).X
            Y = random_nil(rng, basis, terms=2).X
            ref = X + Y + (X @ Y - Y @ X).scale(
                Fraction(1, 2) if cfg.rational else 0.5)
            resid = (bch_series(X, Y, 2) - ref
                     ).entry_norm_max()
            if cfg.rational:
                if resid != 0:
                    failures += 1
            elif float(resid) > 1e-12:
                failures += 1
    # halving the inputs divides the order-m truncation error by 2^(m+1),
    # which pins the residual to its leading order
    cfg6 = AlgebraConfig(generator_count=6, coefficient_mode="rational")
    basis6 = basis_for(cfg6, 1, 1, 2)
    rng = make_rng(7)   # a draw whose leading-order content is nonzero
    X = _grade_mixed_nil(rng, basis6)
    Y = _grade_mixed_nil(rng, basis6)
    ratios = []
    for order in (2, 3, 4):
        vals = []
        for t in (Fraction(1, 32), Fraction(1, 64)):
            Xs = NilElement(X.X.scale(t), X.gamma)
            Ys = NilElement(Y.X.scale(t), Y.gamma)
            R = (bch_series(Xs.X, Ys.X, order)
                 - diamond(Xs, Ys).X).entry_norm_max()
            vals.append(R)
        if vals[1] == 0:
            failures += 1
            ratios.append(0.0)
            continue
        ratio = float(vals[0] / vals[1])
        ratios.append(round(ratio, 3))
        target = 2 ** (order + 1)
        if not (0.8 * target <= ratio <= 1.2 * target):
            failures += 1
    acceptance.record(
        7, "composition-series",
        failures == 0,
        f"axioms x 20 triples, order-2 expansion x 20, "
        f"decay ratios {ratios} for orders (2, 3, 4)")


def test_criterion_8_semidirect_product(acceptance):
    failures = 0
    worst = 0.0
    for cfg in (RAT, FLT):
        basis = basis_for(cfg, 1, 1, 2)
        gamma = basis.gamma
        G = gamma.matrix()
        e = GroupElement.identity(gamma)
        rng = make_rng(808)

        def residual(a, b):
            db = max((abs(float(x - y)) for ra, rb in
                      zip(a.g_body, b.g_body) for x, y in zip(ra, rb)),
                     default=0.0)
            dn = float((a.n_part.X - b.n_part.X).entry_norm_max())
            return max(db, dn)

        for _ in range(50):
            h1 = random_group_element(rng, basis, terms=2,
                                      amp=Fraction(1, 4))
            h2 = random_group_element(rng, basis, terms=2,
                                      amp=Fraction(1, 4))
            h3 = random_group_element(rng, basis, terms=2,
                                      amp=Fraction(1, 4))
            r = max(
                residual(semidirect_multiply(h1, e), h1),
                residual(semidirect_multiply(e, h1), h1),
                residual(semidirect_multiply(h1, semidirect_inverse(h1)), e),
                residual(semidirect_multiply(semidirect_multiply(h1, h2), h3),
                         semidirect_multiply(h1,
                                             semidirect_multiply(h2, h3))))
            worst = max(worst, r)
            if (cfg.rational and r != 0) or r > 1e-9:
                failures += 1
            # alpha is a homomorphism into the automorphisms
            Ya = random_nil(rng, basis, terms=2, amp=Fraction(1, 4))
            g12 = _grid_mul(h1.g_body, h2.g_body)
            lhs = conjugate_action(g12, Ya)
            rhs = conjugate_action(h1.g_body,
                                   conjugate_action(h2.g_body, Ya))
            hom = float((lhs.X - rhs.X).entry_norm_max())
            if (cfg.rational and hom != 0) or hom > 1e-9:
                failures += 1
            # and the concrete embedding respects products
            lhs_m = embed_isometry(semidirect_multiply(h1, h2))
            rhs_m = embed_isometry(h1) @ embed_isometry(h2)
            emb = float((lhs_m - rhs_m).entry_norm_max())
            if (cfg.rational and emb != 0) or emb > 1e-9:
                failures += 1
            if not is_isometry(lhs_m, gamma):
                failures += 1
    acceptance.record(
        8, "semidirect-product",
        failures == 0,
        f"100 triples + 100 action pairs + 100 embeddings, "
        f"worst residual {worst:.2e}")


def test_criterion_9_cli_determinism(acceptance):
    cmd = [sys.executable, "-m", "supermetric.cli", "verify",
           "--seed", "42", "--mode", "rational"]
    runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
    same = runs[0].stdout == runs[1].stdout
    ok = same and all(r.returncode == 0 for r in runs) \
        and runs[0].stdout.endswith(b"\n")
    acceptance.record(
        9, "cli-determinism",
        ok,
        f"two runs, {len(runs[0].stdout)} bytes each, "
        f"identical={same}")
