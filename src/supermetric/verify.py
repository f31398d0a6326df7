"""Self-checking verification suite behind the `verify` CLI verb.

Every section draws from one seeded generator in a fixed order, so a given
(mode, seed, shape, L) tuple fixes the exact case list and, in rational
mode, the report bytes.  Sections mirror the acceptance areas at desk
scale: ring axioms, inversion and the binomial criterion, canonicalization
and body reduction, membership and exponentials, ad spectra, the two BCH
routes, and the semi-direct product.  The report carries per-section case
counts and failure strings; no timestamps or environment data.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    BODY_REDUCE_RESIDUAL,
    RING_IDENTITY,
    SUBMULTIPLICATIVE_SLACK,
    AlgebraConfig,
    binomial_inverse_sqrt,
    invert,
    within_gate,
)
from .canonical import SuperMetric, body_reduce, canonical_form, congruence
from .errors import ValidationError
from .group import (
    GroupElement,
    NilElement,
    _conjugate,
    bch_series,
    diamond,
    embed_isometry,
    semidirect_inverse,
    semidirect_multiply,
)
from .isometry import _scale_by_supernumber, is_isometry, lie_basis, \
    lie_membership, violated_conditions
from .matrices import SuperMatrix, _grid_mul, ad_operator, exp_zero_body, \
    spectrum_gate
from .sampling import (
    make_rng,
    rand_coeff,
    rand_homogeneous,
    rand_pure,
    random_body_isometry,
    random_group_element,
    random_member,
    random_metric,
    random_nil,
    standard_gamma,
)


def _near_zero(M: SuperMatrix, scale=1) -> bool:
    if M.config.rational:
        return M.is_zero()
    return within_gate(M.entry_norm_max(), scale)


def _scalar_near(x, y, rational) -> bool:
    if rational:
        return x == y
    return within_gate(abs(float(x) - float(y)), abs(float(y)))


# -- sections ---------------------------------------------------------------------

def _sn_near(x, y):
    if x.config.rational:
        return x == y
    scale = float(x.norm()) + float(y.norm())
    return float((x - y).norm()) <= RING_IDENTITY * (1.0 + scale)


def _section_ring(rng, cfg, cases):
    failures = []
    one = cfg.one()
    for t in range(cases):
        x = rand_homogeneous(rng, cfg, "even", terms=2)
        y = rand_homogeneous(rng, cfg, "odd", terms=2)
        z = rand_homogeneous(rng, cfg, "even", terms=2) + rand_pure(
            rng, cfg, 1)
        if not _sn_near((x * y) * z, x * (y * z)):
            failures.append(f"case {t}: associativity")
        if not _sn_near(x * (y + z), x * y + x * z):
            failures.append(f"case {t}: distributivity")
        if not _sn_near(x * one, x):
            failures.append(f"case {t}: unit")
        nxy = float((x * y).norm())
        bound = float(x.norm()) * float(y.norm())
        if nxy > bound * (1 + SUBMULTIPLICATIVE_SLACK):
            failures.append(f"case {t}: submultiplicativity")
    L = cfg.generator_count
    for i in range(1, L + 1):
        gi = cfg.generator(i)
        if not (gi * gi).is_zero():
            failures.append(f"generator {i}: square")
        for j in range(i + 1, L + 1):
            gj = cfg.generator(j)
            if gi * gj != -(gj * gi):
                failures.append(f"generators {i},{j}: anticommutation")
    return failures


def _section_inversion(rng, cfg, cases):
    failures = []
    one = cfg.one()
    half = Fraction(1, 2) if cfg.rational else 0.5
    for t in range(cases):
        z = rand_homogeneous(rng, cfg, "even", terms=2, body_nonzero=True)
        prod = z * invert(z)
        if cfg.rational:
            ok = prod == one
        else:
            ok = within_gate((prod - one).norm())
        if not ok:
            failures.append(f"case {t}: inversion round-trip")

        mu = rand_homogeneous(rng, cfg, "even", terms=2,
                              include_body=False).scale(
                                  rand_coeff(rng, cfg, Fraction(1, 4)
                                             if cfg.rational else 0.25))
        w = binomial_inverse_sqrt(mu)
        lhs = w * w * (one + mu)
        if cfg.rational:
            ok = lhs == one
        else:
            ok = within_gate((lhs - one).norm())
        if not ok:
            failures.append(f"case {t}: binomial identity")

        d = rand_homogeneous(rng, cfg, "even", terms=2, body_nonzero=True)
        if not _normalized_criterion_agrees(d, half):
            failures.append(f"case {t}: normalized criterion")
    return failures


def _normalized_criterion_agrees(d, half) -> bool:
    """With ||d|| = 1, the reduction condition ||s|| / |beta| < 1 is the
    same statement as ||s|| < 1/2.  In float64 a tie ||s|| = |beta| (such as
    3 - 7/3 z(1,6) + 2/3 z(1,2,6,7)) rounds to either side of each test, so
    ties are not counted against it."""
    nd = d.norm()
    if nd == 0:
        return True
    dn = d / nd
    s = dn.soul().norm()
    beta = abs(dn.body())
    if beta == 0:
        return True
    if not d.config.rational and within_gate(abs(s - beta)):
        return True
    return (s / beta < 1) == (s < half)


def _section_canonical(rng, cfg, m, n, cases):
    failures = []
    results = []
    for t in range(cases):
        G = random_metric(rng, cfg, m, n)
        res = canonical_form(SuperMetric(G))
        results.append((G, res))
        resid = congruence(res.P, G) - res.Gamma
        scale = float(G.induced_norm())
        if not _near_zero(resid, scale * scale):
            failures.append(f"case {t}: congruence residual")
        if any(d.body() == 0 for d in res.d):
            failures.append(f"case {t}: degenerate eta body")
    return failures, results


def _section_body_reduce(results):
    failures = []
    for t, (G, res) in enumerate(results):
        red = body_reduce(res)
        cfg = red.P.config
        signs = [e.body() for e in red.d]
        if any(abs(s) != 1 for s in signs):
            failures.append(f"case {t}: eta not +-1")
        if any(sa < sb for sa, sb in zip(signs, signs[1:])):
            failures.append(f"case {t}: ordering")
        resid = congruence(red.P, G) - red.Gamma
        if cfg.rational and all(r["scale_exact"] for r in red.reducibility):
            ok = resid.is_zero()
        else:
            ok = float(resid.entry_norm_max()) <= BODY_REDUCE_RESIDUAL * (
                1.0 + float(G.induced_norm()))
        if not ok:
            failures.append(f"case {t}: reduced congruence residual")
        if cfg.rational:
            for rec in red.reducibility:
                if not rec["scale_exact"]:
                    continue
                lam = rec["lambda"]
                want = cfg.scalar(rec["sign"])
                if lam * lam * res.d[rec["index"]] != want:
                    failures.append(
                        f"case {t}: lambda^2 d at index {rec['index']}")
    return failures


def _section_isometry(rng, basis, cases):
    failures = []
    gamma = basis.gamma
    cfg, m, n = gamma.config, gamma.m, gamma.n
    dim0 = len(basis.g0)
    want0 = m * (m - 1) // 2 + n * (n + 1) // 2
    if dim0 != want0 or len(basis.g1) != m * n:
        failures.append("basis dimensions")
    for t in range(cases):
        ell = random_member(rng, basis, terms=3)
        rep = lie_membership(ell, gamma)
        if not rep["member"]:
            failures.append(f"case {t}: member rejected")
        if not rep["agree"]:
            failures.append(f"case {t}: formulations disagree (member)")
        # corrupt one diagonal entry; eta-skewness forces a zero diagonal,
        # so a body bump on it must break membership
        rows = SuperMatrix.zeros(cfg, gamma.shape, "even").rows
        bump = ((cfg.one(),) + rows[0][1:],) + rows[1:]
        bad = ell + SuperMatrix._trusted(cfg, gamma.shape, bump, "even")
        rep = lie_membership(bad, gamma)
        if rep["member"]:
            failures.append(f"case {t}: corrupted member accepted")
        if not rep["agree"]:
            failures.append(f"case {t}: formulations disagree (reject)")
    for t in range(max(1, cases // 3)):
        soul = random_member(rng, basis, terms=2, soul_only=True)
        if not is_isometry(exp_zero_body(soul), gamma):
            failures.append(f"case {t}: exponential not an isometry")
    return failures


def _section_ad(rng, basis, cases):
    failures = []
    cfg = basis.gamma.config
    real_basis = basis.elements()
    for t in range(cases):
        X = random_nil(rng, basis, terms=2)
        ad = ad_operator(X.X, real_basis)
        if not ad.has_zero_body():
            failures.append(f"case {t}: ad body nonzero")
        if spectrum_gate(ad, 0) != "singular":
            failures.append(f"case {t}: gate at zero")
        for _ in range(3):
            xi = rand_coeff(rng, cfg, nonzero=True)
            if spectrum_gate(ad, xi) != "invertible":
                failures.append(f"case {t}: gate at xi={xi}")
    # one flat run over the index-tagged family, read from its tags
    X = random_nil(rng, basis, terms=2)
    ad = ad_operator(X.X, basis)
    if not ad.has_zero_body():
        failures.append("flat ad body nonzero")
    if spectrum_gate(ad, 0) != "singular":
        failures.append("flat gate at zero")
    failures += [f"flat entry ({s}, {j}) does not raise level "
                 f"{ad.levels[j]} (row level {ad.levels[s]})"
                 for s, j in _unraised_entries(ad)]
    failures += [f"flat column {j} (level {J}, element {pos}) does not "
                 f"rebuild its bracket"
                 for j, J, pos in _unrebuilt_columns(ad, basis)]
    return failures


def _unraised_entries(ad):
    """The nonzero entries (s, j) of a flat ad operator where levels[s] is
    not a strict superset of levels[j], in row order.  A zero-body X raises
    every level, so that the operator is nilpotent, and there are none.

    A row is read at the entries the operator lists as written, once its
    count of entries other than the shared zero shows that those are all
    its nonzeros; any other row is read entry by entry, so an unlisted
    nonzero is found too.
    """
    rows, levels = ad.matrix.rows, ad.levels
    zero = next((e for row in rows for e in row if e.is_zero()), None)
    listed = {}
    for s, j in set(ad.written):
        if not rows[s][j].is_zero():
            listed.setdefault(s, []).append(j)
    found = []
    for s, row in enumerate(rows):
        cols = listed.get(s, [])
        if len(row) - row.count(zero) != len(cols):
            cols = [j for j, e in enumerate(row) if not e.is_zero()]
        S = levels[s]
        found += [(s, j) for j in sorted(cols)
                  if levels[j] & ~S or levels[j] == S]
    return found


def _unrebuilt_columns(ad, basis):
    """(j, J, pos) of each checked column of a flat ad operator whose
    entries do not rebuild the bracket they stand for.

    Column j, with tag (J, pos), holds the coordinates of X B - B X for
    B = z(J) X_pos over the tagged family, so the sum over s of
    ad[s][j] z(levels[s]) X_pos(s) must give that bracket.  The checked
    columns are fixed, so the run draws nothing: the last slot of each of
    the first 8 levels.
    """
    X = ad.source
    cfg = X.config
    elements = basis.elements()
    rows = ad.matrix.rows
    last = {}       # level -> its last slot, in the order of the levels
    for j, (J, _) in enumerate(basis.hJ):
        last[J] = j
    found = []
    for j in list(last.values())[:8]:
        J, pos = basis.hJ[j]
        B = _scale_by_supernumber(elements[pos], cfg.from_terms({J: 1}))
        want = X @ B - B @ X
        got = SuperMatrix.zeros(cfg, X.shape, "general")
        for (S, q), row in zip(basis.hJ, rows):
            c = row[j]
            if not c.is_zero():
                got = got + _scale_by_supernumber(
                    elements[q], cfg.from_terms({S: c.body()}))
        if not _near_zero(got - want, want.induced_norm()):
            found.append((j, J, pos))
    return found


def _grade_one_nil(rng, basis):
    """Nil element of two terms whose factors are single generators; any
    product of more than L of them vanishes, so the order-L series is
    exact."""
    cfg = basis.gamma.config
    gamma = basis.gamma
    acc = SuperMatrix.zeros(cfg, gamma.shape, "even")
    g1 = basis.g1
    for _ in range(2):
        pos = int(rng.integers(0, len(g1)))
        acc = acc + _scale_by_supernumber(
            g1[pos], rand_pure(rng, cfg, 1, Fraction(1, 2)
                               if cfg.rational else 0.5))
    return NilElement._trusted(acc, gamma)


def _section_bch(rng, basis, cases):
    failures = []
    gamma = basis.gamma
    cfg = gamma.config
    zero = SuperMatrix.zeros(cfg, gamma.shape, "even")
    identity = NilElement(zero, gamma)
    for t in range(cases):
        X = random_nil(rng, basis, terms=2)
        Y = random_nil(rng, basis, terms=2)
        Z = random_nil(rng, basis, terms=2)
        if not _near_zero(diamond(X, identity).X - X.X,
                          X.X.induced_norm()):
            failures.append(f"case {t}: right identity")
        if not _near_zero(diamond(X, -X).X):
            failures.append(f"case {t}: inverse")
        lhs = diamond(diamond(X, Y), Z).X
        rhs = diamond(X, diamond(Y, Z)).X
        if not _near_zero(lhs - rhs, lhs.induced_norm()):
            failures.append(f"case {t}: associativity")
        if any(violated_conditions(M, gamma) for M in (lhs, rhs)):
            failures.append(f"case {t}: product not a member")

        # order 2 equals X + Y + [X,Y]/2 by construction of the tables
        ser = bch_series(X.X, Y.X, 2)
        br = X.X @ Y.X - Y.X @ X.X
        expand = X.X + Y.X + br.scale(
            Fraction(1, 2) if cfg.rational else 0.5)
        if not _near_zero(ser - expand, expand.induced_norm()):
            failures.append(f"case {t}: order-2 expansion")
    # series vs exact law, exact at grade-1 souls once the order reaches L
    order = min(cfg.generator_count, 6)
    X = _grade_one_nil(rng, basis)
    Y = _grade_one_nil(rng, basis)
    ser = bch_series(X.X, Y.X, order)
    exact = diamond(X, Y).X
    if cfg.rational:
        ok = ser == exact
    else:
        ok = _near_zero(ser - exact, exact.induced_norm())
    if not ok:
        failures.append(f"series at order {order} differs from exact law")
    return failures


def _ge_equal(h1: GroupElement, h2: GroupElement) -> bool:
    cfg = h1.gamma.config
    k = h1.gamma.m + h1.gamma.n
    for i in range(k):
        for j in range(k):
            if not _scalar_near(h1.g_body[i][j], h2.g_body[i][j],
                                cfg.rational):
                return False
    diff = h1.n_part.X - h2.n_part.X
    return _near_zero(diff, h1.n_part.X.induced_norm())


def _section_semidirect(rng, basis, cases):
    failures = []
    gamma = basis.gamma
    ident = GroupElement.identity(gamma)
    for t in range(cases):
        h1 = random_group_element(rng, basis)
        h2 = random_group_element(rng, basis)
        h3 = random_group_element(rng, basis)
        if not _ge_equal(semidirect_multiply(h1, ident), h1):
            failures.append(f"case {t}: right identity")
        if not _ge_equal(semidirect_multiply(ident, h1), h1):
            failures.append(f"case {t}: left identity")
        if not _ge_equal(semidirect_multiply(h1, semidirect_inverse(h1)),
                         ident):
            failures.append(f"case {t}: inverse")
        lhs = semidirect_multiply(semidirect_multiply(h1, h2), h3)
        rhs = semidirect_multiply(h1, semidirect_multiply(h2, h3))
        if not _ge_equal(lhs, rhs):
            failures.append(f"case {t}: associativity")
        if any(violated_conditions(h.n_part.X, gamma) for h in (lhs, rhs)):
            failures.append(f"case {t}: product not a member")

        # alpha is a homomorphism of the body group
        g1 = random_body_isometry(rng, gamma)
        g2 = random_body_isometry(rng, gamma)
        Y = random_nil(rng, basis, terms=2)
        lhs_n = _conjugate(_grid_mul(g1, g2), Y)
        rhs_n = _conjugate(g1, _conjugate(g2, Y))
        if not _near_zero(lhs_n.X - rhs_n.X, lhs_n.X.induced_norm()):
            failures.append(f"case {t}: alpha homomorphism")

        # embedding respects products and lands in the isometry group
        image = embed_isometry(semidirect_multiply(h1, h2))
        prod = embed_isometry(h1) @ embed_isometry(h2)
        if not _near_zero(image - prod, prod.induced_norm()):
            failures.append(f"case {t}: embedding homomorphism")
        if not is_isometry(image, gamma):
            failures.append(f"case {t}: image not an isometry")
    return failures


def flat_family_slots(m: int, n: int, L: int) -> int:
    """Entry slots that the budget charges the ad section's flat run at
    (m|n), L.

    The real basis has r0 = dim g0 + dim g1 elements and the index-tagged
    family z(J) X has r = 2^(L-1) r0 members of (m+n)^2 entries each; its
    adjoint operator is an r x r matrix.  The run reads the family from its
    tags without forming it, but the charge keeps the family's figure.
    """
    r = (m * (m - 1) // 2 + n * (n + 1) // 2 + m * n) << (L - 1)
    return r * (r + (m + n) ** 2)


# the figure of (4|4) at L=8: r = 4096, about 17 M slots
SIZE_BUDGET = flat_family_slots(4, 4, 8)


def check_size_budget(m: int, n: int, L: int) -> None:
    """Refuse a run past SIZE_BUDGET before any section allocates it."""
    slots = flat_family_slots(m, n, L)
    if slots > SIZE_BUDGET:
        raise ValidationError(
            f"verify at ({m}|{n}) with {L} generators needs {slots} entry "
            f"slots, over the budget of {SIZE_BUDGET} ((4|4) at L=8)")


def check_verify_shape(m: int, n: int, L: int) -> None:
    """Refuse a run past SIZE_BUDGET, or at a shape the suites cannot
    sample, before any section runs."""
    check_size_budget(m, n, L)
    # the suites sample both blocks, symplectic pairs and grade-2 souls
    if m < 1 or n < 2 or n % 2 or L < 2:
        raise ValidationError(
            f"verify needs m >= 1, an even n >= 2 and at least 2 "
            f"generators, got ({m}|{n}) with {L}")


_PLAN = (
    ("grassmann_ring", 40),
    ("inversion_binomial", 30),
    ("canonicalization", 6),
    ("body_reduction", 6),
    ("isometry_lie", 8),
    ("ad_spectrum", 6),
    ("bch", 4),
    ("semidirect", 3),
)


def run_verify(config: AlgebraConfig, seed: int, m: int = 2, n: int = 2,
               strict: bool = False) -> dict:
    """Run all sections; returns the report dict (no I/O here).  Raises
    ValidationError where ``check_verify_shape`` refuses (m|n)."""
    check_verify_shape(m, n, config.generator_count)
    rng = make_rng(seed)
    plan = dict(_PLAN)
    sections = []
    canon_results = []

    def record(name, cases, failures):
        sections.append({
            "name": name,
            "cases": cases,
            "status": "pass" if not failures else "fail",
            "failures": failures[:8],
        })

    record("grassmann_ring", plan["grassmann_ring"],
           _section_ring(rng, config, plan["grassmann_ring"]))
    record("inversion_binomial", plan["inversion_binomial"],
           _section_inversion(rng, config, plan["inversion_binomial"]))
    fails, canon_results = _section_canonical(
        rng, config, m, n, plan["canonicalization"])
    record("canonicalization", plan["canonicalization"], fails)
    record("body_reduction", len(canon_results),
           _section_body_reduce(canon_results))
    # the last four sections share one form and basis; neither draws from
    # the rng
    basis = lie_basis(standard_gamma(config, (m + 1) // 2, m // 2, n))
    record("isometry_lie", plan["isometry_lie"],
           _section_isometry(rng, basis, plan["isometry_lie"]))
    record("ad_spectrum", plan["ad_spectrum"],
           _section_ad(rng, basis, plan["ad_spectrum"]))
    record("bch", plan["bch"], _section_bch(rng, basis, plan["bch"]))
    record("semidirect", plan["semidirect"],
           _section_semidirect(rng, basis, plan["semidirect"]))

    status = "pass" if all(s["status"] == "pass" for s in sections) else \
        "fail"
    return {
        "command": "verify",
        "mode": config.coefficient_mode,
        "seed": int(seed),
        "generator_count": config.generator_count,
        "shape": {"m": m, "n": n},
        "strict": bool(strict),
        "sections": sections,
        "status": status,
    }
