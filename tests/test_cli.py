"""End-to-end runs of the command-line front end, in process."""

import hashlib
import json
from fractions import Fraction
from itertools import chain

import pytest

from supermetric.algebra import AlgebraConfig
from supermetric.canonical import CANONICAL_BUDGET, canonical_term_pairs, \
    check_work_budget
from supermetric.cli import main
from supermetric.errors import ValidationError
from supermetric.group import embed_isometry
from supermetric.isometry import (
    BASIS_BUDGET,
    basis_report_slots,
    check_basis_budget,
    lie_basis,
)
from supermetric.matrices import SuperMatrix
from supermetric.sampling import (
    basis_for,
    make_rng,
    random_group_element,
    random_metric,
    standard_gamma,
)
from supermetric.serialization import (
    Fragment,
    _IndexText,
    dumps,
    gamma_to_json,
    group_element_to_json,
    matrix_to_json,
)
from supermetric.verify import (
    _normalized_criterion_agrees,
    check_size_budget,
    flat_family_slots,
)

RAT = AlgebraConfig(generator_count=4, coefficient_mode="rational")
ALG = {"generator_count": 4, "coefficient_mode": "rational"}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_canonicalize_round_trip(tmp_path, capsys):
    G = random_metric(make_rng(5), RAT, 2, 2)
    path = _write(tmp_path, "metric.json",
                  {"algebra": ALG, "metric": matrix_to_json(G)})
    code, out, err = _run(capsys, ["canonicalize", path])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["command"] == "canonicalize"
    assert report["mode"] == "rational"
    assert sorted(report["eta"], reverse=True) == report["eta"]
    assert set(report["eta"]) <= {1, -1}
    assert len(report["d_raw"]) == 2
    recs = report["reducibility"]
    assert all(set(r) == {"index", "ratio", "condition_met", "sign",
                          "scale_exact", "lambda"} for r in recs)
    if all(r["scale_exact"] for r in recs):
        assert report["residual"] == "0"


def test_canonicalize_out_file(tmp_path, capsys):
    G = random_metric(make_rng(5), RAT, 1, 2)
    out_path = tmp_path / "report.json"
    path = _write(tmp_path, "metric.json",
                  {"algebra": ALG, "metric": matrix_to_json(G)})
    code, out, _ = _run(capsys, ["canonicalize", path,
                                 "--out", str(out_path)])
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["command"] == "canonicalize"


def test_canonicalize_strict_gate_exit_3(tmp_path, capsys):
    # diagonal entry with soul twice its body trips the strict gate
    d = RAT.one() + RAT.term([1, 2], 2)
    z = RAT.zero()
    G = SuperMatrix.from_blocks(RAT, [[d]], [[]], [], [], "even")
    path = _write(tmp_path, "metric.json",
                  {"algebra": ALG, "metric": matrix_to_json(G)})
    code, out, err = _run(capsys, ["canonicalize", path, "--strict"])
    assert code == 3 and out == ""
    blob = json.loads(err)
    assert blob["kind"] == "ConvergenceViolation"
    # without the flag the same input reduces fine
    code2, out2, _ = _run(capsys, ["canonicalize", path])
    assert code2 == 0
    assert json.loads(out2)["body_reducible"] is False


@pytest.mark.parametrize("verb, flag", [
    ("canonicalize", ["--seed", "3"]), ("isometry-check", ["--seed", "3"]),
    ("lie-basis", ["--seed", "3"]), ("group-op", ["--seed", "3"]),
    ("isometry-check", ["--strict"]), ("lie-basis", ["--strict"]),
    ("group-op", ["--strict"])])
def test_a_flag_the_verb_does_not_read_is_refused(tmp_path, capsys, verb,
                                                  flag):
    path = _write(tmp_path, "payload.json", {})
    with pytest.raises(SystemExit) as exc:
        main([verb, path, *flag])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "unrecognized arguments" in err


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"metric": [1, 2,')
    code, out, err = _run(capsys, ["canonicalize", str(path)])
    assert code == 2 and out == ""
    blob = json.loads(err)
    assert "malformed JSON" in blob["error"]
    assert blob["line"] >= 1 and blob["column"] >= 1


def test_missing_file_exit_2(capsys):
    code, _, err = _run(capsys, ["canonicalize", "/nonexistent/nope.json"])
    assert code == 2
    assert json.loads(err)["kind"] == "FileNotFound"


def test_invalid_metric_exit_2(tmp_path, capsys):
    payload = {"algebra": ALG,
               "metric": {"shape": {"m": 1, "n": 0}, "parity": "even",
                          "entries": ["not-a-number"]}}
    path = _write(tmp_path, "metric.json", payload)
    code, _, err = _run(capsys, ["canonicalize", path])
    assert code == 2
    assert json.loads(err)["exit_code"] == 2


def test_non_finite_coefficients_exit_2(tmp_path, capsys):
    # json writes these as the bare literals Infinity and NaN
    cases = [({"generator_count": 4, "coefficient_mode": "rational"},
              float("inf")),
             ({"generator_count": 4, "coefficient_mode": "float64"},
              float("nan"))]
    for alg, coeff in cases:
        metric = {"shape": {"m": 1, "n": 0}, "parity": "even",
                  "entries": [[{"index": [], "coeff": 2},
                               {"index": [1, 2], "coeff": coeff}]]}
        path = _write(tmp_path, "metric.json",
                      {"algebra": alg, "metric": metric})
        code, out, err = _run(capsys, ["canonicalize", path])
        assert code == 2 and out == ""
        blob = json.loads(err)
        assert blob["kind"] == "ValidationError"
        assert "finite" in blob["error"]


def test_isometry_check_accepts_identity(tmp_path, capsys):
    gamma = standard_gamma(RAT, 1, 1, 2)
    N = SuperMatrix.identity(RAT, gamma.shape)
    path = _write(tmp_path, "iso.json",
                  {"algebra": ALG, "gamma": gamma_to_json(gamma),
                   "N": matrix_to_json(N)})
    code, out, _ = _run(capsys, ["isometry-check", path])
    assert code == 0
    report = json.loads(out)
    assert report["isometry"] is True
    assert report["residual"] == "0"
    assert report["lie_membership"]["formulations_agree"] is True


def test_isometry_check_rejects_scaling(tmp_path, capsys):
    gamma = standard_gamma(RAT, 1, 1, 2)
    N = SuperMatrix.identity(RAT, gamma.shape).scale(2)
    path = _write(tmp_path, "iso.json",
                  {"algebra": ALG, "gamma": gamma_to_json(gamma),
                   "N": matrix_to_json(N)})
    code, out, _ = _run(capsys, ["isometry-check", path])
    assert code == 0   # a clean "no" is still a successful run
    report = json.loads(out)
    assert report["isometry"] is False


def test_isometry_check_payload_validation(tmp_path, capsys):
    path = _write(tmp_path, "iso.json", {"algebra": ALG})
    code, _, err = _run(capsys, ["isometry-check", path])
    assert code == 2
    assert "gamma" in json.loads(err)["error"]


def test_lie_basis_dimensions(tmp_path, capsys):
    gamma = standard_gamma(RAT, 2, 1, 2)
    path = _write(tmp_path, "basis.json",
                  {"algebra": ALG, "gamma": gamma_to_json(gamma)})
    code, out, _ = _run(capsys, ["lie-basis", path])
    assert code == 0
    report = json.loads(out)
    m, n = 3, 2
    assert report["dims"]["g0"] == m * (m - 1) // 2 + n * (n + 1) // 2
    assert report["dims"]["g1"] == m * n
    assert len(report["g0"]) == report["dims"]["g0"]
    assert len(report["hJ"]) == report["dims"]["hJ"]
    for item in report["hJ"][:20]:
        assert set(item) == {"index", "position"}
        assert item["index"] == sorted(item["index"])


def test_lie_basis_rejects_bad_L(tmp_path, capsys):
    # "L" sizes a 2^L enumeration, so only 0..generator_count is accepted
    gamma = standard_gamma(RAT, 1, 0, 2)
    for L in (30, True, ALG["generator_count"] + 1, -1, 2.0, None):
        path = _write(tmp_path, "basis.json",
                      {"algebra": ALG, "gamma": gamma_to_json(gamma),
                       "L": L})
        code, out, err = _run(capsys, ["lie-basis", path])
        assert code == 2 and out == ""
        blob = json.loads(err)
        assert blob["kind"] == "ValidationError"
        assert "'L'" in blob["error"]
    path = _write(tmp_path, "basis.json",
                  {"algebra": ALG, "gamma": gamma_to_json(gamma), "L": 2})
    code, out, _ = _run(capsys, ["lie-basis", path])
    assert code == 0
    assert all(max(item["index"], default=0) <= 2
               for item in json.loads(out)["hJ"])


def test_lie_basis_budget_refuses_before_the_basis(tmp_path, capsys,
                                                  monkeypatch):
    def no_basis(*args, **kwargs):
        raise AssertionError("lie_basis ran")
    monkeypatch.setattr("supermetric.cli.lie_basis", no_basis)
    # 40 eta entries at L=0 (the report grows as (m+n)^4), and (1|2) at
    # L=16 (it grows as 2^L)
    for alg, gamma, L in (({"generator_count": 4}, {"eta": [1, -1] * 20,
                                                    "n": 0}, 0),
                          ({"generator_count": 16}, {"eta": [1], "n": 2},
                           16)):
        path = _write(tmp_path, "basis.json",
                      {"algebra": alg, "gamma": gamma, "L": L})
        code, out, err = _run(capsys, ["lie-basis", path])
        assert code == 2 and out == ""
        blob = json.loads(err)
        assert blob["kind"] == "ValidationError"
        assert "budget" in blob["error"]
    # at the bound: (4|4) at L=8 fits, one generator or one dimension more
    # does not
    assert basis_report_slots(4, 4, 8) == BASIS_BUDGET
    check_basis_budget(4, 4, 8)
    for m, n, L in ((4, 4, 9), (5, 4, 8), (4, 6, 8)):
        with pytest.raises(ValidationError, match="budget"):
            check_basis_budget(m, n, L)
    # every group-sparse shape fits, (2|2), (3|4), (4|4) up to L=8
    for m, n in ((2, 2), (3, 4), (4, 4)):
        for L in range(9):
            check_basis_budget(m, n, L)
    # the estimate counts what the report holds
    for p, q, n, L in ((1, 0, 2, 0), (1, 1, 2, 3), (2, 1, 4, 4)):
        basis = lie_basis(standard_gamma(RAT, p, q, n), L)
        k = p + q + n
        assert basis_report_slots(p + q, n, L) == \
            len(basis.elements()) * k * k + len(basis.hJ)


def test_group_op_rational_exact(tmp_path, capsys):
    basis = basis_for(RAT, 1, 1, 2)
    rng = make_rng(12)
    h1 = random_group_element(rng, basis)
    h2 = random_group_element(rng, basis)
    path = _write(tmp_path, "op.json", {
        "algebra": ALG,
        "gamma": gamma_to_json(basis.gamma),
        "h1": group_element_to_json(h1),
        "h2": group_element_to_json(h2),
    })
    code, out, _ = _run(capsys, ["group-op", path])
    assert code == 0
    report = json.loads(out)
    assert report["isometry"] is True
    assert report["residuals"]["isometry"] == "0"
    assert report["residuals"]["embedding_homomorphism"] == "0"
    assert report["product"]["n_part"]["parity"] == "even"


def test_group_op_refuses_a_non_member_on_the_wire(tmp_path, capsys):
    basis = basis_for(RAT, 1, 1, 2)
    rng = make_rng(12)
    h1 = group_element_to_json(random_group_element(rng, basis))
    h2 = group_element_to_json(random_group_element(rng, basis))
    # a soul on the diagonal of the even-even block: zero body, not skew
    entries = h1["n_part"]["entries"]
    entries[0] = entries[0] + [{"index": [1, 2], "coeff": "1"}]
    path = _write(tmp_path, "op.json", {
        "algebra": ALG,
        "gamma": gamma_to_json(basis.gamma),
        "h1": h1,
        "h2": h2,
    })
    code, out, err = _run(capsys, ["group-op", path])
    assert code == 2 and out == ""
    blob = json.loads(err)
    assert blob["kind"] == "NotLieElement" and "even-even" in blob["error"]


def test_group_op_pruned_identity_body_exits_3(tmp_path, capsys):
    # souls past 1 / zero_tolerance: float64 pruning drops the identity
    # body of exp(X) exp(Y), a numerical refusal, not a bad input
    cfg = AlgebraConfig(generator_count=8, coefficient_mode="float64")
    basis = basis_for(cfg, 2, 1, 4)
    rng = make_rng(3)
    h1 = random_group_element(rng, basis, terms=4, amp=2 ** 16)
    h2 = random_group_element(rng, basis, terms=4, amp=2 ** 16)
    path = _write(tmp_path, "op.json", {
        "algebra": {"generator_count": 8, "coefficient_mode": "float64"},
        "gamma": gamma_to_json(basis.gamma),
        "h1": group_element_to_json(h1),
        "h2": group_element_to_json(h2),
    })
    code, out, err = _run(capsys, ["group-op", path])
    assert code == 3 and out == ""
    blob = json.loads(err)
    assert blob["kind"] == "DegenerateBody" and blob["exit_code"] == 3
    code, out, err = _run(capsys, ["group-op", "--mode", "rational", path])
    assert code == 0 and err == "" and json.loads(out)["isometry"] is True


def test_group_op_refuses_a_form_that_is_not_body_reduced(tmp_path, capsys):
    # eta = (1 + z(1,2), 1): h2's member Y, with Y01 = z(3,4) and
    # Y10 = -eta_0 z(3,4), is conjugated by h1's body rotation into a
    # non-member, since a body isometry keeps members only for eta = +-1
    def sn(*terms):
        return [{"index": list(ix), "coeff": c} for ix, c in terms]
    shape = {"m": 2, "n": 0}
    path = _write(tmp_path, "op.json", {
        "algebra": ALG,
        "gamma": {"eta": [sn(((), "1"), ((1, 2), "1")), "1"], "n": 0},
        "h1": {"g_body": [["3/5", "-4/5"], ["4/5", "3/5"]],
               "n_part": {"shape": shape, "parity": "even",
                          "entries": [[], [], [], []]}},
        "h2": {"g_body": [["1", "0"], ["0", "1"]],
               "n_part": {"shape": shape, "parity": "even", "entries": [
                   [], sn(((3, 4), "1")),
                   sn(((3, 4), "-1"), ((1, 2, 3, 4), "-1")), []]}},
    })
    code, out, err = _run(capsys, ["group-op", path])
    assert code == 2 and out == ""
    blob = json.loads(err)
    assert blob["kind"] == "NotBodyReduced" and blob["exit_code"] == 2


def test_mode_flag_overrides_payload(tmp_path, capsys):
    G = random_metric(make_rng(5), RAT, 1, 0)
    path = _write(tmp_path, "metric.json",
                  {"algebra": ALG, "metric": matrix_to_json(G)})
    code, out, _ = _run(capsys, ["canonicalize", path, "--mode", "float64"])
    assert code == 0
    assert json.loads(out)["mode"] == "float64"


def test_verify_passes_both_modes(tmp_path, capsys):
    for mode in ("rational", "float64"):
        code, out, _ = _run(capsys, ["verify", "--mode", mode,
                                     "--seed", "7"])
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "pass"
        assert report["mode"] == mode
        assert all(s["status"] == "pass" for s in report["sections"])


def test_verify_byte_deterministic(capsys):
    argv = ["verify", "--mode", "rational", "--seed", "42"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2
    assert out1.endswith("\n")


# SHA-256 of rational verify reports by (m, n, generator_count, seed), taken
# before the adjoint operator read its basis from tags, the series shared
# its brackets and nil elements kept their exponentials; a rewrite of the
# arithmetic must leave these bytes as they are
_VERIFY_SHA256 = {
    (2, 2, 4, 1):
        "3c3c2e28a4f8e509ffd659f40f30e545898ac8b130462285c7ab6f5156ae0816",
    (2, 2, 4, 2):
        "9c23addcd2e3a48712523f34811cdac9bc4cd2a7b5df79df1bf2cfe7f9c66b8e",
    (1, 2, 8, 1):
        "ec5f30c42c3a543038f3edee4de590d0cbb93fed71defc13ba28d28128e878c3",
    (1, 2, 8, 2):
        "8e8c02b39be93c392b1312d2d3622ff826432d60ba849fa810e21c208e834466",
}


@pytest.mark.parametrize("m, n, L, seed", sorted(_VERIFY_SHA256))
def test_rational_verify_report_bytes_are_pinned(tmp_path, capsys, m, n, L,
                                                 seed):
    cfg_path = _write(tmp_path, "cfg.json",
                      {"generator_count": L, "m": m, "n": n})
    code, out, _ = _run(capsys, ["verify", "--config", cfg_path, "--mode",
                                 "rational", "--seed", str(seed)])
    assert code == 0
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == _VERIFY_SHA256[m, n, L, seed]


# canonicalize reports of random_metric(make_rng(seed), ...) in each mode;
# the float64 digests guard the float branch of the Grassmann kernel, and
# were taken when it became one accumulator with one prune per call, whose
# canonical forms tests/test_scripts.py checks against the exact ones,
# except the (2|6) and (3|4) ones, taken when canonical's bilinear forms and
# frame updates became one kernel call each (the (2|2) report kept its bytes)
_CANONICALIZE_SHA256 = {
    (2, 2, 6, 1, "float64"):
        "1e0b6da621b088654343775d22ee97b16b249508b06fa95c18c109e16914dbba",
    (2, 2, 6, 1, "rational"):
        "2f7074e88399979eb4a25c8db9a5ce0f1946b9c52b8ef7d9fe5b250cbda35542",
    # three rounds of symplectic pairing
    (2, 6, 6, 1, "float64"):
        "4e60d12bd41c97ae55671e65d4eca6c3e64e3637c84b11cce2dbf01694dfef1d",
    (2, 6, 6, 1, "rational"):
        "785cee68983f3b0f2618e6cd715cfdadbc2f4e5cbb512df47adadff4c061f1f4",
    (3, 4, 8, 1, "float64"):
        "dcd740f50a0fc3f6dc441dc19cd5ab646a4bfe16984a6d0bd81cff522e7f9c39",
    (3, 4, 8, 1, "rational"):
        "e0aa33b25f5d79252f8a8f390f1670a94fd241181e287edb20d94a9fe5da8a01",
    (3, 4, 8, 2, "float64"):
        "9cd98907e6937a8dcdad3bcd902ee071fac6b9ae15ac434269973353463a2de1",
    (3, 4, 8, 2, "rational"):
        "4bb2480b17965393a546b425a98f8c925907f683b00094df5bae6afbc05ad41f",
}


@pytest.mark.parametrize("m, n, L, seed, mode", sorted(_CANONICALIZE_SHA256))
def test_canonicalize_report_bytes_are_pinned(tmp_path, capsys, m, n, L,
                                              seed, mode):
    cfg = AlgebraConfig(generator_count=L, coefficient_mode=mode)
    G = random_metric(make_rng(seed), cfg, m, n)
    path = _write(tmp_path, "metric.json",
                  {"algebra": {"generator_count": L, "coefficient_mode": mode},
                   "metric": matrix_to_json(G)})
    code, out, _ = _run(capsys, ["canonicalize", path])
    assert code == 0
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == _CANONICALIZE_SHA256[m, n, L, seed, mode]


# group-op, isometry-check and lie-basis reports on the payloads the
# group-sparse benchmark builds, by (m, n, generator_count, seed, mode, verb);
# the rational ones taken before products visited only nonzero entries, the
# float64 ones when float64 began to draw the exact body factors of rational
# mode (where a float64 isometry residual is exactly 0.0, two isometry-check
# reports are the same bytes), except the (2|2) L=6 float64 group-op one, taken
# when the group law's result began to keep exp X exp Y as its exponential
# (one coefficient of the embedded isometry moved by one ulp, to the float
# nearest the exact -7/80)
_GROUP_VERB_SHA256 = {
    (2, 2, 6, 1, "float64", "group-op"):
        "8dd4793de722286250b9e34001241579f95a9f9330074ef5cbcb0663989849e4",
    (2, 2, 6, 1, "float64", "isometry-check"):
        "c7a1b4b844da92ecf5e4c2272dd94aae8975f165a830936d1f0ba12648d72a0e",
    (2, 2, 6, 1, "float64", "lie-basis"):
        "5d803c39a1c792c1cdc605b8cf3bea4d3b8355b27daa0f8a2c381f0a18a9404c",
    (2, 2, 6, 1, "rational", "group-op"):
        "a70c57a55384c313fce2a00e47815173864118ce5b4660bbb07d512d72a95dca",
    (2, 2, 6, 1, "rational", "isometry-check"):
        "37de859b0203011b2f9b7cde16788da59aecd0bc6e12f170cdee04e9b13eb347",
    (2, 2, 6, 1, "rational", "lie-basis"):
        "1741eb162819c85f0b5969345c7fe0cd33d3366435386663b5bec3bf43bea78a",
    (3, 4, 8, 2, "float64", "group-op"):
        "fb43baf1fe410b84aa889b5dea7c42ca6dc871ce14ae65430c78b32072dc5f48",
    (3, 4, 8, 2, "float64", "isometry-check"):
        "550a943fef2f14519cb534393fcf0361b0f668e7a47466c2e3cb6964052336b1",
    (3, 4, 8, 2, "float64", "lie-basis"):
        "ed39bd542d659725aa8c2a2014f58e1c32f31de97e92ec44a09dacec3a28e28b",
    (3, 4, 8, 2, "rational", "group-op"):
        "8fdd6d3a6d67722755d5580aab442f1375de78fb651dbfa48daa704d221cb58f",
    (3, 4, 8, 2, "rational", "isometry-check"):
        "7571bcf5f05a91e7e8f7a8460052a62f065f28e90eddabf527c60a63e244ab8d",
    (3, 4, 8, 2, "rational", "lie-basis"):
        "f80ac8b7c6c2069ede8b14e512c423ea743f09c9c65754c3dce81f24c7a1e0bb",
    (4, 4, 8, 3, "float64", "group-op"):
        "aa5c6e6a85cafb9444ba72ae4ff0a892eee5558a2df2524cd4a6f0367f212c03",
    (4, 4, 8, 3, "float64", "isometry-check"):
        "c7a1b4b844da92ecf5e4c2272dd94aae8975f165a830936d1f0ba12648d72a0e",
    (4, 4, 8, 3, "float64", "lie-basis"):
        "d85af61f3e081d4a234effb3e2d353d1ec755a5bebbc7fb570d39e2d7b3feb3f",
    (4, 4, 8, 3, "rational", "group-op"):
        "3572f9706bd7ae899b8718c68bd9d2c34d2ee6c48e0339a91d0f5ff09a6ea4f4",
    (4, 4, 8, 3, "rational", "isometry-check"):
        "37de859b0203011b2f9b7cde16788da59aecd0bc6e12f170cdee04e9b13eb347",
    (4, 4, 8, 3, "rational", "lie-basis"):
        "a08e5fc3ce515004cbcf33d87ef259c543b5d89a03a4b3e8280204c115f284e5",
}


def _group_verb_payloads(m, n, L, seed, mode):
    cfg = AlgebraConfig(generator_count=L, coefficient_mode=mode)
    basis = basis_for(cfg, (m + 1) // 2, m // 2, n)
    rng = make_rng(seed)
    head = {"algebra": {"generator_count": L, "coefficient_mode": mode},
            "gamma": gamma_to_json(basis.gamma)}
    h1 = random_group_element(rng, basis)
    h2 = random_group_element(rng, basis)
    N = embed_isometry(random_group_element(rng, basis))
    return {"group-op": dict(head, h1=group_element_to_json(h1),
                             h2=group_element_to_json(h2)),
            "isometry-check": dict(head, N=matrix_to_json(N)),
            "lie-basis": head}


@pytest.mark.parametrize("m, n, L, seed, mode",
                         sorted({key[:5] for key in _GROUP_VERB_SHA256}))
def test_group_verb_report_bytes_are_pinned(tmp_path, capsys, m, n, L, seed,
                                            mode):
    for verb, payload in _group_verb_payloads(m, n, L, seed, mode).items():
        code, out, _ = _run(capsys, [verb, _write(tmp_path, "p.json",
                                                  payload)])
        assert code == 0
        digest = hashlib.sha256(out.encode("ascii")).hexdigest()
        assert digest == _GROUP_VERB_SHA256[m, n, L, seed, mode, verb], verb


class _Reached(Exception):
    pass


def test_canonicalize_budget_refuses_before_any_work(tmp_path, capsys,
                                                    monkeypatch):
    def reached(*args, **kwargs):
        raise _Reached
    monkeypatch.setattr("supermetric.cli.validate_metric", reached)
    monkeypatch.setattr("supermetric.cli.canonical_form", reached)

    def metric(L, shape, entries):
        return _write(tmp_path, "metric.json", {
            "algebra": {"generator_count": L},
            "metric": {"shape": shape, "parity": "even",
                       "entries": entries}})

    def sum_of_pairs(k):
        # d = 1 + sum_{i<j<=k} z(i) z(j): the Neumann series of its
        # inverse grows as C(k, 2j) terms
        return [[{"index": [], "coeff": 1}] +
                [{"index": [i, j], "coeff": 1}
                 for i in range(1, k + 1) for j in range(i + 1, k + 1)]]

    one = {"m": 1, "n": 0}
    # all of 9 (or 8) generators occur at seed 2; at seed 1 one does not
    big = random_metric(make_rng(2), AlgebraConfig(generator_count=9), 4, 4)
    for path in (metric(24, one, sum_of_pairs(24)),
                 metric(13, one, sum_of_pairs(13)),
                 _write(tmp_path, "big.json", {
                     "algebra": {"generator_count": 9},
                     "metric": matrix_to_json(big)})):
        code, out, err = _run(capsys, ["canonicalize", path])
        assert code == 2 and out == ""
        blob = json.loads(err)
        assert blob["kind"] == "ValidationError"
        assert "budget" in blob["error"]
    # at the bound: (1|0) over 12 generators, (4|4) over 8, and every
    # canonicalize-dense shape, (2|2) at L=6 and 8 and (3|4) at L=8
    G = random_metric(make_rng(2), AlgebraConfig(generator_count=8), 4, 4)
    for path in (metric(12, one, sum_of_pairs(12)),
                 _write(tmp_path, "edge.json", {
                     "algebra": {"generator_count": 8},
                     "metric": matrix_to_json(G)})):
        with pytest.raises(_Reached):
            main(["canonicalize", path])
    assert canonical_term_pairs(4, 4, 8) == CANONICAL_BUDGET
    assert canonical_term_pairs(2, 0, 11) == CANONICAL_BUDGET
    for m, n, k in ((4, 4, 9), (5, 4, 8), (2, 0, 12), (1, 0, 13)):
        assert canonical_term_pairs(m, n, k) > CANONICAL_BUDGET
    for m, n, L, seed in ((2, 2, 6, 3), (2, 2, 8, 4), (3, 4, 8, 5)):
        cfg = AlgebraConfig(generator_count=L, coefficient_mode="rational")
        G = random_metric(make_rng(seed), cfg, m, n)
        check_work_budget("canonicalize", cfg, G.shape, chain(*G.rows))


def test_canonicalize_budget_charges_rational_coefficient_words(
        tmp_path, capsys, monkeypatch):
    # (1|0) over 12 generators charges 4^11 term pairs, half the budget:
    # a rational coefficient of one 64-bit word is admitted, one of two
    # words quadruples the charge and is refused, and float64 coefficients
    # are one word whatever their value
    def reached(*args, **kwargs):
        raise _Reached
    monkeypatch.setattr("supermetric.cli.validate_metric", reached)

    def metric(mode, body):
        return _write(tmp_path, "metric.json", {
            "algebra": {"generator_count": 12, "coefficient_mode": mode},
            "metric": {"shape": {"m": 1, "n": 0}, "parity": "even",
                       "entries": [[{"index": [], "coeff": body}] + [
                           {"index": [i, 12], "coeff": 1}
                           for i in range(1, 12)]]}})

    assert canonical_term_pairs(1, 0, 12) * 2 == CANONICAL_BUDGET
    for mode, body in (("rational", f"1/{2 ** 64 - 1}"),
                       ("rational", str(-(2 ** 64 - 1))),
                       ("float64", 2.0 ** -64)):
        with pytest.raises(_Reached):
            main(["canonicalize", metric(mode, body)])
    for body in (f"1/{2 ** 64}", str(2 ** 64)):
        code, out, err = _run(capsys, ["canonicalize",
                                       metric("rational", body)])
        assert code == 2 and out == ""
        blob = json.loads(err)
        assert blob["kind"] == "ValidationError"
        assert "2 64-bit words" in blob["error"]


def _term(indices, coeff):
    return {"index": list(indices), "coeff": coeff}


def _refused(capsys, argv, words):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    blob = json.loads(err)
    assert blob["kind"] == "ValidationError"
    assert f"{words} 64-bit words" in blob["error"]
    assert "budget" in blob["error"]


def test_isometry_check_budget_refuses_before_any_work(tmp_path, capsys,
                                                       monkeypatch):
    # the canonicalize figure: (4|4) with 8 generators in use is the bound
    # and 9 are refused; (1|0) over 12 generators charges half of it, so a
    # rational coefficient of two 64-bit words is refused; no product runs
    def reached(*args, **kwargs):
        raise _Reached
    monkeypatch.setattr("supermetric.cli.isometry_residual", reached)
    monkeypatch.setattr("supermetric.cli.lie_membership", reached)

    def payload(L, m, n, entries, mode="float64"):
        return _write(tmp_path, "iso.json", {
            "algebra": {"generator_count": L, "coefficient_mode": mode},
            "gamma": {"eta": [1] * m, "n": n},
            "N": {"shape": {"m": m, "n": n}, "parity": "even",
                  "entries": entries}})

    def spread(k):
        # the identity plus z(i) z(i + 1) on the diagonal: k generators
        return [[_term([], 1), _term([i % (k - 1) + 1, i % (k - 1) + 2], 1)]
                if i == j else [] for i in range(8) for j in range(8)]

    with pytest.raises(_Reached):
        main(["isometry-check", payload(9, 4, 4, spread(8))])
    _refused(capsys, ["isometry-check", payload(9, 4, 4, spread(9))], 1)
    soul = [_term([i, 12], 1) for i in range(1, 12)]
    for body in (f"1/{2 ** 64 - 1}", str(-(2 ** 64 - 1))):
        with pytest.raises(_Reached):
            main(["isometry-check",
                  payload(12, 1, 0, [[_term([], body)] + soul], "rational")])
    for body in (f"1/{2 ** 64}", str(2 ** 64)):
        _refused(capsys, ["isometry-check", payload(
            12, 1, 0, [[_term([], body)] + soul], "rational")], 2)


def test_group_op_budget_charges_the_body_digits(tmp_path, capsys,
                                                 monkeypatch):
    # (2|0) with 11 generators in use is the bound at one word; a body
    # rotation of two-word rationals quadruples the charge, and a twelfth
    # generator in X doubles it, and either is refused before the elements
    # are built, whose membership check is a product
    def reached(*args, **kwargs):
        raise _Reached
    monkeypatch.setattr("supermetric.group.violated_conditions", reached)
    monkeypatch.setattr("supermetric.cli.semidirect_multiply", reached)
    souls = [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [10, 11]]

    def payload(p, q, souls=souls, L=11):
        # the rotation by the Pythagorean triple of p, q
        d = p * p + q * q
        c, s = f"{p * p - q * q}/{d}", f"{2 * p * q}/{d}"
        X = {"shape": {"m": 2, "n": 0}, "parity": "even", "entries": [
            [], [_term(s, 1) for s in souls],
            [_term(s, -1) for s in souls], []]}
        h = {"g_body": [[c, f"-{s}"], [s, c]], "n_part": X}
        return _write(tmp_path, "op.json", {
            "algebra": {"generator_count": L, "coefficient_mode": "rational"},
            "gamma": {"eta": [1, 1], "n": 0}, "h1": h, "h2": h})

    assert canonical_term_pairs(2, 0, 11) == CANONICAL_BUDGET
    with pytest.raises(_Reached):
        main(["group-op", payload(3, 2)])
    _refused(capsys, ["group-op", payload(2 ** 32, 1)], 2)
    _refused(capsys, ["group-op",
                      payload(3, 2, souls + [[11, 12]], L=12)], 1)


def test_verify_config_file_sets_shape(tmp_path, capsys):
    cfg_path = _write(tmp_path, "cfg.json",
                      {"generator_count": 4, "coefficient_mode": "rational",
                       "m": 3, "n": 2})
    code, out, _ = _run(capsys, ["verify", "--config", cfg_path])
    assert code == 0
    report = json.loads(out)
    assert report["shape"] == {"m": 3, "n": 2}
    assert report["status"] == "pass"


def test_huge_integer_literal_exit_2(tmp_path, capsys):
    # past Python's int-string digit limit json raises a plain ValueError
    path = tmp_path / "metric.json"
    path.write_text(
        '{"metric": {"shape": {"m": 1, "n": 0}, "parity": "even", '
        '"entries": [[{"index": [], "coeff": 1' + "0" * 5000 + '}]]}}')
    code, out, err = _run(capsys, ["canonicalize", str(path)])
    assert code == 2 and out == ""
    blob = json.loads(err)
    assert blob["kind"] == "ValidationError" and blob["exit_code"] == 2
    assert "digits" in blob["error"]
    # json.load raises other plain errors for these two
    for name, data in (("deep.json", b"[" * 100000 + b"]" * 100000),
                       ("latin1.json", b'{"metric": "\xff"}')):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = _run(capsys, ["canonicalize", str(path)])
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "ValidationError"


def test_bad_algebra_fields_exit_2(tmp_path, capsys):
    G = random_metric(make_rng(5), RAT, 1, 0)
    bad = [("zero_tolerance", float("nan")), ("zero_tolerance", 1e400),
           ("zero_tolerance", "x"), ("zero_tolerance", True),
           ("zero_tolerance", -1e-3), ("generator_count", 7.5),
           ("generator_count", "8"), ("generator_count", True)]
    for key, value in bad:
        alg = {"generator_count": 4, "coefficient_mode": "float64",
               key: value}
        # json writes nan and 1e400 (inf) as the bare literals NaN, Infinity
        path = _write(tmp_path, "metric.json",
                      {"algebra": alg, "metric": matrix_to_json(G)})
        code, out, err = _run(capsys, ["canonicalize", path])
        assert code == 2 and out == "", (key, value)
        blob = json.loads(err)
        assert blob["kind"] == "ConfigMismatch" and blob["exit_code"] == 2
        assert key.replace("_", " ") in blob["error"].replace("_", " ")


def test_verify_rejects_bad_shape_before_any_section(tmp_path, capsys,
                                                     monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a verify section ran")
    monkeypatch.setattr("supermetric.cli.run_verify", no_run)
    for key, value in (("m", "x"), ("m", -1), ("n", -2), ("n", 2.5),
                       ("m", True), ("n", None)):
        cfg_path = _write(tmp_path, "cfg.json",
                          {"generator_count": 4, "m": 1, "n": 2,
                           key: value})
        code, out, err = _run(capsys, ["verify", "--config", cfg_path])
        assert code == 2 and out == "", (key, value)
        blob = json.loads(err)
        assert blob["kind"] == "ValidationError"
        assert f"'{key}'" in blob["error"]


def test_verify_size_budget_refuses_before_any_section(tmp_path, capsys,
                                                      monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a verify section ran")
    monkeypatch.setattr("supermetric.cli.run_verify", no_run)
    for config in ({"generator_count": 4, "m": 40, "n": 2},
                   {"generator_count": 1, "m": 90, "n": 0},
                   {"generator_count": 11, "m": 1, "n": 2},
                   {"generator_count": 24, "m": 2, "n": 2}):
        cfg_path = _write(tmp_path, "cfg.json", config)
        code, out, err = _run(capsys, ["verify", "--config", cfg_path])
        assert code == 2 and out == "", config
        blob = json.loads(err)
        assert blob["kind"] == "ValidationError"
        assert "budget" in blob["error"]
    # the documented shapes fit: (1|2), (2|2), (3|4) and (4|4) up to L=8
    for m, n in ((1, 2), (2, 2), (3, 4), (4, 4)):
        for L in range(1, 9):
            check_size_budget(m, n, L)
    # the flat family of r matrices with (m+n)^2 entries each, plus its
    # r x r adjoint operator
    for p, q, n in ((1, 0, 2), (1, 1, 2), (2, 1, 4)):
        r = basis_for(RAT, p, q, n).dims["hJ"]
        k = p + q + n
        assert flat_family_slots(p + q, n, 4) == r * (r + k * k)


def _logical(obj):
    """The plain tree a report stands for: each Fragment parsed back from
    its own text."""
    if isinstance(obj, Fragment):
        return json.loads(obj.write(obj.value, _IndexText()))
    if isinstance(obj, dict):
        return {k: _logical(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_logical(v) for v in obj]
    return obj


def test_every_report_is_indented_json(tmp_path, capsys, monkeypatch):
    written = []

    def recording_dumps(obj):
        text = dumps(obj)
        written.append((obj, text))
        return text
    monkeypatch.setattr("supermetric.cli.dumps", recording_dumps)
    for mode in ("rational", "float64"):
        cfg = AlgebraConfig(generator_count=4, coefficient_mode=mode)
        alg = {"generator_count": 4, "coefficient_mode": mode}
        basis = basis_for(cfg, 1, 1, 2)
        rng = make_rng(21)
        head = {"algebra": alg, "gamma": gamma_to_json(basis.gamma)}
        h1 = random_group_element(rng, basis)
        h2 = random_group_element(rng, basis)
        payloads = {
            "canonicalize": {"algebra": alg, "metric": matrix_to_json(
                random_metric(rng, cfg, 2, 2))},
            "isometry-check": dict(head, N=matrix_to_json(
                SuperMatrix.identity(cfg, basis.gamma.shape))),
            "lie-basis": head,
            "group-op": dict(head, h1=group_element_to_json(h1),
                             h2=group_element_to_json(h2)),
        }
        for verb, payload in payloads.items():
            path = _write(tmp_path, f"{verb}.json", payload)
            assert _run(capsys, [verb, path])[0] == 0
        cfg_path = _write(tmp_path, "cfg.json",
                          {"generator_count": 3, "m": 1, "n": 2})
        assert _run(capsys, ["verify", "--config", cfg_path, "--mode",
                             mode])[0] == 0
        # an error report goes through the same writer
        assert _run(capsys, ["lie-basis", _write(tmp_path, "bad.json",
                                                 {"algebra": alg})])[0] == 2
    assert len(written) == 12
    # canonicalize, lie-basis and group-op in each mode write fragments
    assert sum(any(isinstance(v, Fragment) for v in obj.values())
               for obj, _ in written) == 6
    for obj, text in written:
        assert text == json.dumps(_logical(obj), sort_keys=True,
                                  separators=(",", ": "), indent=2) + "\n"


def test_verify_float_tie_in_normalized_criterion(tmp_path, capsys):
    # soul norm 7/3 + 2/3 equals the body 3; normalized in float64 the soul
    # norm rounds to 0.4999999999999999 while the ratio rounds to 1.0
    flt = AlgebraConfig(generator_count=8, coefficient_mode="float64")
    d = flt.scalar(3.0) + flt.term([1, 6], -7 / 3) \
        + flt.term([1, 2, 6, 7], 2 / 3)
    assert _normalized_criterion_agrees(d, 0.5)
    rat = AlgebraConfig(generator_count=8, coefficient_mode="rational")
    for soul in (Fraction(3), Fraction(5, 2), Fraction(7, 2)):
        d = rat.scalar(3) + rat.term([1, 6], -soul)
        assert _normalized_criterion_agrees(d, Fraction(1, 2))
    # the verify seed that drew this tie reported a failure
    cfg_path = _write(tmp_path, "cfg.json",
                      {"generator_count": 8, "m": 1, "n": 2})
    code, out, _ = _run(capsys, ["verify", "--config", cfg_path, "--mode",
                                 "float64", "--seed", "535195233"])
    assert code == 0 and json.loads(out)["status"] == "pass"
