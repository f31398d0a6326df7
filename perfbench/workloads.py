"""The benchmark's workloads: seeded inputs, request order and report checks.

Each workload is a closed loop with one client.  Its requests are built in
rounds; within a round the two coefficient modes alternate in a fixed order,
and every round draws fresh inputs from the run seed.  Inputs are written as
payload files for the CLI, so the program receives only generated inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path

from supermetric.algebra import AlgebraConfig
from supermetric.group import embed_isometry
from supermetric.sampling import (
    basis_for,
    make_rng,
    random_group_element,
    random_metric,
)
from supermetric.serialization import (
    dumps,
    gamma_to_json,
    group_element_to_json,
    matrix_to_json,
)

MODES = ("float64", "rational")

# body-reduce residual gate of the verify suite, relative to 1 + ||G||
RESIDUAL_GATE = 1e-9


@dataclass
class Request:
    mode: str
    argv: list
    check: object          # report dict -> failure message or None


@dataclass
class Workload:
    """`rounds` lists the requests of each round; `warmup` runs before any
    timing.  `files` holds the path of every payload written."""
    name: str
    rounds: list
    warmup: list
    files: list = field(default_factory=list)


def case_rng(seed, case):
    return make_rng((int(seed) << 24) + case)


def _write(workdir: Path, name: str, text: str, files: list) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    files.append(path)
    return str(path)


def _algebra(L, mode):
    return {"generator_count": L, "coefficient_mode": mode}


# -- checks -------------------------------------------------------------------

def check_canonicalize(report, mode, gate):
    if any(e not in (1, -1) for e in report["eta"]):
        return "eta entry is not +-1"
    exact = all(r["scale_exact"] for r in report["reducibility"])
    if mode == "rational" and exact:
        if report["residual"] != "0":
            return f"rational residual {report['residual']} is not 0"
    elif float(Fraction(str(report["residual"]))) > gate:
        return f"residual {report['residual']} exceeds {gate:.3g}"
    return None


def check_isometry(report, membership):
    if report["isometry"] is not True:
        return "isometry is not true"
    if membership and report["lie_membership"]["formulations_agree"] \
            is not True:
        return "membership formulations disagree"
    return None


def check_lie_basis(report, m, n):
    want = {"g0": m * (m - 1) // 2 + n * (n + 1) // 2, "g1": m * n}
    got = {k: report["dims"][k] for k in want}
    return None if got == want else f"dims {got} != {want}"


def check_verify(report):
    return None if report["status"] == "pass" else "verify status is not pass"


# -- canonicalize-dense ---------------------------------------------------------

# (m, n, L, copies per round).  Within one shape a request's time varies
# with a coefficient of variation near 0.5, so a steady median needs many
# dense requests per run.  Most copies go to (3|4) L=8: dense (about 88 term
# pairs per product) yet under 0.5 s in rational mode.  (3|4) L=6 and the
# (4|4) shapes cost 0.2 to 2.5 s per rational request and left too few
# dense samples in a run.  With ten copies each mode's median falls near
# the 40th percentile of (3|4) L=8, clear of the gap above its fastest fifth.
DENSE_MIX = ((2, 2, 6, 1), (2, 2, 8, 1), (3, 4, 8, 10))


def _canonicalize(workdir, files, rng_for, tag, m, n, L):
    out = []
    for mode in MODES:
        cfg = AlgebraConfig(generator_count=L, coefficient_mode=mode)
        # one rng stream per case, so both modes get the same metric
        G = random_metric(rng_for(), cfg, m, n)
        payload = {"algebra": _algebra(L, mode), "metric": matrix_to_json(G)}
        path = _write(workdir, f"{tag}-{mode}.json", dumps(payload), files)
        gate = RESIDUAL_GATE * (1.0 + float(G.induced_norm()))
        out.append(Request(mode, ["canonicalize", path],
                           partial(check_canonicalize, mode=mode, gate=gate)))
    return out


def canonicalize_dense(seed, workdir, rounds, mix=DENSE_MIX,
                       warm=(2, 2, 4)):
    wl = Workload("canonicalize-dense", [], [])
    case = 0
    for r in range(rounds):
        reqs = []
        for m, n, L, copies in mix:
            for _ in range(copies):
                reqs += _canonicalize(workdir, wl.files,
                                      partial(case_rng, seed, case),
                                      f"c{case}", m, n, L)
                case += 1
        wl.rounds.append(reqs)
    wl.warmup = _canonicalize(workdir, wl.files,
                              partial(case_rng, seed, 1 << 20), "warm", *warm)
    return wl


# -- group-sparse ------------------------------------------------------------------

SPARSE_MIX = ((2, 2, 6), (2, 2, 8), (3, 4, 6), (3, 4, 8), (4, 4, 6),
              (4, 4, 8))


def _group_verbs(workdir, files, rng_for, tag, m, n, L):
    out = []
    for mode in MODES:
        rng = rng_for()
        cfg = AlgebraConfig(generator_count=L, coefficient_mode=mode)
        basis = basis_for(cfg, (m + 1) // 2, m // 2, n)
        head = {"algebra": _algebra(L, mode),
                "gamma": gamma_to_json(basis.gamma)}
        h1 = random_group_element(rng, basis)
        h2 = random_group_element(rng, basis)
        N = embed_isometry(random_group_element(rng, basis))
        group_op = dict(head, h1=group_element_to_json(h1),
                        h2=group_element_to_json(h2))
        iso = dict(head, N=matrix_to_json(N))
        for verb, payload, check in (
                ("group-op", group_op,
                 partial(check_isometry, membership=False)),
                ("isometry-check", iso,
                 partial(check_isometry, membership=True)),
                ("lie-basis", head, partial(check_lie_basis, m=m, n=n))):
            path = _write(workdir, f"{tag}-{verb}-{mode}.json",
                          dumps(payload), files)
            out.append(Request(mode, [verb, path], check))
    return out


def group_sparse(seed, workdir, rounds, mix=SPARSE_MIX, warm=(2, 2, 4)):
    wl = Workload("group-sparse", [], [])
    case = 0
    for r in range(rounds):
        reqs = []
        for m, n, L in mix:
            reqs += _group_verbs(workdir, wl.files,
                                 partial(case_rng, seed, case),
                                 f"g{case}", m, n, L)
            case += 1
        wl.rounds.append(reqs)
    wl.warmup = _group_verbs(workdir, wl.files,
                             partial(case_rng, seed, 1 << 20), "warm", *warm)
    return wl


# -- verify-ad -----------------------------------------------------------------------

def _verify(workdir, files, tag, m, n, L, verify_seed):
    config = _write(workdir, f"{tag}.json", json.dumps(
        {"generator_count": L, "m": m, "n": n}), files)
    return [Request(mode, ["verify", "--config", config, "--mode", mode,
                           "--seed", str(verify_seed)], check_verify)
            for mode in MODES]


# (1|2) L=8 keeps ad_operator above half of a request (r = 640 slices, so
# 409,600 operator entries) at under 2 s per request; (3|4) L=6 takes 4 to
# 9 s, which leaves 3 requests per mode in a run.
def verify_ad(seed, workdir, rounds, shape=(1, 2, 8), warm=(2, 2, 4)):
    wl = Workload("verify-ad", [], [])
    for r in range(rounds):
        verify_seed = int(case_rng(seed, r).integers(0, 2 ** 31))
        wl.rounds.append(_verify(workdir, wl.files, f"v{r}", *shape,
                                 verify_seed=verify_seed))
    wl.warmup = _verify(workdir, wl.files, "warm", *warm, verify_seed=1)
    return wl


WORKLOADS = {
    "canonicalize-dense": canonicalize_dense,
    "group-sparse": group_sparse,
    "verify-ad": verify_ad,
}
