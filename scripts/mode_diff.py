"""Float64 reports against the exact answer for the same input.

Each float64 payload is read in float64 and lifted exactly to rationals (a
binary float is a dyadic rational), and the rational pipeline runs on the
lift, so its report is the exact answer for the float input.  Both reports
come from `supermetric.cli.main` in this process.

For a `canonicalize` payload one line gives, as ratios to a stated scale:

* P, Gamma, d_raw, lambda: the float report's worst deviation from the
  exact report, the largest |float coefficient - exact coefficient| over
  the field, relative to the field's largest exact |coefficient|;
* exact: the exact residual max_ij ||(P^ST G P - Gamma)_ij||_1 of the
  float report's P and Gamma, lifted exactly, relative to the
  canonicalize gate 1e-9 (1 + ||G||) of the benchmark (||G|| the induced
  norm, the largest row sum of entry l1 norms);
* reported: the float report's own residual, relative to the same gate;
* P_norm: the induced norm ||P|| of the float report's P;
* eps_PG: the exact residual relative to eps ||P|| ||G||, eps = 2^-53 the
  float64 unit round-off: the size that rounding the entries of a frame
  P of that norm gives the congruence, whatever the metric.  The gate
  share of `exact` grows with ||P||, which a near-singular even body
  direction makes large; this one does not;
* pivot: the largest ||soul|| / |body| over the exact report's pivots d,
  which is large where such a direction makes 1/d a long series.

For a `group-op` or `isometry-check` payload one line gives:

* product, embedded (group-op only): the worst deviation of the float
  report's product (its body matrix and zero-body part) and of its
  embedded isometry, as above;
* exact: the exact isometry residual max_ij ||(N^ST Gamma N - Gamma)_ij||_1
  of the float report's embedded N (group-op) or of the lifted input N
  (isometry-check), relative to the isometry gate 1e-10 (1 + ||N||^2
  ||Gamma||) of `within_gate`;
* reported: the float report's own isometry residual, relative to the
  same gate;
* verdicts: whether the float report's isometry verdict, and for
  isometry-check its membership verdicts, equal the exact report's.

The last line of each table gives the worst ratio of each column.  With
--seed the payloads are the float64 requests of the benchmark's
canonicalize-dense and group-sparse workloads for that seed; otherwise the
payload files named are read, each by the verb its keys name.

    python scripts/mode_diff.py --seed 31
    python scripts/mode_diff.py metric.json group-op.json
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

# one BLAS/OpenMP thread, as in the benchmark, set before numpy is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from supermetric import cli  # noqa: E402
from supermetric.algebra import GATE, AlgebraConfig  # noqa: E402
from supermetric.canonical import congruence  # noqa: E402
from supermetric.isometry import isometry_residual  # noqa: E402
from supermetric.matrices import SuperMatrix  # noqa: E402
from supermetric.serialization import (  # noqa: E402
    dumps,
    gamma_from_json,
    matrix_from_json,
    matrix_to_json,
    scalar_from_json,
    supernumber_from_json,
)

# the benchmark's canonicalize gate, relative to 1 + ||G||
RESIDUAL_GATE = 1e-9
# the float64 unit round-off
EPS = 2.0 ** -53
FIELDS = ("P", "Gamma", "d_raw", "lambda")
COLUMNS = FIELDS + ("exact", "reported", "P_norm", "eps_PG", "pivot")
GROUP_VERBS = ("group-op", "isometry-check")
GROUP_COLUMNS = ("product", "embedded", "exact", "reported")


def run_verb(verb, payload, path):
    """The parsed report of one CLI verb on a payload, written to path."""
    Path(path).write_text(dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([verb, str(path)])
    if code != 0:
        raise RuntimeError(f"{verb} exited {code}: {err.getvalue()}")
    return json.loads(out.getvalue())


def canonicalize(G, directory):
    """The parsed `canonicalize` report of metric G, run through the CLI."""
    cfg = G.config
    return run_verb("canonicalize", {
        "algebra": {"generator_count": cfg.generator_count,
                    "coefficient_mode": cfg.coefficient_mode,
                    "zero_tolerance": cfg.zero_tolerance},
        "metric": matrix_to_json(G)},
        Path(directory) / f"metric-{cfg.coefficient_mode}.json")


def lift(M, cfg):
    """M with every float64 coefficient lifted exactly into ``cfg``."""
    rows = [[cfg.from_terms({b: Fraction(c) for b, c in e.terms.items()})
             for e in row] for row in M.rows]
    return SuperMatrix(cfg, M.shape, rows, M.parity_class)


def _entries(report, name, cfg):
    """The supernumbers of one field of a report, in report order."""
    if name in ("P", "Gamma", "embedded", "n_part"):
        return [e for row in matrix_from_json(report[name], cfg).rows
                for e in row]
    if name == "product":    # a group element: its body, then its n_part
        h = report[name]
        return [cfg.scalar(scalar_from_json(v, cfg))
                for row in h["g_body"] for v in row] + _entries(
                    h, "n_part", cfg)
    if name == "d_raw":
        return [supernumber_from_json(d, cfg) for d in report["d_raw"]]
    return [supernumber_from_json(r["lambda"], cfg)
            for r in report["reducibility"]]


def deviation(floats, exact):
    """max |float - exact| over the coefficients of two equally long lists
    of supernumbers, over the largest exact |coefficient| (1 when every
    exact coefficient is zero)."""
    if len(floats) != len(exact):
        raise ValueError(f"{len(floats)} float entries vs {len(exact)} exact")
    worst = Fraction(0)
    scale = Fraction(0)
    for f, x in zip(floats, exact):
        for bits in f.terms.keys() | x.terms.keys():
            c = x.terms.get(bits, 0)
            worst = max(worst, abs(Fraction(f.terms.get(bits, 0.0)) - c))
            scale = max(scale, abs(c))
    return float(worst / (scale or 1))


def compare(G):
    """{column: ratio} for one float64 metric G (see the module doc)."""
    cfg = G.config
    exact_cfg = AlgebraConfig(generator_count=cfg.generator_count,
                              coefficient_mode="rational")
    G_exact = lift(G, exact_cfg)
    with tempfile.TemporaryDirectory() as tmp:
        got = canonicalize(G, tmp)
        want = canonicalize(G_exact, tmp)
    out = {name: deviation(_entries(got, name, cfg),
                           _entries(want, name, exact_cfg))
           for name in FIELDS}
    P = lift(matrix_from_json(got["P"], cfg), exact_cfg)
    Gamma = lift(matrix_from_json(got["Gamma"], cfg), exact_cfg)
    residual = (congruence(P, G_exact) - Gamma).entry_norm_max()
    norm_G = float(G.induced_norm())
    gate = RESIDUAL_GATE * (1.0 + norm_G)
    out["exact"] = float(residual) / gate
    out["reported"] = float(got["residual"]) / gate
    out["P_norm"] = float(P.induced_norm())
    out["eps_PG"] = float(residual) / (EPS * out["P_norm"] * norm_G)
    out["pivot"] = max(float(d.soul().norm() / abs(d.body()))
                       for d in _entries(want, "d_raw", exact_cfg))
    return out


def lift_json(value):
    """A payload value with each float coefficient lifted exactly, written
    as the text of its dyadic fraction."""
    if isinstance(value, float):
        return str(Fraction(value))
    if isinstance(value, list):
        return [lift_json(v) for v in value]
    if isinstance(value, dict):
        return {key: lift_json(v) for key, v in value.items()}
    return value


def _verdicts(report):
    return report["isometry"], report.get("lie_membership")


def compare_group(verb, payload, directory):
    """{column: ratio} and "verdicts" for one float64 group-op or
    isometry-check payload (see the module doc); product and embedded are
    None for isometry-check."""
    L = payload["algebra"]["generator_count"]
    cfg = AlgebraConfig(generator_count=L, coefficient_mode="float64")
    exact_cfg = AlgebraConfig(generator_count=L, coefficient_mode="rational")
    lifted = dict(lift_json(payload), algebra={
        "generator_count": L, "coefficient_mode": "rational"})
    got = run_verb(verb, dict(payload, algebra={
        **payload["algebra"], "coefficient_mode": "float64"}),
        Path(directory) / "group-float64.json")
    want = run_verb(verb, lifted, Path(directory) / "group-rational.json")
    if verb == "group-op":
        out = {name: deviation(_entries(got, name, cfg),
                               _entries(want, name, exact_cfg))
               for name in ("product", "embedded")}
        N = lift(matrix_from_json(got["embedded"], cfg), exact_cfg)
        reported = got["residuals"]["isometry"]
    else:
        out = {"product": None, "embedded": None}
        N = matrix_from_json(lifted["N"], exact_cfg)
        reported = got["residual"]
    residual, scale = isometry_residual(
        N, gamma_from_json(lifted["gamma"], exact_cfg))
    gate = GATE * (1.0 + float(scale))
    out["exact"] = float(residual) / gate
    out["reported"] = float(reported) / gate
    out["verdicts"] = _verdicts(got) == _verdicts(want)
    return out


def _verb(payload):
    """The verb a payload is for, by its keys."""
    if "h1" in payload:
        return "group-op"
    return "isometry-check" if "N" in payload else "canonicalize"


def _metric(payload):
    """The float64 metric of a canonicalize payload (or a bare matrix)."""
    cfg = AlgebraConfig(**{**payload.get("algebra", {}),
                           "coefficient_mode": "float64"})
    return matrix_from_json(payload.get("metric", payload), cfg)


def _payloads(args, tmp):
    """(name, verb, payload) of each float64 payload to compare."""
    if args.seed is None:
        for name in args.files:
            payload = json.loads(Path(name).read_text())
            yield Path(name).name, _verb(payload), payload
        return
    from run import ROUNDS
    from workloads import WORKLOADS

    for workload, verbs in (("canonicalize-dense", ("canonicalize",)),
                            ("group-sparse", GROUP_VERBS)):
        workdir = Path(tmp) / workload
        workdir.mkdir()
        wl = WORKLOADS[workload](args.seed, workdir,
                                 rounds=ROUNDS[workload])
        for request in (r for rnd in wl.rounds for r in rnd):
            if request.mode == "float64" and request.argv[0] in verbs:
                path = Path(request.argv[-1])
                yield path.stem, request.argv[0], json.loads(
                    path.read_text())


def _print_table(columns, rows, width):
    """One line per (name, ratios) row and a last line of the worst ratio
    of each column; a ratio of None prints as "-", and a "verdicts" column
    as same or DIFFER."""
    def cell(column, value):
        if column == "verdicts":
            return f"{'same' if value else 'DIFFER':>11}"
        return f"{'-':>11}" if value is None else f"{value:>11.3e}"

    print(f"{'payload':<{width}}" + "".join(f"{c:>11}" for c in columns))
    for name, ratios in rows:
        print(f"{name:<{width}}" + "".join(cell(c, ratios[c])
                                           for c in columns))
    worst = {c: max((r[c] for _, r in rows if r[c] is not None),
                    default=None) for c in columns if c != "verdicts"}
    if "verdicts" in columns:
        worst["verdicts"] = all(r["verdicts"] for _, r in rows)
    print(f"{'worst':<{width}}" + "".join(cell(c, worst[c])
                                          for c in columns))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("files", nargs="*",
                   help="float64 canonicalize, group-op or isometry-check "
                        "payloads")
    p.add_argument("--seed", type=int,
                   help="compare the canonicalize-dense and group-sparse "
                        "payloads of a seed")
    args = p.parse_args(argv)
    if (args.seed is None) == (not args.files):
        p.error("give either --seed or payload files")
    dense, group = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for name, verb, payload in _payloads(args, tmp):
            if verb == "canonicalize":
                dense.append((name, compare(_metric(payload))))
            else:
                group.append((name, compare_group(verb, payload, tmp)))
    if dense:
        _print_table(COLUMNS, dense, 16)
    if group:
        _print_table(GROUP_COLUMNS + ("verdicts",), group, 28)
    return 0


if __name__ == "__main__":
    sys.exit(main())
