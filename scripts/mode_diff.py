"""Float64 canonical forms against the exact answer for the same input.

Each float64 `canonicalize` payload is read in float64 and lifted exactly
to rationals (a binary float is a dyadic rational), and the rational
pipeline runs on the lift, so its report is the exact answer for the float
input.  Both reports come from `supermetric.cli.main` in this process.  Per
payload one line gives, as ratios to a stated scale:

* P, Gamma, d_raw, lambda: the float report's worst deviation from the
  exact report, the largest |float coefficient - exact coefficient| over
  the field, relative to the field's largest exact |coefficient|;
* exact: the exact residual max_ij ||(P^ST G P - Gamma)_ij||_1 of the
  float report's P and Gamma, lifted exactly, relative to the
  canonicalize gate 1e-9 (1 + ||G||) of the benchmark (||G|| the induced
  norm, the largest row sum of entry l1 norms);
* reported: the float report's own residual, relative to the same gate.

The last line gives the worst ratio of each column.  With --seed the
payloads are the float64 requests of the benchmark's canonicalize-dense
workload for that seed; otherwise the payload files named are read.

    python scripts/mode_diff.py --seed 31
    python scripts/mode_diff.py metric.json
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
from supermetric.algebra import AlgebraConfig  # noqa: E402
from supermetric.canonical import congruence  # noqa: E402
from supermetric.matrices import SuperMatrix  # noqa: E402
from supermetric.serialization import (  # noqa: E402
    dumps,
    matrix_from_json,
    matrix_to_json,
    supernumber_from_json,
)

# the benchmark's canonicalize gate, relative to 1 + ||G||
RESIDUAL_GATE = 1e-9
FIELDS = ("P", "Gamma", "d_raw", "lambda")
COLUMNS = FIELDS + ("exact", "reported")


def canonicalize(G, directory):
    """The parsed `canonicalize` report of metric G, run through the CLI."""
    cfg = G.config
    path = Path(directory) / f"metric-{cfg.coefficient_mode}.json"
    path.write_text(dumps({
        "algebra": {"generator_count": cfg.generator_count,
                    "coefficient_mode": cfg.coefficient_mode,
                    "zero_tolerance": cfg.zero_tolerance},
        "metric": matrix_to_json(G)}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["canonicalize", str(path)])
    if code != 0:
        raise RuntimeError(f"canonicalize exited {code}: {err.getvalue()}")
    return json.loads(out.getvalue())


def lift(M, cfg):
    """M with every float64 coefficient lifted exactly into ``cfg``."""
    rows = [[cfg.from_terms({b: Fraction(c) for b, c in e.terms.items()})
             for e in row] for row in M.rows]
    return SuperMatrix(cfg, M.shape, rows, M.parity_class)


def _entries(report, name, cfg):
    """The supernumbers of one field of a report, in report order."""
    if name in ("P", "Gamma"):
        return [e for row in matrix_from_json(report[name], cfg).rows
                for e in row]
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
    gate = RESIDUAL_GATE * (1.0 + float(G.induced_norm()))
    out["exact"] = float(residual) / gate
    out["reported"] = float(got["residual"]) / gate
    return out


def _payloads(args, tmp):
    """(name, float64 metric) of each payload to compare."""
    if args.seed is None:
        for name in args.files:
            payload = json.loads(Path(name).read_text())
            cfg = AlgebraConfig(**{**payload.get("algebra", {}),
                                   "coefficient_mode": "float64"})
            yield Path(name).name, matrix_from_json(
                payload.get("metric", payload), cfg)
        return
    from run import ROUNDS
    from workloads import canonicalize_dense

    wl = canonicalize_dense(args.seed, Path(tmp),
                            rounds=ROUNDS["canonicalize-dense"])
    for request in (r for rnd in wl.rounds for r in rnd):
        if request.mode == "float64":
            path = Path(request.argv[-1])
            payload = json.loads(path.read_text())
            cfg = AlgebraConfig(**payload["algebra"])
            yield path.stem, matrix_from_json(payload["metric"], cfg)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("files", nargs="*", help="float64 canonicalize payloads")
    p.add_argument("--seed", type=int,
                   help="compare the canonicalize-dense payloads of a seed")
    args = p.parse_args(argv)
    if (args.seed is None) == (not args.files):
        p.error("give either --seed or payload files")
    print(f"{'payload':<16}" + "".join(f"{c:>11}" for c in COLUMNS))
    worst = dict.fromkeys(COLUMNS, 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        for name, G in _payloads(args, tmp):
            ratios = compare(G)
            print(f"{name:<16}" + "".join(f"{ratios[c]:>11.3e}"
                                          for c in COLUMNS))
            for c in COLUMNS:
                worst[c] = max(worst[c], ratios[c])
    print(f"{'worst':<16}" + "".join(f"{worst[c]:>11.3e}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
