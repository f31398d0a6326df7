"""Truncation-error decay of the composition series against the exact route.

For each series order m the residual ||series_m(tX, tY) - log(e^{tX}e^{tY})||
is evaluated at successively halved t.  The leading error term has degree
m + 1, so each halving should divide the residual by about 2^(m+1); the
table prints the measured ratios next to that target.

    python scripts/series_decay.py --mode rational --orders 2 3 4
"""

import argparse
from fractions import Fraction

from supermetric import (
    AlgebraConfig,
    NilElement,
    SuperMatrix,
    basis_for,
    bch_series,
    diamond,
    make_rng,
)


def mixed_grade_element(rng, basis, draws=4):
    """Member with single-generator factors on the odd slots and generator
    pairs on the even ones, so every series order survives truncation."""
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
            z = z * cfg.generator(1 + (k % cfg.generator_count))
            if z.is_zero():
                continue
        rows = [[z * e for e in r] for r in base.rows]
        acc = acc + SuperMatrix(cfg, base.shape, rows, "even")
    return NilElement(acc, basis.gamma)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=["rational", "float64"],
                    default="rational")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--orders", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--halvings", type=int, default=3)
    args = ap.parse_args()

    cfg = AlgebraConfig(generator_count=6, coefficient_mode=args.mode)
    basis = basis_for(cfg, 1, 1, 2)
    rng = make_rng(args.seed)
    X = mixed_grade_element(rng, basis)
    Y = mixed_grade_element(rng, basis)

    scales = [Fraction(1, 32 << k) for k in range(args.halvings + 1)]
    for order in args.orders:
        print(f"\norder {order} (target ratio {2 ** (order + 1)}):")
        prev = None
        for t in scales:
            Xs = NilElement(X.X.scale(t if cfg.rational else float(t)),
                            X.gamma)
            Ys = NilElement(Y.X.scale(t if cfg.rational else float(t)),
                            Y.gamma)
            series = bch_series(Xs.X, Ys.X, order)
            resid = (series - diamond(Xs, Ys).X).entry_norm_max()
            line = f"  t = {str(t):>7}: residual = {float(resid):.6e}"
            if prev is not None and resid != 0:
                line += f"   ratio = {float(prev / resid):.3f}"
            print(line)
            prev = resid


if __name__ == "__main__":
    main()
