"""Command-line front end.

Subcommands: canonicalize, isometry-check, lie-basis, group-op, verify.
Inputs are JSON files in the wire forms of the serialization module; the
algebra setup comes from --config (JSON with generator_count,
coefficient_mode, zero_tolerance, and optionally m, n for verify), with
--mode overriding the coefficient mode.  Reports go to stdout or --out.
Only verify takes --seed; --strict is canonicalize's, and verify echoes it.

Exit codes: 0 success, 2 validation problem (including malformed JSON,
reported with its position), 3 numerical gate failure or a failing verify
run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain

from .algebra import AlgebraConfig, within_gate
from .canonical import (
    body_reduce,
    canonical_form,
    check_work_budget,
    congruence,
    validate_metric,
)
from .errors import NumericalGateError, ShapeMismatch, ValidationError
from .group import (
    GroupElement,
    NilElement,
    embed_isometry,
    semidirect_multiply,
)
from .isometry import check_basis_budget, isometry_residual, lie_basis, \
    lie_membership
from .serialization import (
    Fragment,
    dumps,
    gamma_from_json,
    gamma_text,
    group_element_text,
    group_parts_from_json,
    matrix_from_json,
    matrix_text,
    scalar_to_json,
    supernumber_text,
    tags_text,
)
from .verify import check_verify_shape, run_verify

_VERIFY_DEFAULT_L = 4


@functools.cache
def _build_parser():
    # built once per process: parsing does not change it
    p = argparse.ArgumentParser(
        prog="supermetric",
        description="Canonical forms, isometry algebra, and the group of "
                    "body isometries and zero-body exponentials for graded "
                    "metrics.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("input", help="path to the JSON input payload")
        sp.add_argument("--config", default=None,
                        help="JSON file with algebra settings")
        sp.add_argument("--mode", choices=["float64", "rational"],
                        default=None, help="coefficient mode override")
        sp.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
        return sp

    # --seed and --strict only where a verb reads them
    canonicalize = common(sub.add_parser(
        "canonicalize", help="canonical form and body reduction of a metric"))
    canonicalize.add_argument("--strict", action="store_true",
                              help="refuse a body rescaling whose soul/body "
                                   "ratio reaches 1")
    common(sub.add_parser(
        "isometry-check", help="test N^ST Gamma N = Gamma"))
    common(sub.add_parser(
        "lie-basis", help="enumerate the membership-condition bases"))
    common(sub.add_parser(
        "group-op", help="multiply two group elements and embed the result"))
    verify = common(sub.add_parser(
        "verify", help="run the seeded verification suites"),
        needs_input=False)
    verify.add_argument("--seed", type=int, default=42,
                        help="seed for the randomized suites")
    verify.add_argument("--strict", action="store_true",
                        help="echoed as the report's \"strict\" field")
    return p


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise
        except (ValueError, RecursionError) as exc:
            # an integer literal past Python's int-string digit limit, bytes
            # that are not UTF-8, or nesting deeper than the recursion limit
            raise ValidationError(f"cannot read JSON from {path}: {exc}") \
                from None


def _build_config(args, payload, default_L=None):
    settings = {}
    if args.config:
        file_cfg = _load_json(args.config)
        if not isinstance(file_cfg, dict):
            raise ValidationError("config file must hold a JSON object")
        settings.update(file_cfg)
    if isinstance(payload, dict) and "algebra" in payload:
        if not isinstance(payload["algebra"], dict):
            raise ValidationError("'algebra' must be a JSON object")
        settings.update(payload["algebra"])
    kwargs = {}
    if "generator_count" in settings:
        kwargs["generator_count"] = settings["generator_count"]
    elif default_L is not None:
        kwargs["generator_count"] = default_L
    if "zero_tolerance" in settings:
        kwargs["zero_tolerance"] = settings["zero_tolerance"]
    if args.mode:
        kwargs["coefficient_mode"] = args.mode
    elif "coefficient_mode" in settings:
        kwargs["coefficient_mode"] = settings["coefficient_mode"]
    return AlgebraConfig(**kwargs), settings


def _cmd_canonicalize(args):
    payload = _load_json(args.input)
    cfg, _ = _build_config(args, payload)
    data = payload.get("metric", payload) if isinstance(payload, dict) \
        else payload
    G = matrix_from_json(data, cfg)
    check_work_budget("canonicalize", cfg, G.shape, chain(*G.rows))
    metric = validate_metric(G)
    raw = canonical_form(metric)
    red = body_reduce(raw, strict=args.strict)
    resid = congruence(red.P, G) - red.Gamma
    return {
        "command": "canonicalize",
        "mode": cfg.coefficient_mode,
        "P": Fragment(matrix_text, red.P),
        "Gamma": Fragment(matrix_text, red.Gamma),
        "d_raw": [Fragment(supernumber_text, di) for di in raw.d],
        "eta": [int(e.body()) for e in red.d],
        "reducibility": [{
            "index": rec["index"],
            "ratio": scalar_to_json(rec["ratio"], cfg),
            "condition_met": rec["condition_met"],
            "sign": rec["sign"],
            "scale_exact": rec["scale_exact"],
            "lambda": Fragment(supernumber_text, rec["lambda"]),
        } for rec in red.reducibility],
        "body_reducible": raw.body_reducible,
        "residual": scalar_to_json(resid.entry_norm_max(), cfg),
    }


def _cmd_isometry_check(args):
    payload = _load_json(args.input)
    cfg, _ = _build_config(args, payload)
    if not isinstance(payload, dict) or "N" not in payload \
            or "gamma" not in payload:
        raise ValidationError("payload needs 'N' and 'gamma'")
    gamma = gamma_from_json(payload["gamma"], cfg)
    N = matrix_from_json(payload["N"], cfg)
    # Gamma is as large as its declared n, which only a matching N bounds
    if N.shape != gamma.shape:
        raise ShapeMismatch(f"N has shape ({N.shape.m}|{N.shape.n}), gamma "
                            f"({gamma.m}|{gamma.n})")
    check_work_budget("isometry-check", cfg, N.shape,
                      chain(gamma.eta, *N.rows))
    resid, scale = isometry_residual(N, gamma)
    report = {
        "command": "isometry-check",
        "mode": cfg.coefficient_mode,
        "isometry": within_gate(resid, scale),
        "residual": scalar_to_json(resid, cfg),
    }
    membership = lie_membership(N, gamma)
    report["lie_membership"] = {
        "member": membership["member"],
        "violated": membership["violated"],
        "formulations_agree": membership["agree"],
    }
    return report


def _cmd_lie_basis(args):
    payload = _load_json(args.input)
    cfg, _ = _build_config(args, payload)
    if not isinstance(payload, dict) or "gamma" not in payload:
        raise ValidationError("payload needs 'gamma'")
    gamma = gamma_from_json(payload["gamma"], cfg)
    # lie_basis enumerates all 2^L index sets, so L is bounded here
    L = payload.get("L", cfg.generator_count)
    if isinstance(L, bool) or not isinstance(L, int) \
            or not 0 <= L <= cfg.generator_count:
        raise ValidationError(
            f"'L' must be an integer in 0..{cfg.generator_count}, "
            f"got {json.dumps(L)}")
    check_basis_budget(gamma.m, gamma.n, L)
    basis = lie_basis(gamma, L)
    return {
        "command": "lie-basis",
        "mode": cfg.coefficient_mode,
        "gamma": Fragment(gamma_text, gamma),
        "dims": basis.dims,
        "g0": [Fragment(matrix_text, M) for M in basis.g0],
        "g1": [Fragment(matrix_text, M) for M in basis.g1],
        "hJ": Fragment(tags_text, basis.hJ),
    }


def _cmd_group_op(args):
    payload = _load_json(args.input)
    cfg, _ = _build_config(args, payload)
    for key in ("gamma", "h1", "h2"):
        if not isinstance(payload, dict) or key not in payload:
            raise ValidationError("payload needs 'gamma', 'h1' and 'h2'")
    gamma = gamma_from_json(payload["gamma"], cfg)
    # weighed before the elements are built: checking X's membership is
    # already a product
    (body1, X1), (body2, X2) = (group_parts_from_json(payload[key], cfg)
                                for key in ("h1", "h2"))
    check_work_budget("group-op", cfg, gamma.shape,
                      chain(gamma.eta, *X1.rows, *X2.rows),
                      chain(*body1, *body2))
    h1 = GroupElement(body1, NilElement(X1, gamma))
    h2 = GroupElement(body2, NilElement(X2, gamma))
    prod = semidirect_multiply(h1, h2)
    image = embed_isometry(prod)
    hom_resid = (image - embed_isometry(h1) @ embed_isometry(h2)
                 ).entry_norm_max()
    iso_resid, iso_scale = isometry_residual(image, gamma)
    return {
        "command": "group-op",
        "mode": cfg.coefficient_mode,
        "product": Fragment(group_element_text, prod),
        "embedded": Fragment(matrix_text, image),
        "residuals": {
            "isometry": scalar_to_json(iso_resid, cfg),
            "embedding_homomorphism": scalar_to_json(hom_resid, cfg),
        },
        "isometry": within_gate(iso_resid, iso_scale),
    }


def _cmd_verify(args):
    cfg, settings = _build_config(args, None, default_L=_VERIFY_DEFAULT_L)
    m = settings.get("m", 2)
    n = settings.get("n", 2)
    for name, value in (("m", m), ("n", n)):
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 0:
            raise ValidationError(
                f"'{name}' must be a non-negative integer, "
                f"got {json.dumps(value)}")
    check_verify_shape(m, n, cfg.generator_count)
    return run_verify(cfg, seed=args.seed, m=m, n=n, strict=args.strict)


_COMMANDS = {
    "canonicalize": _cmd_canonicalize,
    "isometry-check": _cmd_isometry_check,
    "lie-basis": _cmd_lie_basis,
    "group-op": _cmd_group_op,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
        # values write their text here, and a coefficient with too many
        # digits to write is refused like any other invalid input
        text = dumps(report)
    except json.JSONDecodeError as exc:
        sys.stderr.write(dumps({
            "error": f"malformed JSON: {exc.msg}",
            "line": exc.lineno,
            "column": exc.colno,
            "exit_code": 2,
        }))
        return 2
    except ValidationError as exc:
        sys.stderr.write(dumps({
            "error": str(exc),
            "kind": type(exc).__name__,
            "exit_code": 2,
        }))
        return 2
    except NumericalGateError as exc:
        sys.stderr.write(dumps({
            "error": str(exc),
            "kind": type(exc).__name__,
            "exit_code": 3,
        }))
        return 3
    except FileNotFoundError as exc:
        sys.stderr.write(dumps({
            "error": f"cannot read {exc.filename}",
            "kind": "FileNotFound",
            "exit_code": 2,
        }))
        return 2

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 3 if report.get("status") == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
