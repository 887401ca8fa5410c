"""Command-line front end.

Exit codes: 0 for success / permutation confirmed, 1 for a definitive
negative verdict (not a permutation, or verification found mismatches),
2 for malformed input or configuration errors.

Elements are passed as integer indices (sum c_i p^i); with --coeffs they are
parsed as comma-separated base-p digits instead.  Reports are key=value
lines by default or one JSON object per line with --format json.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import special
from .family import NotPermutationError, PPParams
from .gf import Field, FieldElement
from .verify import cell, check_family, write_survey_csv


def _parse_element(field: Field, text: str, coeffs_mode: bool) -> FieldElement:
    if coeffs_mode:
        return field.from_coeffs([int(c) for c in text.split(",")])
    return field.element(int(text))


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(" ".join(f"{k}={cell(v)}" for k, v in report.items()))


def _family_args(sub):
    sub.add_argument("--field", required=True, help="field descriptor p^e^n")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--s", type=int, required=True)
    sub.add_argument("--t", type=int, required=True)
    sub.add_argument("--coeffs", action="store_true",
                     help="parse elements as comma-separated base-p digits")
    sub.add_argument("--format", choices=("json", "plain"), default="plain")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppinv",
        description="Permutation polynomials x(x^s - a)^t over finite fields and their inverses.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="decide whether f is a permutation")
    _family_args(p_check)
    p_check.add_argument("--a", required=True)

    p_inv = subs.add_parser("invert", help="compute the compositional inverse")
    _family_args(p_inv)
    p_inv.add_argument("--a", required=True)
    p_inv.add_argument("--at", default=None, help="evaluate the inverse at this element")
    p_inv.add_argument("--symbolic", action="store_true",
                       help="print the reduced coefficient vector of the inverse")
    p_inv.add_argument("--special", default=None,
                       choices=("auto", "thm31", "cor3", "cor4", "cor5"),
                       help="route --at evaluation through a specialised formula")

    p_ver = subs.add_parser("verify", help="criterion vs oracle, composition laws, symbolic check")
    _family_args(p_ver)
    p_ver.add_argument("--oracle-cap", type=int, default=None,
                       help="override the exhaustive-check cap")
    group = p_ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--a", default=None)
    group.add_argument("--all-a", action="store_true")

    p_sur = subs.add_parser("survey", help="CSV sweep over all parameter spaces up to an order bound")
    p_sur.add_argument("--max-order", type=int, required=True)
    p_sur.add_argument("--out", required=True, help="output CSV path")
    p_sur.add_argument("--oracle-cap", type=int, default=None)

    return parser


def _build_params(args) -> tuple[Field, PPParams]:
    field = Field.from_descriptor(args.field)
    return field, PPParams(field, args.m, args.s, args.t)


def cmd_check(args) -> int:
    field, params = _build_params(args)
    a = _parse_element(field, args.a, args.coeffs)
    crit = params.criterion_power(a)
    is_pp = crit != field.one
    _emit(
        {
            "is_pp": is_pp,
            "d": params.d,
            "s_bar": params.s_bar,
            "u": params.u,
            "criterion_value": crit.index,
        },
        args.format,
    )
    return 0 if is_pp else 1


def cmd_invert(args) -> int:
    field, params = _build_params(args)
    a = _parse_element(field, args.a, args.coeffs)
    form = None
    if args.special is not None:  # a malformed request exits 2 whatever the verdict on a
        forms = special.applicable_forms(field, params.m, params.s, params.t)
        form = (forms[0] if forms else None) if args.special == "auto" else args.special
        if form and form not in forms:
            print(f"error: specialised form {form} not applicable to (m, s, t) = "
                  f"({params.m}, {params.s}, {params.t}) over GF({field.descriptor()})", file=sys.stderr)
            return 2
    if not params.is_permutation(a):
        _emit({"is_pp": False}, args.format)
        return 1
    if args.at is None and not args.symbolic:
        print("error: nothing to do; pass --at and/or --symbolic", file=sys.stderr)
        return 2
    report: dict = {"is_pp": True}
    if args.special is not None:
        report["special_form"] = form or "general"
    if args.at is not None:
        y = _parse_element(field, args.at, args.coeffs)
        general = params.inverse_value(a, y)
        if form:
            value = special.evaluate_special(form, field, params.m, a, y)
            report["special_agrees"] = value == general
        else:
            value = general
        report["inverse_at"] = value.index
    if args.symbolic:
        report["inverse_coeffs"] = params.inverse_polynomial(a).to_text()
    _emit(report, args.format)
    return 0


def cmd_verify(args) -> int:
    field, params = _build_params(args)
    if args.all_a:
        selection = None
    else:
        selection = [_parse_element(field, args.a, args.coeffs).index]
    checks = check_family(params, selection, symbolic=True, cap=args.oracle_cap)
    for rec in checks:
        _emit(
            {
                "a": rec.a,
                "is_pp_criterion": rec.criterion,
                "is_pp_oracle": rec.bijective,
                "inverse_ok": rec.inverse_ok,
                "symbolic_ok": rec.symbolic_ok,
            },
            args.format,
        )
    pp_count = sum(rec.criterion for rec in checks)
    mismatches = sum(rec.mismatch for rec in checks)
    _emit({"total": len(checks), "pp_count": pp_count, "mismatches": mismatches}, args.format)
    return 0 if mismatches == 0 else 1


def cmd_survey(args) -> int:
    if args.max_order < 2:
        print(f"error: no field has order <= {args.max_order}", file=sys.stderr)
        return 2
    rows = write_survey_csv(args.out, args.max_order, cap=args.oracle_cap)
    print(f"wrote {rows} rows to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "check": cmd_check,
        "invert": cmd_invert,
        "verify": cmd_verify,
        "survey": cmd_survey,
    }[args.command]
    try:
        return handler(args)
    except NotPermutationError as exc:
        print(f"not a permutation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
