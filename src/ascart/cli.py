"""Command line front end.

    ascart info    SPEC [--json]
    ascart matrix  SPEC [--json] [--pipeline rational|local|both]
    ascart anumber SPEC [--json] [--method rank|formula|both]
                   [--pipeline rational|local]
    ascart verify  SPEC [--json] [--pipeline rational|local]
    ascart zeta    SPEC [--json]
    ascart oracle  SPEC [--json]
    ascart sweep   --p P --orders d0,d1,... [--field-degree K]
                   [--samples N] [--seed S] [--json] [--csv PATH]

Exit codes are a stable contract for CI: 0 success / verified, 1 a
mathematical mismatch (verification failed, pipelines disagree, sweep not
constant), 2 invalid input of any kind, 3 an internal error (a bug in
ascart, never a property of the input).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from contextlib import nullcontext

from .cartier import PIPELINES, cartier_matrix
from .curve import CurveSpec
from .errors import (
    AscartError,
    ConditionNotSatisfied,
    FieldTooLarge,
    InconsistentCounts,
    InvalidInput,
    NotInSpan,
    NotShrinkable,
)
from .invariants import a_number, theorem_a_value
from .specfile import decimal_int, parse_spec
from .sweep import SweepConfig, run_sweep
from .zeta import compare_polygons, hodge_polygon, l_polynomial, newton_polygon


def _print_json(data) -> None:
    print(json.dumps(data, indent=2))


def cmd_info(args) -> int:
    try:
        spec = parse_spec(args.spec)
    except (AscartError, OSError) as exc:
        if args.json:
            _print_json({"valid": False, "error": str(exc)})
            return 2
        if isinstance(exc, (FieldTooLarge, OSError)):
            raise  # unreadable or oversized, not invalid: main reports it on stderr
        print(f"invalid curve: {exc}")
        return 2
    inv = spec.invariants
    if args.json:
        _print_json({"valid": True, "p": spec.p, **inv.to_json()})
        return 0
    print(f"curve: y^{spec.p} - y = f(x) over {spec.field!r}")
    print(f"pole orders: {','.join(str(d) for d in inv.orders)} (infinity first)")
    print(f"m = {inv.m}   D = {inv.D}   L = {inv.L}")
    print(f"genus g = {inv.g}")
    print(f"p-rank s = {inv.s}")
    if inv.theorem_applicable:
        print(f"p = 1 mod L: yes   gamma = {','.join(str(x) for x in inv.gamma)}")
        print(f"a-number (pole-order formula) = {theorem_a_value(spec.p, inv.orders)}")
    else:
        print("p = 1 mod L: no (a-number formula not applicable)")
    return 0


def _matrix_for(spec: CurveSpec, pipeline: str):
    if pipeline == "both":
        m_rat = cartier_matrix(spec, "rational")
        m_loc = cartier_matrix(spec, "local")
        return m_rat, m_rat == m_loc
    return cartier_matrix(spec, pipeline), True


def cmd_matrix(args) -> int:
    spec = parse_spec(args.spec)
    M, agree = _matrix_for(spec, args.pipeline)
    if args.json:
        data = M.to_json()
        if args.pipeline == "both":
            data["pipelines_agree"] = agree
        _print_json(data)
    else:
        print(f"basis ({M.dimension} forms, ordered):")
        for i, form in enumerate(M.basis):
            print(f"  {i}: {form.label()}")
        print("matrix (rows x columns):")
        for row in M.entries:
            print("  [" + " ".join(repr(c) for c in row) + "]")
        if args.pipeline == "both":
            print(f"pipelines agree: {agree}")
    return 0 if agree else 1


def cmd_anumber(args) -> int:
    spec = parse_spec(args.spec)
    inv = spec.invariants
    if args.method == "formula":
        value = theorem_a_value(spec.p, inv.orders)  # ConditionNotSatisfied -> 2
        if args.json:
            _print_json({"genus": inv.g, "a_formula": value})
        else:
            print(f"g = {inv.g}")
            print(f"a (pole-order formula) = {value}")
        return 0
    report = a_number(spec, pipeline=args.pipeline)
    if args.json:
        if args.method == "rank":
            _print_json({"genus": report.g, "rank": report.rank, "a_rank": report.a_rank})
            return 0
        _print_json(report.to_json())
    else:
        print(f"g = {report.g}")
        print(f"rank(M) = {report.rank}")
        print(f"a (corank) = {report.a_rank}")
        if args.method == "rank":
            return 0
        if report.a_formula is not None:
            print(f"a (pole-order formula) = {report.a_formula}")
            print(f"match: {report.match}")
        else:
            print("pole-order formula: not applicable (p != 1 mod L)")
    if report.match is False:
        return 1
    return 0


def cmd_verify(args) -> int:
    spec = parse_spec(args.spec)
    inv = spec.invariants
    if not inv.theorem_applicable:
        raise ConditionNotSatisfied(
            f"p = {spec.p} is not 1 mod L = {inv.L}; nothing to verify"
        )
    report = a_number(spec, pipeline=args.pipeline)
    if args.json:
        _print_json(report.to_json())
    else:
        print(
            f"g = {report.g}  rank = {report.rank}  a = {report.a_rank}  "
            f"formula = {report.a_formula}"
        )
        print("VERIFIED" if report.match else "MISMATCH")
    return 0 if report.match else 1


def cmd_zeta(args) -> int:
    spec = parse_spec(args.spec)
    inv = spec.invariants
    L = l_polynomial(spec)
    np_ = newton_polygon(L, spec.field.order)
    hp = hodge_polygon(inv.orders)
    comparison = compare_polygons(np_, hp, spec.p)
    counts = L.predicted_counts(inv.g)
    if args.json:
        _print_json(
            {
                "counts": counts,
                "l": list(L.coeffs),
                "newton": np_.to_json(),
                "hodge": hp.to_json(),
                "comparison": comparison,
            }
        )
    else:
        print(f"counts N_1..N_{inv.g}: {counts}")
        print(f"L(u) coefficients: {list(L.coeffs)}")
        print(f"newton slopes: {_render_slopes(np_)}")
        print(f"hodge slopes: {_render_slopes(hp)}")
        print(f"comparison (newton shrunk by p-1 vs hodge): {comparison}")
    return 0


def _render_slopes(poly) -> str:
    return " ".join(f"{s}x{m}" for s, m in poly.slopes) or "(empty)"


def cmd_oracle(args) -> int:
    _, agree = _matrix_for(parse_spec(args.spec), "both")
    if args.json:
        _print_json({"pipelines_agree": agree})
    else:
        print(f"pipelines agree: {agree}")
    return 0 if agree else 1


def cmd_sweep(args) -> int:
    try:
        orders = tuple(decimal_int(d) for d in args.orders.split(","))
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None
    config = SweepConfig(
        p=args.p,
        field_degree=args.field_degree,
        orders=orders,
        samples=args.samples,
        seed=args.seed,
    )
    # an unwritable path is invalid input, refused before the first sample
    with open(args.csv, "w", encoding="utf-8") if args.csv else nullcontext() as fh:
        report = run_sweep(config)
        sys.stdout.write(report.render_json() if args.json else report.render())
        if fh is not None:
            fh.write("\n".join(report.csv_lines()) + "\n")
    if report.passed is False:
        return 1
    return 0


def _int_argument(text: str) -> int:
    """decimal_int(text), refused in argparse's words for type=int."""
    try:
        return decimal_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ascart",
        description=(
            "Exact Cartier-Manin matrices, a-numbers, p-ranks and zeta data "
            "of Artin-Schreier curves y^p - y = f(x)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_command(name, func, help_text, pipelines=(), method=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("spec", help="curve-spec file")
        sp.add_argument("--json", action="store_true", help="machine output")
        if pipelines:
            sp.add_argument("--pipeline", choices=pipelines, default="local")
        if method:
            sp.add_argument(
                "--method", choices=["rank", "formula", "both"], default="both"
            )
        sp.set_defaults(func=func)
        return sp

    add_spec_command("info", cmd_info, "validate and print curve invariants")
    add_spec_command(
        "matrix", cmd_matrix, "print the Cartier matrix", pipelines=(*PIPELINES, "both")
    )
    add_spec_command(
        "anumber", cmd_anumber, "a-number by rank and by formula",
        pipelines=PIPELINES, method=True,
    )
    add_spec_command(
        "verify", cmd_verify, "check rank-based a-number against the formula",
        pipelines=PIPELINES,
    )
    add_spec_command("zeta", cmd_zeta, "point counts, L-polynomial, polygons")
    add_spec_command("oracle", cmd_oracle, "compare the two matrix pipelines")

    sw = sub.add_parser("sweep", help="randomized constancy sweep at fixed orders")
    sw.add_argument("--p", type=_int_argument, required=True, help="characteristic")
    sw.add_argument("--orders", required=True, help="pole orders d0,d1,...")
    sw.add_argument("--field-degree", type=_int_argument, default=1)
    sw.add_argument("--samples", type=_int_argument, default=100)
    sw.add_argument("--seed", type=_int_argument, default=0)
    sw.add_argument("--json", action="store_true")
    sw.add_argument("--csv", help="also write the sample table to this file")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotInSpan, InconsistentCounts, NotShrinkable) as exc:
        # The CLI reaches InconsistentCounts only through l_polynomial, whose
        # counts come from a genuine curve, and NotShrinkable only through
        # the Newton polygon of a genuine L(u), a norm from Q(zeta_p) whose
        # slope multiplicities are all divisible by p - 1; like NotInSpan,
        # each can only mean a bug.
        bug = exc
    except (AscartError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an unreachable assertion or any other bug
        traceback.print_exc()
        bug = exc
    print(f"internal error ({type(bug).__name__}): {bug}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
