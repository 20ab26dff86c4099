"""Command-line front end: invariants, Bott classes, and verification reports.

All machine output is JSON (exact values as strings); human-readable
summaries derive from it.  Exit codes: 0 all good, 1 verification
failure, 2 usage or parse error or an exceeded size cap.  The four cap
flags hold for everything the command computes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, fields
from fractions import Fraction

from .clifford import clifford_group_test, parse_element, spin_lift
from .config import Caps, FailedCheckError, caps_scope
from .lambda_bott import (LambdaVector, bott_cyclotomic, bott_lines, bott_virtual,
                          line_to_lambda, parse_line_expr, serre_sqrt, sphere_formula)
from .modules import adams_module_report
from .quadforms import bw_class, hasse_witt, is_orientable, parse_form, INF
from .verify import run_suite, SUITES


class UsageError(ValueError):
    pass


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# Each command returns its JSON payload and its exit code.

def cmd_qf(args):
    q = parse_form(args.diag)
    orientable, witness = is_orientable(q)
    bound = args.prime_bound
    triple = bw_class(q, bound)
    payload = {
        "rank": q.rank,
        "disc": triple.disc_class,
        "hasse_minus": list(triple.hasse_minus),
        "orientable": orientable,
        "bw": asdict(triple),
    }
    if witness is not None:
        payload["orientation_witness"] = str(witness)
    if args.primes:
        payload["hasse"] = {str(p): hasse_witt(q, p if p == INF else int(p))
                            for p in args.primes}
    return payload, 0


def cmd_bott(args):
    if args.mode == "sphere":
        if args.r is None:
            raise UsageError("mode=sphere needs --r")
        coeff = sphere_formula(args.r, args.k)
        return {"coefficient": str(coeff), "r": args.r, "k": args.k,
                "ring": f"Q[x1..x{args.r}]/(xi^2)", "sign_ambiguous": False}, 0
    if args.expr is None:
        raise UsageError(f"mode={args.mode} needs --expr")
    expr = parse_line_expr(args.expr)
    if args.mode == "cyclotomic":
        value = bott_cyclotomic(line_to_lambda(expr), args.k)
        return {"value": str(value), "ring": "descended from the cyclotomic extension",
                "sign_ambiguous": False}, 0
    if expr.is_effective():
        return {"value": str(bott_lines(expr, args.k)), "ring": "line expressions",
                "sign_ambiguous": False}, 0
    value = bott_virtual(expr, args.k)
    return {"value": str(value), "ring": f"Q[x1..x{value.nvars}]/(xi^2)",
            "sign_ambiguous": False, "routed": "virtual"}, 0


def cmd_serre_sqrt(args):
    lams = tuple(Fraction(p.strip()) for p in args.lams.split(","))
    v = LambdaVector(len(lams), lams)
    root = serre_sqrt(v, args.k)
    square = bott_cyclotomic(v, args.k)
    return {
        "value": str(root.value),
        "squares_to": str(square),
        "square_checks": root.value ** 2 == square,
        "ring": "rational",
        "sign_ambiguous": root.sign_ambiguous,
    }, 0


def cmd_clifford_check(args):
    q = parse_form(args.form)
    a = parse_element(args.element, q)
    res = clifford_group_test(a)
    payload = {"member": res.member}
    if res.member:
        payload.update({
            "degree": res.degree,
            "norm": str(res.norm),
            "in_spin": res.in_spin,
            "matrix": [[str(x) for x in row] for row in res.rows()],
        })
    else:
        payload["reason"] = res.reason
    return payload, 0


def cmd_spin_lift(args):
    q = parse_form(args.form)
    lift = spin_lift(q, args.copies)
    return {
        "form": args.form,
        "copies": args.copies,
        "lambda_sign": str(lift.lambda_sign),
        "squares_ok": lift.squares_ok,
        "braid_ok": lift.braid_ok,
        "commutation_ok": lift.commutation_ok,
        "matrices_ok": lift.matrices_ok,
        "norms": [str(n) for n in lift.norms],
        "in_spin": lift.in_spin,
    }, 0 if lift.all_ok else 1


def cmd_adams_module(args):
    payload = adams_module_report(args.m, args.k)
    return payload, 0 if payload["rho_k"] == payload["expected"] else 1


def cmd_verify(args):
    report = run_suite(args.suite, seed=args.seed, timings=args.timings)
    return report.to_json(), 0 if report.all_pass else 1


@functools.cache  # built on the first call, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbott",
        description="Exact Clifford-algebra, quadratic-form and Bott-class checks.",
        allow_abbrev=False)
    for cap in fields(Caps):
        parser.add_argument("--" + cap.name.replace("_", "-"), type=int,
                            default=cap.default, help=cap.metadata["help"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qf", help="invariants of a diagonal quadratic form")
    p.add_argument("diag", help="comma-separated rationals, e.g. 1,-1,2/3")
    p.add_argument("--prime-bound", type=int, default=50)
    p.add_argument("--primes", nargs="*", help="report Hasse symbols at these places")
    p.set_defaults(func=cmd_qf)

    p = sub.add_parser("bott", help="Bott classes of line expressions")
    p.add_argument("--expr", help="line expression, e.g. 'L1 + 2*L2^-1'")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("lines", "cyclotomic", "sphere"), default="lines")
    p.add_argument("--r", type=int, help="sphere parameter (mode=sphere)")
    p.set_defaults(func=cmd_bott)

    p = sub.add_parser("serre-sqrt", help="square root of the Bott class")
    p.add_argument("--lams", required=True, help="lambda vector, e.g. '2,1'")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_serre_sqrt)

    p = sub.add_parser("clifford-check", help="Clifford group membership")
    p.add_argument("--form", required=True)
    p.add_argument("--element", required=True, help="e.g. '1 + 2*e1e2'")
    p.set_defaults(func=cmd_clifford_check)

    p = sub.add_parser("spin-lift", help="lift adjacent swaps to even square-one elements")
    p.add_argument("--form", required=True)
    p.add_argument("--copies", type=int, required=True)
    p.set_defaults(func=cmd_spin_lift)

    p = sub.add_parser("adams-module", help="module-level Adams operations and Bott class")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_adams_module)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock time (report no longer byte-reproducible)")
    p.set_defaults(func=cmd_verify)
    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help, or a usage error argparse reported
            code = 2 if exc.code not in (0, None) else 0
        else:
            with caps_scope(Caps(**{cap.name: getattr(args, cap.name)
                                    for cap in fields(Caps)})):
                payload, code = args.func(args)
            _emit(payload, args.out)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at /dev/null so the flush at exit
        # cannot fail again, and exit as a process ended by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except FailedCheckError as exc:  # a failed check, not a usage error
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, ArithmeticError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
