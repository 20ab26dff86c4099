"""The argparse parser of the command line, kept as the reference for its grammar.

``spinbott.cli`` reads argv in one pass over its command table and imports
no argparse.  ``build_parser`` below is the argparse parser it replaced,
kept verbatim, so the grammar the table accepts can be checked against
argparse's on a corpus of argvs: the same exit code, and for an accepted
argv the same command, flag values and caps.  It lives only here, as the
dense oracles of ``dense_*.py`` do.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io

from spinbott.cli import (cmd_adams_module, cmd_bott, cmd_clifford_check, cmd_qf,
                          cmd_serre_sqrt, cmd_spin_lift, cmd_verify)
from spinbott.config import CAP_TABLE
from spinbott.verify import SUITES


@functools.cache  # built on the first call, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbott",
        description="Exact Clifford-algebra, quadratic-form and Bott-class checks.",
        allow_abbrev=False)
    for name, default, help in CAP_TABLE:
        parser.add_argument("--" + name.replace("_", "-"), type=int,
                            default=default, help=help)
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


def parse(argv) -> tuple:
    """(exit code, the parsed values or None) of argparse on argv; what it
    prints, help or an error, is discarded.  Exit 0 with None is a help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return 0, vars(build_parser().parse_args(list(argv)))
        except SystemExit as exc:
            return (2 if exc.code not in (0, None) else 0), None
