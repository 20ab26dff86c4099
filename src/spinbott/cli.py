"""Command-line front end: invariants, Bott classes, and verification reports.

All machine output is JSON (exact values as strings); human-readable
summaries derive from it.  Exit codes: 0 all good, 1 verification
failure, 2 usage or parse error or an exceeded size cap.  The cap flags
hold for everything the command computes.

The grammar is argparse's, read in one pass over one table (``COMMANDS``):
cap flags come before the command; ``--name value`` and ``--name=value``
both work, and after the command so does a unique prefix of a flag; ``--``
ends the flags; a token that starts with ``-`` is a value only when it is a
negative number or holds a space; a repeated flag keeps its last value; and
``-h``/``--help`` prints the usage of spinbott, or of the command it follows.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from .clifford import clifford_group_test, parse_element, spin_lift
from .config import CAP_TABLE, Caps, FailedCheckError, caps_scope
from .lambda_bott import (LambdaVector, _check_line_budget, bott_cyclotomic, bott_lines,
                          bott_virtual, line_to_lambda, parse_line_expr, serre_sqrt,
                          sphere_formula)
from .modules import adams_module_report
from .quadforms import bw_class, hasse_witt, is_orientable, parse_form, INF
from .verify import run_suite, SUITES


class UsageError(ValueError):
    pass


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
                fh.write("\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
        sys.stdout.write("\n")


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
        "bw": triple._asdict(),
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
        # the class is the line expansion, refused as line mode refuses it
        _check_line_budget(expr._multiplicities(), args.k)
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
        "value": str(root),
        "squares_to": str(square),
        "square_checks": root ** 2 == square,
        "ring": "rational",
        "sign_ambiguous": False,
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


# -- the command table and the one pass over argv -----------------------------

# A flag is a bare value (shape "positional") or the option --name, which
# takes one value ("value", or "choice" of choices), the values up to the next
# option ("list") or none ("switch", which sets True); type is int or str.
Flag = namedtuple("Flag", "name shape type default required help choices",
                  defaults=("value", str, None, False, "", ()))
Command = namedtuple("Command", "func help flags")
CAP_FLAGS = tuple(Flag(name, type=int, default=default, help=help)
                  for name, default, help in CAP_TABLE)
HELP = Flag("help", "switch", help="print this help and exit")
OUT = Flag("out", help="write the JSON to this file instead of stdout")
COMMANDS = {
    "qf": Command(cmd_qf, "invariants of a diagonal quadratic form", (
        Flag("diag", "positional", required=True,
             help="comma-separated rationals, e.g. 1,-1,2/3"),
        Flag("prime_bound", type=int, default=50),
        Flag("primes", "list", help="report Hasse symbols at these places"))),
    "bott": Command(cmd_bott, "Bott classes of line expressions", (
        Flag("expr", help="line expression, e.g. 'L1 + 2*L2^-1'"),
        Flag("k", type=int, required=True),
        Flag("mode", "choice", default="lines", choices=("lines", "cyclotomic", "sphere")),
        Flag("r", type=int, help="sphere parameter (mode=sphere)"))),
    "serre-sqrt": Command(cmd_serre_sqrt, "square root of the Bott class", (
        Flag("lams", required=True, help="lambda vector, e.g. '2,1'"),
        Flag("k", type=int, required=True))),
    "clifford-check": Command(cmd_clifford_check, "Clifford group membership", (
        Flag("form", required=True), Flag("element", required=True, help="e.g. '1 + 2*e1e2'"))),
    "spin-lift": Command(cmd_spin_lift, "lift adjacent swaps to even square-one elements", (
        Flag("form", required=True), Flag("copies", type=int, required=True))),
    "adams-module": Command(cmd_adams_module, "module-level Adams operations and Bott class", (
        Flag("m", type=int, required=True), Flag("k", type=int, required=True))),
    "verify": Command(cmd_verify, "run a verification suite", (
        Flag("suite", "choice", default="all", choices=("all",) + SUITES),
        Flag("seed", type=int, default=0),
        Flag("timings", "switch", default=False,
             help="include wall-clock time (report no longer byte-reproducible)"))),
}
_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")  # a dash token argparse reads as a value


def _option(flag: Flag) -> str:
    return "--" + flag.name.replace("_", "-")


def _shown(flag: Flag) -> str:
    option, meta = _option(flag), flag.name.upper()
    return {"positional": meta, "switch": option, "list": f"{option} [{meta} ...]",
            "choice": f"{option} {{{','.join(flag.choices)}}}"}.get(flag.shape, f"{option} {meta}")


def _help(prog: str, about: str, flags: tuple, commands: dict | None) -> str:
    """The usage text of spinbott and its commands, or of one command."""
    rows = [("-h, --help", HELP.help)] + [(_shown(f), " ".join(filter(None, [
        f.help, "(required)" if f.required else None if f.default is None or f.shape ==
        "switch" else f"(default: {f.default})"]))) for f in flags]
    rows += [(name, c.help) for name, c in (commands or {}).items()]
    return (f"usage: {prog} [FLAGS]{' COMMAND [FLAGS]' if commands else ''}\n\n{about}\n\n"
            + "".join(f"  {a}\n{'':26}{b}\n" if len(a) > 22 else f"  {a:<24}{b}\n"
                      for a, b in rows))


def _read(token: str, options: dict, prefixes: bool):
    """How argparse reads a token: None for a value, else (flag, the value
    attached with '=' or None), the flag None for an unknown option."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return options[token], None
    name, eq, attached = token.partition("=")
    if eq and name in options:
        return options[name], attached
    if token[1] != "-":
        if token[1] == "h":  # "-hh" repeats -h; any other tail is a value it refuses
            return HELP, None if token.rstrip("h") == "-" else token[2:]
    elif prefixes:  # after the command, a unique prefix names a flag
        hits = [option for option in options if option.startswith(name)]
        if len(hits) > 1:
            raise UsageError(f"ambiguous option: {name} could match {', '.join(hits)}")
        if hits:
            return options[hits[0]], attached if eq else None
    return None if _NUMBER.match(token) or " " in token else (None, None)


def _pass(tokens: list, flags: tuple, args, prog: str, about: str, commands=None):
    """Read tokens under flags into args as one argparse parser would, and
    return the help text if -h/--help comes before any error.  At the top
    (given the commands) the first value names the command, and the tokens
    after it are read under that command's flags."""
    options = {"-h": HELP, "--help": HELP}
    options.update((_option(f), f) for f in flags if f.shape != "positional")
    positionals = [f for f in flags if f.shape == "positional"]
    reads, given, extras, i, n = [], set(), [], 0, len(tokens)
    ended = False  # after --, every token is a value
    for token in tokens:  # every token first: a bad prefix fails before any help
        reads.append(None if ended else "--" if token == "--"
                     else _read(token, options, commands is None))
        ended = ended or token == "--"
    for f in flags:
        setattr(args, f.name, f.default)
    while i < n:
        if reads[i] is None or reads[i] == "--":
            if commands is not None:
                if tokens[i] not in commands:
                    raise UsageError(f"invalid command {tokens[i]!r} "
                                     f"(choose from {', '.join(commands)})")
                args.command, args.func = tokens[i], commands[tokens[i]].func
                shown = _pass(tokens[i + 1:], commands[tokens[i]].flags + (OUT,), args,
                              f"{prog} {tokens[i]}", commands[tokens[i]].help)
                if shown is None and extras:
                    raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
                return shown
            j = i + (reads[i] == "--")  # a positional takes a value, and a -- around it
            if positionals and j < n and reads[j] is None:
                flag = positionals.pop(0)
                setattr(args, flag.name, tokens[j])
                given.add(flag.name)
                i = j + 1 + (j + 1 < n and reads[j + 1] == "--")
            else:
                extras.append(tokens[i])
                i += 1
            continue
        flag, value = reads[i]
        i += 1
        if flag is None:
            extras.append(tokens[i - 1])
            continue
        if flag.shape == "switch":
            if value is not None:
                raise UsageError(f"{_option(flag)} takes no value")
            if flag is HELP:
                return _help(prog, about, flags, commands)
            value = True
        elif value is not None:
            value = [value] if flag.shape == "list" else value
        else:
            end = next((j for j in range(i, n) if reads[j] is not None), n)  # past the values
            if flag.shape == "list":
                value, i = tokens[i:end], end
            elif end == i:
                raise UsageError(f"{_option(flag)} expects one value")
            else:
                value, i = tokens[i], i + 1
        try:
            value = int(value) if flag.type is int else value
        except ValueError:
            raise UsageError(f"{_option(flag)}: invalid int value {value!r}") from None
        if flag.choices and value not in flag.choices:
            raise UsageError(f"{_option(flag)}: invalid choice {value!r}")
        setattr(args, flag.name, value)
        given.add(flag.name)
    missing = [_shown(f) for f in flags if f.required and f.name not in given]
    if missing or commands is not None:
        raise UsageError(f"{prog} needs {', '.join(missing or ['a command'])}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return None


def parse_args(argv):
    """The values the command's handler reads from argv (``command``,
    ``func``, the caps and the command's flags), or the help text when
    -h/--help comes before any error.  A usage error raises UsageError."""
    args = SimpleNamespace()
    shown = _pass(list(argv), CAP_FLAGS, args, "spinbott",
                  "Exact Clifford-algebra, quadratic-form and Bott-class checks.", COMMANDS)
    return args if shown is None else shown


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # -h/--help: the usage text is the output
            sys.stdout.write(args)
            code = 0
        else:
            with caps_scope(Caps._make(getattr(args, name) for name in Caps._fields)):
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
