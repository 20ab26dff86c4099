"""The command table's grammar against argparse's (``argparse_oracle``).

For every argv of the corpus the one pass of ``spinbott.cli.parse_args``
must give argparse's exit code, and for an accepted argv the same command,
flag values and caps.  The corpus holds the requests of ``test_cli``, the
README examples, the CI commands, edge cases and a seeded sample of flag
soups; each of them gives the same result under the argparse of Python
3.10, 3.11, 3.12 and 3.13, so the comparison holds on every Python the CI
runs.  (Three argvs that do not, ``-hx``, ``-h=h`` and ``bott --expr=--
--k 3``, are left out.)
"""

import random
import re
import shlex
import time
from pathlib import Path

import pytest

import argparse_oracle
from spinbott import cli
from spinbott.cli import UsageError, main, parse_args
from test_cli import COMMANDS

ROOT = Path(__file__).resolve().parents[1]

# argv and the exit code of the whole command, the same under argparse on
# Python 3.10 to 3.13
EDGES = [
    (["--help"], 0),
    (["qf"], 2),
    (["qf", "1,-1", "--max-k", "3"], 2),  # cap flags come before the command
    (["--max-k", "3", "qf", "1,-1"], 0),
    (["bott", "--expr", "L1", "--k", "-3"], 2),  # parsed; refused by bott
    (["serre-sqrt", "--lams", "-1,2", "--k", "3"], 2),  # -1,2 is no number
    (["qf", "-1"], 0),
    (["qf", "-1,2"], 2),
    (["qf", "--prime", "7", "1,1"], 2),  # a prefix of two options
    (["qf", "--primes", "2", "3", "1,1"], 2),  # --primes takes all three
    (["qf", "1,1", "--primes"], 0),
    (["verify", "--timings=1"], 2),
    (["bott", "--k=3", "--expr=L1"], 0),
    (["qf", "--", "-1,-1"], 0),
    (["qf", "1", "2"], 2),
    (["qf", "--", "1,1", "--primes", "2"], 2),
    (["qf", "1,1", "--", "--primes"], 2),
]

# more edges: parsed the same by argparse on every version, whatever the command does next
MORE_EDGES = [
    ["--", "qf", "1,1"], ["qf", "1,1", "--"], ["adams-module", "--m", "1", "--k", "2", "--"],
    ["bott", "--ex", "L1", "--k", "3"], ["qf", "-h"], ["-hh"], ["-h="], ["qf", "--he"],
    ["qf", "--primes", "2", "--", "1,1"], ["qf", "1,1", "--primes", "2", "--"],
    ["clifford-check", "--form", "1,-1", "--element", "-e1 + e2"],
    ["clifford-check", "--form", "1,-1", "--element", "-e1+e2"], ["--max-k", "3"], [],
    ["--foo", "qf", "-h"], ["qf", "1,1", "--primes", "2", "--primes", "3"],
    ["--max-k", "3", "--max-k", "40", "serre-sqrt", "--lams", "2,1", "--k", "41"],
    ["verify", "--s", "serre"], ["verify", "--su", "serre"], ["qf", "--prime-", "7", "1,1"],
    ["qf", "--out=", "1,1"], ["qf", "--", "--"], ["qf", "-", "1"], ["qf", ""],
    ["--max-k=", "qf", "1"], ["--max-k", "-3", "qf", "1"], ["--max-k", " 3", "qf", "1"],
    ["--max-k", "3_0", "qf", "1"], ["nope", "-h"], ["-h", "nope"], ["--max", "3", "qf", "1"],
    ["qf", "1", "-h", "2"], ["bott", "--k", "x", "-h"], ["bott", "-h", "--k", "x"],
    ["qf", "-h", "--prime", "7"], ["verify", "--timings", "--timings"],
    ["qf", "1,1", "--primes=2", "inf"], ["qf", "--primes", "-5", "1,1"], ["qf", "--primes", "1,1"],
    ["qf", "1,1", "--out"], ["bott", "--mode", "Sphere", "--k", "3"], ["--max-k", "3.0", "qf", "1"],
    ["qf", "-1.5"], ["qf", "-.5"], ["qf", "-1e3"], ["qf", "-- -1"], ["qf", "--=1"], ["qf", "---"],
    ["-", "qf"], ["--max-k", "-h"], ["qf", "--primes", "-h"], ["qf", "1,1", "--", "--"],
    ["qf", "--", "1,1", "--"], ["--", "--", "qf", "1"],
]


def _commands_in(path: Path, pattern: str) -> list:
    return [shlex.split(line, comments=True)
            for line in re.findall(pattern, path.read_text(), re.M)]


def _readme() -> list:
    return _commands_in(ROOT / "README.md", r"^spinbott (.+)$")


def _ci() -> list:
    return _commands_in(ROOT / ".github" / "workflows" / "tests.yml",
                        r"\bspinbott ([^|>]+?)\s*(?:$|[|>])")


VALUES = ("1", "-1", "-1.5", "-1,2", "1,-1", "2,1", "L1", "-e1 + e2", "inf", "x", "")
NUMBERS = ("3", "-1", "0", " 2", "3_0", "x")
NOISE = ["--", "-", "-h", "--help", "-hh", "--bogus", "--max-k", "--=1", "---", " 3", "nope"]


def _flag_soups(count=2000, seed=23) -> list:
    """Seeded argvs built from the table's own flags: whole names, unique
    and shared prefixes, '=' values, values that start with a dash, noise."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        name = rng.choice(sorted(cli.COMMANDS))
        flags = cli.COMMANDS[name].flags + (cli.OUT,)
        argv = [rng.choice(["--max-k", "--max-dim=9", "--max-tensor"]), str(rng.randint(-1, 40))] \
            if rng.random() < 0.3 else []
        argv.append(name)
        chosen = [f for f in flags if f.required and rng.random() < 0.8]
        chosen += rng.choices(flags, k=rng.randint(0, 3))
        rng.shuffle(chosen)
        for flag in chosen:
            form = rng.random()
            value = rng.choice(flag.choices + ("x",) if flag.choices
                               else NUMBERS if flag.type is int else VALUES)
            option = "--" + flag.name.replace("_", "-")
            if rng.random() < 0.2:
                option = option[:rng.randint(3, len(option))]
            argv += ([value] if flag.shape == "positional" else [option] if form < 0.1
                     else [f"{option}={value}"] if form < 0.3 else [option, value])
        for _ in range(rng.choice([0, 0, 1])):
            argv.insert(rng.randint(0, len(argv)), rng.choice(NOISE))
        out.append(argv)
    return out


def corpus() -> list:
    return (list(COMMANDS.values()) + _readme() + _ci() + [argv for argv, _ in EDGES]
            + MORE_EDGES + _flag_soups())


def _table(argv) -> tuple:
    try:
        args = parse_args(argv)
    except UsageError:
        return 2, None
    return 0, (None if isinstance(args, str) else vars(args))


def test_the_corpus_reaches_every_command_and_the_files_it_reads():
    found = corpus()
    assert len(_readme()) >= 12 and len(_ci()) >= 17
    assert {argv[0] for argv in _ci() if argv} >= {"verify", "bott", "qf", "adams-module"}
    accepted = [argv for argv in found if argparse_oracle.parse(argv)[1] is not None]
    assert len(accepted) > 500
    assert {cli.parse_args(argv).command for argv in accepted} == set(cli.COMMANDS)


def test_the_table_parses_every_argv_as_argparse_does():
    wrong = [(argv, argparse_oracle.parse(argv), _table(argv)) for argv in corpus()
             if argparse_oracle.parse(argv) != _table(argv)]
    assert wrong == []


@pytest.mark.parametrize("argv, code", EDGES, ids=[" ".join(a) or "-" for a, _ in EDGES])
def test_edge_exit_codes(capsys, argv, code):
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [["qf"], ["nope"], [], ["qf", "1", "2"], ["verify", "--s", "x"],
                                  ["bott", "--k"], ["--max-k", "x", "qf", "1"],
                                  ["verify", "--suite", "nope"], ["verify", "--timings=1"]])
def test_a_usage_error_is_one_error_line_and_exit_2(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_every_command_prints_its_help_from_the_table(capsys, name):
    for flag in ("-h", "--help"):
        assert main([name, flag]) == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: spinbott {name} ") and err == ""
        for entry in cli.COMMANDS[name].flags + (cli.OUT,):
            shown = entry.name.upper() if entry.shape == "positional" else \
                "--" + entry.name.replace("_", "-")
            assert shown in out and entry.help in out


def test_a_long_argv_is_read_in_time_linear_in_its_length():
    # argparse reads 20,000 places after --primes in about 0.03 s; the table's
    # pass must not scan what it has read for every token
    argv = ["qf", "1,1", "--primes", *map(str, range(3, 40003, 2)), "--prime-bound", "7"]
    start = time.perf_counter()
    args = parse_args(argv)
    assert time.perf_counter() - start < 1
    assert len(args.primes) == 20000 and args.prime_bound == 7
    assert argparse_oracle.parse(argv) == _table(argv)
