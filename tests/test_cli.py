"""Command-line surface: JSON payloads, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from spinbott.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_qf_hyperbolic(capsys):
    code, payload = run(capsys, "qf", "1,-1")
    assert code == 0
    assert payload["rank"] == 2
    assert payload["disc"] == -1
    assert payload["hasse_minus"] == []
    assert payload["orientable"] is True
    assert payload["bw"] == {"rank_parity": 0, "disc_class": -1, "hasse_minus": []}


def test_qf_rank_one(capsys):
    code, payload = run(capsys, "qf", "1")
    assert code == 0
    assert payload["rank"] == 1 and payload["orientable"] is False


def test_qf_negative_plane(capsys):
    # leading-dash forms need the usual end-of-options marker
    code, payload = run(capsys, "qf", "--", "-1,-1")
    assert code == 0
    assert payload["hasse_minus"] == [2, "inf"]


def test_qf_prime_bound_far_above_the_support(capsys):
    # only the support primes, 2 and the real place are evaluated
    start = time.perf_counter()
    code, payload = run(capsys, "qf", "1,1", "--prime-bound", "5000000")
    assert time.perf_counter() - start < 5
    assert code == 0 and payload["hasse_minus"] == []


def test_qf_hasse_symbol_at_a_large_prime_place(capsys):
    # primality of a place is decided by deterministic Miller-Rabin rounds
    start = time.perf_counter()
    code, payload = run(capsys, "qf", "1,1", "--primes", "1000000000000000003")
    assert time.perf_counter() - start < 5
    assert code == 0 and payload["hasse"] == {"1000000000000000003": 1}


def test_qf_place_beyond_the_primality_bound_is_refused(capsys):
    assert main(["qf", "1,1", "--primes", str(2 ** 89 - 1)]) == 2
    assert "primality bound" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["1", "1,1"])
def test_qf_place_that_is_not_prime_is_refused_at_every_rank(capsys, form):
    # bug: a rank-1 form takes no Hilbert symbol, so its place went unchecked
    # and "qf 1 --primes 4" printed a Hasse-Witt invariant at 4
    assert main(["qf", form, "--primes", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "4 is neither a prime nor 'inf'" in err


def test_qf_prime_bound_missing_a_support_prime_is_refused(capsys):
    assert main(["qf", "--prime-bound", "5", "1,13"]) == 2
    assert "prime_bound 5 misses primes [13]" in capsys.readouterr().err


def test_qf_parse_error(capsys):
    assert main(["qf", "zork,,"]) == 2


def test_bott_lines(capsys):
    code, payload = run(capsys, "bott", "--expr", "L1", "--k", "3", "--mode", "lines")
    assert code == 0
    assert payload["value"] == "1 + L1 + L1^2"


def test_bott_cyclotomic_mode_agrees_with_lines_at_the_order_cap(capsys):
    # k = 32 is the max_k cap: the cyclotomic product and its descent there
    values = []
    for mode in ("cyclotomic", "lines"):
        code, payload = run(capsys, "bott", "--expr", "2*L1", "--k", "32", "--mode", mode)
        assert code == 0
        values.append(payload["value"])
    assert values[0] == values[1]


def test_bott_sphere(capsys):
    code, payload = run(capsys, "bott", "--mode", "sphere", "--r", "2", "--k", "3")
    assert code == 0
    assert payload["coefficient"] == "5/9"


def test_bott_virtual_routing(capsys):
    code, payload = run(capsys, "bott", "--expr", "L1 - 1", "--k", "2", "--mode", "lines")
    assert code == 0
    assert payload["routed"] == "virtual"
    assert payload["value"] == "1 + 1/2*x1"


def test_bott_missing_r(capsys):
    assert main(["bott", "--mode", "sphere", "--k", "3"]) == 2


@pytest.mark.parametrize("mode", ["lines", "cyclotomic"])
def test_bott_missing_expr(capsys, mode):
    assert main(["bott", "--mode", mode, "--k", "3"]) == 2
    assert capsys.readouterr().err == f"error: mode={mode} needs --expr\n"


# one request per command: every command writes through the same --out path
COMMANDS = {
    "qf": ["qf", "1,-1,2", "--primes", "2", "inf"],
    "bott": ["bott", "--expr", "L1 - 1 + 2*L2^-1", "--k", "3"],
    "serre-sqrt": ["serre-sqrt", "--lams", "2,1", "--k", "3"],
    "clifford-check": ["clifford-check", "--form", "1,-1", "--element", "e1e2"],
    "spin-lift": ["spin-lift", "--form", "1,-1", "--copies", "3"],
    "adams-module": ["adams-module", "--m", "1", "--k", "2"],
    "verify": ["verify", "--suite", "serre"],
}


def test_every_command_has_a_request():
    from spinbott import cli
    assert sorted(cli.COMMANDS) == sorted(COMMANDS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, command):
    out = tmp_path / "missing" / "r.json"
    assert main(COMMANDS[command] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out ")
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_out_file_holds_the_bytes_of_stdout(capsys, tmp_path, command):
    code = main(COMMANDS[command])
    captured = capsys.readouterr()
    out = tmp_path / "r.json"
    assert main(COMMANDS[command] + ["--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == captured.out.encode()
    assert captured.out.endswith("}\n") and captured.err == ""


def test_every_cap_is_a_flag_with_its_default_and_help(capsys):
    from spinbott.cli import CAP_FLAGS, parse_args
    from spinbott.config import CAP_TABLE, Caps
    assert main(["--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert [flag.name for flag in CAP_FLAGS] == [name for name, _, _ in CAP_TABLE]
    assert list(Caps._fields) == [name for name, _, _ in CAP_TABLE]
    for (name, default, help), flag in zip(CAP_TABLE, CAP_FLAGS):
        option = "--" + name.replace("_", "-")
        assert flag.shape == "value" and flag.default == default and flag.type is int
        assert Caps._field_defaults[name] == default
        assert getattr(parse_args(["qf", "1"]), name) == default
        assert getattr(parse_args([option, "7", "qf", "1"]), name) == 7
        assert help in help_text
        assert option in help_text


@pytest.mark.parametrize("expr, k", [
    (f"L1^{2 ** 70}", 2), (f"L2^-{2 ** 70}", 2), (f"L1^{2 ** 100}", 2),
    (f"L1^{2 ** 70 - 1}*L1", 2), (f"L1^{2 ** 70 - 1}", 3),
])
def test_line_exponent_of_two_to_the_seventy_is_refused(capsys, expr, k):
    # a packed key has room for exponents below 2^70 in magnitude; above it a
    # digit would carry into the next symbol's
    assert main(["bott", "--expr", expr, "--k", str(k)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "line exponent" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.err.endswith(" not below 2^70 in magnitude\n")


def test_line_exponent_below_two_to_the_seventy_is_kept(capsys):
    top = 2 ** 70 - 1
    code, payload = run(capsys, "bott", "--expr", f"L1^{top}*L3^-{top}", "--k", "2")
    assert code == 0 and payload["value"] == f"1 + L1^{top}*L3^-{top}"


def test_line_symbol_zero_is_refused(capsys):
    # "L0" once parsed as the constant 1, and this printed the value 3
    assert main(["bott", "--expr", "L0", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line symbols are 1-based\n"


def test_a_bott_class_whose_exponents_stay_below_two_to_the_seventy_answers(capsys):
    # its two factors each reach 2^69; a bound summed over all monomials
    # reached 2^70 and refused it
    e = 2 ** 69
    code, payload = run(capsys, "bott", "--expr", f"L1^{e}+L2^{e}", "--k", "2")
    assert code == 0
    assert payload["value"] == f"1 + L2^{e} + L1^{e} + L1^{e}*L2^{e}"


@pytest.mark.parametrize("argv, pin", [
    (["--expr", f"L1^{2 ** 68}+3*L2", "--k", "3"],
     "f6ac8c55a72142d3211686877d1120580b65e02dbafc61b379cf151ef6adf903"),
    (["--mode", "cyclotomic", "--expr", "L1000000+L3", "--k", "3"],
     "7e259651908448583fc1f9a283ecda72d7942fd2ea6535a783879be678435897"),
], ids=["wide-exponent-k3", "cyclotomic-index-million"])
def test_line_classes_near_the_exponent_and_index_limits_answer_as_before(capsys, argv, pin):
    # the sha256 of the JSON the packed keys with a summed bound printed
    assert main(["bott", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pin


def test_a_line_symbol_whose_key_exceeds_the_output_cap_is_refused_at_once(capsys):
    # its key of 9 bytes per symbol (540 MB) raised MemoryError after 1.4 s
    start = time.perf_counter()
    assert main(["bott", "--expr", "L60000000", "--k", "2"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: key of line symbol L60000000 (MB) 540 exceeds cap max_output_mb=256\n")


def test_serre_sqrt(capsys):
    code, payload = run(capsys, "serre-sqrt", "--lams", "2,1", "--k", "3")
    assert code == 0
    assert payload["value"] == "3"
    assert payload["squares_to"] == "9"
    assert payload["square_checks"] is True
    assert payload["sign_ambiguous"] is False


def test_clifford_check(capsys):
    code, payload = run(capsys, "clifford-check", "--form", "1,-1",
                        "--element", "e1e2")
    assert code == 0
    assert payload["member"] is True
    assert payload["norm"] == "-1"
    assert payload["matrix"] == [["-1", "0"], ["0", "-1"]]


def test_clifford_check_matrix_columns_are_images(capsys):
    # column c holds the image of e_(c+1): the reflection in e1 + e2 over
    # <1, 2> is not symmetric, so a transposed view reads differently
    code, payload = run(capsys, "clifford-check", "--form", "1,2", "--element", "e1 + e2")
    assert code == 0
    assert payload["matrix"] == [["1/3", "-4/3"], ["-2/3", "-1/3"]]


def test_qf_of_two_thousand_ones(capsys):
    # the Hasse-Witt product was quadratic in the rank: 2,000 ones took 26 s
    started = time.perf_counter()
    code, payload = run(capsys, "qf", ",".join(["1"] * 2000))
    assert code == 0
    assert payload["rank"] == 2000 and payload["hasse_minus"] == []
    assert time.perf_counter() - started < 10


def test_clifford_check_non_member(capsys):
    code, payload = run(capsys, "clifford-check", "--form", "1,-1",
                        "--element", "1 + e1")
    assert code == 0
    assert payload["member"] is False
    assert payload["reason"]


def test_clifford_check_refuses_a_doubled_sign(capsys):
    # "e1--e2" once parsed as e1 - e2 and was reported as a reflection
    assert main(["clifford-check", "--form=1,1", "--element=e1--e2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "empty term" in captured.err


@pytest.mark.parametrize("rank", [4, 6, 8])
def test_clifford_check_non_unit_is_not_invertible(capsys, rank):
    # 1 + e1e2 over <1,-1>^m squares to 2(1 + e1e2): a zero divisor
    form = ",".join(["1,-1"] * (rank // 2))
    code, payload = run(capsys, "clifford-check", f"--form={form}", "--element=1 + e1e2")
    assert code == 0
    assert payload == {"member": False, "reason": "not invertible"}


def test_failed_cayley_hamilton_is_a_failed_check(capsys, monkeypatch):
    from spinbott.clifford import CliffordElement
    # no product is ever a scalar: the recursion's U_N check must fail
    monkeypatch.setattr(CliffordElement, "is_scalar", lambda self: False)
    assert main(["clifford-check", "--form=1,1,1,1", "--element=2 + e1e2e3e4"]) == 1
    assert "Cayley-Hamilton" in capsys.readouterr().err


def test_failed_isometry_check_is_a_failed_check(capsys, monkeypatch):
    # bug: a conjugation that did not preserve the form raised ValueError,
    # which exits 2 as a refused input; it is a failed check and exits 1.
    # The fault: N(b) = b bar(b) read at half its value, so every image
    # b e_i bar(b) / N(b) comes out twice too long
    from spinbott.clifford import CliffordElement
    true_coefficient = CliffordElement.coefficient
    monkeypatch.setattr(CliffordElement, "coefficient",
                        lambda self, m: Fraction(true_coefficient(self, m), 2))
    assert main(["clifford-check", "--form=1,-1", "--element=e1e2"]) == 1
    assert "matrix does not preserve the form" in capsys.readouterr().err


def test_spin_lift(capsys):
    code, payload = run(capsys, "spin-lift", "--form", "1,-1", "--copies", "3")
    assert code == 0
    assert payload["squares_ok"] and payload["braid_ok"]


def test_adams_module(capsys):
    code, payload = run(capsys, "adams-module", "--m", "1", "--k", "2")
    assert code == 0
    assert payload["rho_k"] == payload["expected"] == "2"


@pytest.mark.parametrize("suite", ["symbols", "serre"])
def test_verify_deterministic(capsys, suite):
    code1 = main(["verify", "--suite", suite, "--seed", "3"])
    text1 = capsys.readouterr().out
    code2 = main(["verify", "--suite", suite, "--seed", "3"])
    text2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert text1 == text2  # byte-identical for a fixed seed


# sha256 of the full default report; any change to its bytes, from the
# values or from how they are printed, is a change of the published output
VERIFY_ALL_SEED0_SHA256 = "095e6a884acbed7e670a809b243c409351de35c11296765ea266b2d5a8ce96b8"


def test_verify_all_report_is_pinned(capsys):
    assert main(["verify", "--suite", "all", "--seed", "0"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_ALL_SEED0_SHA256


def test_verify_report_fields(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "spin-lift", "--seed", "0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == "spin-lift"
    assert payload["elapsed"] is None  # deterministic by default
    assert payload["counts"]["fail"] == 0
    ids = [c["id"] for c in payload["cases"]]
    assert ids == sorted(ids)
    assert all(c["statement"] for c in payload["cases"])


def test_verify_bad_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2


@pytest.mark.parametrize("argv, key, value", [
    (["--max-vars", "10", "bott", "--mode", "sphere", "--r", "9", "--k", "3"],
     "coefficient", "19/729"),
    (["--max-k", "64", "serre-sqrt", "--lams", "2,1", "--k", "41"], "value", "41"),
    (["--max-dim", "14", "spin-lift", "--form", "1,-1", "--copies", "7"], "braid_ok", True),
])
def test_raised_caps_hold_through_the_whole_command(capsys, argv, key, value):
    code, payload = run(capsys, *argv)
    assert code == 0
    assert payload[key] == value


@pytest.mark.parametrize("argv", [
    ["--max-vars", "1", "bott", "--mode", "sphere", "--r", "2", "--k", "3"],
    ["--max-k", "4", "serre-sqrt", "--lams", "2,1", "--k", "5"],
    ["--max-dim", "4", "spin-lift", "--form", "1,-1", "--copies", "3"],
    ["--max-dim", "2", "clifford-check", "--form", "1,-1,1", "--element", "e1"],
    ["--max-tensor", "8", "adams-module", "--m", "1", "--k", "4"],
    ["--max-output-mb", "0", "bott", "--expr", "L1", "--k", "3"],
])
def test_lowered_caps_refuse(capsys, argv):
    assert main(argv) == 2
    assert "exceeds cap" in capsys.readouterr().err


def test_caps_do_not_leak_into_the_next_call(capsys):
    assert main(["--max-k", "64", "serre-sqrt", "--lams", "2,1", "--k", "41"]) == 0
    assert main(["serre-sqrt", "--lams", "2,1", "--k", "41"]) == 2
    assert "max_k=32" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bott", "--expr", "3*L1", "--k", "33"],
    ["bott", "--expr", "L1 - 1", "--k", "33"],
    ["bott", "--mode", "sphere", "--r", "2", "--k", "33"],
    ["bott", "--mode", "cyclotomic", "--expr", "L1", "--k", "33"],
])
def test_bott_order_is_capped_in_every_mode(capsys, argv):
    assert main(argv) == 2
    assert "exceeds cap max_k=32" in capsys.readouterr().err


def test_sphere_mismatch_is_a_failed_check(capsys, monkeypatch):
    from spinbott import lambda_bott
    real = lambda_bott.sum_of_powers
    monkeypatch.setattr(lambda_bott, "sum_of_powers", lambda r, k: real(r, k) + 1)
    assert main(["bott", "--mode", "sphere", "--r", "2", "--k", "3"]) == 1
    assert "differs from closed form" in capsys.readouterr().err


def test_failed_module_identity_is_a_failed_check(capsys, monkeypatch):
    from spinbott import modules
    monkeypatch.setattr(modules, "is_end_iso", lambda module: False)
    assert main(["adams-module", "--m", "1", "--k", "2"]) == 1
    assert "structure map is not bijective" in capsys.readouterr().err


def test_failed_braid_normalization_is_a_failed_check(capsys, monkeypatch):
    from spinbott import clifford
    real = clifford.braid_normalize
    # doubling one lift leaves its braid words proportional by 2, not by a sign
    monkeypatch.setattr(clifford, "braid_normalize",
                        lambda gens: real([gens[0] * 2] + list(gens[1:])))
    assert main(["spin-lift", "--form", "1,-1", "--copies", "3"]) == 1
    assert "not proportional by a sign" in capsys.readouterr().err


@pytest.mark.parametrize("m, k", [(2, 4), (1, 5), (4, 2)])
def test_adams_module_beyond_the_dense_sizes(capsys, m, k):
    code, payload = run(capsys, "adams-module", "--m", str(m), "--k", str(k))
    assert code == 0
    assert payload["rho_k"] == payload["expected"] == str(k ** m)
    assert payload["psi_bar"] == payload["psi_char"]
    assert sum(d0 + d1 for d0, d1 in payload["eigen_dims"]) == 2 ** (m * k)


def test_clifford_check_reads_generators_in_any_order(capsys):
    # e2e1 = -e1e2, so this element is zero
    code, payload = run(capsys, "clifford-check", "--form", "1,-1", "--element", "e1e2 + e2e1")
    assert code == 0
    assert payload == {"member": False, "reason": "zero is not invertible"}


def _cli_process(argv, stdout=subprocess.PIPE, timeout=120):
    """The CLI in a fresh interpreter with buffered stdout, its stderr captured."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "spinbott.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=timeout)


# an answer is pinned by the sha256 of its JSON (the four-line one is that
# of the product by repeated squaring, and the coefficients of 1000*L1 are
# those of (1 + t + ... + t^31)^1000 by repeated convolution); a refusal
# by its estimate in MB
@pytest.mark.parametrize("expr, k, code, pin", [
    ("L1+L2+L3+L4", 32, 0, "ca8935460e467c54a8949f9b67b4f9080a93c86f8a70749a6bbc0f80e5a84702"),
    ("1000*L1", 32, 0, "3c00ec8b9fffccebe5210e14c66b6edfde4832c0e36db07907b062d345fec8e3"),
    ("L1+L2+L3+L4+L5+L6+L7+L8", 8, 2, "1729"),
    ("100000*L1", 3, 2, "3985"),
], ids=["four-lines-k32", "1000L1-k32", "eight-lines-k8", "100000L1-k3"])
def test_line_expansions_answer_or_refuse_within_seconds(expr, k, code, pin):
    # the answers are estimated at 108 and 23 MB; the refusals once died of
    # a MemoryError and stalled
    proc = _cli_process(["bott", "--expr", expr, "--k", str(k)], timeout=60)
    assert proc.returncode == code
    if code == 0:
        assert proc.stderr == b"" and hashlib.sha256(proc.stdout).hexdigest() == pin
    else:
        assert proc.stdout == b"" and proc.stderr.decode().splitlines() == [
            f"error: estimated line expansion (MB) {pin} exceeds cap max_output_mb=256"]


def test_a_line_expansion_past_the_int_printing_limit_is_refused_before_any_product(capsys):
    # 2^15000 / 15001 has more than 4,300 digits, so some coefficient of
    # (1 + L1)^15000 does: this computed for 1.2 s, then failed to print
    start = time.perf_counter()
    assert main(["bott", "--expr", "15000*L1", "--k", "2"]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "4300-digit limit" in captured.err


def test_a_line_expansion_below_the_int_printing_limit_still_answers(capsys):
    code, payload = run(capsys, "bott", "--expr", "14000*L1", "--k", "2")
    assert code == 0 and payload["value"].startswith("1 + 14000*L1 + ")


def _into_closed_pipe(argv):
    # the reader is gone before the command writes, as in `spinbott qf 1,1 | true`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _cli_process(argv, stdout=write_end)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", [["qf", "1,1"], ["verify", "--suite", "clifford"]],
                         ids=["short", "long"])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # the short payload fails at the flush, the long one at the write
    proc = _into_closed_pipe(argv)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["qf"], 2)], ids=["help", "usage"])
def test_help_and_usage_errors_keep_their_codes_and_a_closed_pipe_exits_141(argv, code):
    proc = _cli_process(argv)
    assert proc.returncode == code
    assert (b"usage: spinbott" in proc.stdout) == (code == 0)
    # the help goes to stdout, so a closed pipe ends it; a usage error writes only to stderr
    closed = _into_closed_pipe(argv)
    assert closed.returncode == (141 if code == 0 else 2)
    assert closed.stderr == (b"" if code == 0 else proc.stderr)


def test_one_process_answers_several_requests_as_fresh_processes_do():
    requests = [["qf", "1,-1"], ["qf"], ["adams-module", "--m", "1", "--k", "3"],
                ["verify", "--suite", "clifford"]]
    script = """
import contextlib, io, json, sys
from spinbott import cli
answers = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    answers.append([code, out.getvalue(), err.getvalue()])
print(json.dumps([answers, "argparse" in sys.modules]))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(requests)],
                          capture_output=True, env=env, timeout=120, check=True)
    answers, argparse_imported = json.loads(proc.stdout)
    assert not argparse_imported
    assert [code for code, _, _ in answers] == [0, 2, 0, 0]
    for argv, answer in zip(requests, answers):
        fresh = _cli_process(argv)
        assert answer == [fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()]


def test_the_cli_imports_no_dataclasses_and_the_records_keep_their_defaults():
    from spinbott.cli import CAP_FLAGS
    from spinbott.clifford import Membership
    from spinbott.config import DEFAULT_CAPS, Caps
    script = ("import sys, spinbott.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          timeout=60, check=True)
    assert proc.stdout == b"[]\n"
    assert Caps() == DEFAULT_CAPS
    assert Caps._fields == tuple(flag.name for flag in CAP_FLAGS) == (
        "max_dim", "max_tensor", "max_vars", "max_k", "max_output_mb")
    assert tuple(DEFAULT_CAPS) == (12, 4096, 8, 32, 256)
    refused = Membership(False, reason="x")
    assert (refused.member, refused.reason, refused.degree, refused.images, refused.norm,
            refused.in_spin) == (False, "x", None, None, None, False)
    assert repr(refused) == ("Membership(member=False, reason='x', degree=None, "
                             "images=None, norm=None, in_spin=False)")
