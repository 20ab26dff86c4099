"""Self-tests of the benchmark: seeded inputs, independent checks, metric lists.

Run with `python3 -m pytest perfbench` from the root of a checkout.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import tracer
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_same_seed_gives_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.requests_for(name, 7) == workloads.requests_for(name, 7)
    assert workloads.requests_for("algebra-cli", 7) != workloads.requests_for("algebra-cli", 8)


def test_fixed_count_per_kind():
    for seed in (3, 4):
        kinds = [r.kind for r in workloads.requests_for("algebra-cli", seed)]
        assert {kind: kinds.count(kind) for kind in set(kinds)} == dict(workloads.ALGEBRA_MIX)
        grid = [r.expect for r in workloads.requests_for("module-adams", seed)]
        assert sorted(grid) == sorted(workloads.ADAMS_GRID)


def test_a_round_never_repeats_a_request():
    for name in workloads.WORKLOADS:
        for seed in range(20):
            argvs = [r.argv for r in workloads.requests_for(name, seed)]
            assert len(set(argvs)) == len(argvs)


def test_spread_covers_the_grid_evenly():
    for size in (45, 77):
        picks = workloads._spread(list(range(size)), 28)
        assert len(set(picks)) == 28 and picks[0] == 0 and picks[-1] == size - 1
        step = (size - 1) / 27
        assert all(int(step) <= b - a <= int(step) + 1 for a, b in zip(picks, picks[1:]))


def test_bott_expansion_closed_form():
    # (1 + L1 + L1^2)^2 at k = 3, multiplicity 2
    got = workloads.bott_expansion({(1,): 2}, 3)
    assert got == {(): 1, (1,): 2, (2,): 3, (3,): 2, (4,): 1}
    assert workloads.parse_line_poly("1 + 2*L1 + 3*L1^2 + 2*L1^3 + L1^4") == got
    assert workloads.parse_line_poly("-1/2*L1*L2^-1 - 3") == {(1, -1): Fraction(-1, 2),
                                                             (): -3}


def _run_cli(req):
    from spinbott import cli
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(req.argv))
    return rc, out.getvalue()


def _cheap(kind):
    return next(r for r in workloads.requests_for("algebra-cli", 1) if r.kind == kind
                and (kind != "sphere" or int(r.argv[4]) <= 3)
                and (kind != "serre-sqrt" or int(r.argv[-1]) <= 9)
                and (kind != "spin-lift" or int(r.argv[-1]) <= 3)
                and (kind != "clifford-nonunit" or r.argv[1].count(",") <= 3))


WRONG = {  # kind -> how a wrong answer is made from a right payload
    "qf": lambda p: {**p, "disc": p["disc"] * 2},
    "sphere": lambda p: {**p, "coefficient": str(Fraction(p["coefficient"]) + 1)},
    "lines": lambda p: {**p, "value": p["value"] + " + L9"},
    "cyclotomic": lambda p: {**p, "value": p["value"].replace("1 + ", "2 + ", 1)},
    "serre-sqrt": lambda p: {**p, "value": str(-Fraction(p["value"]))},
    "spin-lift": lambda p: {**p, "braid_ok": False},
    "clifford-unit": lambda p: {**p, "norm": str(Fraction(p["norm"]) * 2)},
    "clifford-nonunit": lambda p: {**p, "member": True},
}


@pytest.mark.parametrize("kind", sorted(WRONG))
def test_right_answer_passes_and_wrong_answer_fails(kind):
    req = _cheap(kind)
    rc, out = _run_cli(req)
    assert workloads.check(req, rc, out) is None
    wrong = json.dumps(WRONG[kind](json.loads(out)))
    assert workloads.check(req, rc, wrong) is not None
    assert workloads.check(req, 2, out) is not None
    assert workloads.check(req, 0, "not json") is not None


def test_adams_and_verify_checks_reject_wrong_answers():
    adams = workloads.Request("adams-module", (), (1, 2))
    good = {"rho_k": "2", "psi_bar": [0, 0], "psi_char": [0, 0],
            "eigen_dims": [[1, 1], [1, 1]]}
    assert workloads.check(adams, 0, json.dumps(good)) is None
    assert workloads.check(adams, 0, json.dumps({**good, "rho_k": "3"})) is not None
    assert workloads.check(adams, 0, json.dumps({**good, "psi_bar": [1, 0]})) is not None
    assert workloads.check(adams, 0, json.dumps({**good, "eigen_dims": [[1, 1]]})) is not None
    verify = workloads.Request("verify", (), 4)
    report = {"suite": "all", "seed": 4, "counts": {"fail": 0},
              "cases": [{"id": "a", "status": "pass"}]}
    assert workloads.check(verify, 0, json.dumps(report)) is None
    report["cases"][0]["status"] = "fail"
    assert workloads.check(verify, 0, json.dumps(report)) is not None


class _WrongCli:
    """Stands in for spinbott.cli: answers every request with a wrong payload."""

    @staticmethod
    def main(argv):
        sys.stdout.write(json.dumps({"coefficient": "0", "r": 0, "k": 0}) + "\n")
        return 0


def test_runner_counts_wrong_answers_as_failed():
    requests = workloads.requests_for("algebra-cli", 2)[:5]
    res = worker.serve(worker.in_process(_WrongCli), requests)
    assert res["attempted"] == 5 and res["failed"] == 5 and res["reasons"]


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 31))
    assert run._tail(values) == (20, 100.0 * 20 / 30, 10)
    assert run._tail([3, 1, 2]) == (3, 100.0, 0)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_rebinds_every_reference():
    code = (
        "import io, contextlib\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "from spinbott import cli, verify, quadforms\n"
        "assert verify.hilbert_symbol is quadforms.hilbert_symbol\n"
        "assert hasattr(verify.hilbert_symbol, '__wrapped__')\n"
        "assert verify._RUNNERS['adams'] is verify.suite_adams\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['bott', '--mode', 'sphere', '--r', '2', '--k', '3']) == 0\n"
        "import tracer\n"
        "m = tracer.finish([t.parts(0, 0)])\n"
        "assert m['lambda_bott.calls'] > 0 and m['cli.calls'] == 1\n"
        "assert m['modules.calls'] == 0 and m['rings.TruncatedPoly.mul.calls'] > 0\n"
        "print('ok')\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench",
                          env=run._child_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout.strip() == "ok", proc.stderr


def test_tensor_power_per_op_counts_only_builds_inside_a_report():
    code = (
        "from tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "from spinbott import modules\n"
        "modules.adams_module_report(1, 2)\n"
        "modules.tensor_power(modules.spinor_rep(1), 2)\n"
        "import tracer\n"
        "m = tracer.finish([t.parts(0, 0)])\n"
        "print(m['modules.tensor_power.per_op'], t.counts['modules.tensor_power.dim_sum'])\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench",
                          env=run._child_env(), capture_output=True, text=True,
                          timeout=60)
    per_op, dim_sum = proc.stdout.split()
    assert float(per_op) == 3.0, proc.stderr
    assert int(dim_sum) == 4 * 4


def test_finish_adds_up_processes_before_dividing():
    parts = [{"x.calls": 3, "x.hit_ratio": [1, 2]}, {"x.calls": 4, "x.hit_ratio": [3, 2]},
             {"x.calls": 0, "x.hit_ratio": [0, 0]}]
    assert tracer.finish(parts) == {"x.calls": 7, "x.hit_ratio": 1.0}
    assert tracer.finish([{"x.hit_ratio": [0, 0]}]) == {"x.hit_ratio": 0.0}


def test_merge_keeps_request_order_and_sums_counts():
    one = {"latencies": [0.1], "reasons": [], "verify_ids": [], "reference_ms": [20.0],
           "attempted": 1, "failed": 0, "emit_bytes": 5}
    two = {**one, "latencies": [0.3], "reasons": ["bad"], "failed": 1}
    merged = run._merge([one, two])
    assert merged["latencies"] == [0.1, 0.3] and merged["reasons"] == ["bad"]
    assert (merged["attempted"], merged["failed"], merged["emit_bytes"]) == (2, 1, 10)
