"""Benchmark of spinbott: three seeded workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the sources under src/ and
needs nothing installed.  With --trace 0 it measures the end-to-end
metrics with tracing off; with --trace 1 it runs one fixed round untraced
and once more traced, and reports the per-layer metrics.  Every output is
checked against an independent expected value, and the last line of
standard output is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKER = ROOT / "perfbench" / "worker.py"

# Set-up drifts on the shared host in spells of seconds, so it is sampled
# through the whole run: before each round, fresh interpreters are timed to
# `ready` until there are SETUP_PROBES plus one per PROBE_EVERY_S seconds
# run so far; setup_s is the median of them all.
SETUP_PROBES = 4
PROBE_EVERY_S = 2.0
# module-adams answers each request in a fresh worker of its own, as the CLI
# answers one command per process; algebra-cli answers a round in one worker.
ONE_PER_PROCESS = ("module-adams",)
REFERENCE_MS = 20.0  # tenth percentile of worker.reference_ms() on a quiet 2-core host
CHILD_TIMEOUT = 170  # seconds; a child still running then is killed and counted failed

END_TO_END = (  # (name, unit, better)
    ("setup_s", "s", "lower"),
    ("verdict_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong answer)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")  # the checkout's sources, nothing installed
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(role: str, workload: str, seed: int, *extra) -> dict:
    """Run one worker to completion and return its JSON line."""
    cmd = [sys.executable, str(WORKER), role, workload, str(seed), *map(str, extra)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise BenchError(f"worker {role} {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its first op could start."""
    cmd = [sys.executable, str(WORKER), "probe", workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        took = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe exited {proc.returncode}: {err.strip()[-2000:]}")
    return took


def _round(role: str, workload: str, seed: int, n: int, spans=None) -> list:
    """The results of one round in fresh workers: one per request, or one in all."""
    if workload not in ONE_PER_PROCESS:
        return [_worker(role, workload, seed, *([] if spans is None else [spans]))]
    out = []
    for i in range(n):
        extra = [] if spans is None else [spans.with_name(f"{spans.stem}-op{i}.tsv")]
        out.append(_worker(role, workload, seed, *extra, i))
    return out


def _merge(results: list) -> dict:
    """Requests and counts of several workers, in order, as if from one."""
    out = {key: [] for key in ("latencies", "reasons", "verify_ids", "reference_ms")}
    out.update(attempted=0, failed=0, emit_bytes=0)
    for one in results:
        for key in out:
            out[key] += one[key]
    return out


def _fresh_interpreter(req) -> tuple:
    """verify-all: one `spinbott verify --suite all` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "spinbott.cli", *req.argv], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    return proc.returncode, proc.stdout


def _tail(latencies: list) -> tuple:
    """(value, percentile, values beyond): the highest percentile with ten values beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the
    maximum is reported then, as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _rounds(workload: str, seed: int, seconds: float, requests: list) -> dict:
    """Whole rounds, each in fresh interpreters, until the next would pass `seconds`."""
    res = {"latencies": [], "rounds": [], "attempted": 0, "failed": 0, "reasons": [],
           "verify_ids": [], "reference_ms": [], "setup_s": []}
    start = time.perf_counter()
    while True:
        while len(res["setup_s"]) < SETUP_PROBES + (time.perf_counter() - start) / PROBE_EVERY_S:
            res["setup_s"].append(_probe(workload, seed))
        t0 = time.perf_counter()
        if workload == "verify-all":
            one = worker.serve(_fresh_interpreter, requests)
        else:
            one = _merge(_round("round", workload, seed, len(requests)))
        wall = time.perf_counter() - t0
        if len(one["latencies"]) != len(requests):
            raise BenchError(f"a round answered {len(one['latencies'])} of {len(requests)}")
        res["latencies"].append(one["latencies"])
        res["rounds"].append(sum(one["latencies"]))
        for key in ("attempted", "failed", "reasons", "verify_ids", "reference_ms"):
            res[key] += one[key]
        if len(res["rounds"]) >= workloads.MIN_ROUNDS and \
                time.perf_counter() - start + wall > seconds:
            break
    if len(set(res["verify_ids"])) > 1:
        res["failed"] += 1
        res["reasons"].append("verify case ids differ between passes")
    res["reasons"] = res["reasons"][:5]
    return res


def measured_run(workload: str, seed: int, seconds: float) -> tuple:
    requests = workloads.requests_for(workload, seed)
    res = _rounds(workload, seed, seconds, requests)
    # The host is shared and its speed drifts by up to 2x for minutes, so
    # every time is scaled by how fast the reference ran in this run.  Its
    # tenth percentile tracks a slow spell better than its fastest time.
    reference = statistics.quantiles(res["reference_ms"], n=10)[0]
    scale = REFERENCE_MS / reference
    # the same request meets the same state in every round; keep its fastest
    best = [scale * min(times) for times in zip(*res["latencies"])]
    setup = statistics.median(res["setup_s"])
    tail, pct, beyond = _tail(best)
    values = {
        "setup_s": scale * setup,
        "verdict_s": statistics.median(best) if workload == "verify-all" else sum(best),
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": 1000 * statistics.median(best),
        "latency_tail_ms": 1000 * tail,
        # largest resident set of any child: probes, workers and verify ops
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    notes = [f"latency_tail_ms is p{pct:.2f} of {len(best)} requests, {beyond} beyond it",
             f"rounds {len(res['rounds'])}, fail_ratio {res['failed']}/{res['attempted']}",
             f"times scaled by {scale:.4f} = {REFERENCE_MS} ms / reference p10 "
             f"{reference:.3f} ms; unscaled: setup_s {setup:.4f}, "
             f"round {sum(best) / scale:.4f} s"]
    return values, END_TO_END, res, notes


def traced_run(workload: str, seed: int) -> tuple:
    """One round untraced, then the same round traced, each as a measured run does it."""
    n = len(workloads.requests_for(workload, seed))
    plain = _merge(_round("round", workload, seed, n))
    spans = OUT / f"spans-{workload}-seed{seed}.tsv"
    results = _round("traced", workload, seed, n, spans)
    traced = _merge(results)
    values = tracer.finish([one["parts"] for one in results])
    values["trace.overhead_ratio"] = sum(traced["latencies"]) / sum(plain["latencies"])
    res = {key: plain[key] + traced[key] for key in ("attempted", "failed", "reasons")}
    if len(set(plain["verify_ids"] + traced["verify_ids"])) > 1:
        res["failed"] += 1
        res["reasons"].append("verify case ids differ between the untraced and traced pass")
    if workload in ONE_PER_PROCESS:
        spans = spans.with_name(f"{spans.stem}-op<i>.tsv")
    notes = [f"spans written to {spans.relative_to(ROOT)}",
             f"fail_ratio {res['failed']}/{res['attempted']}"]
    return values, tracer.PER_LAYER, res, notes


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (no git)"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"  # or a checkout inside another repository
    return lines[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinbott" / "cli.py").is_file():
        print(f"error: no spinbott sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    try:
        if args.trace:
            values, spec, res, notes = traced_run(args.workload, args.seed)
        else:
            values, spec, res, notes = measured_run(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
           "commit": _commit()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "notes": notes, "reasons": res["reasons"],
              "result": result, "latencies_s": res.get("latencies"),
              "rounds_s": res.get("rounds"), "reference_ms": res.get("reference_ms"),
              "setup_probes_s": res.get("setup_s")}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(env))
    for line in notes + [f"failed: {why}" for why in res["reasons"]]:
        print(line)
    for name, unit, _ in spec:
        print(f"  {name:42s} {values[name]:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
