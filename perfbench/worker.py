"""Child process of the benchmark: a set-up probe, a measured round or a traced round.

    python3 perfbench/worker.py probe  WORKLOAD SEED
    python3 perfbench/worker.py round  WORKLOAD SEED [INDEX]
    python3 perfbench/worker.py traced WORKLOAD SEED SPANS_PATH [INDEX]

`run.py` starts it with the checkout's src/ as PYTHONPATH.  Every role
imports spinbott and generates its inputs, then prints `ready`; `round` and
`traced` then send each request of one round (or only the request at
INDEX) once through `spinbott.cli.main(argv)` in this process, capture and
check its output, and print one JSON line.  A round's requests are
distinct, so each meets this fresh process's caches as they are after the
requests before it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_EVERY_S = 0.25


def _setup(workload: str, seed: int):
    import spinbott.cli
    src = (ROOT / "src").resolve()
    if src not in Path(spinbott.cli.__file__).resolve().parents:
        raise SystemExit(f"spinbott was imported from {spinbott.cli.__file__}, not {src}")
    return spinbott.cli, workloads.requests_for(workload, seed)


def in_process(cli):
    """Send a request through `cli.main(argv)` here, capturing what it writes."""
    def call(req):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(req.argv))
        return rc, out.getvalue()
    return call


def reference_ms() -> float:
    """Milliseconds for a fixed exact elimination of a 22 x 22 Fraction matrix.

    It is written here and touches no spinbott code, so it measures how fast
    the host runs this kind of arithmetic now, whatever the program does.
    """
    rng = random.Random(5)
    n = 22
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    t0 = time.perf_counter()
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return 1000 * (time.perf_counter() - t0)


def serve(call, requests, tracer=None) -> dict:
    """One round, one client: each request once, the next sent when the last returned.

    `call(req)` returns (exit code, output); every output is checked after
    its request is timed, and a request that raised counts as failed.  An
    untraced round also times the reference before its first request and
    once per REFERENCE_EVERY_S of request time, between requests.
    """
    latencies, reasons, verify_ids = [], [], []
    refs = [] if tracer is not None else [reference_ms()]
    failed = emit_bytes = 0
    due = 0.0  # seconds of requests since the last reference
    for op, req in enumerate(requests):
        if tracer is not None:
            tracer.op = op
        t0 = time.perf_counter()
        try:
            rc, text = call(req)
        except Exception as exc:  # a crash is a failed request, not the end of the run
            rc, text, why = None, "", f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        due += latencies[-1]
        while tracer is None and due >= REFERENCE_EVERY_S:
            due -= REFERENCE_EVERY_S
            refs.append(reference_ms())
        emit_bytes += len(text.encode())
        if rc is not None:
            why = workloads.check(req, rc, text)
        if why is None and req.kind == "verify":
            ids = "\n".join(workloads.case_ids(text))
            verify_ids.append(hashlib.sha256(ids.encode()).hexdigest())
        if why is not None:
            failed += 1
            reasons.append(f"{' '.join(req.argv)}: {why}")
    return {"latencies": latencies, "attempted": len(requests), "failed": failed,
            "reasons": reasons[:5], "verify_ids": verify_ids, "emit_bytes": emit_bytes,
            "reference_ms": refs}


def main(argv) -> int:
    role, workload, seed = argv[0], argv[1], int(argv[2])
    tracer = None
    if role == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cli, requests = _setup(workload, seed)
    index = argv[4 if role == "traced" else 3:][:1]
    if index:
        requests = requests[int(index[0]):int(index[0]) + 1]
    print("ready", flush=True)
    if role == "probe":
        return 0
    if role == "round":
        result = serve(in_process(cli), requests)
    elif role == "traced":
        from spinbott import verify
        cache_before = len(verify._oracle_cache)
        result = serve(in_process(cli), requests, tracer)
        result["parts"] = tracer.parts(result["emit_bytes"],
                                       len(verify._oracle_cache) - cache_before)
        tracer.write_spans(argv[3])
    else:
        raise SystemExit(f"unknown role {role!r}")
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
