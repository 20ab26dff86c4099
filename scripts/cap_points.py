#!/usr/bin/env python3
"""Time the cap points and the known slow inputs in cold processes.

Usage: python scripts/cap_points.py   (writes BENCH_cap_points.json at the root)

The cap points are the commands of the CI "Cap points" step, read from
.github/workflows/tests.yml with their timeouts; the stalls and slow inputs
are those the ROADMAP lists, each under a 30 s timeout.  Every command runs
as ``python -m spinbott.cli`` on the src/ of the checkout this script sits
in, so a copy of another commit times its own code.  A command that
finishes runs RUNS times, in RUNS passes over the list so that its runs are
spread over the whole session, and its record is the run of median wall
time with the min and max wall beside it; a command killed at its timeout
is run once.  A record holds the wall time, the child's peak RSS
(``ru_maxrss``) and its exit code; a command killed at its timeout has exit
null and timed_out true.  Each child's address space is capped at
MEMORY_LIMIT_MB (RLIMIT_AS), so an input that would grow without bound
fails instead of filling the host.
"""

import json
import os
import platform
import re
import resource
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STALL_TIMEOUT = 30
MEMORY_LIMIT_MB = 1024
RUNS = 3  # cold runs of each command that finishes

# (group, command) for the inputs that neither finish nor refuse, and for
# the slow ones that do finish, as the ROADMAP lists them
SLOW_INPUTS = [
    ("stall", "qf 1,100000000000000000039"),
    ("stall", "bott --expr 300*L1 --k 32"),
    ("stall", "bott --expr 100000*L1 --k 3"),
    ("stall", "bott --expr L1+L2+L3 --k 32 --mode cyclotomic"),
    ("stall", "bott --expr L1+L2+L3+L4+L5+L6+L7+L8 --k 8"),
    ("slow", "bott --expr 100*L1 --k 32"),
    ("slow", "bott --expr L1+L2+L3+L4 --k 32"),
    ("slow", "bott --expr L10000000 --k 2"),
    ("slow", "bott --expr L1000000 --k 2"),
    ("slow", "qf " + ",".join(["1"] * 2000)),
    ("slow", "qf " + ",".join(["1"] * 2000) + " --primes 1000000000000000003"),
]


def cap_points() -> list:
    """(timeout, command) of every line of the CI "Cap points" step."""
    step = WORKFLOW.read_text().split("- name: Cap points", 1)[1].split("- name:", 1)[0]
    return [(int(t), cmd) for t, cmd in
            re.findall(r"^\s*timeout (\d+) spinbott (.+?) > /dev/null$", step, re.M)]


def run(command: str, timeout: int) -> dict:
    def limit():
        cap = MEMORY_LIMIT_MB * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "spinbott.cli", *shlex.split(command)],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, preexec_fn=limit)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    timed_out = not timer.is_alive()
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    shown = command if len(command) <= 120 else command[:60] + f"... ({len(command)} chars)"
    return {"command": shown, "timeout_s": timeout, "wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "exit": None if timed_out else proc.returncode, "timed_out": timed_out}


def main() -> int:
    todo = [("cap", t, cmd) for t, cmd in cap_points()]
    todo += [(group, STALL_TIMEOUT, cmd) for group, cmd in SLOW_INPUTS]
    runs = [[] for _ in todo]
    for sweep in range(RUNS):
        for (group, timeout, command), done in zip(todo, runs):
            if done and done[0]["timed_out"]:
                continue  # a stall is run once
            done.append(run(command, timeout))
            print(f"{sweep + 1}/{RUNS} {group:5s} {done[-1]['wall_s']:8.2f} s "
                  f"{done[-1]['peak_rss_mb']:8.1f} MB exit {done[-1]['exit']}  "
                  f"{done[-1]['command']}", flush=True)
    points = []
    for (group, _, _), done in zip(todo, runs):
        done.sort(key=lambda r: r["wall_s"])
        points.append(dict(group=group, **done[len(done) // 2], runs=len(done),
                           wall_min_s=done[0]["wall_s"], wall_max_s=done[-1]["wall_s"]))
    record = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "memory_limit_mb": MEMORY_LIMIT_MB,
        "points": points,
    }
    (ROOT / "BENCH_cap_points.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
