#!/usr/bin/env python3
"""Time the cap points and the known slow inputs in cold processes.

Usage: python scripts/cap_points.py   (writes BENCH_cap_points.json at the root)

The cap points are the commands of the CI "Cap points" step, read from
.github/workflows/tests.yml with their timeouts; the stalls and slow inputs
are those the ROADMAP lists, each under its own timeout.  Every command runs
as ``python -m spinbott.cli`` on the src/ of the checkout this script sits
in, so a copy of another commit times its own code.  Every command runs
RUNS times, in RUNS passes over the list so that its runs are spread over
the whole session, and its record is the run of median wall time with the
min and max wall beside it and the number of runs killed at the timeout: a
stall is one killed in every pass, not one whose first run was killed.  A
record holds the wall time, the child's peak RSS (``ru_maxrss``) and its
exit code; a run killed at its timeout has exit null and timed_out true.
Each child's address space is capped at MEMORY_LIMIT_MB (RLIMIT_AS), so an
input that would grow without bound fails instead of filling the host.

Each pass starts with REFERENCE, a cold interpreter running a fixed loop
that imports nothing of spinbott; its wall time per pass goes into the
record, so a pass that ran on a loaded host shows as a slow reference
rather than as slow code.
"""

import compileall
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
MEMORY_LIMIT_MB = 1024
RUNS = 3  # cold runs of each command
REFERENCE = "sum(i * i for i in range(3_000_000))"


def even_blades(rank: int, skip=()) -> str:
    """'+'-joined text of the nonzero even blades e_i...e_j of rank ``rank``,
    but those in ``skip``."""
    blades = ("".join(f"e{i + 1}" for i in range(rank) if m >> i & 1)
              for m in range(1, 1 << rank) if m.bit_count() % 2 == 0)
    return "+".join(b for b in blades if b not in skip)


RANK12 = "--form 1,2,3,5,7,11,13,17,19,23,29,31 --element "

# (group, timeout in s, command) for the inputs that neither finish nor
# refuse (a stall is killed at its timeout in every pass), for those refused
# over a size cap that once stalled, and for the slow ones that do finish, as
# the ROADMAP lists them.  A slow input's timeout is about three times its
# longest recorded run, so no run ends near it.
SLOW_INPUTS = [
    ("refused", 30, "qf 1,100000000000000000039"),
    ("refused", 30, "bott --expr 15000*L1 --k 2"),
    ("refused", 30, "bott --expr 100000*L1 --k 3"),
    ("refused", 30, "bott --expr L1+L2+L3+L4+L5+L6+L7+L8 --k 8"),
    ("refused", 30, "bott --mode cyclotomic --expr 100000*L1 --k 3"),
    ("refused", 30, "bott --mode cyclotomic --expr L1+L2+L3+L4+L5+L6+L7+L8 --k 8"),
    ("refused", 30, "bott --expr L60000000 --k 2"),
    ("slow", 30, "bott --mode cyclotomic --expr 300*L1 --k 30"),
    ("slow", 30, "bott --mode cyclotomic --expr 300*L1 --k 32"),
    ("slow", 30, "bott --expr L10000000 --k 2"),
    ("slow", 30, "qf " + ",".join(["1"] * 2000)),
    ("slow", 30, "qf " + ",".join(["1"] * 2000) + " --primes 1000000000000000003"),
    # the sum of all 2,048 even blades is a member; 2 plus every even blade
    # but e1e2e3e4 is not, and its adjugate runs Shirokov's recursion
    ("slow", 30, "clifford-check " + RANK12 + "1+" + even_blades(12)),
    ("stall", 30, "clifford-check " + RANK12 + "2+" + even_blades(12, skip=("e1e2e3e4",))),
]


def cap_points() -> list:
    """(timeout, command) of every line of the CI "Cap points" step."""
    step = WORKFLOW.read_text().split("- name: Cap points", 1)[1].split("- name:", 1)[0]
    return [(int(t), cmd) for t, cmd in
            re.findall(r"^\s*timeout (\d+) spinbott (.+?) > /dev/null$", step, re.M)]


def run(args: list, shown: str, timeout: int) -> dict:
    """One cold ``python <args>`` on the checkout's src/, killed at the timeout."""
    def limit():
        cap = MEMORY_LIMIT_MB * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            preexec_fn=limit)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    timed_out = not timer.is_alive()
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"command": shown, "timeout_s": timeout, "wall_s": round(wall, 3),
              "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
              "exit": None if timed_out else proc.returncode, "timed_out": timed_out}
    print(f"{record['wall_s']:8.2f} s {record['peak_rss_mb']:8.1f} MB exit {record['exit']}  "
          f"{shown}", flush=True)
    return record


def main() -> int:
    todo = [("cap", t, cmd) for t, cmd in cap_points()]
    todo += SLOW_INPUTS
    runs = [[] for _ in todo]
    reference = []
    compileall.compile_dir(ROOT / "src", quiet=1)  # no pass pays for the bytecode
    for sweep in range(RUNS):
        print(f"pass {sweep + 1}/{RUNS}", flush=True)
        reference.append(run(["-c", REFERENCE], "reference", 60)["wall_s"])
        for (group, timeout, command), done in zip(todo, runs):
            shown = command if len(command) <= 120 else command[:60] + f"... ({len(command)} chars)"
            done.append(run(["-m", "spinbott.cli", *shlex.split(command)], shown, timeout))
    points = []
    for (group, _, _), done in zip(todo, runs):
        killed = sum(r["timed_out"] for r in done)
        done.sort(key=lambda r: r["wall_s"])
        points.append(dict(group=group, **done[len(done) // 2], runs=len(done), timeouts=killed,
                           wall_min_s=done[0]["wall_s"], wall_max_s=done[-1]["wall_s"]))
    record = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "memory_limit_mb": MEMORY_LIMIT_MB,
        "reference": {"command": f"python -c {REFERENCE!r}", "wall_s_per_pass": reference},
        "points": points,
    }
    (ROOT / "BENCH_cap_points.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
