#!/usr/bin/env python3
"""Run every verification suite and write one JSON report per suite.

Usage: python scripts/run_verification.py [--out-dir DIR]

Every suite runs at seed 0, the seed of `spinbott verify`'s default report.
"""

import argparse
import json
import pathlib
import sys

from spinbott.verify import SUITES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in SUITES:
        report = run_suite(name, seed=0, timings=True)
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
        status = "ok" if report.all_pass else "FAILED"
        print(f"{name:10s} {report.passed:3d}/{len(report.cases):3d} {status:6s}"
              f" ({report.elapsed}s) -> {path}")
        ok = ok and report.all_pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
