#!/usr/bin/env python3
"""Print the sphere coefficient table [1 + 2^r + ... + (k-1)^r] / k^r
for r = 1..4 and k = 2..7.

Each entry is recomputed through the truncated-ring expansion, so the
table doubles as a check of the closed form.
"""

import argparse

from spinbott.lambda_bott import sphere_formula


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    ks = range(2, 8)
    print("r\\k " + "".join(f"{k:>10d}" for k in ks))
    for r in range(1, 5):
        row = "".join(f"{str(sphere_formula(r, k)):>10s}" for k in ks)
        print(f"{r:<4d}{row}")


if __name__ == "__main__":
    main()
