#!/usr/bin/env python3
"""Run the shipped experiment configs through the CLI.

Desk-scale configs run in minutes; the *_full configs sweep down to
FER ~ 1e-4 on long codes and take hours, so they only run with --full.
"""

import argparse
import pathlib
import sys
import time

from skagree.cli import main as cli_main

DESK = [
    ("diag-check", "diag_check.json"),
    ("threshold", "threshold_wc3_rate025.json"),
    ("threshold", "threshold_wc4_rate015.json"),
    ("threshold", "threshold_wc5_rate003.json"),
    ("fer-sim", "fer_n5000_desk.json"),
    ("security-gap", "security_gap_n2000_desk.json"),
    ("sk-cdf", "sk_cdf_m256.json"),
    ("sk-cdf", "sk_cdf_m256_decay025.json"),
    ("outage-analytic", "outage_analytic_m256.json"),
]

FULL = [
    ("fer-sim", "fer_n5000_full.json"),
    ("fer-sim", "fer_n10000_full.json"),
    ("security-gap", "security_gap_n5000_full.json"),
    ("security-gap", "security_gap_n10000_full.json"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument(
        "--full", action="store_true",
        help="also run the long-running full-scale sweeps",
    )
    args = parser.parse_args()

    config_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    jobs = DESK + (FULL if args.full else [])
    for kind, name in jobs:
        config = config_dir / name
        print(f"== {kind} {name}")
        started = time.time()
        code = cli_main([
            kind, "--config", str(config), "--out", args.out,
            "--threads", str(args.threads),
        ])
        print(f"   exit {code} in {time.time() - started:.1f}s")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
