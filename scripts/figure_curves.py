"""Reproduce the habit-sensitivity figure data for the two-point growth
economy: the one-period interest-rate curve and the long-run Lucas-equity
curve on the 101-point beta grid 0:1:0.01, written by the `bond-curve` and
`lucas-curve` commands.

Run:
  python scripts/figure_curves.py --out-dir outputs
"""

import argparse
import os

from habitree.cli import main as cli_main


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="outputs")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    for figure, command, name in ((1, "bond-curve", "interest_rate_vs_beta.csv"),
                                  (2, "lucas-curve", "lucas_equity_vs_beta.csv")):
        path = os.path.join(args.out_dir, name)
        if cli_main([command, "--output", path]) != 0:
            raise SystemExit(f"habitree {command} failed")
        with open(path) as fh:
            values = [float(line.split(",")[1]) for line in fh.readlines()[1:]]
        print(f"figure {figure}: {path}  endpoints {values[0]:.6f} -> {values[-1]:.6f}")


if __name__ == "__main__":
    main()
