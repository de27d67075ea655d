"""Sweep the relay count for each water preset and write plot-ready CSVs.

For every preset and N the script records the optimal supportable load, the
per-node efficiency, and the equal-spacing baseline, so the output answers
both "how much does placement matter" and "how many nodes are worth buying".

Usage: python3 scripts/node_count_study.py [--l 500] [--n-max 30] [--out results]
"""

import argparse
import csv
import pathlib

import searelay as sr


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--l", type=float, default=500.0)
    ap.add_argument("--n-max", type=int, default=30)
    ap.add_argument("--out", default="results")
    args = ap.parse_args()

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "node_count_study.csv"

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["preset", "n", "l", "q_sup", "delta",
                    "q_sup_constant", "ratio", "branch"])
        for name in sr.preset_names():
            rate = sr.shannon_rate_function(sr.preset(name))
            results = sr.solve_n_range(rate, args.l, 1, args.n_max)
            for n, res in enumerate(results, start=1):
                qc = sr.qsup_of_placement(
                    sr.constant_placement(n, args.l), rate).q_sup
                w.writerow([name, n, args.l,
                            f"{res.q_sup:.9g}", f"{res.q_sup / n:.9g}",
                            f"{qc:.9g}", f"{res.q_sup / qc:.6g}", res.branch])
            print(f"{name}: done up to N={args.n_max}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
