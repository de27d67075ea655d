"""Self-test of the benchmark's counts and tracing.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that

* two traced runs of seed 1 give identical counts, on every workload;
* every traced operation returned a result bit-identical to the untraced one
  (each traced run compares them and reports mismatches as failures);
* the counting RateFunction reproduces the ROADMAP's `R`-evaluation baseline
  for blue water, L = 500 m: 7293 / 57318 / 296090 at N = 10 / 100 / 1000.
  A change to the root-finders changes these counts on purpose; the
  baseline then needs re-recording here.

Exits 0 when every check passes.
"""

from __future__ import annotations

import sys

from run import ROOT, WORKLOAD_TIMEOUT_S, run_worker

BLUE_L500_R_EVALS = {10: 7293, 100: 57318, 1000: 296090}


def _counts(layers: dict) -> dict:
    """The layer figures that must repeat exactly: counts and ratios of counts."""
    return {k: m["value"] for k, m in layers.items()
            if m["unit"] in ("count", "1") and k != "trace_overhead"}


def check_repeatable() -> list:
    problems = []
    for workload in ("design", "long-chain", "verify"):
        argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
        first, second = (run_worker(argv, WORKLOAD_TIMEOUT_S) for _ in range(2))
        for run in (first, second):
            if run["failed"]:
                problems.append(f"{workload}: {run['failed']} traced ops failed or "
                                f"differed from untraced: {run['problems'][:3]}")
        a, b = _counts(first["layers"]), _counts(second["layers"])
        differ = sorted(k for k in a if a[k] != b[k])
        if differ:
            problems.append(f"{workload}: counts differ between runs: {differ}")
        print(f"{workload:10s} {first['attempted']} ops, {first['spans']} spans, "
              f"{len(a)} counts, {'identical' if not differ else 'DIFFERENT'}")
    return problems


def check_blue_baseline() -> list:
    sys.path.insert(0, str(ROOT / "src"))
    import searelay as sr
    import tracing

    counter = tracing.RateCounter()
    rate = counter.counting(sr.shannon_rate_function(sr.preset("blue")))
    problems = []
    for n, expected in BLUE_L500_R_EVALS.items():
        before = counter.scalar_evals
        sr.solve(rate, n, 500.0)
        got = counter.scalar_evals - before
        print(f"blue L=500 N={n:<5d} R evaluations {got} (baseline {expected})")
        if got != expected:
            problems.append(f"blue L=500 N={n}: {got} R evaluations, baseline {expected}")
    return problems


def main() -> int:
    problems = check_blue_baseline() + check_repeatable()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest passed" if not problems else f"selftest failed ({len(problems)})")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
