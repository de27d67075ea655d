"""searelay benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. Workloads: design, long-chain, verify
(see perfbench/README.md). ``--trace 0`` starts fresh interpreters that only
set up, then one that runs the workload's timed closed loop, and prints
every end-to-end metric. ``--trace 1`` starts one interpreter that runs the
workload untraced and then traced, and prints the per-layer metrics. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_RUNS = 7          # fresh interpreters that only set up, besides the workload's own
REF_NOMINAL_S = 6.5e-4  # slice time right after set-up on the 2-core box this was written on
SETUP_TIMEOUT_S = 5
WORKLOAD_TIMEOUT_S = 120

# end-to-end metrics, printed for every workload by --trace 0
END_TO_END = {
    "setup_s": "s",
    "ops_per_kref": "ops/kref",
    "peak_rss_mb": "MiB",
}

# further end-to-end figures, raw or for the workloads they apply to (report only)
REPORTED = {
    "op_p50_ref": "ref",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ref_ms": "ms",
    "hops_per_s": "hops/s",
    "sim_packets_per_s": "packets/s",
    "perturb_trials_per_s": "trials/s",
    "qsup_rel_err_max": "1",
    "roundtrip_share_max": "1",
}

# per-layer metrics, printed for every workload by --trace 1
PER_LAYER = (
    "channel.r_scalar_evals", "channel.r_scalar_ns", "channel.r_array_calls",
    "channel.r_array_elems", "channel.r_array_ns_per_elem",
    "scalar.bracket_calls", "scalar.bracket_s", "scalar.bisect_calls", "scalar.bisect_s",
    "scalar.r_evals_bracket", "scalar.r_evals_bisect",
    "solver1d.solve.calls", "solver1d.solve.self_s",
    "solver1d.solve_subproblem.calls", "solver1d.solve_subproblem.self_s",
    "solver1d.subproblems_per_solve", "solver1d.bisect_iters_per_solve",
    "solver1d.bracket_steps_per_solve",
    "solver1d.surplus_inverse.calls", "solver1d.surplus_inverse.self_s",
    "solver1d.r_evals_per_inverse",
    "solver1d.critical_load.calls", "solver1d.critical_load.s",
    "solver1d.r_evals_per_solve", "solver1d.collapsed_hops",
    "evaluate.qsup_of_placement.calls", "evaluate.qsup_of_placement.self_s",
    "evaluate.placements_per_trial", "evaluate.perturb_eval.trials",
    "evaluate.perturb_eval.s",
    "solver2d.solve_2d.calls", "solver2d.solve_2d.self_s", "solver2d.solves_per_design",
    "simqueue.simulate.calls", "simqueue.simulate.s", "simqueue.packets",
    "simqueue.packets_per_s", "simqueue.stability_probe.self_s",
    "simqueue.is_stable.s",
    "cli.main.calls", "cli.main.self_s",
    "trace_overhead",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    """Environment of every child: the checkout's sources, one BLAS/OpenMP thread."""
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(argv: list, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line as JSON."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv} did not finish within {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {argv} exited with {proc.returncode}")
    return json.loads(lines[-1])


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def timed(args) -> tuple:
    run_worker(["--setup-only"], SETUP_TIMEOUT_S)   # fills the bytecode cache; not counted
    setups = [run_worker(["--setup-only"], SETUP_TIMEOUT_S) for _ in range(SETUP_RUNS)]
    out = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", "0"], WORKLOAD_TIMEOUT_S)
    setups.append(out)
    raw = [s["setup_s"] for s in setups]
    out["setup_s_raw"] = statistics.median(raw)
    # set-up time at the reference speed: one reference slice per REF_NOMINAL_S
    out["setup_s"] = statistics.median(
        s["setup_s"] * REF_NOMINAL_S / s["setup_ref_s"] for s in setups)
    metrics = {k: {"value": out[k], "unit": u} for k, u in END_TO_END.items()}
    failed_all = sum(out["failed_by_cause"].values())
    report = {
        "setup_s_raw": {"value": out["setup_s_raw"], "unit": "s"},
        "setup_s_samples": raw,
        "ref_samples": out["ref_samples"],
        "op_count": out["attempted"],
        "ops_beyond_p90": out["ops_beyond_p90"],
        "ops_by_kind": out["ops_by_kind"],
        # every failed op, the known defects included; "failed" counts only the others
        "fail_ratio": {"value": failed_all / out["attempted"], "unit": "1",
                       "failed": failed_all, "attempted": out["attempted"],
                       "by_cause": out["failed_by_cause"]},
        "problems": out["problems"],
        **{k: {"value": out[k], "unit": u} for k, u in REPORTED.items()
           if out[k] is not None},
    }
    return out, metrics, report


def traced(args) -> tuple:
    out = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", "1"], WORKLOAD_TIMEOUT_S)
    layers = out["layers"]
    metrics = {k: layers[k] for k in PER_LAYER}
    report = {"groups": out["groups"], "spans": out["spans"],
              "failed_by_cause": out["failed_by_cause"],
              "untraced_s": out["untraced_s"], "traced_s": out["traced_s"],
              "problems": out["problems"], "layers": layers}
    return out, metrics, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("design", "long-chain", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "searelay" / "__init__.py").is_file():
        print(f"perfbench: no searelay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out, metrics, report = (traced if args.trace else timed)(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    provenance = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "nproc": nproc(),
                  "python": platform.python_version(), "numpy": out["numpy"],
                  "load": "closed loop, 1 client, 1 process"}
    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"provenance": provenance, "report": report}))
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
