"""One benchmark process: a workload in a fresh, single-threaded interpreter.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1

`perfbench/run.py` starts it with ``src`` on PYTHONPATH and the BLAS/OpenMP
thread counts at 1; the last line of its standard output is one JSON object.

``--trace 0`` is the timed run: a closed loop with one client that sends
each operation after the previous one returns, until ``--seconds`` have
passed. Outputs are checked between operations, outside the timed calls,
and a fixed reference slice is timed every 0.2 s between them.

``--trace 1`` runs a fixed number of groups twice in the same process:
first untraced, then with the span wrappers and counting rates installed.
Every traced result must be bit-identical to its untraced one, and
``trace_overhead`` is traced wall / untraced wall - 1.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import os
import resource
import shutil
import time
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"

# Rough untraced seconds per group on a 2-core box. They size the traced run
# only, so its operation count, and every count it reports, depends on the
# seed and --seconds alone.
NOMINAL_GROUP_S = {"design": 3.0, "long-chain": 15.0, "verify": 15.0}


def setup():
    """`import searelay` plus building the workloads' RateFunctions, timed."""
    t0 = time.perf_counter()
    import workloads  # imports numpy and searelay
    rates = workloads.build_rates()
    return workloads, rates, time.perf_counter() - t0


class Reference:
    """Times a fixed slice of work that uses no searelay code, now and then.

    The slice mixes Python float math and small numpy calls, the two kinds
    of work the library does, and takes about 1 ms on a 2-core box. On a
    shared machine the speed of the processor drifts by tens of percent
    within seconds; dividing the calls' times by the slice's time, measured
    in the same run, takes most of that drift out.
    """

    INTERVAL_S = 0.2

    def __init__(self, np):
        self._np = np
        self.samples: list = []
        self._last = -float("inf")

    def _slice(self) -> float:
        np, t = self._np, time.perf_counter()
        acc = 0.0
        for i in range(2500):
            acc += math.log1p(math.exp(-1e-3 * i) / (1.0 + i) ** 2)
        a = np.linspace(0.0, 1.0, 16)
        for _ in range(100):
            a = np.sort(np.sqrt(a + 1.0))
        return time.perf_counter() - t

    def maybe_sample(self) -> None:
        """Time the slice if INTERVAL_S has passed since the last sample."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.samples.append(self._slice())
            self._last = time.perf_counter()

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    def median_of(self, k: int) -> float:
        """Median of k slices timed back to back."""
        return sorted(self._slice() for _ in range(k))[k // 2]


def _call(runner, op):
    """Run one operation; any exception is that operation's failure."""
    t = time.perf_counter()
    try:
        result, error = runner.run(op), None
    except Exception as exc:  # noqa: BLE001 - a failed public call is a measured outcome
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - t


def timed_run(wl, env, workload: str, seed: int, seconds: float) -> dict:
    import numpy as np

    wl.warm_up(env, workload)
    reference = Reference(np)
    reference.maybe_sample()
    observer = wl.SimObserver()
    if workload == "verify":
        observer.install()
    runner = wl.Runner(env)
    stats = wl.CheckStats(wl.ROUNDTRIP_CEILING[workload])
    times, kinds, completed, hops, packets = [], [], [], [], []
    problems, causes = [], collections.Counter()
    start = time.perf_counter()
    for op in itertools.chain.from_iterable(wl.groups(workload, seed, env)):
        # the calls on one verify placement run together, so every run has
        # the same mix of probes and perturbations
        if op.slot < 0 or op.kind == "solve":
            if time.perf_counter() - start >= seconds:
                break
        first_run = len(observer.runs)
        result, error, dt = _call(runner, op)
        runs = observer.runs[first_run:]
        found = [error] if error else []
        if error is None:
            try:
                found = wl.check(op, result, runner, stats, runs)
            except Exception as exc:  # noqa: BLE001 - a check that cannot run fails the op
                found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            causes[wl.cause(op, found, env.rates)] += 1
            problems.extend(f"{op.kind} {op.model} {op.params}: {p}" for p in found)
        times.append(dt)
        kinds.append(op.kind)
        completed.append(error is None)
        hops.append(op.hops if error is None else 0)
        packets.append(sum(generated for generated, _ in runs))
        reference.maybe_sample()
    if workload == "verify":
        observer.uninstall()

    t = np.array(times)
    kinds = np.array(kinds)
    done = np.array(completed)

    def busy(kind):
        return float(t[kinds == kind].sum())

    p50, p90 = (float(v) for v in np.percentile(t, [50, 90]))
    ops_per_s = float(done.sum()) / float(t.sum())
    ref_s = reference.mean_s()
    trials = wl.PERTURB_TRIALS * int(((kinds == "perturb") & done).sum())
    has_solves = bool((kinds == "solve").any())
    return {
        "attempted": len(times),
        "failed": causes["other"],
        "failed_by_cause": dict(sorted(causes.items())),
        "problems": problems[:20],
        "ops_per_kref": ops_per_s * ref_s * 1e3,
        "op_p50_ref": p50 / ref_s,
        "ops_per_s": ops_per_s,
        "op_ms_p50": p50 * 1e3,
        "op_ms_p90": p90 * 1e3,
        "ops_beyond_p90": int((t > p90).sum()),
        "ref_ms": ref_s * 1e3,
        "ref_samples": len(reference.samples),
        "hops_per_s": sum(hops) / busy("solve") if has_solves else None,
        "sim_packets_per_s": sum(packets) / busy("probe") if busy("probe") else None,
        "perturb_trials_per_s": trials / busy("perturb") if busy("perturb") else None,
        "qsup_rel_err_max": stats.qsup_rel_err_max if has_solves else None,
        "roundtrip_share_max": stats.roundtrip_share_max if has_solves else None,
        "ops_by_kind": {k: int((kinds == k).sum()) for k in sorted(set(kinds.tolist()))},
    }


def _pass(wl, runner, ops, tracer=None):
    """Run the operations once: result fingerprints, errors by index, busy seconds."""
    prints, errors, busy = [], {}, 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        result, error, dt = _call(runner, op)
        prints.append(error or wl.fingerprint(result))
        if error:
            errors[i] = error
        busy += dt
    return prints, errors, busy


def traced_run(wl, env, workload: str, seed: int, seconds: float) -> dict:
    import tracing

    wl.warm_up(env, workload)
    n_groups = max(1, round(seconds / (2.0 * NOMINAL_GROUP_S[workload])))
    stream = wl.groups(workload, seed, env)
    ops = [op for _ in range(n_groups) for op in next(stream)]
    plain, errors, plain_s = _pass(wl, wl.Runner(env), ops)

    counter = tracing.RateCounter()
    counting = {m: counter.counting(r) for m, r in env.rates.items()}
    counter.scalar_evals = 0
    tracer = tracing.Tracer(counter)
    tracer.install()
    try:
        traced, _, traced_s = _pass(wl, wl.Runner(env, counting), ops, tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{workload}.npz")

    mismatched = [i for i, (a, b) in enumerate(zip(plain, traced)) if a != b]
    unexpected = {i for i in errors if not wl.underflows(ops[i], env.rates)}
    layers = tracing.layer_metrics(tracer)
    layers.update(tracing.channel_microbench(env.rates))
    layers["trace_overhead"] = (traced_s / plain_s - 1.0, "1")
    return {
        "attempted": len(ops),
        "failed": len(set(mismatched) | unexpected),
        "failed_by_cause": {"underflow": len(errors) - len(unexpected)},
        "problems": ([f"op {i} ({ops[i].kind}): traced result differs" for i in mismatched]
                     + [f"op {i} ({ops[i].kind}): {e}" for i, e in errors.items()])[:20],
        "groups": n_groups,
        "spans": len(tracer.name),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    wl, rates, setup_s = setup()
    # the slice's time right after set-up scales set-up to the reference speed
    setup_ref_s = Reference(wl.np).median_of(7)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0
    if args.workload not in wl.WORKLOADS:
        ap.error(f"--workload must be one of {wl.WORKLOADS}")
    workdir = OUT / f"work-{os.getpid()}"
    try:
        env = wl.Env(rates, workdir)
        run = traced_run if args.trace else timed_run
        out = run(wl, env, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["numpy"] = wl.np.__version__
    out["setup_s"] = setup_s
    out["setup_ref_s"] = setup_ref_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
