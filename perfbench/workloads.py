"""Seeded workloads of the searelay benchmark: inputs, public calls, output checks.

A workload is an endless stream of *groups* of operations. Every group is
stratified: each rate model, and each stratum of every drawn size, appears
the same number of times in it. The seed only moves the draws inside their
strata and the order of the operations, so the work in a group hardly
depends on the seed, and the mix a run sees changes little from seed to
seed.

The calls go through the module attributes (``solver1d.solve``, ...) at call
time, so the traced run can put its wrappers exactly where the library's
own callers look those functions up.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import searelay.channel as channel
import searelay.cli as cli
import searelay.evaluate as evaluate
import searelay.simqueue as simqueue
import searelay.solver1d as solver1d
import searelay.solver2d as solver2d

WORKLOADS = ("design", "long-chain", "verify")
MODELS = ("blue", "green", "red", "fec")

# The FEC model of the CLI tests: L0 = 0.41 m, against 5.9-13.7 m for the presets.
FEC_CONFIG = {
    "modulation_bits_per_symbol": 2,
    "code_rate": 0.5,
    "snr_threshold": 10.0,
    "scaled_gain": 1e9,
    "attenuation_per_m": 2e-2,
    "epsilon_m": 1.0,
    "geometric_exponent": 2.0,
}

# Known failures at this commit, run and counted by cause, not skipped:
#
# * "underflow": a solve whose equal-spacing hop rate R(L/N) is below
#   UNDERFLOW_RATE bit/s (red water, N <= 2, L > ~2350 m) raises, because
#   the rate underflows (ROADMAP item 5).
# * "roundtrip": at large N the round trip of a solve misses its documented
#   bound 2 * tol_q (ROADMAP item 2). Up to ROUNDTRIP_CEILING times the bound
#   this is the known defect; beyond it the op fails like any other. The
#   largest misses found in 5119 drawn design solves and 1324 drawn
#   long-chain ones were 1.31 and 2.32 times the bound; verify draws its N
#   inside design's range.
UNDERFLOW_RATE = 1e-300
ROUNDTRIP_CEILING = {"design": 2.0, "long-chain": 3.0, "verify": 2.0}

PROBE_FACTORS = (0.8, 0.9, 1.1, 1.2)
PROBE_MODES = (("poisson", "fixed"), ("deterministic", "exponential"))
PERTURB_TRIALS = 10_000


def build_rates() -> dict:
    """The workloads' rate models, built through the public constructors."""
    rates = {m: channel.shannon_rate_function(channel.preset(m))
             for m in MODELS if m != "fec"}
    rates["fec"] = channel.fec_rate_function(channel.FecRateParams(**FEC_CONFIG))
    return rates


def default_tol_q(rate, n: int, length: float) -> float:
    """`solve`'s documented default: 1e-6 of the seed load R(L/n) * n / L."""
    return 1e-6 * rate.scalar(length / n) * n / length


@dataclass
class Env:
    """What the operations run against: the rates and a scratch directory."""

    rates: dict
    workdir: Path
    fec_path: Path = field(init=False)

    def __post_init__(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.fec_path = self.workdir / "fec.json"
        self.fec_path.write_text(json.dumps(FEC_CONFIG))

    def model_args(self, model: str) -> list:
        if model == "fec":
            return ["--rate-model", "fec", "--fec-config", str(self.fec_path)]
        return ["--preset", model]


@dataclass
class Op:
    """One public call. `slot` names the placement a verify op works on."""

    kind: str
    model: str
    params: dict
    slot: int = -1

    @property
    def hops(self) -> int:
        return self.params.get("n", 0) if self.kind == "solve" else 0


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _strata(rng, k: int, lo: float, hi: float, log: bool = False) -> np.ndarray:
    """One draw from each of k equal strata of [lo, hi], strata in random order."""
    u = (rng.permutation(k) + rng.random(k)) / k
    if log:
        return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return lo + u * (hi - lo)


def _int_strata(rng, k: int, lo: int, hi: int) -> list:
    """Integers in [lo, hi], one from each of k strata, strata in random order."""
    return [min(hi, int(v)) for v in _strata(rng, k, lo, hi + 1)]


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _latin(rng) -> np.ndarray:
    """A random 4x4 Latin square: every row and column holds 0..3 once."""
    square = (np.arange(4)[:, None] + np.arange(4)[None, :]) % 4
    return rng.permutation(4)[square[rng.permutation(4)][:, rng.permutation(4)]]


def _solve_block(rng, n_range: tuple, l_range: tuple) -> list:
    """16 solves spread evenly over models, N and L.

    N and log L are each cut into 16 equal strata and every stratum is drawn
    once. Every model gets one N stratum from each quarter of the N range,
    and a Latin square gives every (model, N quarter) one L quarter, so the
    three are balanced against each other.
    """
    (n_lo, n_hi), (l_lo, l_hi) = n_range, l_range
    square = _latin(rng)
    models = rng.permutation(4)
    l_slot = {q: iter(rng.permutation(4)) for q in range(4)}
    ops = []
    for m in range(4):
        for n_quarter in range(4):
            n_stratum = 4 * n_quarter + models[m]
            l_quarter = square[m, n_quarter]
            l_stratum = 4 * l_quarter + next(l_slot[l_quarter])
            n = n_lo + (n_stratum + rng.random()) * (n_hi + 1 - n_lo) / 16
            u = (l_stratum + rng.random()) / 16
            length = math.exp(math.log(l_lo) + u * (math.log(l_hi) - math.log(l_lo)))
            ops.append(Op("solve", MODELS[m], {"n": min(n_hi, int(n)), "l": length}))
    return ops


def _design_group(rng, env: Env) -> list:
    """64 solves (4 blocks over N in [1, 60], L in [5, 5000] m), and one
    solve_2d and one sweep-n per model."""
    ops = [op for _ in range(4) for op in _solve_block(rng, (1, 60), (5.0, 5000.0))]
    n_hs = _int_strata(rng, 4, 2, 8)
    heights = _strata(rng, 4, 50.0, 500.0, log=True)
    aspects = _strata(rng, 4, 0.5, 2.0, log=True)
    n_maxes = _int_strata(rng, 4, 8, 23)
    sweep_lengths = _strata(rng, 4, 20.0, 2000.0, log=True)
    for i, model in enumerate(MODELS):
        ops.append(Op("solve_2d", model, {"n_h": n_hs[i], "h": float(heights[i]),
                                          "l": float(heights[i] * aspects[i])}))
        ops.append(Op("sweep_n", model, {"n_max": n_maxes[i],
                                         "l": float(sweep_lengths[i])}))
    return [ops[i] for i in rng.permutation(len(ops))]


def _long_chain_group(rng, env: Env) -> list:
    """16 solves over N in [300, 2000], L in [200, 5000] m."""
    ops = _solve_block(rng, (300, 2000), (200.0, 5000.0))
    return [ops[i] for i in rng.permutation(len(ops))]


def _verify_group(rng, env: Env) -> list:
    """4 placements (every model, N and L stratum once), each solved, probed
    under both arrival/size modes and perturbed at two noise levels.

    A probe's cost grows with N (packets cross more hops), so N stays in a
    narrow band; a wide one made the work per run vary with the seed.
    """
    ns = _int_strata(rng, 4, 8, 12)
    lengths = _strata(rng, 4, 100.0, 1000.0, log=True)
    models = [MODELS[i] for i in rng.permutation(4)]
    ops = []
    for slot, (model, n, length) in enumerate(zip(models, ns, lengths)):
        ops.append(Op("solve", model, {"n": n, "l": float(length)}, slot=slot))
        for arrival, size in PROBE_MODES:
            ops.append(Op("probe", model, {"arrival": arrival, "size": size,
                                           "seed": _seed(rng)}, slot=slot))
        spacing = length / n
        for lo, hi in ((0.02, 0.08), (0.1, 0.3)):
            ops.append(Op("perturb", model, {"sigma": float(rng.uniform(lo, hi) * spacing),
                                             "seed": _seed(rng)}, slot=slot))
    return ops


_GROUPS = {"design": _design_group, "long-chain": _long_chain_group,
           "verify": _verify_group}


def groups(workload: str, seed: int, env: Env):
    """Endless stream of operation groups; the same seed gives the same stream."""
    make = _GROUPS[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    while True:
        yield make(rng, env)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

class Runner:
    """Executes operations; verify ops reuse the placement their slot solved."""

    def __init__(self, env: Env, rates: dict | None = None):
        self.env = env
        self.rates = rates if rates is not None else env.rates
        self.solved: dict = {}
        self._out = env.workdir / "sweep.csv"

    def run(self, op: Op):
        rate = self.rates[op.model]
        p = op.params
        if op.kind == "solve":
            res = solver1d.solve(rate, p["n"], p["l"])
            if op.slot >= 0:
                self.solved[op.slot] = res
            return res
        if op.kind == "solve_2d":
            return solver2d.solve_2d(rate, p["n_h"], p["l"], p["h"])
        if op.kind == "sweep_n":
            argv = ["sweep-n", *self.env.model_args(op.model), "--n-max",
                    str(p["n_max"]), "--l", repr(p["l"]), "-o", str(self._out)]
            code = cli.main(argv)
            return code, self._out.read_text()
        res = self.solved[op.slot]
        if op.kind == "probe":
            grid = [f * res.q_sup for f in PROBE_FACTORS]
            return simqueue.stability_probe(res.placement, rate, grid, seed=p["seed"],
                                            arrival_process=p["arrival"],
                                            packet_size=p["size"])
        if op.kind == "perturb":
            return evaluate.perturb_eval(res.placement, rate, p["sigma"],
                                         trials=PERTURB_TRIALS, seed=p["seed"])
        raise ValueError(f"unknown op kind {op.kind!r}")


class SimObserver:
    """Reads `QueueStats.generated`/`.delivered` of every `simulate` call.

    `stability_probe` does not return its runs' statistics, so the timed run
    of the verify workload replaces `simqueue.simulate` with a pass-through
    that keeps those two counts. It records no time.
    """

    def __init__(self):
        self.runs: list = []
        self._orig = None

    def install(self) -> None:
        self._orig = orig = simqueue.simulate
        runs = self.runs

        def simulate(cfg, rate):
            stats = orig(cfg, rate)
            runs.append((stats.generated, stats.delivered))
            return stats

        simqueue.simulate = simulate

    def uninstall(self) -> None:
        simqueue.simulate = self._orig


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@dataclass
class CheckStats:
    """What the checks measure besides pass/fail."""

    ceiling: float                     # ROUNDTRIP_CEILING of the workload
    qsup_rel_err_max: float = 0.0
    roundtrip_share_max: float = 0.0   # round-trip gap / (2 * tol_q)


class RoundTrip(str):
    """A round-trip miss within the workload's ROUNDTRIP_CEILING."""


def underflows(op: Op, rates: dict) -> bool:
    """Whether `op` is a solve in the rate-underflow domain (ROADMAP item 5)."""
    if op.kind != "solve":
        return False
    return rates[op.model].scalar(op.params["l"] / op.params["n"]) < UNDERFLOW_RATE


def cause(op: Op, problems: list, rates: dict) -> str:
    """Why an op with these problems failed: a known defect's name, or "other"."""
    if underflows(op, rates):
        return "underflow"
    if all(isinstance(p, RoundTrip) for p in problems):
        return "roundtrip"
    return "other"


def _check_solve(op: Op, res, rate, stats: CheckStats) -> list:
    n, length = op.params["n"], op.params["l"]
    d = res.placement.distances
    bad = []
    if not (math.isfinite(res.q_sup) and res.q_sup > 0):
        return [f"q_sup {res.q_sup!r} is not finite and > 0"]
    if abs(float(d.sum()) - length) > 1e-9 * length:
        bad.append("distances do not sum to L")
    if (res.branch == solver1d.CASE_I) != (length <= res.L0):
        bad.append(f"branch {res.branch} at L={length:.9g}, L0={res.L0:.9g}")
    if res.branch == solver1d.CASE_II:
        if np.any(np.diff(d) < 0.0):
            bad.append("case-ii spacings decrease away from the sink")
    tol = default_tol_q(rate, n, length)
    gap = abs(evaluate.qsup_of_placement(res.placement, rate).q_sup - res.q_sup)
    share = gap / (2.0 * tol)
    stats.qsup_rel_err_max = max(stats.qsup_rel_err_max, gap / res.q_sup)
    stats.roundtrip_share_max = max(stats.roundtrip_share_max, share)
    if share > 1.0:
        text = f"round trip {gap:.3g} is {share:.3g} x 2*tol_q={2 * tol:.3g}"
        bad.append(RoundTrip(text) if share <= stats.ceiling else text)
    return bad


def _check_solve_2d(res, rate) -> list:
    if not (math.isfinite(res.q_sup) and res.q_sup > 0):
        return [f"q_sup {res.q_sup!r} is not finite and > 0"]
    bad = []
    if not res.q_sup == res.q_y < res.q_x:
        bad.append("grid is not y-limited")
    if solver2d.grid_qsup(res.grid, rate) < res.q_sup * (1 - 1e-6):
        bad.append("grid violates its own q_sup")
    return bad


def _check_sweep(op: Op, result, rate) -> list:
    code, text = result
    if code != 0:
        return [f"sweep-n exited {code}"]
    rows = list(csv.DictReader(io.StringIO(text)))
    if [int(r["n"]) for r in rows] != list(range(1, op.params["n_max"] + 1)):
        return ["sweep-n rows do not cover n = 1..n_max"]
    bad = []
    length = op.params["l"]
    for r in rows:
        q, qc = float(r["q_sup"]), float(r["q_sup_constant"])
        if not (math.isfinite(q) and q > 0):
            bad.append(f"n={r['n']}: q_sup {q!r}")
        # optimal beats equal spacing, up to 2*tol_q and the 9-digit output
        elif q < qc * (1 - 1e-8) - 2.0 * default_tol_q(rate, int(r["n"]), length):
            bad.append(f"n={r['n']}: optimal {q:.9g} below equal spacing {qc:.9g}")
    return bad


def _check_probe(result, sim_runs) -> list:
    flags = [p.stable for p in result.points]
    expected = [f < 1.0 for f in PROBE_FACTORS]
    bad = [] if flags == expected else [f"stability flags {flags}, expected {expected}"]
    if any(delivered > generated for generated, delivered in sim_runs):
        bad.append("a simulation delivered more packets than it generated")
    return bad


def check(op: Op, result, runner: Runner, stats: CheckStats, sim_runs=()) -> list:
    """Problems found in one operation's output; empty when it is correct."""
    rate = runner.env.rates[op.model]
    if op.kind == "solve":
        return _check_solve(op, result, rate, stats)
    if op.kind == "solve_2d":
        return _check_solve_2d(result, rate)
    if op.kind == "sweep_n":
        return _check_sweep(op, result, rate)
    if op.kind == "probe":
        return _check_probe(result, sim_runs)
    # perturb: no noisy placement beats the optimum, up to the round-trip slack
    res = runner.solved[op.slot]
    limit = res.q_sup + 2.0 * default_tol_q(rate, res.placement.n, res.placement.length)
    if not result.mean_q_sup <= limit:
        return [f"perturbed mean {result.mean_q_sup:.9g} above the optimum {res.q_sup:.9g}"]
    return []


def fingerprint(result) -> str:
    """Exact, comparable text of an operation's result (floats as hex)."""
    def enc(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, np.ndarray):
            return v.tobytes().hex()
        if isinstance(v, (list, tuple)):
            return "[" + ",".join(enc(x) for x in v) + "]"
        if hasattr(v, "__dataclass_fields__"):
            return type(v).__name__ + "(" + ",".join(
                enc(getattr(v, k)) for k in v.__dataclass_fields__) + ")"
        return repr(v)
    return enc(result)


def warm_up(env: Env, workload: str) -> None:
    """Run each kind of operation once at full size, untimed, so lazy set-up
    and the first growth of the heap do not land in the measured calls."""
    runner = Runner(env)
    rng = np.random.default_rng([0, len(WORKLOADS)])   # the same for every seed
    group = _GROUPS[workload](rng, env)
    if workload == "verify":
        ops = group[:5]                                 # one placement's solve, probes, perturbs
    else:
        ops = [next(op for op in group if op.kind == kind and not underflows(op, env.rates))
               for kind in dict.fromkeys(op.kind for op in group)]
    for op in ops:
        runner.run(op)
