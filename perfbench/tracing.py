"""Spans and counts for the traced run, recorded from outside the library.

`Tracer.install` replaces public functions in the module namespaces where
their callers look them up (``searelay.solver1d.surplus_inverse``,
``searelay.solver2d.solve``, ``searelay.evaluate.qsup_of_placement``, ...)
with wrappers that record one span per call: name, start, end, parent span
and the id of the benchmark operation it belongs to. Spans stay in memory in
flat arrays and are written out at the end; self time is derived from them.

`R` is counted, not spanned: the traced run gives the solvers counting
`RateFunction`s built through the public constructor, whose scalar path
wraps ``rate.scalar`` and whose array path wraps ``rate(d)``.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

import searelay.channel as channel
import searelay.cli as cli
import searelay.evaluate as evaluate
import searelay.simqueue as simqueue
import searelay.solver1d as solver1d
import searelay.solver2d as solver2d

# (module, attribute looked up by callers, span name)
SPANNED = (
    (solver1d, "solve", "solver1d.solve"),
    (solver2d, "solve", "solver1d.solve"),
    (cli, "solve", "solver1d.solve"),
    (solver1d, "solve_subproblem", "solver1d.solve_subproblem"),
    (solver1d, "surplus_inverse", "solver1d.surplus_inverse"),
    (solver1d, "critical_load", "solver1d.critical_load"),
    (solver1d, "bracket_monotone", "scalar.bracket_monotone"),
    (solver1d, "bisect_monotone", "scalar.bisect_monotone"),
    (solver2d, "solve_2d", "solver2d.solve_2d"),
    (cli, "solve_2d", "solver2d.solve_2d"),
    (evaluate, "qsup_of_placement", "evaluate.qsup_of_placement"),
    (evaluate, "perturb_eval", "evaluate.perturb_eval"),
    (simqueue, "simulate", "simqueue.simulate"),
    (simqueue, "is_stable", "simqueue.is_stable"),
    (simqueue, "stability_probe", "simqueue.stability_probe"),
    (cli, "main", "cli.main"),
)


class RateCounter:
    """Evaluations of every counting rate built from it."""

    def __init__(self):
        self.scalar_evals = 0
        self.array_calls = 0
        self.array_elems = 0

    def counting(self, rate: channel.RateFunction) -> channel.RateFunction:
        """A RateFunction equal to `rate` that counts its evaluations."""
        scalar = rate.scalar

        def fn(d):
            self.scalar_evals += 1
            return scalar(d)

        def array_fn(d):
            self.array_calls += 1
            self.array_elems += int(np.size(d))
            return rate(d)

        return channel.RateFunction(fn, array_fn, label=rate.label)


class Tracer:
    """Span recorder; `install`/`uninstall` put the wrappers in and take them out."""

    def __init__(self, counter: RateCounter):
        self.counter = counter
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.r_in = array("q")
        self.r_out = array("q")
        self.op_id = -1
        self.solve_iterations: dict = {}    # span id -> SolveResult.iterations
        self.collapsed_hops = 0
        self.sim_packets = 0
        self.perturb_trials = 0
        self._stack: list = []
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _on_return(self, name: str, sid: int, result) -> None:
        if name == "solver1d.solve":
            self.solve_iterations[sid] = result.iterations
            if result.branch == solver1d.CASE_II:
                self.collapsed_hops += int(np.count_nonzero(
                    result.placement.distances == 0.0))
        elif name == "simqueue.simulate":
            self.sim_packets += result.generated
        elif name == "evaluate.perturb_eval":
            self.perturb_trials += result.trials

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, r_in, r_out = self.start, self.end, self.r_in, self.r_out
        stack, counter, clock = self._stack, self.counter, time.perf_counter
        hooked = name in ("solver1d.solve", "simqueue.simulate", "evaluate.perturb_eval")

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            r_in.append(counter.scalar_evals)
            r_out.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                r_out[sid] = counter.scalar_evals
            if hooked:
                self._on_return(name, sid, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, attr, name in SPANNED:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(name, orig))
        # the CLI builds its own rates: hand it counting ones
        for attr in ("shannon_rate_function", "fec_rate_function"):
            orig = getattr(channel, attr)
            self._saved.append((channel, attr, orig))
            setattr(channel, attr,
                    lambda params, _orig=orig: self.counter.counting(_orig(params)))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def arrays(self) -> dict:
        """Copies of the span columns as numpy arrays."""
        return {k: np.array(getattr(self, k)) for k in
                ("name", "parent", "op", "start", "end", "r_in", "r_out")}

    def write(self, path: Path) -> None:
        """Write every span to an .npz file (span names in `names`)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


class Spans:
    """Aggregates over the recorded spans, by span name."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        self.name, self.parent = a["name"], a["parent"]
        k = len(tracer.names)
        dur = a["end"] - a["start"]
        linked = self.parent >= 0
        child_time = np.zeros(dur.size)
        np.add.at(child_time, self.parent[linked], dur[linked])
        self._calls = np.bincount(self.name, minlength=k)
        self._total = np.bincount(self.name, weights=dur, minlength=k)
        self._self = np.bincount(self.name, weights=dur - child_time, minlength=k)
        self._evals = np.bincount(self.name, weights=a["r_out"] - a["r_in"], minlength=k)

    def ids(self, name: str) -> np.ndarray:
        """Span ids with this name, in call order."""
        if name not in self._ids:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self._ids[name])

    def _get(self, column: np.ndarray, name: str) -> float:
        return float(column[self._ids[name]]) if name in self._ids else 0.0

    def calls(self, name: str) -> int:
        return int(self._get(self._calls, name))

    def total_s(self, name: str) -> float:
        """Inclusive seconds in spans of this name."""
        return self._get(self._total, name)

    def self_s(self, name: str) -> float:
        """Seconds in spans of this name minus their direct child spans."""
        return self._get(self._self, name)

    def evals(self, name: str) -> int:
        """Scalar R evaluations inside spans of this name."""
        return int(self._get(self._evals, name))

    def children(self, parent: str, child: str) -> np.ndarray:
        """For each `parent` span, the number of its direct `child` spans."""
        ids = self.ids(parent)
        kids = self.parent[self.ids(child)]
        kids = kids[kids >= 0]
        return np.bincount(kids, minlength=self.name.size)[ids]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of a traced pass: {name: (value, unit)}."""
    sp = Spans(tracer)
    c = tracer.counter
    solves = sp.calls("solver1d.solve")
    # the per-solve ratios are over the solves that returned
    ids = sp.ids("solver1d.solve")
    returned = np.array([int(i) in tracer.solve_iterations for i in ids], dtype=bool)
    solved = int(returned.sum())
    subs = sp.children("solver1d.solve", "solver1d.solve_subproblem")[returned]
    iters = np.array([tracer.solve_iterations[int(i)] for i in ids[returned]], dtype=float)
    inverses = sp.calls("solver1d.surplus_inverse")
    designs = sp.calls("solver2d.solve_2d")
    trials = tracer.perturb_trials
    packets = tracer.sim_packets
    return {
        "channel.r_scalar_evals": (c.scalar_evals, "count"),
        "channel.r_array_calls": (c.array_calls, "count"),
        "channel.r_array_elems": (c.array_elems, "count"),
        "scalar.bracket_calls": (sp.calls("scalar.bracket_monotone"), "count"),
        "scalar.bracket_s": (sp.total_s("scalar.bracket_monotone"), "s"),
        "scalar.bisect_calls": (sp.calls("scalar.bisect_monotone"), "count"),
        "scalar.bisect_s": (sp.total_s("scalar.bisect_monotone"), "s"),
        "scalar.r_evals_bracket": (sp.evals("scalar.bracket_monotone"), "count"),
        "scalar.r_evals_bisect": (sp.evals("scalar.bisect_monotone"), "count"),
        "solver1d.solve.calls": (solves, "count"),
        "solver1d.solve.self_s": (sp.self_s("solver1d.solve"), "s"),
        "solver1d.solve_subproblem.calls": (sp.calls("solver1d.solve_subproblem"), "count"),
        "solver1d.solve_subproblem.self_s": (sp.self_s("solver1d.solve_subproblem"), "s"),
        "solver1d.subproblems_per_solve": (_ratio(subs.sum(), solved), "1"),
        "solver1d.bisect_iters_per_solve": (_ratio(iters.sum(), solved), "1"),
        "solver1d.bracket_steps_per_solve": (_ratio((subs - iters - 1).sum(), solved), "1"),
        "solver1d.surplus_inverse.calls": (inverses, "count"),
        "solver1d.surplus_inverse.self_s": (sp.self_s("solver1d.surplus_inverse"), "s"),
        "solver1d.r_evals_per_inverse": (
            _ratio(sp.evals("solver1d.surplus_inverse"), inverses), "1"),
        "solver1d.critical_load.calls": (sp.calls("solver1d.critical_load"), "count"),
        "solver1d.critical_load.s": (sp.total_s("solver1d.critical_load"), "s"),
        "solver1d.r_evals_per_solve": (_ratio(sp.evals("solver1d.solve"), solves), "1"),
        "solver1d.collapsed_hops": (tracer.collapsed_hops, "count"),
        "evaluate.qsup_of_placement.calls": (sp.calls("evaluate.qsup_of_placement"), "count"),
        "evaluate.qsup_of_placement.self_s": (sp.self_s("evaluate.qsup_of_placement"), "s"),
        "evaluate.placements_per_trial": (_ratio(sp.children(
            "evaluate.perturb_eval", "evaluate.qsup_of_placement").sum(), trials), "1"),
        "evaluate.perturb_eval.trials": (trials, "count"),
        "evaluate.perturb_eval.s": (sp.total_s("evaluate.perturb_eval"), "s"),
        "solver2d.solve_2d.calls": (designs, "count"),
        "solver2d.solve_2d.self_s": (sp.self_s("solver2d.solve_2d"), "s"),
        "solver2d.solves_per_design": (_ratio(sp.children(
            "solver2d.solve_2d", "solver1d.solve").sum(), designs), "1"),
        "simqueue.simulate.calls": (sp.calls("simqueue.simulate"), "count"),
        "simqueue.simulate.s": (sp.total_s("simqueue.simulate"), "s"),
        "simqueue.packets": (packets, "count"),
        "simqueue.packets_per_s": (_ratio(packets, sp.total_s("simqueue.simulate")),
                                   "packets/s"),
        "simqueue.stability_probe.self_s": (sp.self_s("simqueue.stability_probe"), "s"),
        "simqueue.is_stable.s": (sp.total_s("simqueue.is_stable"), "s"),
        "cli.main.calls": (sp.calls("cli.main"), "count"),
        "cli.main.self_s": (sp.self_s("cli.main"), "s"),
    }


def channel_microbench(rates: dict, reps: int = 7) -> dict:
    """R on a fixed grid per model, untraced: ns per scalar call and per array element."""
    grid = np.linspace(0.0, 200.0, 4000)
    points = grid.tolist()
    clock = time.perf_counter_ns
    scalar_ns, array_ns = [], []
    for rate in rates.values():
        f = rate.scalar
        per_call = []
        for _ in range(reps):
            t = clock()
            for d in points:
                f(d)
            per_call.append((clock() - t) / len(points))
        scalar_ns.append(float(np.median(per_call)))
        per_elem = []
        for _ in range(reps):
            t = clock()
            for _ in range(20):
                rate(grid)
            per_elem.append((clock() - t) / (20 * grid.size))
        array_ns.append(float(np.median(per_elem)))
    return {"channel.r_scalar_ns": (float(np.mean(scalar_ns)), "ns"),
            "channel.r_array_ns_per_elem": (float(np.mean(array_ns)), "ns")}
