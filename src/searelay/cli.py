"""Command-line front end.

Subcommands mirror the library: solve | eval | sweep-n | sweep-l | solve2d |
perturb | simulate | compare.  Output goes to stdout or --output as CSV (one
header row, stable column names) or JSON; floats are printed with 9
significant digits.  Exit codes: 0 success, 2 configuration error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import channel as ch
from . import evaluate as ev
from . import simqueue as sq
from .scalar import MaxItersError, NoBracketError
from .solver1d import (NumericalInfeasibleError, OutOfRangeError, Placement,
                       WrongBranchError, solve, solve_n_range)
from .solver2d import NoFeasibleGridError, grid_qsup, solve_2d

__all__ = ["main", "ConfigError", "PRESET_DIR_ENV"]

PRESET_DIR_ENV = "SEARELAY_PRESETS"  # directory of extra <name>.json presets
FMT = "%.9g"

_NUMERIC_ERRORS = (NoBracketError, MaxItersError, OutOfRangeError,
                   WrongBranchError, NumericalInfeasibleError,
                   NoFeasibleGridError, sq.InconclusiveProbeError)


class ConfigError(Exception):
    """Bad flags, files, or parameter values; maps to exit code 2."""


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------

def _f(v) -> str:
    return FMT % float(v)


def _j(v):
    """Round floats to 9 significant digits for JSON output."""
    return float(FMT % float(v))


def _emit_csv(out, header, rows) -> None:
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)


def _emit(args, header, rows, json_obj) -> None:
    if args.format == "json":
        text = json.dumps(json_obj, indent=2) + "\n"
    else:
        buf = io.StringIO()
        _emit_csv(buf, header, rows)
        text = buf.getvalue()
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)


def _config_hash(meta: dict) -> str:
    blob = json.dumps(meta, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# rate construction
# ---------------------------------------------------------------------------

def _resolve_preset(name: str) -> ch.ShannonRateParams:
    if name in ch.preset_names():
        return ch.preset(name)
    preset_dir = os.environ.get(PRESET_DIR_ENV)
    if preset_dir:
        path = os.path.join(preset_dir, f"{name}.json")
        if os.path.exists(path):
            return ch.load_channel_config(path)
    raise ConfigError(
        f"unknown preset {name!r}; built-ins are {sorted(ch.preset_names())}"
        + (f", and no {name}.json under ${PRESET_DIR_ENV}" if preset_dir else
           f" (set ${PRESET_DIR_ENV} to add preset files)"))


def _build_rate(args):
    """RateFunction plus a metadata dict describing the configuration."""
    if args.rate_model == "fec":
        if not args.fec_config:
            raise ConfigError("--rate-model fec requires --fec-config FILE")
        try:
            raw = json.loads(Path(args.fec_config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.fec_config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.fec_config}: {exc}") from None
        try:
            params = ch.FecRateParams(**raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config file {args.fec_config}: {exc}") from None
        meta = {"rate_model": "fec", **raw}
        return ch.fec_rate_function(params), meta
    if args.config:
        try:
            params = ch.load_channel_config(args.config)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        source = {"config": args.config}
    else:
        name = args.preset or "blue"
        params = _resolve_preset(name)
        source = {"preset": name}
    meta = {"rate_model": "shannon", **source,
            "attenuation_per_m": params.channel.attenuation_per_m,
            "bandwidth_Hz": params.bandwidth_Hz}
    return ch.shannon_rate_function(params), meta


def _read_placement(path: str) -> Placement:
    """Placement from a CSV (index,distance_m) or a solve JSON output."""
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ConfigError(f"placement file not found: {path}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        if "distances" not in obj:
            raise ConfigError(f"placement file {path}: JSON lacks a 'distances' key")
        d = np.asarray([float(v) for v in obj["distances"]])
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows or "distance_m" not in rows[0]:
            raise ConfigError(f"placement file {path}: need a distance_m column")
        d = np.asarray([float(r["distance_m"]) for r in rows])
    if d.size == 0:
        raise ConfigError(f"placement file {path}: no hops")
    try:
        return Placement(distances=d, length=float(d.sum()))
    except ValueError as exc:
        raise ConfigError(f"placement file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_SOLVE_HEADER = ["index", "distance_m", "position_m", "q_sup", "q0", "L0",
                 "branch", "gamma", "iterations", "bracket_width"]


def _solve_rows(res) -> list:
    x = res.placement.positions
    gamma = "" if res.gamma is None else _f(res.gamma)
    rows = []
    for i, d in enumerate(res.placement.distances, start=1):
        rows.append([i, _f(d), _f(x[i]), _f(res.q_sup), _f(res.q0), _f(res.L0),
                     res.branch, gamma, res.iterations, _f(res.bracket_width)])
    return rows


def _solve_json(res, n: int, length: float) -> dict:
    return {
        "n": n,
        "l": _j(length),
        "q_sup": _j(res.q_sup),
        "q0": _j(res.q0),
        "L0": _j(res.L0),
        "branch": res.branch,
        "gamma": None if res.gamma is None else _j(res.gamma),
        "iterations": res.iterations,
        "bracket_width": _j(res.bracket_width),
        "coverage_residual": _j(res.coverage_residual),
        "delta": _j(res.q_sup / n),
        "distances": [_j(d) for d in res.placement.distances],
        "positions": [_j(x) for x in res.placement.positions],
    }


def _cmd_solve(args, rate, meta) -> int:
    res = solve(rate, args.n, args.l, tol_q=args.tol_q)
    _emit(args, _SOLVE_HEADER, _solve_rows(res), _solve_json(res, args.n, args.l))
    return 0


def _cmd_eval(args, rate, meta) -> int:
    placement = _read_placement(args.placement)
    limit = ev.qsup_of_placement(placement, rate)
    n = placement.n
    delta = ev.tradeoff(limit.q_sup, n)
    header = ["n", "l", "q_sup", "delta", "bottleneck_hop"]
    rows = [[n, _f(placement.length), _f(limit.q_sup), _f(delta), limit.bottleneck + 1]]
    obj = {"n": n, "l": _j(placement.length), "q_sup": _j(limit.q_sup),
           "delta": _j(delta), "bottleneck_hop": limit.bottleneck + 1}
    _emit(args, header, rows, obj)
    return 0


def _cmd_sweep_n(args, rate, meta) -> int:
    if args.n_min < 1 or args.n_max < args.n_min:
        raise ConfigError("need 1 <= n-min <= n-max")
    header = ["n", "l", "q_sup", "delta", "q_sup_constant", "delta_constant"]
    rows, objs = [], []
    results = solve_n_range(rate, args.l, args.n_min, args.n_max, tol_q=args.tol_q)
    for n, res in enumerate(results, start=args.n_min):
        qc = ev.qsup_of_placement(ev.constant_placement(n, args.l), rate).q_sup
        rows.append([n, _f(args.l), _f(res.q_sup), _f(res.q_sup / n),
                     _f(qc), _f(qc / n)])
        objs.append({"n": n, "l": _j(args.l), "q_sup": _j(res.q_sup),
                     "delta": _j(res.q_sup / n), "q_sup_constant": _j(qc),
                     "delta_constant": _j(qc / n)})
    _emit(args, header, rows, objs)
    return 0


def _cmd_sweep_l(args, rate, meta) -> int:
    if args.l_values:
        lengths = [float(v) for v in args.l_values.split(",")]
    else:
        if args.l_min is None or args.l_max is None or args.l_step is None:
            raise ConfigError("need --l-values or all of --l-min/--l-max/--l-step")
        if args.l_min <= 0 or args.l_max < args.l_min or args.l_step <= 0:
            raise ConfigError("need 0 < l-min <= l-max and l-step > 0")
        lengths = list(np.arange(args.l_min, args.l_max + 0.5 * args.l_step,
                                 args.l_step))
    header = ["n", "l", "q_sup", "delta"]
    rows, objs = [], []
    for length in lengths:
        res = solve(rate, args.n, length, tol_q=args.tol_q)
        rows.append([args.n, _f(length), _f(res.q_sup), _f(res.q_sup / args.n)])
        objs.append({"n": args.n, "l": _j(length), "q_sup": _j(res.q_sup),
                     "delta": _j(res.q_sup / args.n)})
    _emit(args, header, rows, objs)
    return 0


def _cmd_solve2d(args, rate, meta) -> int:
    res = solve_2d(rate, args.n_h, args.l, args.h, tol_q=args.tol_q,
                   n_l_max=args.n_l_max)
    header = ["index", "l_spacing_m", "h_spacing_m", "q_sup", "q_x", "q_y",
              "n_l", "n_h", "total_nodes"]
    l = res.grid.l_spacings
    h = res.grid.h_spacings
    rows = []
    for i in range(max(l.size, h.size)):
        rows.append([
            i + 1,
            _f(l[i]) if i < l.size else "",
            _f(h[i]) if i < h.size else "",
            _f(res.q_sup), _f(res.q_x), _f(res.q_y),
            res.n_l, res.n_h, res.total_nodes,
        ])
    obj = {"n_l": res.n_l, "n_h": res.n_h, "total_nodes": res.total_nodes,
           "l": _j(args.l), "h": _j(args.h),
           "q_sup": _j(res.q_sup), "q_x": _j(res.q_x), "q_y": _j(res.q_y),
           "l_spacings": [_j(v) for v in l], "h_spacings": [_j(v) for v in h]}
    _emit(args, header, rows, obj)
    return 0


def _cmd_perturb(args, rate, meta) -> int:
    res = solve(rate, args.n, args.l, tol_q=args.tol_q)
    chash = _config_hash(meta)
    k = meta.get("attenuation_per_m", float("nan"))
    rows, objs = [], []
    for sigma in args.sigma:
        stats = ev.perturb_eval(res.placement, rate, sigma,
                                trials=args.trials, seed=args.seed)
        rows.append(ev.perturb_csv_row(stats, chash, args.n, args.l, k))
        obj = {k2: (_j(v) if isinstance(v, float) else v)
               for k2, v in asdict(stats).items()}
        obj.update({"config_hash": chash, "n": args.n, "l": _j(args.l),
                    "q_sup_exact": _j(res.q_sup)})
        objs.append(obj)
    _emit(args, ev.PERTURB_CSV_HEADER, rows, objs)
    return 0


def _cmd_simulate(args, rate, meta) -> int:
    if args.placement:
        placement = _read_placement(args.placement)
        q_ref = ev.qsup_of_placement(placement, rate).q_sup
    else:
        res = solve(rate, args.n, args.l, tol_q=args.tol_q)
        placement = res.placement
        q_ref = res.q_sup
    B = args.data_size
    if not 0.0 < B < float("inf"):
        raise ConfigError(f"--data-size must be finite and > 0, got {B!r}")
    if args.probe_factors:
        factors = sorted(float(v) for v in args.probe_factors.split(","))
        grid = [f * q_ref for f in factors]
        probe = sq.stability_probe(
            placement, rate, grid, mean_data_size=B,
            horizon_packets=args.horizon_packets, seed=args.seed,
            arrival_process=args.arrival, packet_size=args.size_dist)
        header = ["q", "q_over_qsup", "stable", "total_drift_slope",
                  "end_backlog"]
        rows = [[_f(p.q), _f(p.q / q_ref), int(p.stable),
                 _f(p.total_drift_slope), _f(p.end_backlog)]
                for p in probe.points]
        obj = {"q_sup_analytic": _j(q_ref),
               "q_stable": None if probe.q_stable is None else _j(probe.q_stable),
               "q_unstable": None if probe.q_unstable is None else _j(probe.q_unstable),
               "points": [{"q": _j(p.q), "stable": p.stable,
                           "total_drift_slope": _j(p.total_drift_slope),
                           "end_backlog": _j(p.end_backlog)} for p in probe.points]}
        _emit(args, header, rows, obj)
        return 0
    q = args.q_factor * q_ref
    traffic = ev.TrafficModel(packet_rate=q * placement.length / B,
                              mean_data_size=B, area_length=placement.length)
    lam = traffic.packet_rate
    horizon = args.horizon_packets / lam
    cfg = sq.SimConfig(
        placement=placement, traffic=traffic,
        arrival_process=args.arrival, packet_size=args.size_dist,
        horizon_s=horizon, warmup_s=0.1 * horizon, seed=args.seed)
    stats = sq.simulate(cfg, rate)
    stable = sq.is_stable(stats, lam)
    header = ["node", "distance_m", "time_avg_queue", "end_queue",
              "drift_slope", "q", "lambda", "stable", "delivered", "generated"]
    rows = []
    for i in range(placement.n):
        rows.append([i + 1, _f(placement.distances[i]),
                     _f(stats.time_avg_queue[i]), _f(stats.end_queue[i]),
                     _f(stats.drift_slope[i]), _f(q), _f(lam), int(stable),
                     stats.delivered, stats.generated])
    obj = {"q": _j(q), "lambda": _j(lam), "stable": stable,
           "total_drift_slope": _j(stats.total_drift_slope),
           "delivered": stats.delivered, "generated": stats.generated,
           "time_avg_queue": [_j(v) for v in stats.time_avg_queue],
           "end_queue": [_j(v) for v in stats.end_queue],
           "drift_slope": [_j(v) for v in stats.drift_slope]}
    _emit(args, header, rows, obj)
    if args.timeseries:
        with open(args.timeseries, "w") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["time_s"] + [f"node_{i+1}" for i in range(placement.n)])
            for t, row in zip(stats.sample_times, stats.queue_samples):
                w.writerow([_f(t)] + [_f(v) for v in row])
    return 0


def _cmd_compare(args, rate, meta) -> int:
    res = solve(rate, args.n, args.l, tol_q=args.tol_q)
    qc = ev.qsup_of_placement(ev.constant_placement(args.n, args.l), rate).q_sup
    n_v = args.vertical_nv if args.vertical_nv else args.n
    qv = ev.vertical_qsup(rate, args.vertical_nl, n_v, args.vertical_depth, args.l)
    n_vert_total = args.vertical_nl * (n_v + 1)
    header = ["placement", "nodes", "q_sup", "delta"]
    rows = [
        ["optimal", args.n, _f(res.q_sup), _f(res.q_sup / args.n)],
        ["constant", args.n, _f(qc), _f(qc / args.n)],
        ["vertical", n_vert_total, _f(qv), _f(qv / n_vert_total)],
    ]
    objs = [{"placement": r[0], "nodes": r[1], "q_sup": _j(float(r[2])),
             "delta": _j(float(r[3]))} for r in rows]
    _emit(args, header, rows, objs)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group()
    src.add_argument("--preset", help="built-in water preset (red, green, blue)"
                     f" or a name under ${PRESET_DIR_ENV}")
    src.add_argument("--config", help="flat JSON channel config file")
    p.add_argument("--rate-model", choices=("shannon", "fec"), default="shannon")
    p.add_argument("--fec-config", help="JSON file with FEC rate parameters")
    p.add_argument("--tol-q", type=float, default=None,
                   help="absolute load tolerance [bit/s per m] for the load "
                        "root-find (default: 2e-10 relative)")
    p.add_argument("--output", "-o", default="-", help="output path ('-' = stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="searelay",
        description="Optimal relay placement for seafloor optical wireless networks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="optimal spacings and supportable load")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="number of relay nodes")
    p.add_argument("--l", type=float, required=True, help="segment length [m]")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="supportable load of a stored placement")
    _add_common(p)
    p.add_argument("--placement", required=True,
                   help="CSV (index,distance_m) or solve JSON output")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep-n", help="q_sup and per-node efficiency vs node count")
    _add_common(p)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--l", type=float, required=True)
    p.set_defaults(func=_cmd_sweep_n)

    p = sub.add_parser("sweep-l", help="q_sup vs segment length at fixed n")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l-min", type=float)
    p.add_argument("--l-max", type=float)
    p.add_argument("--l-step", type=float)
    p.add_argument("--l-values", help="comma-separated lengths, overrides the range")
    p.set_defaults(func=_cmd_sweep_l)

    p = sub.add_parser("solve2d", help="two-stage grid design over a rectangle")
    _add_common(p)
    p.add_argument("--n-h", type=int, required=True, help="relay rows beyond the sink's")
    p.add_argument("--l", type=float, required=True, help="row extent [m]")
    p.add_argument("--h", type=float, required=True, help="column extent [m]")
    p.add_argument("--n-l-max", type=int, default=64)
    p.set_defaults(func=_cmd_solve2d)

    p = sub.add_parser("perturb", help="supportable load under position noise")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=float, required=True)
    p.add_argument("--sigma", type=float, nargs="+", required=True,
                   help="one or more noise standard deviations [m]")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("simulate", help="tandem-queue simulation / stability probe")
    _add_common(p)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--l", type=float, default=500.0)
    p.add_argument("--placement", help="evaluate a stored placement instead of solving")
    p.add_argument("--data-size", type=float, default=1e5, help="mean packet size [bit]")
    p.add_argument("--q-factor", type=float, default=0.8,
                   help="single run at this multiple of the supportable load")
    p.add_argument("--probe-factors",
                   help="comma-separated multiples of q_sup; runs a stability probe")
    p.add_argument("--horizon-packets", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--arrival", choices=(sq.ARRIVAL_POISSON, sq.ARRIVAL_DETERMINISTIC),
                   default=sq.ARRIVAL_POISSON)
    p.add_argument("--size-dist", choices=(sq.SIZE_FIXED, sq.SIZE_EXPONENTIAL),
                   default=sq.SIZE_FIXED)
    p.add_argument("--timeseries", help="also write per-node backlog samples (CSV)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="optimal vs constant vs vertical risers")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=float, required=True)
    p.add_argument("--vertical-depth", type=float, required=True,
                   help="water column height V [m]")
    p.add_argument("--vertical-nl", type=int, required=True,
                   help="number of risers")
    p.add_argument("--vertical-nv", type=int, default=None,
                   help="hops per riser (default: same as --n)")
    p.set_defaults(func=_cmd_compare)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rate, meta = _build_rate(args)
        return args.func(args, rate, meta)
    except ConfigError as exc:
        print(f"searelay: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"searelay: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"searelay: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"searelay: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
