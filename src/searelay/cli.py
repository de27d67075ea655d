"""Command-line front end.

Subcommands mirror the library: solve | eval | sweep-n | sweep-l | solve2d |
perturb | simulate | compare.  Output goes to stdout or --output as CSV (one
header row, stable column names) or JSON; floats are printed with 9
significant digits.  Exit codes: 0 success, 2 configuration error (any
ValueError), 3 numeric failure (any NumericalError).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import channel as ch
from . import evaluate as ev
from . import simqueue as sq
from .solver1d import NumericalError, Placement, solve, solve_n_range
from .solver2d import solve_2d

__all__ = ["main"]

FMT = "%.9g"

# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    """One CSV cell: a float at 9 significant digits, None blank."""
    if isinstance(v, float):
        return FMT % v
    return "" if v is None else str(v)


def _rounded(v):
    """v as JSON data, every float rounded to 9 significant digits."""
    if isinstance(v, float):
        return float(FMT % v)
    if isinstance(v, dict):
        return {k: _rounded(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_rounded(x) for x in v]
    return v


def _csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(rows[0])
    w.writerows([_cell(v) for v in row.values()] for row in rows)
    return buf.getvalue()


def _emit(args, rows, obj) -> None:
    """Write what a subcommand returns, its rows (dicts keyed by the CSV header)
    and JSON object (None: the rows), as CSV or as JSON."""
    if args.format == "json":
        text = json.dumps(_rounded(rows if obj is None else obj), indent=2) + "\n"
    else:
        text = _csv(rows)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        _write(args.output, text)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write output {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# rate construction
# ---------------------------------------------------------------------------

def _build_rate(args):
    """RateFunction plus a metadata dict describing the configuration."""
    if (args.rate_model == "fec") != (args.fec_config is not None):
        raise ValueError("--rate-model fec and --fec-config FILE go together: "
                         "give both or neither")
    if args.fec_config is not None:
        params = ch.load_fec_config(args.fec_config)
        return ch.fec_rate_function(params), {"rate_model": "fec", **asdict(params)}
    if args.config:
        params = ch.load_channel_config(args.config)
        source = {"config": args.config}
    else:
        name = args.preset or "blue"
        if name not in ch.preset_names():
            raise ValueError(f"unknown preset {name!r}; built-ins are "
                             f"{sorted(ch.preset_names())}")
        params = ch.preset(name)
        source = {"preset": name}
    meta = {"rate_model": "shannon", **source,
            "attenuation_per_m": params.channel.attenuation_per_m,
            "bandwidth_Hz": params.bandwidth_Hz}
    return ch.shannon_rate_function(params), meta


def _read_placement(path: str) -> Placement:
    """Placement from a CSV (index,distance_m) or a solve JSON output."""
    try:
        text = Path(path).read_text()
        if text.lstrip().startswith("{"):
            values = json.loads(text)["distances"]
        else:
            values = [r["distance_m"] for r in csv.DictReader(io.StringIO(text))]
        d = np.asarray([float(v) for v in values])
        return Placement(distances=d, length=float(d.sum()))
    except OSError as exc:
        raise ValueError(f"placement file {path}: {exc.strerror}") from None
    except KeyError as exc:
        raise ValueError(f"placement file {path}: no {exc} key or column") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"placement file {path}: {exc}") from None


def comma_separated_numbers(text: str) -> list[float]:
    """An argparse type: "1,2.5" gives [1.0, 2.5]."""
    return [float(v) for v in text.split(",")]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args, rate, meta):
    res = solve(rate, args.n, args.l, tol_q=args.tol_q)
    p = res.placement
    shared = {"q_sup": res.q_sup, "q0": res.q0, "L0": res.L0,
              "branch": res.branch, "gamma": res.gamma,
              "iterations": res.iterations, "bracket_width": res.bracket_width}
    rows = [{"index": i, "distance_m": d, "position_m": x, **shared}
            for i, (d, x) in enumerate(zip(p.distances, p.positions[1:]), start=1)]
    obj = {"n": args.n, "l": args.l, **shared,
           "coverage_residual": res.coverage_residual,
           "delta": res.q_sup / args.n, "distances": p.distances,
           "positions": p.positions}
    return rows, obj


def _cmd_eval(args, rate, meta):
    placement = _read_placement(args.placement)
    limit = ev.qsup_of_placement(placement, rate)
    row = {"n": placement.n, "l": placement.length, "q_sup": limit.q_sup,
           "delta": ev.tradeoff(limit.q_sup, placement.n),
           "bottleneck_hop": limit.bottleneck + 1}
    return [row], row


def _cmd_sweep_n(args, rate, meta):
    results = solve_n_range(rate, args.l, args.n_min, args.n_max, tol_q=args.tol_q)
    ns = range(args.n_min, args.n_max + 1)
    # equal spacing's limit is its first hop's, which carries the most
    qcs = ev.hop_limits(rate, (args.l / np.array(ns))[:, None], args.l)[:, 0].tolist()
    return [{"n": n, "l": args.l, "q_sup": res.q_sup, "delta": res.q_sup / n,
             "q_sup_constant": qc, "delta_constant": qc / n}
            for n, res, qc in zip(ns, results, qcs)], None


def _cmd_sweep_l(args, rate, meta):
    if args.l_values:
        lengths = args.l_values
    else:
        for flag in ("l_min", "l_max", "l_step"):
            value = getattr(args, flag)
            if value is None:
                raise ValueError("need --l-values or all of --l-min/--l-max/--l-step")
            if not np.isfinite(value):
                raise ValueError(f"--{flag.replace('_', '-')} must be finite, got {value!r}")
        if args.l_min <= 0 or args.l_max < args.l_min or args.l_step <= 0:
            raise ValueError("need 0 < l-min <= l-max and l-step > 0")
        lengths = list(np.arange(args.l_min, args.l_max + 0.5 * args.l_step,
                                 args.l_step))
    rows = []
    for length in lengths:
        q = solve(rate, args.n, length, tol_q=args.tol_q).q_sup
        rows.append({"n": args.n, "l": length, "q_sup": q, "delta": q / args.n})
    return rows, None


def _cmd_solve2d(args, rate, meta):
    res = solve_2d(rate, args.n_h, args.l, args.h, tol_q=args.tol_q, n_l_max=args.n_l_max)
    l = res.grid.l_spacings
    h = res.grid.h_spacings
    loads = {"q_sup": res.q_sup, "q_x": res.q_x, "q_y": res.q_y}
    counts = {"n_l": res.n_l, "n_h": res.n_h, "total_nodes": res.total_nodes}
    rows = [{"index": i + 1, "l_spacing_m": l[i] if i < l.size else None,
             "h_spacing_m": h[i] if i < h.size else None, **loads, **counts}
            for i in range(max(l.size, h.size))]
    obj = {**counts, "l": args.l, "h": args.h, **loads,
           "l_spacings": l, "h_spacings": h}
    return rows, obj


def _cmd_perturb(args, rate, meta):
    res = solve(rate, args.n, args.l, tol_q=args.tol_q)
    chash = hashlib.sha256(json.dumps(meta, sort_keys=True).encode()).hexdigest()[:12]
    k = float(meta["attenuation_per_m"])
    rows, objs = [], []
    for sigma in args.sigma:
        stats = ev.perturb_eval(res.placement, rate, sigma,
                                trials=args.trials, seed=args.seed)
        rows.append(dict(zip(ev.PERTURB_CSV_HEADER, (
            chash, args.n, args.l, k, stats.sigma, stats.trials,
            stats.mean_q_sup, stats.std_q_sup, stats.mean_delta))))
        objs.append({**asdict(stats), "config_hash": chash, "n": args.n,
                     "l": args.l, "q_sup_exact": res.q_sup})
    return rows, objs


def _cmd_simulate(args, rate, meta):
    if args.placement:
        placement = _read_placement(args.placement)
        q_ref = ev.qsup_of_placement(placement, rate).q_sup
    else:
        res = solve(rate, args.n, args.l, tol_q=args.tol_q)
        placement = res.placement
        q_ref = res.q_sup
    B = ch._checked_positive(args.data_size, "--data-size")
    if args.probe_factors:
        grid = [f * q_ref for f in sorted(args.probe_factors)]
        probe = sq.stability_probe(
            placement, rate, grid, mean_data_size=B,
            horizon_packets=args.horizon_packets, seed=args.seed,
            arrival_process=args.arrival, packet_size=args.size_dist)
        rows = [{"q": p.q, "q_over_qsup": p.q / q_ref, "stable": int(p.stable),
                 "total_drift_slope": p.total_drift_slope,
                 "end_backlog": p.end_backlog} for p in probe.points]
        obj = {"q_sup_analytic": q_ref, "q_stable": probe.q_stable,
               "q_unstable": probe.q_unstable,
               "points": [asdict(p) for p in probe.points]}
        return rows, obj
    cfg = sq.SimConfig(placement, args.q_factor * q_ref, B, args.arrival,
                       args.size_dist, args.horizon_packets, seed=args.seed)
    stats = sq.simulate(cfg, rate)
    q, lam = cfg.q, cfg.packet_rate
    stable = sq.is_stable(stats, lam)
    rows = [{"node": i + 1, "distance_m": placement.distances[i],
             "time_avg_queue": stats.time_avg_queue[i],
             "end_queue": stats.end_queue[i], "drift_slope": stats.drift_slope[i],
             "q": q, "lambda": lam, "stable": int(stable),
             "delivered": stats.delivered, "generated": stats.generated}
            for i in range(placement.n)]
    obj = {"q": q, "lambda": lam, "stable": stable,
           "total_drift_slope": stats.total_drift_slope,
           "delivered": stats.delivered, "generated": stats.generated,
           "time_avg_queue": stats.time_avg_queue,
           "end_queue": stats.end_queue, "drift_slope": stats.drift_slope}
    if args.timeseries:   # first, so a failed write leaves no table behind
        samples = [{"time_s": t, **{f"node_{i + 1}": v for i, v in enumerate(row)}}
                   for t, row in zip(stats.sample_times, stats.queue_samples)]
        _write(args.timeseries, _csv(samples))
    return rows, obj


def _cmd_compare(args, rate, meta):
    res = solve(rate, args.n, args.l, tol_q=args.tol_q)
    qc = ev.qsup_of_placement(ev.constant_placement(args.n, args.l), rate).q_sup
    n_v = args.n if args.vertical_nv is None else args.vertical_nv
    qv = ev.vertical_qsup(rate, args.vertical_nl, n_v, args.vertical_depth, args.l)
    n_vert_total = args.vertical_nl * (n_v + 1)
    rows = [{"placement": name, "nodes": nodes, "q_sup": q, "delta": q / nodes}
            for name, nodes, q in (("optimal", args.n, res.q_sup),
                                   ("constant", args.n, qc),
                                   ("vertical", n_vert_total, qv))]
    return rows, None


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, name: str, summary: str, func, **shared) -> argparse.ArgumentParser:
    """Subcommand ``name`` run by ``func``, with the flags all subcommands take, and
    --n/--l/--seed for each key of ``shared``: its default, or None if required."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(func=func)
    for flag, kind, what in (("n", int, "number of relay nodes"),
                             ("l", float, "segment length [m]"),
                             ("seed", int, "random seed")):
        if flag in shared:
            p.add_argument(f"--{flag}", type=kind, default=shared[flag],
                           required=shared[flag] is None, help=what)
    src = p.add_mutually_exclusive_group()   # one rate source
    src.add_argument("--preset", help="built-in water preset (red, green, blue)")
    src.add_argument("--config", help="flat JSON channel config file")
    src.add_argument("--fec-config", help="JSON file with FEC rate parameters "
                                          "(with --rate-model fec)")
    p.add_argument("--rate-model", choices=("shannon", "fec"), default="shannon")
    p.add_argument("--tol-q", type=float, default=None,
                   help="absolute width [bit/s per m] of the load search's "
                        "final bracket (default: 2e-10 relative); where "
                        "coverage is flat in q, q_sup's error can be larger "
                        "(red, N = 1, L = 2000: 8e-10 relative)")
    p.add_argument("--output", "-o", default="-", help="output path ('-' = stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="searelay",
        description="Optimal relay placement for seafloor optical wireless networks")
    sub = ap.add_subparsers(dest="command", required=True)

    _add_common(sub, "solve", "optimal spacings and supportable load", _cmd_solve, n=None, l=None)

    p = _add_common(sub, "eval", "supportable load of a stored placement", _cmd_eval)
    p.add_argument("--placement", required=True,
                   help="CSV (index,distance_m) or solve JSON output")

    p = _add_common(sub, "sweep-n", "q_sup and per-node efficiency vs node count",
                    _cmd_sweep_n, l=None)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, required=True)

    p = _add_common(sub, "sweep-l", "q_sup vs segment length at fixed n", _cmd_sweep_l, n=None)
    for flag in ("--l-min", "--l-max", "--l-step"):
        p.add_argument(flag, type=float)
    p.add_argument("--l-values", type=comma_separated_numbers,
                   help="comma-separated lengths, overrides the range")

    p = _add_common(sub, "solve2d", "two-stage grid design over a rectangle", _cmd_solve2d)
    p.add_argument("--n-h", type=int, required=True, help="relay rows beyond the sink's")
    p.add_argument("--l", type=float, required=True, help="row extent [m]")
    p.add_argument("--h", type=float, required=True, help="column extent [m]")
    p.add_argument("--n-l-max", type=int, default=64, help="largest column count allowed")

    p = _add_common(sub, "perturb", "supportable load under position noise",
                    _cmd_perturb, n=None, l=None, seed=0)
    p.add_argument("--sigma", type=float, nargs="+", required=True,
                   help="one or more noise standard deviations [m]")
    p.add_argument("--trials", type=int, default=10_000)

    p = _add_common(sub, "simulate", "tandem-queue simulation / stability probe",
                    _cmd_simulate, n=10, l=500.0, seed=1)
    p.add_argument("--placement", help="evaluate a stored placement instead of solving")
    p.add_argument("--data-size", type=float, default=1e5, help="mean packet size [bit]")
    p.add_argument("--q-factor", type=float, default=0.8,
                   help="single run at this multiple of the supportable load")
    runs = p.add_mutually_exclusive_group()   # a probe makes many runs, a timeseries is one's
    runs.add_argument("--probe-factors", type=comma_separated_numbers,
                      help="comma-separated multiples of q_sup; runs a stability probe")
    runs.add_argument("--timeseries", help="also write per-node backlog samples (CSV)")
    p.add_argument("--horizon-packets", type=int, default=50_000)
    p.add_argument("--arrival", choices=(sq.ARRIVAL_POISSON, sq.ARRIVAL_DETERMINISTIC),
                   default=sq.ARRIVAL_POISSON)
    p.add_argument("--size-dist", choices=(sq.SIZE_FIXED, sq.SIZE_EXPONENTIAL),
                   default=sq.SIZE_FIXED)

    p = _add_common(sub, "compare", "optimal vs constant vs vertical risers",
                    _cmd_compare, n=None, l=None)
    p.add_argument("--vertical-depth", type=float, required=True,
                   help="water column height V [m]")
    p.add_argument("--vertical-nl", type=int, required=True,
                   help="number of risers")
    p.add_argument("--vertical-nv", type=int, default=None,
                   help="hops per riser (default: same as --n)")

    return ap


_parser = functools.cache(build_parser)   # built on the first `main` call, kept for the process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rate, meta = _build_rate(args)
        _emit(args, *args.func(args, rate, meta))
        return 0
    except ValueError as exc:
        print(f"searelay: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"searelay: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
