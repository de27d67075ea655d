"""Simulation of the relay chain's tandem queues, one recursion per node.

Packets are generated on [0, L] by a stationary arrival process, collected
by the nearest node, and forwarded hop by hop toward the sink.  Every hop is
a FIFO single-server queue whose service time is packet size over the hop's
rate; store-and-forward, no propagation delay.  Packets landing in the
sink's own catchment are delivered on arrival and never enter a queue.  A
run is configured by its load, as the analytic model states it (``SimConfig``).
A run works in unit time (arrivals in mean inter-arrival times 1/lambda, sizes
in mean sizes B): only its service times, size x lambda B / R_i at hop i,
depend on the load, and its outputs are converted to seconds.  Runs that differ
only in load or rate share one draw (common random numbers): a memo keeps the
last run's population until a run with another key, 16.6 MiB after one
20,000-packet run at N = 2000.

Traffic only flows toward the sink, so the chain is feed-forward and the
nodes are solved one at a time from node N inward, vectorised over packets.
The packets are grouped by node once, so node i reads its own, ``E_i``, as
one slice.  Its arrivals ``A`` are ``E_i`` stably merged with node i+1's
departures up to the horizon, external arrivals first on ties.  With service
times ``S`` and ``C = cumsum(S)``, its departures follow Lindley's recursion
``D_k = max(A_k, D_{k-1}) + S_k = C_k + max_{j<=k}(A_j - C_{j-1})``
(Lindley 1952; Glasserman & Yao 1994 for tandem queues).  Its backlog at a
sample time t is ``#{A < t} - #{D < t}``, where ``#{A < t} = #{E_i < t} +
#{D_{i+1} < t}``, and one histogram over (sample bin, node) counts every
``#{E_i < t}``.  Time averages and the trace come from ``A`` and ``D``;
trace ids are indices among the relay packets (those outside the sink's
catchment) in generation order.  With fixed sizes, departures are monotone
in the service times, so each sample of the total backlog is too in the load.

The simulator exists to probe stability empirically: below the placement's
supportable load all queues settle, above it the total backlog grows at the
overload rate, which ``stability_probe`` tests on a grid of loads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import RateFunction
from .solver1d import NumericalError, Placement, _checked_count, _checked_positive

__all__ = [
    "ARRIVAL_POISSON", "ARRIVAL_DETERMINISTIC", "SIZE_FIXED", "SIZE_EXPONENTIAL",
    "SimConfig", "QueueStats", "ProbePoint", "ProbeResult",
    "InconclusiveProbeError", "simulate", "is_stable", "stability_probe",
]

ARRIVAL_POISSON = "poisson"
ARRIVAL_DETERMINISTIC = "deterministic"
SIZE_FIXED = "fixed"
SIZE_EXPONENTIAL = "exponential"

N_SAMPLES = 2048              # queue-length snapshots along each run
WARMUP_FRAC = 0.1             # share of the horizon left out of the statistics
DRIFT_SLOPE_FRACTION = 0.01   # stable iff total slope < fraction * packet rate
END_QUEUE_FACTOR = 100.0      # ... and end backlog <= factor * early average
MIN_LOOK_PACKETS = 6_250      # shortest early look of a stability probe
LOOK_BATCHES = 16             # batch means an early look regresses on
LOOK_T = 4.99                 # one-sided t quantile, 14 dof, 1e-4 a look
# `_drift_resolved`'s bands; at 0.99 q_sup, queues still filling reached 2.7
LOOK_STABLE = 0.5
LOOK_UNSTABLE = 4.0
_memo: dict = {}              # the last run's packet population, under its key


class InconclusiveProbeError(NumericalError):
    """Stability classification was not monotone across the probed loads."""

    def __init__(self, message: str, points=None):
        super().__init__(message)
        self.points = points or []


@dataclass(frozen=True)
class SimConfig:
    """One run: ``placement`` carrying ``q`` bit/s per meter in packets of
    mean size ``mean_data_size`` bits, for ``horizon_packets`` mean
    inter-arrival times, of which the first ``WARMUP_FRAC`` is warmup; its
    packets, drawn in unit time from ``seed``, are the same at any q or B."""

    placement: Placement
    q: float                          # offered load [bit/s per m]
    mean_data_size: float = 1e5       # B [bit]
    arrival_process: str = ARRIVAL_POISSON
    packet_size: str = SIZE_FIXED
    horizon_packets: float = 50_000
    seed: int | tuple = 0
    record_trace: bool = False        # per-node arrival/departure id lists

    def __post_init__(self) -> None:
        if self.arrival_process not in (ARRIVAL_POISSON, ARRIVAL_DETERMINISTIC):
            raise ValueError(f"unknown arrival process {self.arrival_process!r}")
        if self.packet_size not in (SIZE_FIXED, SIZE_EXPONENTIAL):
            raise ValueError(f"unknown packet size model {self.packet_size!r}")
        if not 0.0 < self.q < math.inf:
            raise ValueError("q must be finite and > 0 for a positive packet_rate, "
                             f"got {self.q!r}")
        for name in ("mean_data_size", "horizon_packets"):
            _checked_positive(getattr(self, name), name)
        lam = self.packet_rate
        if not (lam > 0.0 and self.horizon_s < math.inf):
            raise ValueError(f"load {self.q!r} is too small: packet_rate {lam!r} "
                             "leaves no finite horizon")
        if not self.horizon_s > self.warmup_s:
            raise ValueError(f"load {self.q!r} is too large: packet_rate {lam!r} "
                             "leaves no time after the warmup")
        for word in self.seed if isinstance(self.seed, tuple) else (self.seed,):
            _checked_count(word, "seed", 0)     # an integer or a tuple of them

    @property
    def packet_rate(self) -> float:
        """lambda = q * L / B, packets per second over the whole segment."""
        return self.q * self.placement.length / self.mean_data_size

    @property
    def horizon_s(self) -> float:
        return self.horizon_packets / self.packet_rate

    @property
    def warmup_s(self) -> float:
        return WARMUP_FRAC * self.horizon_s


@dataclass(frozen=True)
class QueueStats:
    """Per-node backlog statistics over the post-warmup window."""

    time_avg_queue: np.ndarray    # time-weighted mean packets at each node
    end_queue: np.ndarray         # packets at each node at the horizon
    drift_slope: np.ndarray       # LSQ backlog growth per node [packets/s]
    total_drift_slope: float      # LSQ growth of the total backlog [packets/s]
    delivered: int
    generated: int
    duration_s: float
    warmup_s: float
    sample_times: np.ndarray
    queue_samples: np.ndarray     # (N_SAMPLES, N) backlog snapshots
    trace: Optional[dict] = field(default=None, repr=False)

    @functools.cached_property
    def _post(self) -> tuple:
        """Post-warmup sample times and total backlogs, summed once for both drift tests."""
        post = self.sample_times >= self.warmup_s
        return self.sample_times[post], self.queue_samples.sum(axis=1)[post]


def _lsq_slope(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares slope of y (columns) against t."""
    tc = t - t.mean()
    denom = float(tc @ tc)
    if denom == 0.0:
        return np.zeros(y.shape[1])
    return (tc @ y) / denom


def _population(cfg: SimConfig) -> tuple:
    """(grouped, ext_before, ends, sample times) of ``cfg``'s packets in unit time,
    ``grouped`` being arrival times, sizes unless fixed and trace ids if recorded,
    by node; read-only, in a one-entry memo keyed by all the draw depends on."""
    p = cfg.placement
    key = (p.distances.tobytes(), p.length, cfg.horizon_packets, cfg.arrival_process,
           cfg.packet_size, cfg.seed, cfg.record_trace)
    if key in _memo:
        return _memo[key]
    _memo.clear()   # before the draw, so no two populations are held at once
    n, horizon = p.n, cfg.horizon_packets
    rng = np.random.default_rng(cfg.seed)
    # draw order fixed for determinism: times, positions, sizes
    if cfg.arrival_process == ARRIVAL_POISSON:
        chunk = max(1024, int(horizon * 1.1) + 64)
        times = np.cumsum(rng.standard_exponential(chunk))
        while times[-1] <= horizon:   # rarely: a chunk goes on from the last one's end
            times = np.append(times, times[-1] + np.cumsum(rng.standard_exponential(chunk)))
        times = times[times <= horizon]
    else:
        times = np.arange(1.0, math.floor(horizon) + 1.0)
    positions = rng.uniform(0.0, p.length, times.size)
    sizes = None if cfg.packet_size == SIZE_FIXED else rng.standard_exponential(times.size)

    x = p.positions
    owner = np.searchsorted(0.5 * (x[:-1] + x[1:]), positions, side="right")  # 0 = sink
    grp = np.argsort(owner.astype(np.min_scalar_type(n)), kind="stable")  # by node: a radix sort
    ids = np.cumsum(owner > 0) - 1 if cfg.record_trace else None  # index among relay packets
    grouped = [v[grp] for v in (times, sizes, ids) if v is not None]  # only what runs need
    sample_t = np.linspace(0.0, horizon, N_SAMPLES)
    per_bin = np.diff(np.searchsorted(times, sample_t), prepend=0, append=times.size)
    bins = np.repeat(np.arange(0, (N_SAMPLES + 1) * (n + 1), n + 1), per_bin) + owner
    # [s, k]: #{E_k < t_s}; the (sample, node) counts are int32, up to 2**31 packets
    ext_before = np.bincount(bins, minlength=(N_SAMPLES + 1) * (n + 1)).reshape(
        N_SAMPLES + 1, n + 1).cumsum(axis=0, dtype=np.int32)
    ends = ext_before[-1].cumsum()       # node k's packets: grouped[j][ends[k - 1]:ends[k]]
    for v in (*grouped, ext_before, ends, sample_t):
        v.flags.writeable = False
    _memo[key] = pop = (grouped, ext_before, ends, sample_t)
    return pop


def simulate(cfg: SimConfig, rate: RateFunction) -> QueueStats:
    """Run the tandem-queue simulation and summarize backlog behavior."""
    n, lam = cfg.placement.n, cfg.packet_rate
    horizon = cfg.horizon_packets          # unit time: mean inter-arrival times
    warmup = WARMUP_FRAC * horizon

    link_rate = np.asarray(rate(cfg.placement.distances), dtype=float)
    if np.any(link_rate <= 0.0) or not np.all(np.isfinite(link_rate)):
        raise ValueError("every hop needs a positive, finite rate")
    service = cfg.q * cfg.placement.length / link_rate   # lambda B / R: in unit time
    grouped, ext_before, ends, sample_t = _population(cfg)

    # --- one Lindley recursion per node, from the far end inward
    dep_before = np.zeros((N_SAMPLES, n + 1), dtype=np.int32)   # [s, i]: node i + 1's #{D < t_s}
    time_avg = np.zeros(n)
    end_queue = np.zeros(n)
    trace = {"arrivals": [None] * n, "departures": [None] * n} if cfg.record_trace else None
    up = [v[:0] for v in grouped]   # next node out: departures by the horizon
    for i in range(n - 1, -1, -1):     # hop i serves node i + 1
        a, *data = [np.concatenate((v[ends[i]:ends[i + 1]], u)) for v, u in zip(grouped, up)]
        if data:   # sizes or ids follow their packets, external arrivals first on ties
            order = np.argsort(a, kind="stable")
            a, data = a[order], [v[order] for v in data]
        else:
            a.sort(kind="stable")
        s = np.full(a.size, service[i]) if cfg.packet_size == SIZE_FIXED else data[0] * service[i]
        c = np.cumsum(s)
        d = np.maximum.accumulate(np.subtract(a, np.subtract(c, s, out=s), out=s), out=s) + c
        dep_before[:, i] = np.searchsorted(d, sample_t)
        done = int(np.searchsorted(d, horizon, side="right"))
        in_window = np.subtract(np.minimum(d, horizon, out=c), np.maximum(a, warmup, out=a), out=c)
        time_avg[i] = np.maximum(in_window, 0.0, out=in_window).sum() / (horizon - warmup)
        end_queue[i] = a.size - done
        if trace is not None:
            trace["arrivals"][i], trace["departures"][i] = data[-1].tolist(), data[-1][:done].tolist()
        up = [v[:done] for v in (d, *data)]

    samples = np.add(ext_before[:-1, 1:], dep_before[:, 1:], dtype=float)
    samples -= dep_before[:, :-1]    # exact: the counts are integers
    post = sample_t >= warmup
    drift = _lsq_slope(sample_t[post], samples[post]) * lam   # in packets/s

    return QueueStats(
        time_avg_queue=time_avg, end_queue=end_queue, drift_slope=drift,
        total_drift_slope=float(drift.sum()),  # slope is linear, so totals add
        delivered=int(ends[0] + up[0].size),  # sink's own + node 1's
        generated=int(ends[-1]), duration_s=cfg.horizon_s, warmup_s=cfg.warmup_s,
        sample_times=sample_t / lam, queue_samples=samples, trace=trace)


def is_stable(stats: QueueStats, packet_rate: float) -> bool:
    """Drift test: total backlog slope under 1% of the packet rate, with an
    end-backlog backstop against slow late growth."""
    totals = stats._post[1]
    early_avg = float(totals[:max(1, totals.size // 4)].mean())
    return (stats.total_drift_slope < DRIFT_SLOPE_FRACTION * packet_rate
            and float(stats.end_queue.sum()) <= END_QUEUE_FACTOR * max(early_avg, 1e-9))


def _drift_resolved(stats: QueueStats, packet_rate: float, stable: bool) -> bool:
    """Whether the backlog slope's band, LOOK_T standard errors from its residuals
    each side of the slope through LOOK_BATCHES post-warmup batch means (Schmeiser
    1982; in unit time), settles ``stable``: within LOOK_STABLE thresholds of 0
    if stable, else over LOOK_UNSTABLE (1e-4 a look, Wald 1945)."""
    t, y = stats._post
    k = y.size // LOOK_BATCHES * LOOK_BATCHES
    t = (t[:k] * packet_rate).reshape(LOOK_BATCHES, -1).mean(axis=1)   # in unit time
    y = y[:k].reshape(LOOK_BATCHES, -1).mean(axis=1)
    tc = t - t.mean()
    slope = float(tc @ y) / float(tc @ tc)
    resid = y - y.mean() - slope * tc
    half = LOOK_T * math.sqrt(float(resid @ resid) / (LOOK_BATCHES - 2) / float(tc @ tc))
    # the threshold is DRIFT_SLOPE_FRACTION packets per unit time
    return (abs(slope) + half < LOOK_STABLE * DRIFT_SLOPE_FRACTION if stable
            else slope - half > LOOK_UNSTABLE * DRIFT_SLOPE_FRACTION)


@dataclass(frozen=True)
class ProbePoint:
    q: float
    stable: bool
    total_drift_slope: float
    end_backlog: float


@dataclass(frozen=True)
class ProbeResult:
    q_stable: Optional[float]     # largest probed load classified stable
    q_unstable: Optional[float]   # smallest probed load classified unstable
    points: tuple


def stability_probe(placement: Placement, rate: RateFunction, q_grid,
                    *, mean_data_size: float = 1e5, horizon_packets: int = 50_000,
                    seed: int = 1, arrival_process: str = ARRIVAL_POISSON,
                    packet_size: str = SIZE_FIXED) -> ProbeResult:
    """Simulate each load in an ascending grid and locate the empirical boundary.

    Each load runs at the looks cap/8, cap/4, cap/2 of ``horizon_packets`` (of
    at least ``MIN_LOOK_PACKETS``) and the cap, each one ``SimConfig`` run, and
    stops at the first look that ``_drift_resolved`` settles, else the cap; its
    point and flag are that run's.  Look j is seeded (seed, j) at every load, so
    its loads share one population; it runs every load still unsettled."""
    q_grid = [float(q) for q in q_grid]
    if not q_grid:
        raise ValueError("q_grid must not be empty")
    if not all(0.0 < q < math.inf for q in q_grid):
        raise ValueError(f"q_grid loads must be finite and > 0, got {q_grid}")
    if any(b <= a for a, b in zip(q_grid, q_grid[1:])):
        raise ValueError("q_grid must be strictly increasing")
    looks = [h for h in (horizon_packets / 8, horizon_packets / 4, horizon_packets / 2)
             if h >= MIN_LOOK_PACKETS] + [horizon_packets]
    # every run is checked first: a load fails as its cap's run would, the lowest first
    runs = [[SimConfig(placement, q, mean_data_size, arrival_process, packet_size, h,
                       seed=(seed, j)) for j, h in enumerate(looks)] for q in q_grid]
    points, unsettled = [None] * len(q_grid), list(range(len(q_grid)))
    for j in range(len(looks)):
        for i in unsettled[:]:   # a load left unsettled runs on; the cap's run is final
            cfg = runs[i][j]
            stats = simulate(cfg, rate)
            stable = is_stable(stats, cfg.packet_rate)
            points[i] = ProbePoint(q=cfg.q, stable=stable,
                                   total_drift_slope=stats.total_drift_slope,
                                   end_backlog=float(stats.end_queue.sum()))
            if _drift_resolved(stats, cfg.packet_rate, stable):
                unsettled.remove(i)
    flags = [p.stable for p in points]
    # all stable loads must precede all unstable ones
    if any(a < b for a, b in zip(flags, flags[1:])):
        raise InconclusiveProbeError(
            "stability classification is not monotone across the load grid; "
            "lengthen the horizon", points)
    k = flags.count(True)   # the grid ascends, so its first k loads are stable
    return ProbeResult(q_stable=q_grid[k - 1] if k else None,
                       q_unstable=q_grid[k] if k < len(q_grid) else None,
                       points=tuple(points))
