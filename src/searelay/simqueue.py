"""Simulation of the relay chain's tandem queues, one recursion per node.

A run is configured by its load, as the analytic model states it: a
``SimConfig`` holds the placement, the load q [bit/s per m], the mean packet
size B and a horizon counted in packets.  The packet rate lambda = q L / B,
the horizon in seconds (horizon_packets / lambda) and the warmup (a fraction
of the horizon) are derived from those, in that order, in one place.

Packets are generated on [0, L] by a stationary arrival process, collected
by the nearest node, and forwarded hop by hop toward the sink.  Every hop is
a FIFO single-server queue whose service time is packet size over the hop's
rate; store-and-forward, no propagation delay.  Packets landing in the
sink's own catchment are delivered on arrival and never enter a queue.

Traffic only flows toward the sink, so the chain is feed-forward and the
nodes are solved one at a time from node N inward, vectorised over packets.
Node i's arrival times ``A`` are its own packets stably merged with node
i+1's departures up to the horizon, external arrivals first on ties.  With
service times ``S`` and ``C = cumsum(S)``, its departures follow Lindley's
recursion ``D_k = max(A_k, D_{k-1}) + S_k = C_k + max_{j<=k}(A_j - C_{j-1})``
(Lindley 1952; Glasserman & Yao 1994 for tandem queues).  Backlog samples,
time averages and the trace all come from ``A`` and ``D``; trace ids are
indices among the relay packets (those outside the sink's catchment) in
generation order.

The simulator exists to probe stability empirically: below the placement's
supportable load all queues settle, above it the total backlog grows at the
overload rate.  ``stability_probe`` classifies a grid of loads with the
least-squares drift test and reports where the empirical boundary sits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import RateFunction
from .scalar import NumericalError
from .solver1d import Placement, _checked_positive

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


class InconclusiveProbeError(NumericalError):
    """Stability classification was not monotone across the probed loads."""

    def __init__(self, message: str, points=None):
        super().__init__(message)
        self.points = points or []


@dataclass(frozen=True)
class SimConfig:
    """One run: ``placement`` carrying ``q`` bit/s per meter in packets of
    mean size ``mean_data_size`` bits, for ``horizon_packets`` mean
    inter-arrival times, of which the first ``WARMUP_FRAC`` is warmup."""

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
        words = self.seed if isinstance(self.seed, tuple) else (self.seed,)
        if not all(isinstance(w, numbers.Integral) and not isinstance(w, bool)
                   and w >= 0 for w in words):
            raise ValueError("seed must be a non-negative integer or a tuple "
                             f"of them, got {self.seed!r}")

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


def _lsq_slope(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares slope of y (columns) against t.

    The times are scaled by the power of two nearest their largest
    magnitude first, so sums of squares stay finite on any finite horizon;
    the scaling is exact, which leaves the slope's bits unchanged.
    """
    e = math.frexp(float(np.abs(t).max()))[1]
    ts = np.ldexp(t, -e)
    tc = ts - ts.mean()
    denom = float(tc @ tc)
    if denom == 0.0:
        return np.zeros(y.shape[1])
    return np.ldexp((tc @ y) / denom, -e)


def simulate(cfg: SimConfig, rate: RateFunction) -> QueueStats:
    """Run the tandem-queue simulation and summarize backlog behavior."""
    placement = cfg.placement
    n = placement.n
    lam, horizon, warmup = cfg.packet_rate, cfg.horizon_s, cfg.warmup_s

    link_rate = np.asarray(rate(placement.distances), dtype=float)
    if np.any(link_rate <= 0.0) or not np.all(np.isfinite(link_rate)):
        raise ValueError("every hop needs a positive, finite rate")
    inv_rate = 1.0 / link_rate

    rng = np.random.default_rng(cfg.seed)

    # --- pre-generate the packet population (draw order fixed for determinism)
    if cfg.arrival_process == ARRIVAL_POISSON:
        chunks = []
        t_last = 0.0
        chunk = max(1024, int(lam * horizon * 1.1) + 64)
        while t_last <= horizon:
            # at tiny rates the chunk's sum can pass the float range; times
            # past the horizon, inf included, are dropped below
            with np.errstate(over="ignore"):
                cs = t_last + np.cumsum(rng.exponential(1.0 / lam, chunk))
            chunks.append(cs)
            t_last = float(cs[-1])
        times = np.concatenate(chunks)
        times = times[times <= horizon]
    else:
        times = np.arange(1.0, math.floor(lam * horizon) + 1.0) / lam
    m = times.size
    positions = rng.uniform(0.0, placement.length, m)
    if cfg.packet_size == SIZE_FIXED:
        sizes = np.full(m, cfg.mean_data_size)
    else:
        sizes = rng.exponential(cfg.mean_data_size, m)

    x = placement.positions
    boundaries = 0.5 * (x[:-1] + x[1:])
    owner = np.searchsorted(boundaries, positions, side="right")  # 0 = sink
    relay = owner > 0
    ext_t, ext_node, ext_size = times[relay], owner[relay], sizes[relay]
    ext_id = np.arange(ext_t.size)     # trace id: index among relay packets

    # --- one Lindley recursion per node, from the far end inward
    sample_t = np.linspace(0.0, horizon, N_SAMPLES)
    samples = np.zeros((N_SAMPLES, n), dtype=float)
    time_avg = np.zeros(n)
    end_queue = np.zeros(n)
    trace = {"arrivals": [None] * n, "departures": [None] * n} if cfg.record_trace else None
    up_t, up_id = ext_t[:0], ext_id[:0]   # next node out: departures by the horizon
    for i in range(n - 1, -1, -1):     # hop i serves node i + 1
        own = ext_node == i + 1
        t = np.concatenate((ext_t[own], up_t))
        order = np.argsort(t, kind="stable")   # external arrivals first on ties
        a = t[order]
        ids = np.concatenate((ext_id[own], up_id))[order]
        s = ext_size[ids] * inv_rate[i]
        c = np.cumsum(s)
        d = c + np.maximum.accumulate(a - (c - s))
        done = int(np.searchsorted(d, horizon, side="right"))
        samples[:, i] = (np.searchsorted(a, sample_t, side="left")
                         - np.searchsorted(d, sample_t, side="left"))
        in_window = np.minimum(d, horizon) - np.maximum(a, warmup)
        time_avg[i] = np.clip(in_window, 0.0, None).sum() / (horizon - warmup)
        end_queue[i] = a.size - done
        if trace is not None:
            trace["arrivals"][i], trace["departures"][i] = ids.tolist(), ids[:done].tolist()
        up_t, up_id = d[:done], ids[:done]

    post = sample_t >= warmup
    drift = _lsq_slope(sample_t[post], samples[post])

    return QueueStats(
        time_avg_queue=time_avg, end_queue=end_queue, drift_slope=drift,
        total_drift_slope=float(drift.sum()),  # slope is linear, so totals add
        delivered=int(m - ext_t.size + up_t.size),  # sink's own + node 1's
        generated=int(m), duration_s=horizon, warmup_s=warmup,
        sample_times=sample_t, queue_samples=samples, trace=trace)


def is_stable(stats: QueueStats, packet_rate: float) -> bool:
    """Drift test: total backlog slope under 1% of the packet rate, with an
    end-backlog backstop against slow late growth."""
    if stats.total_drift_slope >= DRIFT_SLOPE_FRACTION * packet_rate:
        return False
    post = stats.sample_times >= stats.warmup_s
    totals = stats.queue_samples[post].sum(axis=1)
    quarter = max(1, totals.size // 4)
    early_avg = float(totals[:quarter].mean())
    end_total = float(stats.end_queue.sum())
    return end_total <= END_QUEUE_FACTOR * max(early_avg, 1e-9)


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
    """Simulate each load in an ascending grid and locate the empirical boundary."""
    q_grid = [float(q) for q in q_grid]
    if not q_grid:
        raise ValueError("q_grid must not be empty")
    if not all(0.0 < q < math.inf for q in q_grid):
        raise ValueError(f"q_grid loads must be finite and > 0, got {q_grid}")
    if any(b <= a for a, b in zip(q_grid, q_grid[1:])):
        raise ValueError("q_grid must be strictly increasing")
    points = []
    for i, q in enumerate(q_grid):
        # the grid ascends, so a load too small for a horizon fails first
        cfg = SimConfig(placement, q, mean_data_size, arrival_process, packet_size,
                        horizon_packets, seed=(seed, i))
        stats = simulate(cfg, rate)
        points.append(ProbePoint(q=q, stable=is_stable(stats, cfg.packet_rate),
                                 total_drift_slope=stats.total_drift_slope,
                                 end_backlog=float(stats.end_queue.sum())))
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
