"""Reference event-driven tandem-queue simulator (test oracle).

The heap/deque event loop that ``searelay.simqueue.simulate`` used before
its per-node Lindley recursion, packet generation included.  It processes
one event at a time: the earliest of the next external arrival and the next
departure, external arrivals first on ties.  It draws the packets in unit
time (arrival times in mean inter-arrival times, sizes in mean sizes) and in
the same order as ``simulate``, runs its clock in unit time and returns the
same ``QueueStats`` in seconds, so tests can compare the two field by field,
draw order included.

Only a departure's time, max(arrival, last departure) + service, is written
as ``simulate`` writes it, in Lindley's closed form (``departure``): on unit
time's lattice (integer deterministic arrivals, fixed sizes, a horizon of
whole packets) departures can tie the horizon or an arrival exactly, and two
ways of rounding the same sum would then decide the tie differently.  The
queues, their order, counts, samples and time averages stay the loop's own.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from searelay.simqueue import (ARRIVAL_POISSON, N_SAMPLES, SIZE_FIXED, WARMUP_FRAC,
                               QueueStats, SimConfig, _lsq_slope)


def simulate_events(cfg: SimConfig, rate) -> QueueStats:
    """Run the tandem queues event by event and summarize backlog behavior."""
    placement = cfg.placement
    n = placement.n
    lam = cfg.packet_rate
    horizon = cfg.horizon_packets      # unit time: mean inter-arrival times
    warmup = WARMUP_FRAC * horizon

    d = placement.distances
    link_rate = np.asarray(rate(d), dtype=float)
    if np.any(link_rate <= 0.0) or not np.all(np.isfinite(link_rate)):
        raise ValueError("every hop needs a positive, finite rate")
    # a mean packet's service time at each hop, in unit time
    service = (cfg.q * placement.length / link_rate).tolist()

    rng = np.random.default_rng(cfg.seed)

    # --- pre-generate the packet population (draw order fixed for determinism)
    if cfg.arrival_process == ARRIVAL_POISSON:
        chunks = []
        t_last = 0.0
        chunk = max(1024, int(horizon * 1.1) + 64)
        while t_last <= horizon:
            cs = t_last + np.cumsum(rng.standard_exponential(chunk))
            chunks.append(cs)
            t_last = float(cs[-1])
        times = np.concatenate(chunks)
        times = times[times <= horizon]
    else:
        times = np.arange(1.0, math.floor(horizon) + 1.0)
    m = times.size
    positions = rng.uniform(0.0, placement.length, m)
    if cfg.packet_size == SIZE_FIXED:
        sizes = np.ones(m)           # in mean sizes
    else:
        sizes = rng.standard_exponential(m)

    x = placement.positions
    boundaries = 0.5 * (x[:-1] + x[1:])
    owner = np.searchsorted(boundaries, positions, side="right")  # 0 = sink

    relay = owner > 0
    sink_delivered = int(m - relay.sum())
    ext_times = times[relay]
    ext_nodes = owner[relay].tolist()
    ext_sizes = sizes[relay].tolist()
    ext_t = ext_times.tolist()
    n_ext = len(ext_t)

    # --- state
    counts = [0] * (n + 1)          # packets at each node (waiting + in service)
    busy = [False] * (n + 1)
    queues = [deque() for _ in range(n + 1)]   # waiting packets
    acc = [0.0] * (n + 1)           # time integral of counts
    last_t = [0.0] * (n + 1)
    warm_acc = None
    delivered_relay = 0
    in_system = 0
    processed = 0
    heap: list = []
    seq = 0
    trace_arr = [[] for _ in range(n + 1)] if cfg.record_trace else None
    trace_dep = [[] for _ in range(n + 1)] if cfg.record_trace else None
    ids_enabled = cfg.record_trace

    sample_t = np.linspace(0.0, horizon, N_SAMPLES)
    samples = np.zeros((N_SAMPLES, n), dtype=float)
    sp = 0
    stimes = sample_t.tolist()

    hpush = heapq.heappush
    hpop = heapq.heappop
    inf = math.inf

    def snapshot_warm(at: float) -> list:
        return [acc[i] + counts[i] * (at - last_t[i]) for i in range(n + 1)]

    work = [0.0] * (n + 1)          # service time of every arrival so far
    lead = [-inf] * (n + 1)         # max over arrivals of (arrival - work before it)

    def departure(nd: int, at: float, size: float) -> float:
        """FIFO departure time of a packet reaching node nd at `at`, by Lindley's
        closed form in ``simulate``'s float operations, so that events tied on
        unit time's lattice (deterministic arrivals, fixed sizes) round alike."""
        s = size * service[nd - 1]
        work[nd] += s
        lead[nd] = max(lead[nd], at - (work[nd] - s))
        return lead[nd] + work[nd]

    ei = 0
    while True:
        t_ext = ext_t[ei] if ei < n_ext else inf
        t_dep = heap[0][0] if heap else inf
        t = t_ext if t_ext <= t_dep else t_dep
        if t is inf or t > horizon:
            break
        while sp < N_SAMPLES and stimes[sp] <= t:
            samples[sp] = counts[1:]
            sp += 1
        if warm_acc is None and t > warmup:
            warm_acc = snapshot_warm(warmup)
        if t_ext <= t_dep:
            # external arrival of packet ei at node nd
            nd = ext_nodes[ei]
            size = ext_sizes[ei]
            pk = ei
            ei += 1
            processed += 1
            in_system += 1
            acc[nd] += counts[nd] * (t - last_t[nd])
            last_t[nd] = t
            counts[nd] += 1
            if ids_enabled:
                trace_arr[nd].append(pk)
            dep = departure(nd, t, size)
            if busy[nd]:
                queues[nd].append((dep, size, pk))
            else:
                busy[nd] = True
                seq += 1
                hpush(heap, (dep, seq, nd, size, pk))
        else:
            _, _, nd, size, pk = hpop(heap)
            acc[nd] += counts[nd] * (t - last_t[nd])
            last_t[nd] = t
            counts[nd] -= 1
            if ids_enabled:
                trace_dep[nd].append(pk)
            if nd == 1:
                delivered_relay += 1
                in_system -= 1
            else:
                nx = nd - 1
                acc[nx] += counts[nx] * (t - last_t[nx])
                last_t[nx] = t
                counts[nx] += 1
                if ids_enabled:
                    trace_arr[nx].append(pk)
                dep = departure(nx, t, size)
                if busy[nx]:
                    queues[nx].append((dep, size, pk))
                else:
                    busy[nx] = True
                    seq += 1
                    hpush(heap, (dep, seq, nx, size, pk))
            q = queues[nd]
            if q:
                ndep, nsize, npk = q.popleft()
                seq += 1
                hpush(heap, (ndep, seq, nd, nsize, npk))
            else:
                busy[nd] = False
        if processed != delivered_relay + in_system:
            raise AssertionError("packet conservation violated")

    # --- flush to the horizon
    while sp < N_SAMPLES:
        samples[sp] = counts[1:]
        sp += 1
    if warm_acc is None:
        warm_acc = snapshot_warm(warmup)
    final_acc = [acc[i] + counts[i] * (horizon - last_t[i]) for i in range(n + 1)]
    span = horizon - warmup
    time_avg = np.array([(final_acc[i] - warm_acc[i]) / span for i in range(1, n + 1)])
    end_queue = np.array(counts[1:], dtype=float)

    post = sample_t >= warmup
    drift = np.asarray(_lsq_slope(sample_t[post], samples[post]), dtype=float) * lam
    total_drift = float(drift.sum())

    trace = None
    if cfg.record_trace:
        trace = {
            "arrivals": [list(a) for a in trace_arr[1:]],
            "departures": [list(dp) for dp in trace_dep[1:]],
        }
    return QueueStats(
        time_avg_queue=time_avg,
        end_queue=end_queue,
        drift_slope=drift,
        total_drift_slope=total_drift,
        delivered=sink_delivered + delivered_relay,
        generated=int(m),
        duration_s=cfg.horizon_s,
        warmup_s=cfg.warmup_s,
        sample_times=sample_t / lam,
        queue_samples=samples,
        trace=trace,
    )
