"""Reference event-driven tandem-queue simulator (test oracle).

The heap/deque event loop that ``searelay.simqueue.simulate`` used before
its per-node Lindley recursion, kept whole, packet generation included.  It
processes one event at a time: the earliest of the next external arrival and
the next departure, external arrivals first on ties.  It draws the packets
in the same order as ``simulate`` and returns the same ``QueueStats``, so
tests can compare the two field by field, draw order included.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from searelay.simqueue import (ARRIVAL_POISSON, N_SAMPLES, SIZE_FIXED,
                               QueueStats, SimConfig, _lsq_slope)


def simulate_events(cfg: SimConfig, rate) -> QueueStats:
    """Run the tandem queues event by event and summarize backlog behavior."""
    placement = cfg.placement
    n = placement.n
    lam = cfg.packet_rate
    mean_size = cfg.mean_data_size
    horizon, warmup = cfg.horizon_s, cfg.warmup_s

    d = placement.distances
    link_rate = np.asarray(rate(d), dtype=float)
    if np.any(link_rate <= 0.0) or not np.all(np.isfinite(link_rate)):
        raise ValueError("every hop needs a positive, finite rate")
    inv_rate = (1.0 / link_rate).tolist()

    rng = np.random.default_rng(cfg.seed)

    # --- pre-generate the packet population (draw order fixed for determinism)
    if cfg.arrival_process == ARRIVAL_POISSON:
        chunks = []
        t_last = 0.0
        chunk = max(1024, int(lam * horizon * 1.1) + 64)
        while t_last <= horizon:
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
        sizes = np.full(m, mean_size)
    else:
        sizes = rng.exponential(mean_size, m)

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
    queues = [deque() for _ in range(n + 1)]   # waiting packet sizes
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
            if busy[nd]:
                queues[nd].append((size, pk))
            else:
                busy[nd] = True
                seq += 1
                hpush(heap, (t + size * inv_rate[nd - 1], seq, nd, size, pk))
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
                if busy[nx]:
                    queues[nx].append((size, pk))
                else:
                    busy[nx] = True
                    seq += 1
                    hpush(heap, (t + size * inv_rate[nx - 1], seq, nx, size, pk))
            q = queues[nd]
            if q:
                nsize, npk = q.popleft()
                seq += 1
                hpush(heap, (t + nsize * inv_rate[nd - 1], seq, nd, nsize, npk))
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
    drift = np.asarray(_lsq_slope(sample_t[post], samples[post]), dtype=float)
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
        duration_s=horizon,
        warmup_s=warmup,
        sample_times=sample_t,
        queue_samples=samples,
        trace=trace,
    )
