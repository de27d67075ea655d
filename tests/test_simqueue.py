"""Tandem-queue simulator: conservation, FIFO order, drift classification,
and agreement with the event-by-event reference simulator."""

import dataclasses
import functools
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import searelay as sr
from searelay.simqueue import (ARRIVAL_DETERMINISTIC, ARRIVAL_POISSON,
                               SIZE_EXPONENTIAL, SIZE_FIXED, WARMUP_FRAC, _lsq_slope)
from simqueue_oracle import simulate_events

LENGTH = 200.0
SIZE = 1e5


def single_hop(length=LENGTH):
    return sr.Placement(distances=np.array([length]), length=length)


def cfg_for(placement, q, *, horizon_packets=20_000,
            arrival=ARRIVAL_DETERMINISTIC, size_model=SIZE_FIXED, **kw):
    return sr.SimConfig(placement, q, SIZE, arrival, size_model, horizon_packets, **kw)


def test_empty_horizon_produces_nothing(blue_rate):
    # half a packet's worth of time: no deterministic arrival fits
    cfg = cfg_for(single_hop(), 1.0, horizon_packets=0.5)
    stats = sr.simulate(cfg, blue_rate)
    assert stats.generated == 0
    assert stats.delivered == 0
    assert stats.end_queue.sum() == 0.0
    assert stats.total_drift_slope == 0.0
    assert stats.queue_samples.shape == (2048, 1)


def test_hop_without_rate_is_rejected(red_rate):
    # red water attenuates a 5 km hop's rate to 0: no service time exists
    assert red_rate.scalar(5000.0) == 0.0
    with pytest.raises(ValueError, match="every hop needs a positive, finite rate"):
        sr.simulate(cfg_for(single_hop(5000.0), 1e-3, horizon_packets=100), red_rate)


def test_lsq_slope_on_equal_times_is_zero():
    assert np.array_equal(_lsq_slope(np.full(4, 2.0), np.ones((4, 3))), np.zeros(3))


def test_poisson_draw_goes_on_past_a_short_first_chunk(blue_rate):
    # seed 318097's first 1024 gaps sum to 871.96 mean inter-arrival times,
    # short of an 874.5 horizon, so a second chunk goes on from there
    gaps = np.random.default_rng(318097).standard_exponential(2048)
    assert gaps[:1024].sum() < 874.5
    cfg = cfg_for(single_hop(), 1e3, horizon_packets=874.5, arrival=ARRIVAL_POISSON,
                  seed=318097)
    assert sr.simulate(cfg, blue_rate).generated == np.sum(np.cumsum(gaps) <= 874.5) > 1024


def test_packet_conservation_under_overload(blue_rate):
    res = sr.solve(blue_rate, 3, LENGTH)
    cfg = cfg_for(res.placement, 1.5 * res.q_sup, horizon_packets=15_000,
                  arrival=ARRIVAL_POISSON, seed=5)
    stats = sr.simulate(cfg, blue_rate)
    assert stats.generated > 0
    assert stats.end_queue.sum() > 0  # overloaded: someone is backed up
    assert stats.delivered + int(stats.end_queue.sum()) == stats.generated


def test_fifo_order_per_link(blue_rate):
    res = sr.solve(blue_rate, 3, LENGTH)
    cfg = cfg_for(res.placement, 0.9 * res.q_sup, horizon_packets=4_000,
                  arrival=ARRIVAL_POISSON, seed=2, record_trace=True)
    stats = sr.simulate(cfg, blue_rate)
    assert stats.trace is not None
    for arr, dep in zip(stats.trace["arrivals"], stats.trace["departures"]):
        assert dep == arr[:len(dep)]
        assert len(dep) <= len(arr)
    # hop 1 feeds the sink: everything it sent out was delivered
    assert stats.delivered >= len(stats.trace["departures"][0])


def test_same_seed_bitwise_reproducible(blue_rate):
    res = sr.solve(blue_rate, 2, LENGTH)
    mk = lambda s: sr.simulate(
        cfg_for(res.placement, 0.8 * res.q_sup, horizon_packets=5_000,
                arrival=ARRIVAL_POISSON, size_model=SIZE_EXPONENTIAL, seed=s),
        blue_rate)
    a, b, c = mk(9), mk(9), mk(10)
    assert a.generated == b.generated
    assert a.delivered == b.delivered
    assert np.array_equal(a.queue_samples, b.queue_samples)
    assert np.array_equal(a.end_queue, b.end_queue)
    assert (a.generated, a.delivered) != (c.generated, c.delivered) or \
        not np.array_equal(a.queue_samples, c.queue_samples)


def test_single_hop_stable_below_boundary(blue_rate):
    q_b = 2.0 * blue_rate.scalar(LENGTH) / LENGTH
    p = single_hop()
    cfg = cfg_for(p, 0.8 * q_b, horizon_packets=30_000)
    stats = sr.simulate(cfg, blue_rate)
    lam = cfg.packet_rate
    assert sr.is_stable(stats, lam)
    assert np.all(np.abs(stats.drift_slope) < 0.01 * lam)
    assert np.all(stats.time_avg_queue < 10.0)


def test_single_hop_overload_drift_matches_rate_gap(blue_rate):
    # above the boundary the relay queue grows at lambda/2 - R(L)/B pkt/s
    q_b = 2.0 * blue_rate.scalar(LENGTH) / LENGTH
    p = single_hop()
    cfg = cfg_for(p, 1.2 * q_b, horizon_packets=30_000)
    stats = sr.simulate(cfg, blue_rate)
    lam = cfg.packet_rate
    assert not sr.is_stable(stats, lam)
    expected = 0.2 * blue_rate.scalar(LENGTH) / SIZE
    assert stats.total_drift_slope == pytest.approx(expected, rel=0.2)


def test_probe_brackets_single_hop_boundary(blue_rate):
    q_b = 2.0 * blue_rate.scalar(LENGTH) / LENGTH
    res = sr.stability_probe(single_hop(), blue_rate,
                             [0.9 * q_b, 1.1 * q_b],
                             mean_data_size=SIZE, horizon_packets=20_000,
                             seed=3)
    assert res.q_stable == pytest.approx(0.9 * q_b)
    assert res.q_unstable == pytest.approx(1.1 * q_b)
    assert len(res.points) == 2
    assert res.points[0].stable and not res.points[1].stable


def test_probe_grid_validation(blue_rate):
    p = single_hop()
    with pytest.raises(ValueError):
        sr.stability_probe(p, blue_rate, [])
    with pytest.raises(ValueError):
        sr.stability_probe(p, blue_rate, [2.0, 1.0])
    with pytest.raises(ValueError):
        sr.stability_probe(p, blue_rate, [-1.0, 1.0])


@pytest.mark.parametrize("seed", [1.5, -1, True, "3", None, (1, -2), (1, 2.0), (False,)])
def test_sim_config_rejects_bad_seed(seed):
    # a ValueError naming the field, not a TypeError from default_rng
    with pytest.raises(ValueError, match="seed"):
        sr.SimConfig(placement=single_hop(), q=1e3, seed=seed)


@pytest.mark.parametrize("seed", [0, 7, np.int64(3), (2, 0), (np.uint32(5), 1)])
def test_sim_config_accepts_integer_seeds(seed):
    assert sr.SimConfig(placement=single_hop(), q=1e3, seed=seed).seed == seed


def test_sim_config_validation():
    p = single_hop()
    with pytest.raises(ValueError, match="arrival process"):
        sr.SimConfig(placement=p, q=1e3, arrival_process="bursty")
    with pytest.raises(ValueError, match="packet size"):
        sr.SimConfig(placement=p, q=1e3, packet_size="pareto")
    # q * L overflows, so the packet rate is inf and the horizon 0 s
    with pytest.raises(ValueError, match=r"load 1e\+308 is too large"):
        sr.SimConfig(placement=p, q=1e308)


def test_sim_config_derives_rate_then_horizon_then_warmup():
    cfg = sr.SimConfig(single_hop(), 3.7e3, mean_data_size=2e4,
                       horizon_packets=1234)
    lam = 3.7e3 * LENGTH / 2e4
    assert cfg.packet_rate == lam
    assert cfg.horizon_s == 1234 / lam
    assert cfg.warmup_s == WARMUP_FRAC * (1234 / lam)


@pytest.mark.parametrize("arrival,size_model", [
    (ARRIVAL_POISSON, SIZE_FIXED), (ARRIVAL_DETERMINISTIC, SIZE_EXPONENTIAL)])
def test_probe_point_is_one_sim_config_run(blue_rate, arrival, size_model):
    # under two looks of MIN_LOOK_PACKETS, every load is the cap's run of one
    # SimConfig, all of them seeded (seed, 0): one packet population
    q_b = 2.0 * blue_rate.scalar(LENGTH) / LENGTH
    grid = [0.9 * q_b, 1.3 * q_b]
    probe = sr.stability_probe(single_hop(), blue_rate, grid, seed=6,
                               horizon_packets=3_000, arrival_process=arrival,
                               packet_size=size_model)
    for q, point in zip(grid, probe.points):
        cfg = sr.SimConfig(single_hop(), q, arrival_process=arrival,
                           packet_size=size_model, horizon_packets=3_000,
                           seed=(6, 0))
        stats = sr.simulate(cfg, blue_rate)
        assert point.q == q
        assert point.stable == sr.is_stable(stats, cfg.packet_rate)
        assert point.total_drift_slope == stats.total_drift_slope
        assert point.end_backlog == float(stats.end_queue.sum())


def test_poisson_exponential_smoke(blue_rate, blue_10_500):
    cfg = cfg_for(blue_10_500.placement, 0.5 * blue_10_500.q_sup,
                  horizon_packets=10_000, arrival=ARRIVAL_POISSON,
                  size_model=SIZE_EXPONENTIAL, seed=1)
    stats = sr.simulate(cfg, blue_rate)
    assert sr.is_stable(stats, cfg.packet_rate)
    assert stats.delivered > 0.9 * stats.generated
    assert stats.queue_samples.shape == (2048, 10)
    assert stats.sample_times[0] == 0.0
    assert stats.sample_times[-1] == pytest.approx(stats.duration_s)


# ---------------------------------------------------------------------------
# sequential looks: horizon_packets caps each probed load
# ---------------------------------------------------------------------------

PROBE_MODES = [(ARRIVAL_POISSON, SIZE_FIXED), (ARRIVAL_DETERMINISTIC, SIZE_EXPONENTIAL)]
CAP = 50_000     # stability_probe's default cap


def recorded_probe(monkeypatch, *args, **kw):
    """stability_probe's result and the (SimConfig, QueueStats) of every run."""
    runs = []

    def simulate(cfg, rate):
        stats = sr.simulate(cfg, rate)
        runs.append((cfg, stats))
        return stats

    monkeypatch.setattr(sr.simqueue, "simulate", simulate)
    return sr.stability_probe(*args, **kw), runs


@functools.lru_cache(maxsize=None)
def probe_setup(preset, n, length):
    rate = sr.shannon_rate_function(sr.preset(preset))
    return rate, sr.solve(rate, n, length)


@pytest.mark.parametrize("arrival,size_model", PROBE_MODES)
def test_probe_point_is_the_run_its_look_stopped_at(blue_rate, blue_10_500, monkeypatch,
                                                    arrival, size_model):
    q, placement = blue_10_500.q_sup, blue_10_500.placement
    grid = [f * q for f in (0.8, 0.9, 1.01, 1.1, 1.2)]
    probe, runs = recorded_probe(monkeypatch, placement, blue_rate, grid, seed=5,
                                 arrival_process=arrival, packet_size=size_model)
    # look-major: every unsettled load at cap/8, then at cap/4, ...
    assert [cfg.horizon_packets for cfg, _ in runs] == sorted(cfg.horizon_packets
                                                              for cfg, _ in runs)
    stops = []
    for load, point in zip(grid, probe.points):
        mine = [(cfg, stats) for cfg, stats in runs if cfg.q == load]
        # the looks in order, from cap/8, until the one the load stopped at,
        # look j seeded (seed, j) at every load
        horizons = [cfg.horizon_packets for cfg, _ in mine]
        assert horizons == [CAP / 8, CAP / 4, CAP / 2, CAP][:len(mine)]
        assert [cfg.seed for cfg, _ in mine] == [(5, j) for j in range(len(mine))]
        stops.append(horizons[-1])
        # that look is one plain SimConfig run, and the point is its result
        cfg = sr.SimConfig(placement, load, arrival_process=arrival, packet_size=size_model,
                           horizon_packets=horizons[-1], seed=(5, len(mine) - 1))
        stats = sr.simulate(cfg, blue_rate)
        assert point.q == load
        assert point.stable == sr.is_stable(stats, cfg.packet_rate)
        assert point.total_drift_slope == stats.total_drift_slope
        assert point.end_backlog == float(stats.end_queue.sum())
    assert min(stops) < CAP      # the early looks did stop some loads


@pytest.mark.parametrize("cap", [3_000, 12_499])
def test_probe_under_two_min_looks_runs_each_load_once(blue_rate, monkeypatch, cap):
    # no look of cap/2 or less reaches MIN_LOOK_PACKETS: one run at the cap
    q_b = 2.0 * blue_rate.scalar(LENGTH) / LENGTH
    grid = [0.8 * q_b, 1.2 * q_b]
    probe, runs = recorded_probe(monkeypatch, single_hop(), blue_rate, grid, seed=2,
                                 horizon_packets=cap)
    assert [cfg.horizon_packets for cfg, _ in runs] == [cap, cap]
    for point, (cfg, stats) in zip(probe.points, runs):
        assert cfg.seed == (2, 0)
        assert point.stable == sr.is_stable(stats, cfg.packet_rate)
        assert point.total_drift_slope == stats.total_drift_slope


@pytest.mark.parametrize("arrival,size_model", PROBE_MODES)
@pytest.mark.parametrize("preset,n,length", [("blue", 10, 500.0), ("red", 12, 150.0)])
def test_probe_agreement_sweep(monkeypatch, preset, n, length, arrival, size_model):
    # on 20 seeds, loads below q_sup read stable and loads above it unstable;
    # at 1.01 q_sup the long-run drift, about 0.97% of lambda, lies between
    # the stable band and the threshold, so only the cap's run may call such
    # a load stable
    rate, res = probe_setup(preset, n, length)
    grid = [f * res.q_sup for f in (0.8, 0.9, 1.01, 1.1, 1.2)]
    for seed in range(20):
        probe, runs = recorded_probe(monkeypatch, res.placement, rate, grid, seed=seed,
                                     arrival_process=arrival, packet_size=size_model)
        flags = [p.stable for p in probe.points]
        assert flags[:2] + flags[3:] == [True, True, False, False], seed
        near = [cfg.horizon_packets for cfg, _ in runs if cfg.q == grid[2]]
        assert not flags[2] or near[-1] == CAP, seed


def test_probe_checks_the_cap_before_its_looks(blue_rate, monkeypatch):
    # at 5e-302 the cap's horizon overflows, though the first look's does not
    assert sr.SimConfig(single_hop(), 5e-302, horizon_packets=CAP / 8).horizon_s < math.inf
    with pytest.raises(ValueError, match="load 5e-302 is too small"):
        recorded_probe(monkeypatch, single_hop(), blue_rate, [5e-302])


def test_probe_raises_on_non_monotone_flags(blue_rate, monkeypatch):
    # every load settles at its first look, and the middle load alone reads
    # unstable: the probe raises, carrying one point per load
    q_b = 2.0 * blue_rate.scalar(LENGTH) / LENGTH
    grid = [0.5 * q_b, 0.6 * q_b, 0.7 * q_b]
    middle = sr.SimConfig(single_hop(), grid[1]).packet_rate
    monkeypatch.setattr(sr.simqueue, "is_stable",
                        lambda stats, packet_rate: packet_rate != middle)
    monkeypatch.setattr(sr.simqueue, "_drift_resolved", lambda *args: True)
    with pytest.raises(sr.InconclusiveProbeError, match="not monotone") as exc:
        recorded_probe(monkeypatch, single_hop(), blue_rate, grid)
    points = exc.value.points
    assert [p.q for p in points] == grid
    assert [p.stable for p in points] == [True, False, True]


@pytest.mark.filterwarnings("error")
def test_probe_tiny_load_at_the_default_cap_runs_without_overflow(blue_rate, monkeypatch):
    # the early looks regress on times near 1e306 s
    res, runs = recorded_probe(monkeypatch, single_hop(), blue_rate, [1e-300])
    assert res.q_stable == 1e-300
    assert runs[0][0].horizon_packets == CAP / 8
    assert math.isfinite(res.points[0].total_drift_slope)


# ---------------------------------------------------------------------------
# agreement with the event-loop oracle
# ---------------------------------------------------------------------------

MODES = [(ARRIVAL_POISSON, SIZE_FIXED), (ARRIVAL_POISSON, SIZE_EXPONENTIAL),
         (ARRIVAL_DETERMINISTIC, SIZE_FIXED),
         (ARRIVAL_DETERMINISTIC, SIZE_EXPONENTIAL)]


@functools.lru_cache(maxsize=None)
def solved(preset, n):
    rate = sr.shannon_rate_function(sr.preset(preset))
    return rate, sr.solve(rate, n, LENGTH)


@pytest.mark.parametrize("mode", range(len(MODES)))
@pytest.mark.parametrize("factor", [0.8, 0.9, 1.1, 1.2, 1.5])
@pytest.mark.parametrize("n", [1, 3, 10, 12])
@pytest.mark.parametrize("preset", ["blue", "green", "red"])
def test_recursion_matches_event_loop(preset, n, factor, mode):
    rate, res = solved(preset, n)
    arrival, size_model = MODES[mode]
    cfg = cfg_for(res.placement, factor * res.q_sup, horizon_packets=2_000,
                  arrival=arrival, size_model=size_model, seed=(n, mode),
                  record_trace=True)
    got = sr.simulate(cfg, rate)
    ref = simulate_events(cfg, rate)
    assert got.generated == ref.generated
    assert got.delivered == ref.delivered
    assert np.array_equal(got.end_queue, ref.end_queue)
    assert np.array_equal(got.queue_samples, ref.queue_samples)
    assert np.array_equal(got.drift_slope, ref.drift_slope)
    assert got.trace == ref.trace
    np.testing.assert_allclose(got.time_avg_queue, ref.time_avg_queue,
                               rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("arrival,size_model", MODES)
def test_trace_is_a_by_product(blue_rate, arrival, size_model):
    # recording the trace changes no other field
    res = sr.solve(blue_rate, 3, LENGTH)
    with_trace, without = (sr.simulate(
        cfg_for(res.placement, 1.2 * res.q_sup, horizon_packets=5_000,
                arrival=arrival, size_model=size_model, seed=4,
                record_trace=record), blue_rate) for record in (True, False))
    assert with_trace.trace is not None and without.trace is None
    for f in dataclasses.fields(sr.QueueStats):
        if f.name != "trace":
            a, b = getattr(with_trace, f.name), getattr(without, f.name)
            assert np.array_equal(a, b), f.name


def assert_matches_event_loop(cfg, rate):
    """simulate(cfg) against the event-loop oracle, field by field."""
    got, ref = sr.simulate(cfg, rate), simulate_events(cfg, rate)
    assert got.generated == ref.generated
    assert got.delivered == ref.delivered
    assert np.array_equal(got.end_queue, ref.end_queue)
    assert np.array_equal(got.queue_samples, ref.queue_samples)
    assert np.array_equal(got.drift_slope, ref.drift_slope)
    assert got.trace == ref.trace
    np.testing.assert_allclose(got.time_avg_queue, ref.time_avg_queue,
                               rtol=1e-9, atol=0.0)
    return got


@pytest.mark.parametrize("mode", range(len(MODES)))
@pytest.mark.parametrize("factor", [0.8, 1.1, 1.5])
@pytest.mark.parametrize("n", [1, 3, 10, 12])
@pytest.mark.parametrize("preset", ["blue", "green", "red"])
def test_untraced_recursion_matches_event_loop(preset, n, factor, mode):
    # the runs probes make: no trace ids carried, and fixed sizes not carried
    # at all (merged times sorted by value)
    rate, res = solved(preset, n)
    arrival, size_model = MODES[mode]
    assert_matches_event_loop(cfg_for(
        res.placement, factor * res.q_sup, horizon_packets=2_000, arrival=arrival,
        size_model=size_model, seed=(n, mode)), rate)


@functools.lru_cache(maxsize=None)
def sparse_or_long(kind):
    """(rate, placement, q_sup) of a chain whose last relay collects no packet
    (its catchment is half a 1 um hop) or of a solved 60-hop chain."""
    rate = sr.shannon_rate_function(sr.preset("green"))
    if kind == "empty-catchment":
        placement = sr.Placement(distances=np.array([50.0, 50.0, 50.0, 1e-6]),
                                 length=150.000001)
        return rate, placement, sr.qsup_of_placement(placement, rate).q_sup
    res = sr.solve(rate, 60, LENGTH)
    return rate, res.placement, res.q_sup


@pytest.mark.parametrize("record_trace", [False, True])
@pytest.mark.parametrize("mode", range(len(MODES)))
@pytest.mark.parametrize("factor", [0.8, 1.2])
@pytest.mark.parametrize("kind", ["empty-catchment", "n60"])
def test_recursion_matches_event_loop_on_sparse_and_long_chains(kind, factor, mode,
                                                                 record_trace):
    rate, placement, q_sup = sparse_or_long(kind)
    arrival, size_model = MODES[mode]
    got = assert_matches_event_loop(cfg_for(
        placement, factor * q_sup, horizon_packets=2_000, arrival=arrival,
        size_model=size_model, seed=(placement.n, mode), record_trace=record_trace), rate)
    if kind == "empty-catchment":   # no packet reaches the last node; the rest queue
        assert not got.queue_samples[:, -1].any() and got.end_queue[-1] == 0.0
        assert got.queue_samples[:, :-1].any()


def frozen_rate(d):
    # plain arithmetic, so the pinned bits hang on no platform's exp or log
    return 2e8 / (1.0 + d * d / 400.0)


# verify-style runs (N = 8-12, early looks and caps, both verify modes) at a
# load q near 0.8-1.2 of the placement's q_sup; sha256 digests (first 16 hex
# digits) of every field but the trace and the drift slopes, recorded with the
# simulator that draws in unit time (standard_exponential and uniform streams)
FROZEN = [
    (10, 500.0, 82138.89455397286, 6_250, ARRIVAL_POISSON, SIZE_FIXED,
     {"time_avg_queue": "b317f41a8f29b199", "end_queue": "3beabfcf929ca1ca",
      "delivered": "9011ac3ebbf5daf0", "generated": "72f9e9785f5da410",
      "duration_s": "d73b2cf12d6e7c8d", "warmup_s": "4a1f298abe32e2a5",
      "sample_times": "c6f5235ee12ca408", "queue_samples": "27a05f1f1fb624b7"}),
    (12, 150.0, 1275524.00270453, 50_000, ARRIVAL_DETERMINISTIC, SIZE_EXPONENTIAL,
     {"time_avg_queue": "f795184accdef394", "end_queue": "d1f71212def26cba",
      "delivered": "8fb932e82b1531f1", "generated": "64e3f87a25ba6067",
      "duration_s": "036b334e74c81af1", "warmup_s": "b0ee0a5ac35f05b3",
      "sample_times": "e891c7929f0d0a3a", "queue_samples": "71117ce1001b77da"}),
    (8, 300.0, 287407.6808090501, 6_250, ARRIVAL_DETERMINISTIC, SIZE_EXPONENTIAL,
     {"time_avg_queue": "0b3cf9bd151a3d2c", "end_queue": "7b832922b8af0935",
      "delivered": "be1beb6053f52870", "generated": "f8632ca2f237a113",
      "duration_s": "ddd0d5635ade15b4", "warmup_s": "8c6152442f35d9ac",
      "sample_times": "135b06568516cfb5", "queue_samples": "12f8ef1f6cc36183"}),
    (11, 800.0, 23534.205947785413, 50_000, ARRIVAL_POISSON, SIZE_FIXED,
     {"time_avg_queue": "7fee63c3bf469a74", "end_queue": "75c2b06a19b0130e",
      "delivered": "421cc13e21a3d2a7", "generated": "aed38c633366b4dc",
      "duration_s": "4fd5570bd0fcf669", "warmup_s": "a1c030cb6950efb5",
      "sample_times": "8dec8e6d7794c693", "queue_samples": "ed0b67e19c205158"}),
]


@pytest.mark.parametrize("case", range(len(FROZEN)))
def test_simulate_matches_frozen_digests(case):
    # pins runs too long for the oracle bit for bit; the drift slopes go
    # through BLAS dot products, whose summation order may differ between
    # machines, so they are checked against the pinned samples instead
    n, length, q, horizon, arrival, size_model, digests = FROZEN[case]
    w = np.arange(n, 2.0 * n)     # hops lengthen away from the sink, as solved ones do
    placement = sr.Placement(distances=length * w / w.sum(), length=length)
    stats = sr.simulate(sr.SimConfig(placement, q, SIZE, arrival, size_model, horizon,
                                     seed=(31, case)), frozen_rate)
    got = {f: hashlib.sha256(np.ascontiguousarray(getattr(stats, f), dtype="<f8")
                             .tobytes()).hexdigest()[:16] for f in digests}
    assert got == digests
    assert set(digests) | {"drift_slope", "total_drift_slope", "trace"} == {
        f.name for f in dataclasses.fields(sr.QueueStats)}
    # the slopes are regressed in unit time, then converted to packets/s
    t = np.linspace(0.0, horizon, len(stats.sample_times))
    post = t >= WARMUP_FRAC * horizon
    assert np.array_equal(post, stats.sample_times >= stats.warmup_s)
    lam = q * length / SIZE
    assert np.array_equal(stats.drift_slope, _lsq_slope(t[post], stats.queue_samples[post]) * lam)
    assert stats.total_drift_slope == float(stats.drift_slope.sum())


def test_drift_tests_share_one_post_warmup_total(blue_rate):
    # is_stable and a probe look's slope band read the same post-warmup
    # total backlog, summed once a run
    res = sr.solve(blue_rate, 3, LENGTH)
    stats = sr.simulate(cfg_for(res.placement, 0.9 * res.q_sup, horizon_packets=5_000,
                                seed=2), blue_rate)
    post = stats.sample_times >= stats.warmup_s
    t, totals = stats._post
    assert np.array_equal(t, stats.sample_times[post])
    assert np.array_equal(totals, stats.queue_samples[post].sum(axis=1))
    assert stats._post is stats._post


# ---------------------------------------------------------------------------
# common random numbers: a look's loads share one packet population
# ---------------------------------------------------------------------------

CRN_FACTORS = (0.5, 0.8, 0.9, 0.95, 0.99, 1.01, 1.05, 1.1, 1.2, 1.5)


@pytest.mark.parametrize("arrival", [ARRIVAL_POISSON, ARRIVAL_DETERMINISTIC])
@pytest.mark.parametrize("preset,n,length", [("blue", 1, 500.0), ("blue", 10, 500.0),
                                             ("blue", 30, 500.0), ("red", 12, 150.0)])
def test_fixed_size_backlog_is_monotone_in_load(preset, n, length, arrival):
    # one look's population at every load: with fixed sizes a higher load only
    # lengthens the service times, and by Lindley's recursion the departures
    # come no earlier, so every sample of the total backlog is non-decreasing
    # in the load (9 load pairs x 10 seeds); exponential sizes need not be
    rate, res = probe_setup(preset, n, length)
    for seed in range(10):
        totals = [sr.simulate(cfg_for(res.placement, f * res.q_sup, horizon_packets=6_250,
                                      arrival=arrival, seed=(seed, 0)), rate)
                  .queue_samples.sum(axis=1) for f in CRN_FACTORS]
        for f, lo, hi in zip(CRN_FACTORS, totals, totals[1:]):
            assert (lo <= hi).all(), (seed, f)
        assert totals[-1][-1] > totals[0][-1]   # and the overload shows


@pytest.mark.parametrize("arrival,size_model", MODES)
def test_shared_population_run_equals_a_cold_run(blue_rate, blue_10_500, arrival, size_model):
    # a run on a look's shared population equals a cold run of the same
    # SimConfig in every field, at each of the look's loads and after them;
    # the shared arrays are read-only, so no run can change them for the next
    q = blue_10_500.q_sup
    cfg = cfg_for(blue_10_500.placement, 0.9 * q, horizon_packets=4_000, arrival=arrival,
                  size_model=size_model, seed=8, record_trace=True)
    pop = sr.simqueue._population(cfg)
    cfgs = [cfg, dataclasses.replace(cfg, q=1.2 * q)]
    for c in (*cfgs, cfg):
        shared = sr.simulate(sr.simqueue._LookRun(**vars(c), population=pop), blue_rate)
        cold = sr.simulate(c, blue_rate)
        for f in dataclasses.fields(sr.QueueStats):
            a, b = getattr(cold, f.name), getattr(shared, f.name)
            assert a == b if f.name == "trace" else np.array_equal(a, b), (c.q, f.name)
    grouped, *arrays = pop
    assert not any(v.flags.writeable for v in (*grouped, *arrays))


def test_one_off_run_holds_no_population(blue_rate):
    # a plain run draws its own packets and frees them when it returns: after
    # one 20k-packet run at N = 2000 a module-level cache held 16.6 MiB
    placement = sr.constant_placement(2000, 5000.0)
    q = 0.8 * sr.qsup_of_placement(placement, blue_rate).q_sup
    cfg = cfg_for(placement, q, arrival=ARRIVAL_POISSON)
    sr.simulate(cfg_for(single_hop(), 1e3, horizon_packets=10, arrival=ARRIVAL_POISSON),
                blue_rate)   # numpy.random imports its pickling helpers on first use
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert sr.simulate(cfg, blue_rate).generated > 19_000
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20, held


def test_probe_owns_one_population_at_a_time(blue_rate, blue_10_500, monkeypatch):
    # through a (cfg, rate) pass-through, as benchmarks observe a probe: every
    # (load, look) run is observed, each look that runs draws once, just before
    # its first run, and the last look's arrays are gone by then and at the end
    placement, q = blue_10_500.placement, blue_10_500.q_sup
    run, draw = sr.simqueue.simulate, sr.simqueue._population
    runs, draws, refs = [], [], []

    def simulate(cfg, rate):
        stats = run(cfg, rate)
        runs.append((cfg.q, cfg.horizon_packets, stats.total_drift_slope))
        return stats

    def population(cfg):
        draws.append((cfg.horizon_packets, len(runs), [r() is None for r in refs]))
        grouped, *arrays = pop = draw(cfg)
        refs[:] = [weakref.ref(v) for v in (*grouped, *arrays)]
        return pop

    monkeypatch.setattr(sr.simqueue, "simulate", simulate)
    monkeypatch.setattr(sr.simqueue, "_population", population)
    for grid, looks in (([0.8 * q, 1.01 * q, 1.2 * q], 4), ([0.5 * q, 2.0 * q], 1)):
        runs.clear(), draws.clear()
        probe = sr.stability_probe(placement, blue_rate, grid, seed=1)
        for point in probe.points:   # each point is its load's last observed run
            assert point.total_drift_slope == [s for l, _, s in runs if l == point.q][-1]
        horizons = [h for _, h, _ in runs]
        assert [h for h, _, _ in draws] == sorted(set(horizons)) and len(draws) == looks
        for h, before, dead in draws:
            assert horizons[before] == h and h not in horizons[:before] and all(dead)
        assert refs and all(r() is None for r in refs)


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", ["q", "mean_data_size", "horizon_packets"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_traffic_model_rejects_non_finite(field, value):
    # the traffic model is SimConfig's load q, packet size B and run length
    kw = dict(q=1e3, mean_data_size=SIZE, horizon_packets=1_000)
    kw[field] = value
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        sr.SimConfig(placement=single_hop(), **kw)


@pytest.mark.parametrize("window,field", [
    (dict(horizon_packets=0), "horizon_packets"),
    (dict(horizon_packets=-5.0), "horizon_packets"),
])
def test_sim_config_rejects_bad_window(window, field):
    with pytest.raises(ValueError, match=field):
        sr.SimConfig(placement=single_hop(), q=1e3, **window)


@pytest.mark.parametrize("kw,field", [
    (dict(q_grid=[1e6, math.nan]), "q_grid"),
    (dict(q_grid=[math.nan]), "q_grid"),
    (dict(q_grid=[1e6, math.inf]), "q_grid"),
    (dict(q_grid=[1e6], horizon_packets=math.inf), "horizon_packets"),
    (dict(q_grid=[1e6], horizon_packets=math.nan), "horizon_packets"),
    (dict(q_grid=[1e6], mean_data_size=math.nan), "mean_data_size"),
])
def test_probe_rejects_non_finite(blue_rate, kw, field):
    with pytest.raises(ValueError, match=field):
        sr.stability_probe(single_hop(), blue_rate, **kw)


def test_probe_rejects_load_too_small_for_a_horizon(blue_rate):
    # q * L / B underflows to 0; then a rate whose horizon overflows
    for q in (5e-324, 1e-305):
        with pytest.raises(ValueError, match=f"load {q!r}"):
            sr.stability_probe(single_hop(), blue_rate, [q], horizon_packets=100)


@pytest.mark.filterwarnings("error")
def test_probe_tiny_load_runs_without_overflow(blue_rate):
    res = sr.stability_probe(single_hop(), blue_rate, [1e-300], horizon_packets=100)
    assert res.q_stable == 1e-300
    assert math.isfinite(res.points[0].total_drift_slope)


@pytest.mark.filterwarnings("error")
def test_probe_poisson_draw_at_tiny_load_runs_without_overflow(blue_rate):
    # 1024 interarrival times of ~5e305 s each sum past the float range
    res = sr.stability_probe(single_hop(), blue_rate, [1e-303], horizon_packets=100)
    assert res.q_stable == 1e-303
    assert math.isfinite(res.points[0].total_drift_slope)


def test_long_chain_run_memory(blue_rate):
    # the (sample, node) counts are int32 and the samples are built in
    # place: a 20k-packet run at N = 2000 traced 127 MiB with int64 counts
    placement = sr.constant_placement(2000, 5000.0)
    q = 0.8 * sr.qsup_of_placement(placement, blue_rate).q_sup
    tracemalloc.start()
    try:
        stats = sr.simulate(cfg_for(placement, q, arrival=ARRIVAL_POISSON), blue_rate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.generated > 19_000
    assert peak <= 100 * 2**20
