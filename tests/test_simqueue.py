"""Tandem-queue simulator: conservation, FIFO order, drift classification,
and agreement with the event-by-event reference simulator."""

import dataclasses
import functools
import math

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
    # the probe's i-th load is the run of one SimConfig seeded (seed, i)
    q_b = 2.0 * blue_rate.scalar(LENGTH) / LENGTH
    grid = [0.9 * q_b, 1.3 * q_b]
    probe = sr.stability_probe(single_hop(), blue_rate, grid, seed=6,
                               horizon_packets=3_000, arrival_process=arrival,
                               packet_size=size_model)
    for i, (q, point) in enumerate(zip(grid, probe.points)):
        cfg = sr.SimConfig(single_hop(), q, arrival_process=arrival,
                           packet_size=size_model, horizon_packets=3_000,
                           seed=(6, i))
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
    stops = []
    for i, (load, point) in enumerate(zip(grid, probe.points)):
        mine = [(cfg, stats) for cfg, stats in runs if cfg.seed == (5, i)]
        # the looks in order, from cap/8, until the one the load stopped at
        horizons = [cfg.horizon_packets for cfg, _ in mine]
        assert horizons == [CAP / 8, CAP / 4, CAP / 2, CAP][:len(mine)]
        stops.append(horizons[-1])
        # that look is one plain SimConfig run, and the point is its result
        cfg = sr.SimConfig(placement, load, arrival_process=arrival,
                           packet_size=size_model, horizon_packets=horizons[-1], seed=(5, i))
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
    for i, (point, (cfg, stats)) in enumerate(zip(probe.points, runs)):
        assert cfg.seed == (2, i)
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
        near = [cfg.horizon_packets for cfg, _ in runs if cfg.seed == (seed, 2)]
        assert not flags[2] or near[-1] == CAP, seed


def test_probe_checks_the_cap_before_its_looks(blue_rate, monkeypatch):
    # at 5e-302 the cap's horizon overflows, though the first look's does not
    assert sr.SimConfig(single_hop(), 5e-302, horizon_packets=CAP / 8).horizon_s < math.inf
    with pytest.raises(ValueError, match="load 5e-302 is too small"):
        recorded_probe(monkeypatch, single_hop(), blue_rate, [5e-302])


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


@pytest.mark.filterwarnings("error")
def test_lsq_slope_exact_under_power_of_two_scaling():
    rng = np.random.default_rng(2)
    t = np.sort(rng.uniform(0.0, 3.0e3, 500))
    y = rng.poisson(5.0, (500, 3)) + 0.01 * t[:, None]
    base = _lsq_slope(t, y)
    assert np.allclose(base, 0.01, rtol=0.2)
    for k in (-900, 900, 1010):     # 1010: sums of squares overflow unscaled
        scaled = _lsq_slope(np.ldexp(t, k), y)
        assert np.ldexp(scaled, k).tobytes() == base.tobytes()
