"""Tandem-queue simulator: conservation, FIFO order, drift classification,
and agreement with the event-by-event reference simulator."""

import dataclasses
import functools
import math

import numpy as np
import pytest

import searelay as sr
from searelay.simqueue import (ARRIVAL_DETERMINISTIC, ARRIVAL_POISSON,
                               SIZE_EXPONENTIAL, SIZE_FIXED, _lsq_slope)
from simqueue_oracle import simulate_events

LENGTH = 200.0
SIZE = 1e5


def single_hop(length=LENGTH):
    return sr.Placement(distances=np.array([length]), length=length)


def cfg_for(placement, q, *, horizon_packets=20_000, seed=0,
            arrival=ARRIVAL_DETERMINISTIC, size_model=SIZE_FIXED, **kw):
    lam = q * placement.length / SIZE
    horizon = horizon_packets / lam
    return sr.SimConfig(
        placement=placement,
        traffic=sr.TrafficModel(packet_rate=lam, mean_data_size=SIZE,
                                area_length=placement.length),
        arrival_process=arrival,
        packet_size=size_model,
        horizon_s=horizon,
        warmup_s=0.1 * horizon,
        seed=seed,
        **kw,
    )


def test_empty_horizon_produces_nothing(blue_rate):
    p = single_hop()
    cfg = sr.SimConfig(
        placement=p,
        traffic=sr.TrafficModel(packet_rate=1e-12, mean_data_size=SIZE,
                                area_length=LENGTH),
        arrival_process=ARRIVAL_DETERMINISTIC,
        horizon_s=1.0, warmup_s=0.1, seed=0)
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
    lam = cfg.traffic.packet_rate
    assert sr.is_stable(stats, lam)
    assert np.all(np.abs(stats.drift_slope) < 0.01 * lam)
    assert np.all(stats.time_avg_queue < 10.0)


def test_single_hop_overload_drift_matches_rate_gap(blue_rate):
    # above the boundary the relay queue grows at lambda/2 - R(L)/B pkt/s
    q_b = 2.0 * blue_rate.scalar(LENGTH) / LENGTH
    p = single_hop()
    cfg = cfg_for(p, 1.2 * q_b, horizon_packets=30_000)
    stats = sr.simulate(cfg, blue_rate)
    lam = cfg.traffic.packet_rate
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


def test_sim_config_validation(blue_rate):
    p = single_hop()
    tm = sr.TrafficModel(packet_rate=1.0, mean_data_size=SIZE, area_length=LENGTH)
    with pytest.raises(ValueError):
        sr.SimConfig(placement=p, traffic=tm, arrival_process="bursty")
    with pytest.raises(ValueError):
        sr.SimConfig(placement=p, traffic=tm, packet_size="pareto")
    with pytest.raises(ValueError):
        sr.SimConfig(placement=p, traffic=tm, n_samples=3)
    bad = sr.SimConfig(placement=p, traffic=tm, horizon_s=1.0, warmup_s=2.0)
    with pytest.raises(ValueError):
        bad.resolved_window()
    mismatched = sr.SimConfig(
        placement=p,
        traffic=sr.TrafficModel(packet_rate=1.0, mean_data_size=SIZE,
                                area_length=LENGTH + 50.0),
        horizon_s=1.0)
    with pytest.raises(ValueError):
        sr.simulate(mismatched, blue_rate)


def test_poisson_exponential_smoke(blue_rate, blue_10_500):
    cfg = cfg_for(blue_10_500.placement, 0.5 * blue_10_500.q_sup,
                  horizon_packets=10_000, arrival=ARRIVAL_POISSON,
                  size_model=SIZE_EXPONENTIAL, seed=1)
    stats = sr.simulate(cfg, blue_rate)
    assert sr.is_stable(stats, cfg.traffic.packet_rate)
    assert stats.delivered > 0.9 * stats.generated
    assert stats.queue_samples.shape == (2048, 10)
    assert stats.sample_times[0] == 0.0
    assert stats.sample_times[-1] == pytest.approx(stats.duration_s)


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

@pytest.mark.parametrize("field", ["packet_rate", "mean_data_size", "area_length"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_traffic_model_rejects_non_finite(field, value):
    kw = dict(packet_rate=1.0, mean_data_size=SIZE, area_length=LENGTH)
    kw[field] = value
    with pytest.raises(ValueError, match=field):
        sr.TrafficModel(**kw)


@pytest.mark.parametrize("window,field", [
    (dict(horizon_s=math.inf, warmup_s=0.0), "horizon_s"),
    (dict(horizon_s=math.nan), "horizon_s"),
    (dict(horizon_s=10.0, warmup_s=math.nan), "warmup_s"),
])
def test_sim_config_rejects_non_finite_window(blue_rate, window, field):
    tm = sr.TrafficModel(packet_rate=1.0, mean_data_size=SIZE, area_length=LENGTH)
    cfg = sr.SimConfig(placement=single_hop(), traffic=tm, **window)
    with pytest.raises(ValueError, match=field):
        cfg.resolved_window()
    with pytest.raises(ValueError, match=field):
        sr.simulate(cfg, blue_rate)


@pytest.mark.parametrize("kw,field", [
    (dict(q_grid=[1e6, math.nan]), "q_grid"),
    (dict(q_grid=[math.nan]), "q_grid"),
    (dict(q_grid=[1e6, math.inf]), "q_grid"),
    (dict(q_grid=[1e6], horizon_packets=math.inf), "horizon_packets"),
    (dict(q_grid=[1e6], warmup_frac=math.nan), "warmup_frac"),
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
