"""Placement evaluation, node-count tradeoff, vertical chains, jitter."""

import math

import numpy as np
import pytest
from conftest import qsup_of_rows
from perturb_oracle import perturb_trials

import searelay as sr
from searelay import evaluate

# the FEC model of the CLI tests
FEC_PARAMS = sr.FecRateParams(modulation_bits_per_symbol=2, code_rate=0.5,
                              snr_threshold=10.0, scaled_gain=1e9,
                              attenuation_per_m=2e-2, epsilon_m=1.0,
                              geometric_exponent=2.0)
MODELS = ("blue", "green", "red", "fec")


def model_rate(name):
    if name == "fec":
        return sr.fec_rate_function(FEC_PARAMS)
    return sr.shannon_rate_function(sr.preset(name))


def rel(a, b):
    return abs(a - b) / abs(b)


def per_hop_limits(rate, placement):
    x = placement.positions
    mid = 0.5 * (x[:-1] + x[1:])
    carried = placement.length - mid
    rates = np.asarray(rate(placement.distances), dtype=float)
    out = np.full(placement.n, np.inf)
    loaded = carried > 0
    out[loaded] = rates[loaded] / carried[loaded]
    return out


# ---------------------------------------------------------------------------
# qsup_of_placement
# ---------------------------------------------------------------------------

def test_single_node_matches_cell_enumeration(blue_rate):
    # with one relay the midpoint rule says the relay carries exactly half
    # the segment; confirm against a fine nearest-node point assignment
    length = 500.0
    placement = sr.Placement(distances=np.array([length]), length=length)
    got = sr.qsup_of_placement(placement, blue_rate)
    pts = np.linspace(0.0, length, 1_000_001)
    carried = float(np.mean(np.abs(pts - 0.0) <= np.abs(pts - length))) * length
    expect = blue_rate(length) / carried
    assert rel(got.q_sup, expect) < 1e-5
    assert got.bottleneck == 0


def test_optimal_placement_reproduces_solver_value(blue_rate, blue_10_500):
    got = sr.qsup_of_placement(blue_10_500.placement, blue_rate)
    # agreement is limited by the solver's load tolerance, ~1e-6 of q_guess
    assert rel(got.q_sup, blue_10_500.q_sup) < 1e-5


def test_bottleneck_binds_at_supremum(blue_rate, blue_10_500):
    got = sr.qsup_of_placement(blue_10_500.placement, blue_rate)
    lim = per_hop_limits(blue_rate, blue_10_500.placement)
    assert lim[got.bottleneck] == got.q_sup
    assert (lim >= got.q_sup * (1 - 1e-12)).all()


def test_stacked_far_nodes_skipped(blue_rate):
    # final hop of length 0 sits at the far end and carries nothing, so it
    # must not drag the supportable load to R(0)/0
    placement = sr.Placement(distances=np.array([250.0, 250.0, 0.0]), length=500.0)
    got = sr.qsup_of_placement(placement, blue_rate)
    assert np.isfinite(got.q_sup)
    assert got.bottleneck == 0
    lim = per_hop_limits(blue_rate, placement)
    assert np.isinf(lim[-1])
    assert got.q_sup == lim[:2].min()


@pytest.mark.parametrize("model", MODELS)
def test_hop_limits_match_row_oracle(model):
    rate = model_rate(model)
    rng = np.random.default_rng(17)
    length = 300.0
    D = rng.dirichlet(np.ones(9), size=400) * length
    D[rng.random(D.shape) < 0.15] = 0.0       # coincident nodes anywhere
    D[::5, -3:] = 0.0                         # end nodes stacked at the far end
    D[1::7, :] = 0.0
    D[1::7, 0] = length                       # everything stacked at L
    lim = sr.hop_limits(rate, D, length)
    assert lim.shape == D.shape
    assert np.isinf(lim[::5, -3:]).any()
    assert lim.min(axis=1).tobytes() == qsup_of_rows(rate, D, length).tobytes()


def test_hop_limits_reject_degenerate_rows(blue_rate):
    D = np.array([[100.0, 0.0], [300.0, 0.0]])   # row 2 ends beyond L
    with pytest.raises(ValueError, match="no hop carries traffic"):
        sr.hop_limits(blue_rate, D, 100.0)
    negative = sr.RateFunction(lambda d: 1.0 - d, lambda d: 1.0 - d)
    with pytest.raises(ValueError, match="negative rate"):
        sr.hop_limits(negative, np.array([[2.0, 1.0]]), 3.0)


def test_no_random_placement_beats_solver(blue_rate, blue_10_500):
    rng = np.random.default_rng(7)
    rows = rng.dirichlet(np.ones(10), size=100_000) * 500.0
    qs = qsup_of_rows(blue_rate, rows, 500.0)
    assert qs.max() <= blue_10_500.q_sup * (1 + 1e-9)


@pytest.mark.parametrize("name", ["green", "blue"])
def test_optimal_beats_constant(name):
    rate = sr.shannon_rate_function(sr.preset(name))
    n, length = 10, 500.0
    opt = sr.solve(rate, n, length).q_sup
    const = sr.qsup_of_placement(sr.constant_placement(n, length), rate).q_sup
    assert opt > const


# ---------------------------------------------------------------------------
# constant placement and the node tradeoff
# ---------------------------------------------------------------------------

def test_constant_placement_values():
    p = sr.constant_placement(4, 500.0)
    assert np.allclose(p.distances, 125.0)
    assert float(p.distances.sum()) == 500.0
    p1 = sr.constant_placement(1, 42.0)
    assert p1.distances.tolist() == [42.0]
    with pytest.raises(ValueError):
        sr.constant_placement(0, 10.0)


def test_tradeoff_is_load_per_node():
    assert sr.tradeoff(10.0, 5) == 2.0
    with pytest.raises(ValueError):
        sr.tradeoff(10.0, 0)


def test_tradeoff_has_interior_peak(blue_rate):
    deltas = [sr.tradeoff(sr.solve(blue_rate, n, 500.0).q_sup, n)
              for n in range(1, 21)]
    k = int(np.argmax(deltas))
    assert 0 < k < 19
    assert deltas[k] > deltas[0]
    assert deltas[k] > deltas[-1]


# ---------------------------------------------------------------------------
# vertical chains
# ---------------------------------------------------------------------------

def test_vertical_qsup_linear_in_columns(blue_rate):
    one = sr.vertical_qsup(blue_rate, 1, 8, 3000.0, 500.0)
    five = sr.vertical_qsup(blue_rate, 5, 8, 3000.0, 500.0)
    assert five == pytest.approx(5.0 * one, rel=1e-12)


def test_vertical_qsup_more_hops_help(blue_rate):
    vals = [sr.vertical_qsup(blue_rate, 3, nv, 3000.0, 500.0)
            for nv in (1, 2, 4, 8, 16)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_vertical_qsup_constant_rate_ignores_hop_count():
    flat = sr.RateFunction(lambda d: 42.0,
                           lambda d: np.full_like(np.asarray(d, dtype=float), 42.0),
                           label="flat")
    a = sr.vertical_qsup(flat, 2, 1, 100.0, 50.0)
    b = sr.vertical_qsup(flat, 2, 30, 100.0, 50.0)
    assert a == pytest.approx(b, rel=1e-12)
    assert a == pytest.approx(2 * 42.0 / 50.0, rel=1e-12)


def test_vertical_qsup_validation(blue_rate):
    with pytest.raises(ValueError):
        sr.vertical_qsup(blue_rate, 0, 3, 100.0, 50.0)
    with pytest.raises(ValueError):
        sr.vertical_qsup(blue_rate, 2, 3, -1.0, 50.0)


# ---------------------------------------------------------------------------
# placement jitter
# ---------------------------------------------------------------------------

def test_perturb_zero_sigma_passthrough(blue_rate, blue_10_500):
    exact = sr.qsup_of_placement(blue_10_500.placement, blue_rate).q_sup
    out = sr.perturb_eval(blue_10_500.placement, blue_rate, sigma=0.0,
                          trials=10, seed=1)
    assert out.trials == 10
    assert out.mean_q_sup == exact
    assert out.std_q_sup == 0.0
    assert out.mean_delta == pytest.approx(exact / 10, rel=1e-12)


def test_perturb_two_nodes_passthrough(blue_rate):
    res = sr.solve(blue_rate, 2, 120.0)
    out = sr.perturb_eval(res.placement, blue_rate, sigma=9.0, trials=50, seed=3)
    # endpoints pinned and only interior nodes jitter, so n < 3 never moves
    assert out.std_q_sup == 0.0


def test_perturb_reproducible(blue_rate, blue_10_500):
    a = sr.perturb_eval(blue_10_500.placement, blue_rate, sigma=5.0,
                        trials=300, seed=42)
    b = sr.perturb_eval(blue_10_500.placement, blue_rate, sigma=5.0,
                        trials=300, seed=42)
    assert a == b
    c = sr.perturb_eval(blue_10_500.placement, blue_rate, sigma=5.0,
                        trials=300, seed=43)
    assert c.mean_q_sup != a.mean_q_sup


def test_perturb_noise_only_hurts(blue_rate, blue_10_500):
    out = sr.perturb_eval(blue_10_500.placement, blue_rate, sigma=5.0,
                          trials=2000, seed=11)
    assert 0.0 < out.mean_q_sup < blue_10_500.q_sup
    assert out.std_q_sup > 0.0
    assert out.mean_delta == pytest.approx(out.mean_q_sup / 10, rel=1e-12)


def test_perturb_mean_degrades_with_sigma(blue_rate, blue_10_500):
    means = [sr.perturb_eval(blue_10_500.placement, blue_rate, sigma=s,
                             trials=1500, seed=2).mean_q_sup
             for s in (1.0, 5.0, 15.0)]
    assert means[0] > means[1] > means[2]


def test_perturb_csv_row_shape(blue_rate, blue_10_500):
    out = sr.perturb_eval(blue_10_500.placement, blue_rate, sigma=2.0,
                          trials=64, seed=5)
    row = sr.perturb_csv_row(out, "abc123def456", 10, 500.0, 2e-2)
    assert len(row) == len(sr.PERTURB_CSV_HEADER)
    named = dict(zip(sr.PERTURB_CSV_HEADER, row))
    assert named["config_hash"] == "abc123def456"
    assert named["n"] == "10"
    assert named["sigma"] == "2"
    assert named["trials"] == "64"
    assert float(named["mean_q_sup"]) == pytest.approx(out.mean_q_sup, rel=1e-8)


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("sigma_frac", [0.02, 0.3, 2.0])
@pytest.mark.parametrize("n", [3, 8, 12, 60])
@pytest.mark.parametrize("model", MODELS)
def test_perturb_matches_per_trial_loop(model, n, sigma_frac, seed):
    rate = model_rate(model)
    length = 500.0
    placement = sr.solve(rate, n, length).placement
    sigma = sigma_frac * length / n        # 2 L/N clips nodes at 0 and L
    got = sr.perturb_eval(placement, rate, sigma, trials=60, seed=seed)
    assert got == perturb_trials(placement, rate, sigma, trials=60, seed=seed)


def test_perturb_blocks_match_per_trial_loop(blue_rate):
    n, length = 60, 500.0
    placement = sr.solve(blue_rate, n, length).placement
    trials = 2 * (evaluate._BLOCK_VALUES // n) + 3    # two full blocks and a tail
    got = sr.perturb_eval(placement, blue_rate, 0.3 * length / n,
                          trials=trials, seed=4)
    assert got == perturb_trials(placement, blue_rate, 0.3 * length / n,
                                 trials=trials, seed=4)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_perturb_rejects_non_finite_sigma(blue_rate, blue_10_500, sigma):
    with pytest.raises(ValueError, match="sigma"):
        sr.perturb_eval(blue_10_500.placement, blue_rate, sigma=sigma,
                        trials=10, seed=0)


def test_perturb_validation(blue_rate, blue_10_500):
    with pytest.raises(ValueError):
        sr.perturb_eval(blue_10_500.placement, blue_rate, sigma=-1.0,
                        trials=10, seed=0)
    with pytest.raises(ValueError):
        sr.perturb_eval(blue_10_500.placement, blue_rate, sigma=1.0,
                        trials=0, seed=0)


# ---------------------------------------------------------------------------
# traffic model
# ---------------------------------------------------------------------------

def test_traffic_model_q():
    tm = sr.TrafficModel(packet_rate=2.0, mean_data_size=1e5, area_length=500.0)
    assert tm.q == pytest.approx(2.0 * 1e5 / 500.0, rel=1e-12)


def test_traffic_model_validation():
    with pytest.raises(ValueError):
        sr.TrafficModel(packet_rate=-1.0, mean_data_size=1.0, area_length=1.0)
    with pytest.raises(ValueError):
        sr.TrafficModel(packet_rate=1.0, mean_data_size=0.0, area_length=1.0)
    with pytest.raises(ValueError):
        sr.TrafficModel(packet_rate=1.0, mean_data_size=1.0, area_length=0.0)
