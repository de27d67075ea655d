"""Placement evaluation, node-count tradeoff, vertical chains, jitter."""

import hashlib
import math
import tracemalloc

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


# a trial count that crosses a Generator's 1024-trial block and ends inside
# the next; from N = 12 on, a chunk (at most 8192 spacings) is shorter than a
# block, so it crosses chunk edges too
EDGE_TRIALS = evaluate._BLOCK_TRIALS + 6


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("sigma_frac", [0.02, 0.3, 2.0])
@pytest.mark.parametrize("n", [3, 8, 12, 60])
@pytest.mark.parametrize("model", MODELS)
def test_perturb_matches_per_trial_loop(model, n, sigma_frac, seed):
    rate = model_rate(model)
    length = 500.0
    placement = sr.solve(rate, n, length).placement
    sigma = sigma_frac * length / n        # 2 L/N clips nodes at 0 and L
    got = sr.perturb_eval(placement, rate, sigma, trials=EDGE_TRIALS, seed=seed)
    assert got == perturb_trials(placement, rate, sigma, trials=EDGE_TRIALS, seed=seed)


def test_perturb_blocks_match_per_trial_loop(blue_rate):
    n, length = 60, 500.0
    placement = sr.solve(blue_rate, n, length).placement
    trials = 2 * evaluate._BLOCK_TRIALS + 3    # two full blocks and a tail
    got = sr.perturb_eval(placement, blue_rate, 0.3 * length / n,
                          trials=trials, seed=4)
    assert got == perturb_trials(placement, blue_rate, 0.3 * length / n,
                                 trials=trials, seed=4)


@pytest.mark.parametrize("sigma_frac", [0.05, 0.2])
@pytest.mark.parametrize("n", [8, 12])
def test_perturb_matches_per_trial_loop_at_scale(n, sigma_frac):
    # the verify benchmark's shapes: 10k trials cross nine blocks, and at
    # N = 12 twenty chunks of 512 trials
    placement = sr.solve(model_rate("blue"), n, 500.0).placement
    args = (placement, model_rate("blue"), sigma_frac * 500.0 / n)
    assert (sr.perturb_eval(*args, trials=10_000, seed=2**31 - 1)
            == perturb_trials(*args, trials=10_000, seed=2**31 - 1))


def perturbed_spacings(monkeypatch, *args, **kwargs) -> np.ndarray:
    """The spacings of every perturbed trial of one perturb_eval call, one
    row a trial, as its hop-load bound reads them."""
    rows, real = [], evaluate.hop_limits
    monkeypatch.setattr(evaluate, "hop_limits",
                        lambda rate, D, length: (rows.append(np.array(D)), real(rate, D, length))[1])
    sr.perturb_eval(*args, **kwargs)
    monkeypatch.setattr(evaluate, "hop_limits", real)
    return np.concatenate(rows[1:])     # the first is the unperturbed placement


@pytest.mark.parametrize("seed", [5, 2**64 + 3])
def test_trial_noise_ignores_trial_count(monkeypatch, blue_rate, blue_10_500, seed):
    args = (blue_10_500.placement, blue_rate, 4.0)
    runs = [perturbed_spacings(monkeypatch, *args, trials=t, seed=seed)
            for t in (1023, 1024, 1025, 3000)]
    assert [len(r) for r in runs] == [1023, 1024, 1025, 3000]
    for run in runs[:-1]:
        assert np.array_equal(run, runs[-1][:len(run)])
    assert not np.array_equal(runs[-1][:1024], runs[-1][1024:2048])


# seeds of 1, 2 and 3 entropy words
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**70]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_substream_states_match_numpy(monkeypatch, blue_rate, seed):
    # block b seeds its own Generator as default_rng([seed, b]) does; a
    # wrapped or truncated seed, swapped words, or one Generator carried
    # across blocks fails here
    made, real = [], np.random.default_rng

    def spy(*args):
        gen = real(*args)
        made.append(gen.bit_generator.state)
        return gen

    monkeypatch.setattr(np.random, "default_rng", spy)
    sr.perturb_eval(sr.constant_placement(10, 500.0), blue_rate, 3.7,
                    trials=2 * evaluate._BLOCK_TRIALS + 3, seed=seed)
    assert made == [np.random.PCG64([seed, b]).state for b in range(3)]


@pytest.mark.parametrize("k", [1, 8, 40, 41, 1998])
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_trial_noise_matches_default_rng(monkeypatch, blue_rate, seed, k):
    # every trial across a block edge, k noisy nodes (1998: chunks of 4
    # trials), is its row of the blocks default_rng draws whole
    n, sigma, trials = k + 2, 3.7, EDGE_TRIALS
    placement = sr.constant_placement(n, 40.0 * n)
    got = perturbed_spacings(monkeypatch, placement, blue_rate, sigma,
                             trials=trials, seed=seed)
    noise = np.concatenate([np.random.default_rng([seed, b]).standard_normal((1024, k))
                            for b in (0, 1)])
    X = np.tile(placement.positions, (trials, 1))
    X[:, 2:n] += sigma * noise[:trials]
    np.clip(X[:, 1:], 0.0, placement.length, out=X[:, 1:])
    X.sort(axis=1)
    assert np.array_equal(got, np.diff(X, axis=1))


def test_trial_noise_scales_with_sigma(monkeypatch, blue_rate):
    # spacings of 50 m and at most 2 * 4.5 sigma of noise a node keep the
    # order, so each sorted position is its node's; the last relay sits
    # 1 m short of L and is clipped there in about a third of the trials
    d = np.r_[np.full(8, 50.0), 99.0, 1.0]
    placement = sr.Placement(distances=d, length=d.sum())
    x = placement.positions
    moved = [np.cumsum(perturbed_spacings(monkeypatch, placement, blue_rate, s,
                                          trials=3000, seed=8), axis=1) - x[1:]
             for s in (1.0, 2.0)]
    clipped = np.isclose(x[1:] + moved[1], placement.length, rtol=0.0, atol=1e-9)
    assert 0.2 < clipped[:, -2].mean() < 0.8 and not clipped[:, :-2].any()
    free = ~clipped & ~np.isclose(x[1:] + moved[0], placement.length, rtol=0.0, atol=1e-9)
    assert moved[1][free] == pytest.approx(2.0 * moved[0][free], abs=1e-9)
    assert np.abs(moved[1][:, 1:-2]).min() > 0.0


def test_perturb_frozen_digest(monkeypatch, blue_rate):
    # one small call, pinned: the spacings of its 2,500 trials to the bit
    # (a failure here means NumPy's default_rng or normal stream changed),
    # and its summary to roundoff in the rate model
    args = (sr.constant_placement(10, 500.0), blue_rate, 5.0)
    D = perturbed_spacings(monkeypatch, *args, trials=2500, seed=3)
    assert D.shape == (2500, 10)
    digest = hashlib.sha256(np.ascontiguousarray(D, dtype="<f8").tobytes()).hexdigest()[:16]
    assert digest == "08a57446454e1424"
    out = sr.perturb_eval(*args, trials=2500, seed=3)
    assert (out.mean_q_sup, out.std_q_sup) == pytest.approx((2599496.748157897, 86223.25315847706), rel=1e-12)
    assert out.rng_algorithm == "numpy-pcg64-block1024"


def per_trial_generator_qsup(placement, rate, sigma, trials, seed):
    """q_sup samples under the earlier noise contract, in which trial t drew
    ``default_rng([seed, t]).normal(0, sigma, N - 2)``."""
    n, length = placement.n, placement.length
    X = np.tile(placement.positions, (trials, 1))
    for t in range(trials):
        X[t, 2:n] += np.random.default_rng([seed, t]).normal(0.0, sigma, n - 2)
    np.clip(X[:, 1:], 0.0, length, out=X[:, 1:])
    X.sort(axis=1)
    return qsup_of_rows(rate, np.diff(X, axis=1), length)


@pytest.mark.parametrize("n", [3, 10, 60])
@pytest.mark.parametrize("model", MODELS)
def test_perturb_agrees_with_per_trial_generators(model, n):
    # the change of contract moves each mean by Monte Carlo error only
    rate, length, trials = model_rate(model), 500.0, 3000
    placement = sr.solve(rate, n, length).placement
    sigma = 0.3 * length / n
    new = sr.perturb_eval(placement, rate, sigma, trials=trials, seed=6)
    old = per_trial_generator_qsup(placement, rate, sigma, trials, seed=6)
    assert new.std_q_sup > 0.0 and old.std() > 0.0
    error = math.hypot(new.std_q_sup, old.std()) / math.sqrt(trials)
    assert abs(new.mean_q_sup - old.mean()) <= 4.0 * error


def test_perturb_memory_is_chunked(blue_rate):
    # noise drawn whole, 1024 x 1998 normals, would alone take 16 MiB
    placement = sr.constant_placement(2000, 5000.0)
    sr.perturb_eval(placement, blue_rate, 0.8, trials=8, seed=1)      # warm up
    tracemalloc.start()
    try:
        sr.perturb_eval(placement, blue_rate, 0.8, trials=1024, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False])
def test_perturb_rejects_bad_seed(blue_rate, blue_10_500, seed):
    with pytest.raises(ValueError, match="seed"):
        sr.perturb_eval(blue_10_500.placement, blue_rate, sigma=1.0,
                        trials=10, seed=seed)
    with pytest.raises(ValueError, match="seed"):     # before any shortcut
        sr.perturb_eval(blue_10_500.placement, blue_rate, sigma=0.0,
                        trials=10, seed=seed)


def test_perturb_accepts_numpy_integer_seed(blue_rate, blue_10_500):
    args = (blue_10_500.placement, blue_rate, 2.0)
    assert (sr.perturb_eval(*args, trials=40, seed=np.uint64(2**63))
            == sr.perturb_eval(*args, trials=40, seed=2**63))


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
    # a simulation's traffic: q bit/s per m over L in packets of B bits
    # arrive at lambda = q * L / B packets per second
    p = sr.Placement(distances=np.array([200.0, 300.0]), length=500.0)
    cfg = sr.SimConfig(p, q=2.0 * 1e5 / 500.0, mean_data_size=1e5)
    assert cfg.packet_rate == pytest.approx(2.0, rel=1e-12)


def test_traffic_model_validation():
    p = sr.Placement(distances=np.array([1.0]), length=1.0)
    with pytest.raises(ValueError):
        sr.SimConfig(p, q=-1.0, mean_data_size=1.0)
    with pytest.raises(ValueError):
        sr.SimConfig(p, q=1.0, mean_data_size=0.0)
    with pytest.raises(ValueError):
        sr.SimConfig(sr.Placement(distances=np.array([0.0]), length=0.0), q=1.0)
