"""Placement evaluation, node-count tradeoff, vertical chains, jitter."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


@pytest.mark.parametrize("sigma_frac", [0.05, 0.2])
@pytest.mark.parametrize("n", [8, 12])
def test_perturb_matches_per_trial_loop_at_scale(n, sigma_frac):
    # the verify benchmark's shapes: 10k trials cross a seeding chunk and
    # hold every kind of slow row
    placement = sr.solve(model_rate("blue"), n, 500.0).placement
    args = (placement, model_rate("blue"), sigma_frac * 500.0 / n)
    assert (sr.perturb_eval(*args, trials=10_000, seed=2**31 - 1)
            == perturb_trials(*args, trials=10_000, seed=2**31 - 1))


# seeds of 1, 2 and 3 entropy words; trials at perturb_eval's block edge
# (N = 10) and where t grows a second word
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**70]
STREAM_BLOCK = evaluate._BLOCK_VALUES // 10
STREAM_TRIALS = [0, 1, STREAM_BLOCK - 1, STREAM_BLOCK, STREAM_BLOCK + 1,
                 2**32 - 1, 2**32, 2**32 + 1]
# per seed, trials whose first draw leaves the normal sampler's one-word
# fast path: into the tail of layer 0, in layer 1, and in a wedge of a
# higher layer that rejects the draw and that accepts it
SLOW_TRIALS = {0: (4832, 566, 39, 105), 1: (12962, 666, 192, 59),
               2**32 - 1: (695, 781, 16, 128), 2**32: (3243, 122, 155, 192),
               2**63: (1770, 191, 206, 109), 2**70: (336, 1, 259, 382)}
SLOW_KINDS = ("tail", "layer 1", "rejected", "accepted")


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_substream_states_match_numpy(seed):
    # perturb_eval's contract: trial t draws from default_rng([seed, t]).
    # A failure here means NumPy's SeedSequence or PCG64 seeding changed.
    # the second block mixes 1- and 2-word t
    blocks = [(0, STREAM_BLOCK + 2), (2**32 - 1, 2**32 + 2)]
    got = {}
    for start, stop in blocks:
        words = evaluate._substream_states(seed, start, stop)
        assert words.dtype == np.uint64 and words.shape == (4, stop - start)
        got.update((t, (s_hi << 64 | s_lo, i_hi << 64 | i_lo))
                   for t, (s_hi, s_lo, i_hi, i_lo)
                   in zip(range(start, stop), words.T.tolist()))
    for t in STREAM_TRIALS:
        want = np.random.PCG64([seed, t]).state["state"]
        assert got[t] == (want["state"], want["inc"]), \
            f"PCG64([{seed}, {t}]) state differs from NumPy's"


def trial_noise(seed, start, stop, sigma, k):
    words = evaluate._substream_states(seed, start, stop)
    return evaluate._trial_noise(words, sigma, k)


def first_draw_kind(seed, t):
    """How NumPy's normal sampler takes trial t's first draw."""
    wi, bound = evaluate._ziggurat()
    word = int(np.random.PCG64([seed, t]).random_raw())
    layer, rabs = word & 255, word >> 9 & (2**52 - 1)
    if rabs < bound[layer]:
        return "fast"
    if layer < 2:
        return ("tail", "layer 1")[layer]
    z = np.random.default_rng([seed, t]).standard_normal()
    return "accepted" if abs(z) == rabs * wi[layer] else "rejected"


@pytest.mark.parametrize("k", [1, 8, evaluate._ROW_LIMIT,
                               evaluate._ROW_LIMIT + 1, 1998])
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_trial_noise_matches_default_rng(seed, k):
    sigma = 3.7
    slow = [(t, t + 2) for t in SLOW_TRIALS[seed]]
    for start, stop in [(0, 3), (STREAM_BLOCK - 1, STREAM_BLOCK + 2),
                        (2**32 - 1, 2**32 + 2), *slow]:
        got = trial_noise(seed, start, stop, sigma, k)
        want = [np.random.default_rng([seed, t]).normal(0.0, sigma, k)
                for t in range(start, stop)]
        assert np.array_equal(got, want), \
            f"draws of trials {start}..{stop - 1}, seed {seed}, differ from NumPy's"
    # the slow rows really are slow, each in its own way
    assert [first_draw_kind(seed, t) for t in SLOW_TRIALS[seed]] == list(SLOW_KINDS)


def test_fast_path_bounds():
    # layer 1 always goes slow; elsewhere the proven bounds keep 98% of
    # draws on the array path
    wi, bound = evaluate._ziggurat()
    assert bound[1] == 0 and np.delete(bound, 1).all()
    assert bound.astype(float).mean() > 0.98 * 2**52


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**70 - 1), rows=st.integers(1, 8),
       start=st.integers(0, 2**64 - 9),
       k=st.integers(1, evaluate._ROW_LIMIT + 8))
def test_trial_noise_property(seed, rows, start, k):
    got = trial_noise(seed, start, start + rows, 0.5, k)
    want = [np.random.default_rng([seed, t]).normal(0.0, 0.5, k)
            for t in range(start, start + rows)]
    assert np.array_equal(got, want)


def test_import_reads_no_sampler_tables():
    # the tables are read on the first draw, so importing stays cheap
    code = ("import searelay; from searelay import evaluate as e; "
            "print(e._ziggurat.cache_info().currsize, "
            "e._jump.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(evaluate.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["0", "0"]


def test_import_reads_no_wedge_table():
    # the wedge table is as lazy as the fast path's
    code = ("import searelay; from searelay import evaluate as e; "
            "print(e._wedges.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(evaluate.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["0"]


def crafted_words(first, second):
    """_substream_states columns of PCG64 streams whose next two outputs
    are the words ``first`` and ``second``: with both states below 2**64
    the output is the state, and inc carries the one to the other."""
    mult, mask = evaluate._PCG64_MULT, 2**128 - 1
    columns = []
    for w1, w2 in zip(first, second):
        inc = (w2 - mult * w1) & mask
        state = (w1 - inc) * pow(mult, -1, 2**128) & mask
        columns.append([state >> 64, state & 2**64 - 1, inc >> 64, inc & 2**64 - 1])
    return np.array(columns, dtype=np.uint64).T


def count_set_state(monkeypatch):
    calls = []
    real = evaluate._set_state
    monkeypatch.setattr(evaluate, "_set_state", lambda *a: (calls.append(a), real(*a)))
    return calls


def numpy_draw(column, words=3):
    """NumPy's normal draw from the stream of a _substream_states column,
    and the stream's first few words."""
    state = {"state": column[0] << 64 | column[1], "inc": column[2] << 64 | column[3]}
    bitgen = np.random.PCG64(0)
    bitgen.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    gen = np.random.Generator(bitgen)
    z = gen.standard_normal()
    bitgen.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    return z, bitgen.random_raw(words).tolist()


def test_wedge_verdicts_match_numpy(monkeypatch):
    # in every layer with a wedge, a first draw there whose next word puts
    # NumPy's test just to either side of the derived threshold, outside the
    # tie margin: NumPy accepts below it and rejects above it, and the array
    # settle gives NumPy's draw, by a Generator only where the retry is slow
    wi, bound = evaluate._ziggurat()
    f, wedge = evaluate._wedges()
    first, second, accept = [], [], []
    for layer in range(1, 256):
        rabs = int(wedge[layer]) + (2**52 - int(wedge[layer])) // 2
        x = rabs * wi[layer]
        rhs = math.exp(-0.5 * x * x)
        for side in (-1, 1):
            u = (rhs * (1.0 + side * 4e-12) - f[layer]) / (f[layer - 1] - f[layer])
            first.append(rabs << 9 | layer)
            second.append(round(u * 2**53) << 11)
            accept.append(side < 0)
    words = crafted_words(first, second)
    want, retry_slow = [], []
    for column, word, accepted in zip(words.T.tolist(), first, accept):
        z, raw = numpy_draw(column)
        assert raw[:2] == [word, second[len(want)]]
        assert (z == (word >> 9) * wi[word & 255]) == accepted
        want.append(z)
        retry_slow.append(not accepted and raw[2] >> 9 & 2**52 - 1 >= bound[raw[2] & 255])
    calls = count_set_state(monkeypatch)
    assert np.array_equal(evaluate._trial_noise(words, 1.0, 1)[:, 0], want)
    assert len(calls) == sum(retry_slow)


@pytest.mark.parametrize("k", [6, 8, 10])
def test_few_trials_reach_the_generator(monkeypatch, k):
    words = evaluate._substream_states(2, 0, 10_000)
    calls = count_set_state(monkeypatch)
    evaluate._trial_noise(words, 1.0, k)
    assert len(calls) <= 200      # 2% of the trials


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
