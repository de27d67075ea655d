"""Spacing optimizer: surplus inversion, thresholds, subproblem, load root-find.

Grid-scan oracles recompute the thresholds by brute force; the frozen
constants were produced with mpmath at 40 digits (independent code path).
"""

import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import searelay as sr
import searelay.solver1d as solver1d
from searelay.solver1d import (CASE_I, CASE_II, NumericalInfeasibleError,
                               OutOfRangeError, _hop_root)

BLUE_R100 = 359057261.424
FROZEN = {
    # preset -> (q0, L0)
    "red": (953075593.164, 5.91746353274),
    "green": (532195003.511, 10.5972247565),
    "blue": (412889835.967, 13.6593095184),
}
# and perfbench's FEC model (`ROUNDTRIP_RATES["fec"]`), as the walk and
# Brent's method found them
FROZEN_THRESHOLDS = {**FROZEN, "fec": (244828606.623, 0.408449001853)}


def rel(a, b):
    return abs(a - b) / abs(b)


def tails(d: np.ndarray) -> np.ndarray:
    """tails[i] = sum of spacings beyond hop i."""
    return np.concatenate((np.cumsum(d[::-1])[::-1][1:], [0.0]))


# ---------------------------------------------------------------------------
# surplus and its inverse
# ---------------------------------------------------------------------------

def test_surplus_values(blue_rate):
    q = 1e6
    assert sr.surplus(blue_rate, q, 0.0) == pytest.approx(blue_rate.r0 / q, rel=1e-12)
    got = sr.surplus(blue_rate, q, 100.0)
    assert rel(got, BLUE_R100 / q - 50.0) < 1e-9
    # doubling the load halves only the rate term
    x = 37.0
    assert sr.surplus(blue_rate, 2 * q, x) == pytest.approx(
        blue_rate(x) / (2 * q) - x / 2, rel=1e-12)
    arr = sr.surplus(blue_rate, q, np.array([0.0, 100.0]))
    assert arr.shape == (2,)
    assert rel(arr[1], got) < 1e-12
    with pytest.raises(ValueError):
        sr.surplus(blue_rate, 0.0, 1.0)


def test_surplus_takes_what_the_rate_takes(blue_rate):
    # a list or tuple of lengths is an array, as it is for the rate itself
    q = 1e6
    want = sr.surplus(blue_rate, q, np.array([0.0, 37.0, 100.0]))
    for x in ([0.0, 37.0, 100.0], (0.0, 37.0, 100.0)):
        got = sr.surplus(blue_rate, q, x)
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, want)
    assert np.array_equal(want, blue_rate([0.0, 37.0, 100.0]) / q - [0.0, 18.5, 50.0])


def test_surplus_inverse_roundtrip(blue_rate):
    q = 1e6
    for x in (0.0, 0.5, 5.0, 50.0, 120.0):
        t = sr.surplus(blue_rate, q, x)
        assert sr.surplus_inverse(blue_rate, q, t) == pytest.approx(x, abs=1e-6)


def test_surplus_inverse_boundary(blue_rate):
    q = 1e6
    g0 = blue_rate.r0 / q
    assert sr.surplus_inverse(blue_rate, q, g0) == 0.0
    # tiny numeric overshoot clamps, a real one raises
    assert sr.surplus_inverse(blue_rate, q, g0 * (1 + 1e-12)) == 0.0
    with pytest.raises(OutOfRangeError):
        sr.surplus_inverse(blue_rate, q, g0 * 1.001)


def test_surplus_inverse_matches_grid_scan(blue_rate):
    q = 1e6
    grid = np.linspace(0.0, 2000.0, 1_000_001)
    vals = blue_rate(grid) / q - 0.5 * grid
    flip = int(np.argmax(vals < 0.0))
    step = grid[1] - grid[0]
    root = sr.surplus_inverse(blue_rate, q, 0.0)
    assert abs(root - grid[flip]) <= 2 * step


# ---------------------------------------------------------------------------
# critical load and length
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FROZEN_THRESHOLDS))
def test_critical_load_frozen_and_identity(name):
    rate = ROUNDTRIP_RATES[name]
    q0 = sr.critical_load(rate)
    q0_expect, l0_expect = FROZEN_THRESHOLDS[name]
    assert rel(q0, q0_expect) < 1e-9
    # defining identity R(R(0)/q0) = R(0)/2, up to the root solver width,
    # with d_half = R(0)/q0 on the root's near side
    assert rel(rate(rate.r0 / q0), rate.r0 / 2) < 1e-7
    assert rate(rate.r0 / q0) >= rate.r0 / 2
    l0 = sr.critical_length(rate)
    assert rel(l0, l0_expect) < 1e-9
    # L0 solves the zero-surplus equation at q0
    assert abs(sr.surplus(rate, q0, l0)) < 1e-6 * l0


@pytest.mark.parametrize("name, calls", [("blue", 10), ("fec", 9), ("green", 11), ("red", 9)])
def test_critical_load_scalar_calls(name, calls):
    # machine-independent: the walk and the hop root of d_half make no more
    # scalar R calls than the walk and Brent's method did, and no array call
    rate = counting_rate(ROUNDTRIP_RATES[name])
    rate.evals[:] = [0, 0]
    sr.critical_load(rate)
    assert rate.evals[0] <= calls and rate.evals[1] == 0, rate.evals


def test_critical_load_refuses_a_roundoff_plateau():
    # 1 + exp(-d) rounds to R(0)/2 = 1 from about 36.7 m on but never halves:
    # the walk's point 64 m is no d_half, and no critical load exists
    with pytest.raises(sr.NoBracketError, match="only by roundoff"):
        sr.critical_load(sr.RateFunction(lambda d: 1.0 + math.exp(-d)))
    # a rate that halves exactly at the walk's point 4 m keeps it, flat beyond or not
    for fn in (lambda d: 2.0 * 2.0 ** (-d / 4.0), lambda d: max(2.0 - d / 4.0, 1.0)):
        assert sr.critical_length(sr.RateFunction(fn)) == 4.0


def test_flat_rate_farthest_hop_takes_the_bracket_end():
    # a rate that never falls (against the paper's assumptions) meets the
    # load line only at the bracket's end 2 R(0)/q, unevaluated there; its f'
    # is then -q/2, which is exact for a flat R: the coverage's derivative in
    # log q is minus the coverage
    sub = sr.solve_subproblem(sr.RateFunction(lambda d: 1e6 + 0.0 * np.asarray(d)), 1e3, 5)
    assert sub.branch == CASE_I and sub.coverage == 2000.0
    assert sub.dcoverage_dlogq == -sub.coverage


def test_critical_load_dichotomy(blue_rate):
    q0 = sr.critical_load(blue_rate)
    hi, lo = 1.01 * q0, 0.99 * q0
    assert sr.surplus_inverse(blue_rate, hi, 0.0) >= blue_rate.r0 / hi
    assert sr.surplus_inverse(blue_rate, lo, 0.0) < blue_rate.r0 / lo


def test_critical_load_matches_grid_scan(blue_rate):
    r0 = blue_rate.r0
    qs = np.geomspace(1e7, 1e10, 1_000_001)
    vals = blue_rate(r0 / qs) - 0.5 * r0
    flip = int(np.argmax(vals > 0.0))  # increasing in q
    assert vals[flip - 1] <= 0.0 < vals[flip]
    q0 = sr.critical_load(blue_rate)
    assert qs[flip - 1] <= q0 <= qs[flip + 1]


# ---------------------------------------------------------------------------
# coverage subproblem
# ---------------------------------------------------------------------------

def test_subproblem_single_hop(blue_rate):
    q0 = sr.critical_load(blue_rate)
    for q in (0.3 * q0, 3.0 * q0):
        sub = sr.solve_subproblem(blue_rate, q, 1)
        assert sub.distances[0] == pytest.approx(
            sr.surplus_inverse(blue_rate, q, 0.0), rel=1e-12)
        assert sub.coverage == pytest.approx(float(sub.distances.sum()), rel=1e-12)


def test_subproblem_heavy_load_branch(blue_rate):
    q0 = sr.critical_load(blue_rate)
    sub = sr.solve_subproblem(blue_rate, 2.0 * q0, 5)
    assert sub.branch == CASE_I
    assert sub.distances[0] > 0.0
    assert not sub.distances[1:].any()
    assert sub.coverage == pytest.approx(
        sr.surplus_inverse(blue_rate, 2.0 * q0, 0.0), rel=1e-12)
    # feasibility: every hop's surplus covers its tail
    t = tails(sub.distances)
    for i, d in enumerate(sub.distances):
        assert sr.surplus(blue_rate, 2.0 * q0, float(d)) >= t[i] - 1e-6 * sub.coverage


def test_subproblem_chain_structure(blue_rate):
    q = 0.5 * sr.critical_load(blue_rate)
    sub = sr.solve_subproblem(blue_rate, q, 6)
    assert sub.branch == CASE_II
    d = sub.distances
    assert (d > 0.0).all()
    assert (np.diff(d) > 0.0).all()
    # all constraints tight: surplus(d_i) = tail_i
    t = tails(d)
    for i in range(6):
        resid = sr.surplus(blue_rate, q, float(d[i])) - t[i]
        assert abs(resid) < 1e-6 * sub.coverage, i


def test_subproblem_matches_exhaustive_grid(blue_rate):
    # 200 points per axis over [0, g_inv(0)]^3; objective = coverage subject
    # to the chain feasibility constraints, checked by full enumeration
    q = 0.5 * sr.critical_load(blue_rate)
    d_max = sr.surplus_inverse(blue_rate, q, 0.0)
    m = 200
    g = np.linspace(0.0, d_max, m)
    surplus_g = blue_rate(g) / q - 0.5 * g
    s1 = surplus_g[:, None, None]
    s2 = surplus_g[None, :, None]
    s3 = surplus_g[None, None, :]
    d1 = g[:, None, None]
    d2 = g[None, :, None]
    d3 = g[None, None, :]
    feasible = (s1 >= d2 + d3) & (s2 >= d3) & (s3 >= 0.0)
    coverage = np.where(feasible, d1 + d2 + d3, -np.inf)
    best = np.unravel_index(np.argmax(coverage), coverage.shape)
    best_cov = coverage[best]
    best_d = np.array([g[best[0]], g[best[1]], g[best[2]]])

    sub = sr.solve_subproblem(blue_rate, q, 3)
    cell = g[1] - g[0]
    assert 0.0 <= sub.coverage - best_cov <= 3 * cell
    assert np.all(np.abs(sub.distances - best_d) <= 2 * cell)


def test_coverage_strictly_decreasing_in_q(blue_rate):
    q0 = sr.critical_load(blue_rate)
    qs = np.geomspace(0.01 * q0, 5.0 * q0, 40)
    covs = [sr.solve_subproblem(blue_rate, float(q), 4).coverage for q in qs]
    assert all(a > b for a, b in zip(covs, covs[1:]))


def test_fixed_point_partial_sums_approach_g0(blue_rate):
    # partial tails z_i = d_N + ... + d_{N-i+1} climb toward surplus(0)
    q = 0.3 * sr.critical_load(blue_rate)
    n = 60
    sub = sr.solve_subproblem(blue_rate, q, n)
    z = np.cumsum(sub.distances[::-1])
    g0 = blue_rate.r0 / q
    assert (np.diff(z) > 0.0).all()
    assert z[-1] < g0
    assert (g0 - z[-1]) < 0.05 * (g0 - z[0])


def test_subproblem_validation(blue_rate):
    with pytest.raises(ValueError):
        sr.solve_subproblem(blue_rate, -1.0, 3)
    with pytest.raises(ValueError):
        sr.solve_subproblem(blue_rate, 1e6, 0)


BAD_CALLS = {
    "subproblem-nan-load": (lambda r: sr.solve_subproblem(r, math.nan, 3), "load q"),
    "subproblem-inf-load": (lambda r: sr.solve_subproblem(r, math.inf, 3), "load q"),
    "inverse-nan-target": (lambda r: sr.surplus_inverse(r, 1e6, math.nan), "surplus target t"),
    "inverse-minus-inf-target": (lambda r: sr.surplus_inverse(r, 1e6, -math.inf),
                                 "surplus target t"),
    "surplus-nan-load": (lambda r: sr.surplus(r, math.nan, 1.0), "load q"),
    "surplus-slope-nan-load": (lambda r: sr.surplus_slope(r, math.nan, 0.0), "load q"),
    "solve-fractional-n": (lambda r: sr.solve(r, 2.5, 100.0), "n must be an integer"),
    "solve-bool-n": (lambda r: sr.solve(r, True, 100.0), "n must be an integer"),
    "n-range-fractional-n-min": (lambda r: sr.solve_n_range(r, 100.0, 1.5, 3), "n_min"),
    "solve-2d-fractional-n-h": (lambda r: sr.solve_2d(r, 2.5, 100.0, 100.0), "n_h"),
    "constant-placement-fractional-n": (lambda r: sr.constant_placement(2.5, 100.0),
                                        "n must be an integer"),
    "vertical-fractional-n-v": (lambda r: sr.vertical_qsup(r, 2, 1.5, 100.0, 100.0), "n_v"),
    "perturb-fractional-trials": (lambda r: sr.perturb_eval(
        sr.constant_placement(4, 100.0), r, 1.0, trials=2.5, seed=1), "trials"),
}


@pytest.mark.parametrize("case", sorted(BAD_CALLS))
def test_public_entry_points_name_a_bad_argument(blue_rate, case):
    # a ValueError naming the argument (the CLI's exit 2), never a numeric
    # error, a NaN, a silent answer or a TypeError from deep inside
    call, names = BAD_CALLS[case]
    with pytest.raises(ValueError, match=names):
        call(blue_rate)


# ---------------------------------------------------------------------------
# the load root-find
# ---------------------------------------------------------------------------

def test_solve_single_hop_closed_form(blue_rate):
    for length in (50.0, 100.0, 500.0):
        res = sr.solve(blue_rate, 1, length)
        assert rel(res.q_sup, 2.0 * blue_rate(length) / length) < 1e-5


def test_solve_bisection_brackets_crossing(blue_rate):
    n, length = 5, 300.0
    tol_q = 1e-6 * blue_rate.scalar(length / n) * n / length
    res = sr.solve(blue_rate, n, length, tol_q=tol_q)
    above = sr.solve_subproblem(blue_rate, res.q_sup - 10 * tol_q, n).coverage
    below = sr.solve_subproblem(blue_rate, res.q_sup + 10 * tol_q, n).coverage
    assert above > length > below


def test_solve_decreasing_in_length(blue_rate):
    assert sr.solve(blue_rate, 10, 400.0).q_sup > sr.solve(blue_rate, 10, 500.0).q_sup


def test_solve_branch_tracks_critical_length(blue_rate):
    l0 = sr.critical_length(blue_rate)
    short = sr.solve(blue_rate, 4, 0.99 * l0)
    assert short.branch == CASE_I
    assert short.gamma is None
    assert short.q_sup > short.q0
    lng = sr.solve(blue_rate, 4, 1.01 * l0)
    assert lng.branch == CASE_II
    assert 0.0 < lng.gamma < 1.0
    assert lng.q_sup < lng.q0


def test_solve_short_segment_n_independent(blue_rate):
    l0 = sr.critical_length(blue_rate)
    q0 = sr.critical_load(blue_rate)
    tol = 1e-6 * q0
    r1 = sr.solve(blue_rate, 1, 0.5 * l0, tol_q=tol)
    r20 = sr.solve(blue_rate, 20, 0.5 * l0, tol_q=tol)
    assert abs(r1.q_sup - r20.q_sup) <= 10 * tol
    assert r1.branch == r20.branch == CASE_I


def test_solve_long_segment_rewards_nodes(blue_rate):
    l0 = sr.critical_length(blue_rate)
    assert sr.solve(blue_rate, 5, 1.5 * l0).q_sup < sr.solve(blue_rate, 20, 1.5 * l0).q_sup


def test_solve_placement_exactly_covers(blue_rate):
    res = sr.solve(blue_rate, 7, 350.0)
    assert res.placement.n == 7
    assert float(res.placement.distances.sum()) == pytest.approx(350.0, abs=1e-9 * 350.0)
    assert res.coverage_residual < 1e-3 * 350.0
    assert res.iterations <= 200
    assert res.bracket_width > 0.0


def test_solve_gamma_matches_decay_factor(blue_rate):
    # the reported decay factor is 1 + 1/f'(0), the surplus slope taken at q_sup
    res = sr.solve(blue_rate, 6, 200.0)
    assert res.branch == CASE_II
    slope = sr.surplus_slope(blue_rate, res.q_sup, 0.0)
    assert res.gamma == pytest.approx(1.0 + 1.0 / slope, rel=1e-12)


def test_solve_result_q0_l0_frozen(blue_10_500):
    q0_expect, l0_expect = FROZEN["blue"]
    assert rel(blue_10_500.q0, q0_expect) < 1e-8
    assert rel(blue_10_500.L0, l0_expect) < 1e-8


def test_solve_validation(blue_rate):
    with pytest.raises(ValueError):
        sr.solve(blue_rate, 0, 100.0)
    with pytest.raises(ValueError):
        sr.solve(blue_rate, 3, -5.0)
    with pytest.raises(ValueError):
        sr.solve(blue_rate, 3, 100.0, tol_q=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_rejects_non_finite_input(blue_rate, bad):
    with pytest.raises(ValueError, match="length"):
        sr.solve(blue_rate, 3, bad)
    with pytest.raises(ValueError, match="tol_q"):
        sr.solve(blue_rate, 3, 100.0, tol_q=bad)


def test_solve_rejects_underflowing_rate(red_rate):
    assert red_rate.scalar(1e4) == 0.0
    with pytest.raises(ValueError, match=r"R\(length/n\)"):
        sr.solve(red_rate, 1, 1e4)


def test_solve_rejects_a_length_whose_load_overflows(blue_rate):
    # R(L/n) * n / L passes the float range at a subnormal L
    with pytest.raises(ValueError, match="length 1e-310 is so short"):
        sr.solve(blue_rate, 3, 1e-310)


def test_load_root_stops_at_its_recursion_cap(blue_rate, monkeypatch):
    monkeypatch.setattr(solver1d, "_MAX_LOAD_ITERS", 1)
    with pytest.raises(solver1d.MaxItersError, match="did not converge in 1 recursions"):
        sr.solve(blue_rate, 3, 300.0)


@pytest.mark.parametrize("name,value", [("_TINY_PRODUCT", 1.0), ("_MAX_SWEEPS", 1)])
def test_failed_sweeps_give_the_same_qsup(blue_rate, monkeypatch, name, value):
    # a back-substitution product at or under _TINY_PRODUCT (here every one),
    # or sweeps that do not stop within _MAX_SWEEPS, leave the hops to the
    # hop-by-hop recursion, which finds the same q_sup
    ref = sr.solve(blue_rate, 300, 1000.0).q_sup
    sweeps, failed = solver1d._newton_sweeps, []

    def recording(*args):
        sub = sweeps(*args)
        failed.append(sub is None)
        return sub

    monkeypatch.setattr(solver1d, name, value)
    monkeypatch.setattr(solver1d, "_newton_sweeps", recording)
    q_sup = sr.solve(blue_rate, 300, 1000.0).q_sup
    assert any(failed) and (all(failed) or name == "_MAX_SWEEPS"), failed
    assert abs(q_sup - ref) <= 1e-12 * ref


ROUNDTRIP_RATES = {
    **{name: sr.shannon_rate_function(sr.preset(name)) for name in sorted(FROZEN)},
    "fec": sr.fec_rate_function(sr.FecRateParams(
        modulation_bits_per_symbol=2, code_rate=0.5, snr_threshold=10.0,
        scaled_gain=1e9, attenuation_per_m=2e-2, epsilon_m=1.0,
        geometric_exponent=2.0)),
}


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_RATES))
def test_critical_load_and_length_share_one_root(name):
    # q0 = R(0)/d_half and L0 = d_half come from one root, so q0 L0 = R(0)
    # to rounding, not to a root-finder's tolerance
    rate = ROUNDTRIP_RATES[name]
    res = sr.solve(rate, 3, 200.0)
    for q0, l0 in ((sr.critical_load(rate), sr.critical_length(rate)),
                   (res.q0, res.L0)):
        assert rel(q0 * l0, rate.r0) <= 1e-15


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_RATES))
def test_solve_roundtrip_relative(name):
    # re-evaluating the returned placement gives back q_sup, at every N and L
    rate = ROUNDTRIP_RATES[name]
    for n in (1, 10, 100, 1000):
        for length in (50.0, 500.0, 2000.0):
            res = sr.solve(rate, n, length)
            back = sr.qsup_of_placement(res.placement, rate).q_sup
            assert rel(back, res.q_sup) < 1e-6, (n, length, back, res.q_sup)


def test_case_ii_spacings_near_capacity_ceiling(blue_rate):
    # at q ~ R(0)/L the inner hops fall below the hop tolerance and follow
    # in closed form, a geometric series at the decay factor; spacings stay
    # non-decreasing and q_sup round-trips
    res = sr.solve(blue_rate, 2000, 200.0)
    d = res.placement.distances
    assert res.branch == CASE_II
    assert (d >= 0.0).all()
    assert (np.diff(d) >= 0.0).all()
    back = sr.qsup_of_placement(res.placement, blue_rate).q_sup
    assert rel(back, res.q_sup) < 1e-6


def test_case_ii_fec_at_capacity_ceiling():
    # 2000 hops over 5 m: q_sup is R(0)/L up to roundoff, and no hop may
    # overshoot its root, or the relayed tail sums past R(0)/q
    rate = ROUNDTRIP_RATES["fec"]
    res = sr.solve(rate, 2000, 5.0)
    d = res.placement.distances
    assert res.branch == CASE_II
    assert (np.diff(d) >= 0.0).all()
    back = sr.qsup_of_placement(res.placement, rate).q_sup
    assert rel(back, res.q_sup) < 1e-6


@pytest.mark.parametrize("n", [1, 10, 1000])
def test_solve_runs_one_recursion_per_iteration(blue_rate, monkeypatch, n):
    # the placement at q_sup comes from the recursion the load root-find
    # already ran there, not from one more
    inner = solver1d.solve_subproblem
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(solver1d, "solve_subproblem", counting)
    res = sr.solve(blue_rate, n, 500.0)
    assert calls == res.iterations


# q_sup and branch frozen from Brent's method on log q at the same default
# tolerance, by (model, N) over GRID_LS; None: R(L/n) underflows to 0 and
# solve raises
I, II = CASE_I, CASE_II
GRID_LS = (5.0, 50.0, 500.0, 5000.0)
FROZEN_QSUP = {
    ("blue", 1): [(1.5193101739e+09, I), (5.0028764220e+07, II), (2.8645772524e+01, II), (2.3557110615e-41, II)],
    ("blue", 3): [(1.5193101739e+09, I), (8.2368151460e+07, II), (2.1384993619e+05, II), (2.2797698086e-11, II)],
    ("blue", 30): [(1.5193101739e+09, I), (1.1208329358e+08, II), (7.9421736288e+06, II), (2.2513400543e+04, II)],
    ("blue", 300): [(1.5193101739e+09, I), (1.1279580133e+08, II), (1.1203264845e+07, II), (7.9417236266e+05, II)],
    ("fec", 1): [(1.0053749080e+06, II), (5.6575077400e+02, II), (7.2350197195e-05, II), (5.9497414191e-47, II)],
    ("fec", 3): [(5.3759547134e+06, II), (9.8704977338e+03, II), (5.7352045738e-01, II), (5.7579391115e-17, II)],
    ("fec", 30): [(1.9497501708e+07, II), (5.4166881267e+05, II), (1.0211406230e+03, II), (6.0650847995e-02, II)],
    ("fec", 300): [(2.0000000000e+07, II), (1.9494536553e+06, II), (5.4254540828e+04, II), (1.0245247891e+02, II)],
    ("green", 1): [(1.4693386983e+09, I), (1.3039775980e+07, II), (3.9783373110e-10, II), (6.2878407257e-150, II)],
    ("green", 3): [(1.4693386983e+09, I), (7.1778064200e+07, II), (5.6781244967e+01, II), (1.4823993173e-47, II)],
    ("green", 30): [(1.4693386983e+09, I), (1.1190084285e+08, II), (7.0553177758e+06, II), (6.1304639047e+00, II)],
    ("green", 300): [(1.4693386983e+09, I), (1.1279580133e+08, II), (1.1187493756e+07, II), (7.0573736620e+05, II)],
    ("red", 1): [(1.2396167912e+09, I), (1.8626202257e+02, II), (4.5272676361e-60, II), None],
    ("red", 3): [(1.2396167912e+09, I), (2.0638988285e+07, II), (1.3088573641e-15, II), (4.9301596458e-214, II)],
    ("red", 30): [(1.2396167912e+09, I), (1.1099040266e+08, II), (2.1212562970e+06, II), (1.4353952483e-16, II)],
    ("red", 300): [(1.2396167912e+09, I), (1.1279580133e+08, II), (1.1097679359e+07, II), (2.1275752774e+05, II)],
}


def test_solve_matches_frozen_qsup():
    for (name, n), frozen in FROZEN_QSUP.items():
        rate = ROUNDTRIP_RATES[name]
        for length, expect in zip(GRID_LS, frozen):
            if expect is None:
                with pytest.raises(ValueError, match=r"R\(length/n\)"):
                    sr.solve(rate, n, length)
                continue
            res = sr.solve(rate, n, length)
            q_sup, branch = expect
            assert rel(res.q_sup, q_sup) < 1e-7, (name, n, length, res.q_sup)
            assert res.branch == branch, (name, n, length)


def test_single_hop_matches_closed_form():
    # one hop carries its whole length, so q_sup = 2 R(L)/L exactly; flat
    # coverage (red water, 2 km) magnifies a hop's error in the load by ~150
    for name, rate in ROUNDTRIP_RATES.items():
        for length in (5.0, 50.0, 500.0, 2000.0):
            if rate.scalar(length) > 0.0:
                exact = 2.0 * rate.scalar(length) / length
                q_sup = sr.solve(rate, 1, length).q_sup
                assert rel(q_sup, exact) <= 1e-8, (name, length, q_sup, exact)


def test_short_chain_rate_call_budget():
    # machine-independent: scalar R calls per solve of a short chain, whose
    # recursions run hop by hop (192 on average here; 381 when every hop
    # root was solved to one tolerance, a cold one after a doubling walk)
    calls = []
    for base in ROUNDTRIP_RATES.values():
        for n in (1, 2, 3, 10, 30, 48):
            for length in (5.0, 50.0, 500.0, 2000.0):
                if base.scalar(length / n) > 0.0:
                    rate = counting_rate(base)
                    sr.solve(rate, n, length)
                    calls.append(rate.evals[0])
    assert sum(calls) / len(calls) <= 250, sum(calls) / len(calls)


def test_solve_recursion_budget():
    # machine-independent: recursions per solve of the safeguarded Newton
    # (Brent spent 7.1 on average here, and up to 10)
    iters = []
    for rate in ROUNDTRIP_RATES.values():
        for n in (1, 2, 3, 10, 30, 100, 300, 1000, 2000):
            for length in (5.0, 20.0, 50.0, 200.0, 500.0, 2000.0, 5000.0):
                if rate.scalar(length / n) > 0.0:
                    iters.append(sr.solve(rate, n, length).iterations)
    assert len(iters) == 250
    assert sum(iters) / len(iters) <= 5.0
    assert max(iters) <= 7


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_RATES))
@pytest.mark.parametrize("n", [1, 10, 300])
def test_carried_derivative_matches_central_difference(name, n):
    check_carried_derivative(ROUNDTRIP_RATES[name], n, 500.0)


def test_carried_derivative_of_a_collapsed_tail_matches_central_difference():
    # near the capacity ceiling most of q dC/dq comes from the closed-form tail
    check_carried_derivative(ROUNDTRIP_RATES["blue"], 1659, 208.758)


def check_carried_derivative(rate, n, length):
    """The recursion's q dC/dq against a central difference in q."""
    q_sup = sr.solve(rate, n, length).q_sup
    for qf in (0.2, 0.9, 0.99):
        q = qf * q_sup
        sub = sr.solve_subproblem(rate, q, n)
        h = 1e-4 * q
        central = (sr.solve_subproblem(rate, q + h, n).coverage
                   - sr.solve_subproblem(rate, q - h, n).coverage) / (2.0 * h)
        assert central < 0.0
        assert rel(sub.dcoverage_dlogq, q * central) < 1e-4, (qf, sub.dcoverage_dlogq, central)


def test_carried_derivative_finite_at_subnormal_load(red_rate):
    # q_sup ~ 1.6e-310: dC/dq itself overflows, q dC/dq does not.  The hop
    # roots' noise in coverage is ~1e-10 while a 2e-10 change in log q moves
    # it by 3e-13, so closing the bracket takes probes; bisection on a NaN
    # derivative took 35 recursions
    length = 7210.770016607243
    res = sr.solve(red_rate, 3, length)
    assert res.q_sup < 1e-300
    sub = sr.solve_subproblem(red_rate, res.q_sup, 3)
    assert math.isfinite(sub.dcoverage_dlogq) and sub.dcoverage_dlogq < 0.0
    assert res.iterations <= 20
    back = sr.qsup_of_placement(res.placement, red_rate).q_sup
    assert rel(back, res.q_sup) < 1e-6


BRACKET_CASES = ([(name, n, 500.0) for name in sorted(ROUNDTRIP_RATES) for n in (1, 1000)]
                 + [("blue", 2000, 200.0), ("fec", 2000, 5.0)])


def solve_recording(monkeypatch, rate, n, length):
    """`solve`, and the recursions its load search ran, by load."""
    inner = solver1d.solve_subproblem
    seen = {}

    def recording(rate, q, n, **kwargs):
        sub = seen[q] = inner(rate, q, n, **kwargs)
        return sub

    monkeypatch.setattr(solver1d, "solve_subproblem", recording)
    return sr.solve(rate, n, length), seen


@pytest.mark.parametrize("name,n,length", BRACKET_CASES)
def test_solve_bracket_is_two_recursions_straddling_length(monkeypatch, name, n, length):
    # both ends of the final bracket are recursions the root-find ran, on
    # either side of length, no wider than the default tolerance
    rate = ROUNDTRIP_RATES[name]
    res, seen = solve_recording(monkeypatch, rate, n, length)
    width = math.log1p(res.bracket_width / res.q_sup)
    assert 0.0 < width <= 2e-10 + 1e-15
    at_sup = seen[res.q_sup].coverage
    others = [q for q in seen
              if q != res.q_sup and abs(abs(math.log(q / res.q_sup)) - width) <= 1e-13]
    assert len(others) == 1, (seen.keys(), width)
    q_other = others[0]
    lo, hi = sorted((res.q_sup, q_other))
    c_lo = at_sup if lo == res.q_sup else seen[q_other].coverage
    c_hi = at_sup if hi == res.q_sup else seen[q_other].coverage
    assert c_lo >= length >= c_hi, (lo, c_lo, hi, c_hi)


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_RATES))
@pytest.mark.parametrize("rel_dq", [-1e-7, 1e-5, 9e-5, -0.27, 0.27, -0.5, 1.0])
def test_warm_recursion_hops_match_surplus_inverse(name, rel_dq):
    # hops warm-started from a recursion at a nearby load agree with the
    # public inverse of their own tail, as cold ones do
    rate = ROUNDTRIP_RATES[name]
    q = 0.5 * sr.critical_load(rate)
    n = 60
    warm = sr.solve_subproblem(rate, q * (1.0 + rel_dq), n)
    sub = sr.solve_subproblem(rate, q, n, warm=warm)
    assert sub.branch == CASE_II
    d = sub.distances
    assert (np.diff(d) >= 0.0).all()
    for i in range(n):
        x = sr.surplus_inverse(rate, q, float(d[i + 1:].sum()))
        assert abs(d[i] - x) <= 2.0 * hop_tol(x), (i, d[i], x)
    cold = sr.solve_subproblem(rate, q, n)
    assert rel(sub.dcoverage_dlogq, cold.dcoverage_dlogq) < 1e-4


def check_warm_recursion(rate, q, n, rel_dq):
    """The invariants of a recursion at q warm-started from one at q (1 + rel_dq)."""
    warm = sr.solve_subproblem(rate, q * (1.0 + rel_dq), n)
    sub = sr.solve_subproblem(rate, q, n, warm=warm)
    assert sub.branch == CASE_II
    d = sub.distances
    assert (d >= 0.0).all()
    assert (np.diff(d) >= 0.0).all()
    for i, t in enumerate(tails(d)):
        x = sr.surplus_inverse(rate, q, float(t))
        assert abs(d[i] - x) <= 2.0 * hop_tol(x), (i, d[i], x)
    cold = hop_by_hop(rate, q, n)
    assert rel(sub.dcoverage_dlogq, cold.dcoverage_dlogq) < 1e-4


def hop_by_hop(rate, q, n):
    """The recursion for n hops at q solved hop by hop, whatever n: the
    farthest hop's, extended inward one root at a time."""
    return solver1d._extend(rate, sr.solve_subproblem(rate, q, 1), n)


# warm recursions at q_sup of n hops over a length, solved by Newton sweeps
# beyond 48 hops and by the cold recursion up to it: about 2 m a hop, and
# the FEC capacity ceiling, where the inner hops approach 0 and a sweep that
# would leave them out of order or past R(0)/q falls back to the cold
# recursion
SWEEP_CASES = ([(name, n, 20.0 + 2.0 * n) for name in sorted(ROUNDTRIP_RATES)
                for n in (2, 10, 60, 300, 2000)] + [("fec", 2000, 5.0)])


@pytest.mark.parametrize("name,n,length", SWEEP_CASES)
def test_newton_sweep_invariants(name, n, length):
    rate = ROUNDTRIP_RATES[name]
    q = sr.solve(rate, n, length).q_sup
    for rel_dq in (-1e-7, 1e-7, -1e-4, 1e-4, -0.15, 0.15, -0.5, 1.0):
        check_warm_recursion(rate, q, n, rel_dq)


@given(name=st.sampled_from(sorted(ROUNDTRIP_RATES)), n=st.integers(2, 2000),
       length=st.floats(5.0, 5000.0), rel_dq=st.floats(-0.15, 0.15))
@settings(max_examples=25, deadline=None)
# warm sweeps keep R' for hops they do not move: moved by warm's curvature,
# it no longer lags the load (q dC/dq was 1.011e-4 off here)
@example("red", 49, 2899.0, 0.001953125)
def test_newton_sweep_invariants_property(name, n, length, rel_dq):
    rate = ROUNDTRIP_RATES[name]
    assume(rate.scalar(length / n) > 0.0)
    res = sr.solve(rate, n, length)
    assume(res.branch == CASE_II)
    check_warm_recursion(rate, res.q_sup, n, rel_dq)


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_RATES))
@pytest.mark.parametrize("n", [60, 300, 2000])
def test_warm_recursion_at_the_critical_load_agrees_with_a_cold_one(name, n):
    # a long chain's sweeps, started from a chain-branch recursion at any
    # load, run before the farthest hop is solved alone; around and above
    # the critical load, where the single hop takes over, they must fail
    # or agree with the cold recursion
    rate = ROUNDTRIP_RATES[name]
    q0 = sr.critical_load(rate)
    warm = sr.solve_subproblem(rate, 0.9 * q0, n)
    assert warm.branch == CASE_II
    for f in (1.0 - 1e-6, 1.0 + 1e-6, 1.01, 1.5, 3.0):
        sub = sr.solve_subproblem(rate, f * q0, n, warm=warm)
        cold = sr.solve_subproblem(rate, f * q0, n)
        assert sub.branch == cold.branch, f
        assert rel(sub.coverage, cold.coverage) <= 1e-9, (f, sub.coverage, cold.coverage)


COLD_HOPS = solver1d._COLD_HOPS


def check_cold_recursion(rate, q, n):
    """The invariants of a recursion at q with no recursion to start from."""
    sub = sr.solve_subproblem(rate, q, n)
    assert sub.branch == CASE_II
    d = sub.distances
    assert (d >= 0.0).all()
    assert (np.diff(d) >= 0.0).all()
    for i, t in enumerate(tails(d)):
        x = sr.surplus_inverse(rate, q, float(t))
        assert abs(d[i] - x) <= 2.0 * hop_tol(x), (i, d[i], x)
    assert rel(sub.dcoverage_dlogq, hop_by_hop(rate, q, n).dcoverage_dlogq) < 1e-4


# cold recursions longer than _COLD_HOPS start their sweeps from a continuum
# map: at about 2 m a hop, and near the capacity ceiling, where the sweeps
# cover the hops above the hop tolerance and the closed-form tail the rest
# (FALLBACK_CASES, where the hop-by-hop fallback is also tested)
FALLBACK_CASES = [("fec", 2000, 5.0), ("green", 150, 20.0)]
COLD_CASES = ([(name, n, 20.0 + 2.0 * n) for name in sorted(ROUNDTRIP_RATES)
               for n in (300, 2000)] + FALLBACK_CASES)


@pytest.mark.parametrize("name,n,length", COLD_CASES)
def test_cold_recursion_invariants(name, n, length):
    rate = ROUNDTRIP_RATES[name]
    q = sr.solve(rate, n, length).q_sup
    for qf in (0.5, 1.0):
        check_cold_recursion(rate, qf * q, n)


@given(name=st.sampled_from(sorted(ROUNDTRIP_RATES)), n=st.integers(COLD_HOPS + 1, 2000),
       length=st.floats(5.0, 5000.0))
@settings(max_examples=25, deadline=None)
def test_cold_recursion_invariants_property(name, n, length):
    rate = ROUNDTRIP_RATES[name]
    assume(rate.scalar(length / n) > 0.0)
    res = sr.solve(rate, n, length)
    assume(res.branch == CASE_II)
    check_cold_recursion(rate, res.q_sup, n)


def test_cold_recursion_runs_on_the_array_path(blue_rate):
    # machine-independent: a cold recursion of 1000 hops makes one array R
    # call for its continuum start and at most _MAX_SWEEPS for its sweeps,
    # and its only scalar ones are those of its farthest 16 hops, which a
    # 16-hop recursion makes; a hop-by-hop recursion would make ~3000
    n = 1000
    q = sr.solve(blue_rate, n, 2000.0).q_sup
    rate = counting_rate(blue_rate)
    rate.evals[:] = [0, 0]
    sr.solve_subproblem(rate, q, 16)
    anchors = list(rate.evals)
    assert anchors[1] == 0
    rate.evals[:] = [0, 0]
    sub = sr.solve_subproblem(rate, q, n)
    assert sub.branch == CASE_II
    assert 2 <= rate.evals[1] <= 1 + solver1d._MAX_SWEEPS
    assert rate.evals[0] == anchors[0]


@pytest.mark.parametrize("name,n,length", FALLBACK_CASES)
def test_failed_cold_sweeps_give_the_hop_by_hop_recursion(monkeypatch, name, n, length):
    # where the sweeps fail, the recursion goes on from the 16 hops it has,
    # to the hop-by-hop result bit for bit.  Near the capacity ceiling the
    # sweeps cover only the hops above the hop tolerance and converge, so
    # their failure is forced here
    base = ROUNDTRIP_RATES[name]
    q = sr.solve(base, n, length).q_sup
    rate = counting_rate(base)
    monkeypatch.setattr(solver1d, "_newton_sweeps", lambda *args: None)
    sub = sr.solve_subproblem(rate, q, n)
    assert rate.evals[1] >= 1
    ref = hop_by_hop(base, q, n)
    assert sub.branch == ref.branch == CASE_II
    assert sub.coverage == ref.coverage and sub.dcoverage_dlogq == ref.dcoverage_dlogq
    assert np.array_equal(sub.distances, ref.distances)
    assert np.array_equal(sub.ddistances_dlogq, ref.ddistances_dlogq)
    assert np.array_equal(sub.hop_slopes, ref.hop_slopes)


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_RATES))
def test_cold_recursion_whose_inner_hops_collapse(name):
    # just below the critical load spacings shrink so fast that the 16th
    # hop is 0, or below the hop tolerance: no continuum map can start
    # there, and the recursion runs hop by hop, without a numpy warning
    rate = ROUNDTRIP_RATES[name]
    q = (1.0 - 1e-7) * sr.critical_load(rate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sub = sr.solve_subproblem(rate, q, 200)
    ref = hop_by_hop(rate, q, 200)
    assert sub.coverage == ref.coverage
    assert np.array_equal(sub.distances, ref.distances)


# ---------------------------------------------------------------------------
# the collapsed tail near the capacity ceiling
# ---------------------------------------------------------------------------

CEILING_CASES = [("blue", 1659, 208.758), ("red", 1862, 226.585), ("fec", 2000, 5.0)]


def test_ceiling_solve_rate_call_budget():
    # machine-independent: once a hop falls below the hop tolerance the rest
    # follow in closed form, so these solves no longer run hop by hop
    # (5753, 6823 and 1627 scalar R calls when every collapsed hop took a root)
    for name, n, length in CEILING_CASES:
        rate = counting_rate(ROUNDTRIP_RATES[name])
        sr.solve(rate, n, length)
        assert rate.evals[0] <= 600, (name, rate.evals)
        assert rate.evals[1] <= 13, (name, rate.evals)


def test_collapsed_tail_is_geometric(blue_rate):
    # inward of its first hop below the hop tolerance, each hop of the
    # recursion at q_sup is the decay factor times the one beyond, solved
    # by sweeps or hop by hop, and the coverage stays within R(0)/q
    n = 2000
    q = sr.solve(blue_rate, n, 200.0).q_sup
    gamma = 1.0 + 1.0 / sr.surplus_slope(blue_rate, q, 0.0)
    for sub in (sr.solve_subproblem(blue_rate, q, n), hop_by_hop(blue_rate, q, n)):
        d = sub.distances
        a = int(np.searchsorted(d, solver1d._X_TOL)) - 1
        assert a > 100
        assert (np.abs(d[:a] - gamma * d[1:a + 1]) <= 1e-12 * d[:a]).all()
        assert sub.coverage <= blue_rate.r0 / q


@given(name=st.sampled_from(["blue", "green", "red"]), n=st.integers(1000, 2000),
       length=st.floats(200.0, 260.0), rel_dq=st.floats(-0.15, 0.15))
@settings(max_examples=25, deadline=None)
def test_recursions_near_the_capacity_ceiling_property(name, n, length, rel_dq):
    # the band where long chains have more nodes than they can use
    rate = ROUNDTRIP_RATES[name]
    res = sr.solve(rate, n, length)
    assume(res.branch == CASE_II)
    check_cold_recursion(rate, res.q_sup, n)
    check_warm_recursion(rate, res.q_sup, n, rel_dq)


def test_warm_recursion_runs_on_the_array_path(blue_rate):
    # machine-independent: a warm recursion of 1000 hops makes at most
    # _MAX_SWEEPS array R calls and no scalar one, since its sweeps solve
    # the farthest hop too; a silent fallback to a cold recursion would add
    # at least the scalar calls of its farthest 16 hops
    n = 1000
    q = sr.solve(blue_rate, n, 2000.0).q_sup
    warm = sr.solve_subproblem(blue_rate, q * (1.0 + 1e-5), n)
    rate = counting_rate(blue_rate)
    rate.evals[:] = [0, 0]
    sub = sr.solve_subproblem(rate, q, n, warm=warm)
    assert sub.branch == CASE_II
    assert 1 <= rate.evals[1] <= solver1d._MAX_SWEEPS
    assert rate.evals[0] == 0


# ---------------------------------------------------------------------------
# sweeps stopped early by the load search (inexact Newton on the load)
# ---------------------------------------------------------------------------

def converged_solve(monkeypatch, rate, n, length):
    """`solve` with every recursion converged: its recursions are run
    without the target length that lets their sweeps stop early."""
    inner = solver1d.solve_subproblem

    def converging(rate, q, n, *, warm=None, length=None):
        return inner(rate, q, n, warm=warm)

    with monkeypatch.context() as patch:
        patch.setattr(solver1d, "solve_subproblem", converging)
        return sr.solve(rate, n, length)


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_RATES))
@pytest.mark.parametrize("n", [49, 60, 129, 300, 1000, 2000])
def test_stopped_sweeps_leave_qsup_as_converged_ones_give_it(monkeypatch, name, n):
    # a recursion far from q_sup stops its sweeps once its coverage can
    # steer the load step; the search still ends on converged recursions
    rate = ROUNDTRIP_RATES[name]
    for length in (50.0, 500.0, 5000.0):
        res = sr.solve(rate, n, length)
        ref = converged_solve(monkeypatch, rate, n, length)
        assert rel(res.q_sup, ref.q_sup) <= 2e-10, (length, res.q_sup, ref.q_sup)
        assert res.branch == ref.branch


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_RATES))
@pytest.mark.parametrize("n,length", [(60, 500.0), (300, 500.0), (300, 5000.0),
                                      (1000, 2000.0), (2000, 5000.0)])
def test_bracket_ends_are_converged_recursions(monkeypatch, name, n, length):
    # a sweep restarted at the load of either end of the final bracket, from
    # that end's hops, moves no hop by more than the hop tolerance
    rate = ROUNDTRIP_RATES[name]
    res, seen = solve_recording(monkeypatch, rate, n, length)
    width = math.log1p(res.bracket_width / res.q_sup)
    ends = [sub for q, sub in seen.items()
            if abs(abs(math.log(q / res.q_sup)) - width) <= 1e-13 or q == res.q_sup]
    assert len(ends) == 2
    for sub in ends:
        z, g = sub.distances[::-1], sub.hop_slopes[::-1] + 0.5 * sub.q
        again = solver1d._newton_sweeps(rate, sub.q, z, g)
        assert again is not None
        moved = np.abs(again.distances - sub.distances)
        assert (moved <= hop_tol(sub.distances)).all(), (sub.q, moved.max())


def test_long_chain_array_calls_budget():
    # machine-independent: array R calls per long-chain solve.  With every
    # recursion converged they were 13.3 on average here, and up to 19; with
    # sweeps stopped once their coverage steers the load step, 9.4 and 12
    calls = []
    for base in ROUNDTRIP_RATES.values():
        for n in (300, 700, 1200, 2000):
            for length in (200.0, 500.0, 1500.0, 5000.0):
                rate = counting_rate(base)
                sr.solve(rate, n, length)
                calls.append(rate.evals[1])
    assert sum(calls) / len(calls) <= 10.0
    assert max(calls) <= 13


@pytest.mark.parametrize("length", [None, 1e6])
def test_sweeps_reject_a_tail_past_r0_over_q(blue_rate, length):
    # hops that stay positive and in order while the tail beyond the
    # innermost passes R(0)/q: a rate that states R(0) just below q times
    # that tail, R elsewhere unchanged.  Converged (no length) and stopped
    # at the first sweep (a length far beyond the coverage), the sweeps
    # return the hops for the true R(0) and reject them for the stated one
    n = 300
    q = sr.solve(blue_rate, n, 600.0).q_sup
    warm = sr.solve_subproblem(blue_rate, 1.01 * q, n)
    z = warm.distances[::-1] + warm.ddistances_dlogq[::-1] * math.log(q / warm.q)
    g = warm.hop_slopes[::-1] + 0.5 * warm.q
    rate = counting_rate(blue_rate)
    sub = solver1d._newton_sweeps(rate, q, z, g.copy(), length)
    assert sub is not None and sub.distances[0] > 0.0
    assert (rate.evals[1] == 1) == (length is not None)
    lying = copy.copy(rate)
    lying.r0 = q * (sub.coverage - sub.distances[0]) * (1.0 - 1e-6)
    assert solver1d._newton_sweeps(lying, q, z, g.copy(), length) is None


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_RATES))
@pytest.mark.parametrize("n", [10, 300, 2000])
def test_wrapped_rate_gives_bit_identical_results(name, n):
    # a rate wrapped as the traced benchmark wraps it, scalar path and
    # array path each around the model's own, gives every result bit for bit
    rate = ROUNDTRIP_RATES[name]
    other = counting_rate(rate)
    pairs = [(sr.solve(rate, n, 500.0), sr.solve(other, n, 500.0))]
    pairs += zip(sr.solve_n_range(rate, 500.0, n, n + 2),
                 sr.solve_n_range(other, 500.0, n, n + 2))
    assert len(pairs) == 4
    for a, b in pairs:
        assert a.q_sup == b.q_sup
        assert a.iterations == b.iterations
        assert np.array_equal(a.placement.distances, b.placement.distances)


# ---------------------------------------------------------------------------
# sweeps over the hop count
# ---------------------------------------------------------------------------

def counting_rate(rate):
    """`rate` counting its scalar evaluations in `.evals[0]` and array calls in
    `.evals[1]`, wrapped as the traced benchmark wraps a rate."""
    evals = [0, 0]
    scalar = rate.scalar

    def fn(d):
        evals[0] += 1
        return scalar(d)

    def array_fn(d):
        evals[1] += 1
        return rate(d)

    counted = sr.RateFunction(fn, array_fn, label=rate.label)
    counted.evals = evals
    return counted


def check_sweep_against_solve(rate, length, n_min, n_max):
    sweep = list(sr.solve_n_range(rate, length, n_min, n_max))
    assert len(sweep) == n_max - n_min + 1
    for n, res in enumerate(sweep, start=n_min):
        ref = sr.solve(rate, n, length)
        assert rel(res.q_sup, ref.q_sup) < 1e-8, (n, length, res.q_sup, ref.q_sup)
        assert res.branch == ref.branch, (n, length)
        assert (res.q0, res.L0) == (ref.q0, ref.L0)
        assert res.placement.n == n
        assert abs(res.placement.distances.sum() - length) <= 1e-9 * length
        back = sr.qsup_of_placement(res.placement, rate).q_sup
        assert rel(back, res.q_sup) < 1e-6, (n, length, back, res.q_sup)
        if res.branch == CASE_II:
            assert (np.diff(res.placement.distances) >= 0.0).all(), (n, length)


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_RATES))
@pytest.mark.parametrize("length", GRID_LS)
def test_solve_n_range_matches_solve(name, length):
    # each N continues from the previous N's recursion, extended by a hop
    # at the sink, and lands where an independent solve does
    rate = ROUNDTRIP_RATES[name]
    n_min = next(n for n in range(1, 31) if rate.scalar(length / n) > 0.0)
    if n_min > 1:
        # red water at 5 km: R(L/N) underflows at N = 1, 2, as in solve
        with pytest.raises(ValueError, match=r"R\(length/n\)"):
            next(sr.solve_n_range(rate, length, 1, 30))
    check_sweep_against_solve(rate, length, n_min, 30)


@pytest.mark.parametrize("name,length,n_min", [("blue", 500.0, 7), ("fec", 50.0, 12),
                                               ("green", 5.0, 2)])
def test_solve_n_range_from_n_min(name, length, n_min):
    check_sweep_against_solve(ROUNDTRIP_RATES[name], length, n_min, n_min + 8)


def test_extend_is_the_next_recursion():
    # at a fixed load the recursion for n + 1 hops is the one for n hops
    # plus a hop at the sink, bit for bit
    for rate in ROUNDTRIP_RATES.values():
        q0 = sr.critical_load(rate)
        for qf in (1e-6, 0.01, 0.5, 0.99, 1.5):
            for n in (1, 2, 3, 10, 50):
                ext = solver1d._extend(rate, sr.solve_subproblem(rate, qf * q0, n))
                ref = sr.solve_subproblem(rate, qf * q0, n + 1)
                assert ext.branch == ref.branch
                assert ext.q == ref.q and ext.coverage == ref.coverage
                assert ext.dcoverage_dlogq == ref.dcoverage_dlogq
                assert np.array_equal(ext.distances, ref.distances)
                if ref.branch == CASE_II:
                    assert np.array_equal(ext.ddistances_dlogq, ref.ddistances_dlogq)
                    assert np.array_equal(ext.hop_slopes, ref.hop_slopes)


def test_solve_n_range_saves_rate_evaluations():
    # machine-independent: the sweep's R evaluations against N independent
    # solves, over the lengths a design sweep draws
    sweep_evals = solve_evals = 0
    for base in ROUNDTRIP_RATES.values():
        for length in (20.0, 200.0, 2000.0):
            rate = counting_rate(base)
            list(sr.solve_n_range(rate, length, 1, 23))
            sweep_evals += rate.evals[0]
            rate.evals[0] = 0
            for n in range(1, 24):
                sr.solve(rate, n, length)
            solve_evals += rate.evals[0]
    assert sweep_evals <= 0.85 * solve_evals, (sweep_evals, solve_evals)


def test_solve_n_range_validation(blue_rate):
    # arguments are checked on the call, before any solve runs
    for n_min, n_max in ((0, 3), (4, 3), (-1, -1)):
        with pytest.raises(ValueError, match="n_min"):
            sr.solve_n_range(blue_rate, 500.0, n_min, n_max)
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="length"):
            sr.solve_n_range(blue_rate, bad, 1, 3)
    with pytest.raises(ValueError, match="tol_q"):
        sr.solve_n_range(blue_rate, 500.0, 1, 3, tol_q=-1.0)


def test_solve_n_range_with_tol_q(blue_rate):
    # an absolute tol_q bounds each bracket, as in solve
    tol_q = 1e-3
    for n, res in enumerate(sr.solve_n_range(blue_rate, 500.0, 1, 6, tol_q=tol_q), start=1):
        assert res.bracket_width <= tol_q
        assert abs(res.q_sup - sr.solve(blue_rate, n, 500.0, tol_q=tol_q).q_sup) <= 2.0 * tol_q


# ---------------------------------------------------------------------------
# the per-hop root of the recursion
# ---------------------------------------------------------------------------

def hop_tol(x: float) -> float:
    """Tolerance of a hop-length root at x: 1e-9 m + 5e-10 x."""
    return 1e-9 + 5e-10 * x


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_RATES))
@pytest.mark.parametrize("n", [2, 10, 300])
def test_recursion_hops_match_surplus_inverse(name, n):
    # each warm-started hop agrees with the public inverse of its own tail
    rate = ROUNDTRIP_RATES[name]
    q0 = sr.critical_load(rate)
    for qf in (0.01, 0.2, 0.9):
        q = qf * q0
        sub = sr.solve_subproblem(rate, q, n)
        assert sub.branch == CASE_II
        d = sub.distances
        for i in range(n):
            x = sr.surplus_inverse(rate, q, float(d[i + 1:].sum()))
            assert abs(d[i] - x) <= 2.0 * hop_tol(x), (qf, i, d[i], x)


@given(name=st.sampled_from(sorted(ROUNDTRIP_RATES)),
       qf=st.floats(0.001, 0.95), tf=st.floats(0.0, 0.99),
       hf=st.floats(1.0, 4.0),
       start=st.one_of(st.floats(-2.0, 3.0), st.sampled_from([0.0, 1.0])))
@settings(max_examples=200, deadline=None)
def test_hop_root_independent_of_start(name, qf, tf, hf, start):
    # start points inside [0, hi], at either end and outside it all give
    # the same root, and the R returned with it is R there
    rate = ROUNDTRIP_RATES[name]
    q = qf * sr.critical_load(rate)
    t = tf * rate.r0 / q
    root = sr.surplus_inverse(rate, q, t)
    hi = hf * root
    x, r_x, _ = _hop_root(rate.scalar, rate.r0, q, t, hi, rate.scalar(hi), start * hi)
    assert abs(x - root) <= 2.0 * hop_tol(root)
    assert r_x == rate.scalar(x)
    # the returned end never lies beyond the root
    assert r_x >= q * (0.5 * x + t)


def bisected_root(rate, q, t, hi):
    """The root of R(x) - q (x/2 + t) in [0, hi] by plain bisection, to the
    last bit: the reference for `_hop_root`."""
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if rate.scalar(mid) - q * (0.5 * mid + t) >= 0.0:
            lo = mid
        else:
            hi = mid


@given(name=st.sampled_from(sorted(ROUNDTRIP_RATES)),
       qf=st.floats(0.001, 0.95), tf=st.floats(0.0, 0.99), hf=st.floats(1.0, 4.0),
       start=st.floats(0.5, 1.5), err=st.one_of(st.none(), st.floats(-0.2, 0.2)),
       tol=st.sampled_from([0.01, 1.0, 2e5]))
@settings(max_examples=200, deadline=None)
def test_hop_root_stops_one_sided_within_its_tolerance(name, qf, tf, hf, start, err, tol):
    # cold starts, and warm ones whose slope errs by `err`: the point
    # returned has f >= 0 and lies at most the tolerance below the root
    rate = ROUNDTRIP_RATES[name]
    q = qf * sr.critical_load(rate)
    t = tf * rate.r0 / q
    hi = hf * sr.surplus_inverse(rate, q, t)
    assume(hi > 0.0)
    root = bisected_root(rate, q, t, hi)
    x0 = start * root
    slope = None
    if err is not None:
        slope = (rate.derivative(root) - 0.5 * q) * (1.0 + err)
    x, r_x, _ = _hop_root(rate.scalar, rate.r0, q, t, hi, rate.scalar(hi), x0, slope, tol)
    assert r_x == rate.scalar(x)
    assert r_x - q * (0.5 * x + t) >= 0.0
    # f >= 0 at both, and f is monotone only to roundoff: x may pass the
    # bisected root by an ulp or two
    assert -4e-16 * root <= root - x <= tol * hop_tol(x), (root, x)


# ---------------------------------------------------------------------------
# decay factor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FROZEN))
def test_decay_factor_in_unit_interval(name):
    # a solve reports the decay factor on the chain branch only, in (0, 1)
    rate = sr.shannon_rate_function(sr.preset(name))
    l0 = sr.critical_length(rate)
    chain, single = sr.solve(rate, 6, 20.0 * l0), sr.solve(rate, 6, 0.5 * l0)
    assert chain.branch == CASE_II and 0.0 < chain.gamma < 1.0
    assert single.branch == CASE_I and single.gamma is None


def test_decay_factor_closed_form(blue_rate):
    # gamma = 1 + 1/f'(0), with the surplus slope f'(0) = R'(0)/q - 1/2 at q_sup
    res = sr.solve(blue_rate, 6, 200.0)
    assert res.branch == CASE_II
    slope = blue_rate.derivative(0.0) / res.q_sup - 0.5
    assert res.gamma == pytest.approx(1.0 + 1.0 / slope, rel=1e-12)


def test_decay_certificate_subproblem(blue_rate):
    q = 0.3 * sr.critical_load(blue_rate)
    n = 8
    sub = sr.solve_subproblem(blue_rate, q, n)
    assert sub.branch == CASE_II
    gamma = 1.0 + 1.0 / sr.surplus_slope(blue_rate, q, 0.0)
    d = sub.distances
    selector = 1.0 / sr.surplus_slope(blue_rate, q, float(d[-1]))
    if selector > -1.0:
        for i in range(n - 1):
            assert d[i] <= gamma ** (n - 1 - i) * d[-1] * (1 + 1e-9), i
    else:
        for i in range(n - 2):
            assert d[i] <= gamma ** (n - 2 - i) * d[-2] * (1 + 1e-9), i


# ---------------------------------------------------------------------------
# placement container
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("distances,length,field", [
    ([math.nan, 500.0], 500.0, "distances"),
    ([math.inf, 500.0], 500.0, "distances"),
    ([250.0, 250.0], math.nan, "length"),
    ([250.0, 250.0], math.inf, "length"),
])
def test_placement_rejects_non_finite(distances, length, field):
    with pytest.raises(ValueError, match=field):
        sr.Placement(distances=np.array(distances), length=length)


def test_placement_validation():
    with pytest.raises(ValueError):
        sr.Placement(distances=np.array([1.0, -1.0]), length=1.0)
    with pytest.raises(ValueError):
        sr.Placement(distances=np.array([1.0, 1.0]), length=3.0)
    with pytest.raises(ValueError):
        sr.Placement(distances=np.array([[1.0]]), length=1.0)
    p = sr.Placement(distances=np.array([1.0, 2.0]), length=3.0)
    assert p.n == 2
    assert np.allclose(p.positions, [0.0, 1.0, 3.0])


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@given(qf=st.floats(0.001, 0.95), n=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_subproblem_always_feasible(qf, n):
    rate = sr.shannon_rate_function(sr.preset("blue"))
    q = qf * 412889835.967
    sub = sr.solve_subproblem(rate, q, n)
    d = sub.distances
    t = tails(d)
    scale = max(sub.coverage, 1.0)
    for i in range(n):
        assert sr.surplus(rate, q, float(d[i])) >= t[i] - 1e-6 * scale
    if sub.branch == CASE_II and n > 1:
        assert (np.diff(d) > 0.0).all()


@given(x=st.floats(0.0, 300.0), qf=st.floats(0.01, 2.0))
@settings(max_examples=60, deadline=None)
def test_surplus_inverse_roundtrip_property(x, qf):
    rate = sr.shannon_rate_function(sr.preset("blue"))
    q = qf * 412889835.967
    t = sr.surplus(rate, q, x)
    back = sr.surplus_inverse(rate, q, t)
    assert back == pytest.approx(x, abs=1e-5, rel=1e-6)
