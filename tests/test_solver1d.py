"""Spacing optimizer: surplus inversion, thresholds, subproblem, load root-find.

Grid-scan oracles recompute the thresholds by brute force; the frozen
constants were produced with mpmath at 40 digits (independent code path).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import searelay as sr
from searelay.solver1d import (CASE_I, CASE_II, NumericalInfeasibleError,
                               OutOfRangeError, WrongBranchError)

BLUE_R100 = 359057261.424
FROZEN = {
    # preset -> (q0, L0)
    "red": (953075593.164, 5.91746353274),
    "green": (532195003.511, 10.5972247565),
    "blue": (412889835.967, 13.6593095184),
}


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

@pytest.mark.parametrize("name", sorted(FROZEN))
def test_critical_load_frozen_and_identity(name):
    rate = sr.shannon_rate_function(sr.preset(name))
    q0 = sr.critical_load(rate)
    q0_expect, l0_expect = FROZEN[name]
    assert rel(q0, q0_expect) < 1e-8
    # defining identity R(R(0)/q0) = R(0)/2, up to the root solver width
    assert rel(rate(rate.r0 / q0), rate.r0 / 2) < 1e-7
    l0 = sr.critical_length(rate)
    assert rel(l0, l0_expect) < 1e-8
    # L0 solves the zero-surplus equation at q0
    assert abs(sr.surplus(rate, q0, l0)) < 1e-6 * l0


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
    res = sr.solve(blue_rate, 6, 200.0)
    assert res.branch == CASE_II
    assert res.gamma == pytest.approx(sr.decay_factor(blue_rate, res.q_sup), rel=1e-12)


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


ROUNDTRIP_RATES = {
    **{name: sr.shannon_rate_function(sr.preset(name)) for name in sorted(FROZEN)},
    "fec": sr.fec_rate_function(sr.FecRateParams(
        modulation_bits_per_symbol=2, code_rate=0.5, snr_threshold=10.0,
        scaled_gain=1e9, attenuation_per_m=2e-2, epsilon_m=1.0,
        geometric_exponent=2.0)),
}


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
    # at q ~ R(0)/L the inner hops fall below the inner root's resolution
    # and collapse to 0; spacings stay non-decreasing and q_sup round-trips
    res = sr.solve(blue_rate, 2000, 200.0)
    d = res.placement.distances
    assert res.branch == CASE_II
    assert (d >= 0.0).all()
    assert (np.diff(d) >= 0.0).all()
    back = sr.qsup_of_placement(res.placement, blue_rate).q_sup
    assert rel(back, res.q_sup) < 1e-6


# ---------------------------------------------------------------------------
# decay factor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FROZEN))
def test_decay_factor_in_unit_interval(name):
    rate = sr.shannon_rate_function(sr.preset(name))
    q0 = sr.critical_load(rate)
    gamma = sr.decay_factor(rate, 0.5 * q0)
    assert 0.0 < gamma < 1.0
    with pytest.raises(WrongBranchError):
        sr.decay_factor(rate, 1.5 * q0)


def test_decay_factor_closed_form(blue_rate):
    # slope of the surplus at 0 is R'(0)/q - 1/2
    q = 0.2 * sr.critical_load(blue_rate)
    slope = blue_rate.derivative(0.0) / q - 0.5
    assert sr.decay_factor(blue_rate, q) == pytest.approx(1.0 + 1.0 / slope, rel=1e-12)


def test_decay_certificate_subproblem(blue_rate):
    q = 0.3 * sr.critical_load(blue_rate)
    n = 8
    sub = sr.solve_subproblem(blue_rate, q, n)
    assert sub.branch == CASE_II
    gamma = sr.decay_factor(blue_rate, q)
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
