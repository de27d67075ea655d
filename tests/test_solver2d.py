"""Rectangular grid design: strip accounting, grid evaluation, two-stage solve."""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import searelay as sr
import searelay.solver2d as solver2d

RATES = {
    **{name: sr.shannon_rate_function(sr.preset(name)) for name in ("blue", "green", "red")},
    "fec": sr.fec_rate_function(sr.FecRateParams(
        modulation_bits_per_symbol=2, code_rate=0.5, snr_threshold=10.0,
        scaled_gain=1e9, attenuation_per_m=2e-2, epsilon_m=1.0,
        geometric_exponent=2.0)),
}


def rel(a, b):
    return abs(a - b) / abs(b)


def test_strip_heights_halved_sums():
    assert np.allclose(sr.strip_heights(np.array([10.0, 6.0])), [8.0, 3.0])
    assert np.allclose(sr.strip_heights(np.array([7.0])), [3.5])
    # strips tile everything above the sink row's own half-strip
    h = np.array([1.0, 2.0, 4.0])
    assert sr.strip_heights(h).sum() == pytest.approx(h.sum() - h[0] / 2, rel=1e-12)


def test_solve_2d_blue_headline(blue_rate):
    res = sr.solve_2d(blue_rate, 5, 500.0, 500.0)
    assert res.n_h == 5
    assert res.n_l >= 1
    assert res.total_nodes == (res.n_l + 1) * (res.n_h + 1) - 1
    assert res.q_sup == res.q_y
    assert res.q_y < res.q_x
    assert float(res.grid.l_spacings.sum()) == pytest.approx(500.0, rel=1e-9)
    assert float(res.grid.h_spacings.sum()) == pytest.approx(500.0, rel=1e-9)


def test_solve_2d_single_row(blue_rate):
    # one relay row: its strip is h/2 = H/2
    res = sr.solve_2d(blue_rate, 1, 400.0, 300.0)
    assert res.grid.h_spacings.tolist() == [300.0]
    assert float(sr.strip_heights(res.grid.h_spacings)[0]) == 150.0


def test_solve_2d_matches_grid_eval(blue_rate):
    res = sr.solve_2d(blue_rate, 5, 500.0, 500.0)
    assert rel(sr.grid_qsup(res.grid, blue_rate), res.q_sup) < 1e-5


def test_solve_2d_beats_uniform_grid(blue_rate):
    res = sr.solve_2d(blue_rate, 5, 500.0, 500.0)
    uniform = sr.Grid2D(
        l_spacings=np.full(res.n_l, 500.0 / res.n_l),
        h_spacings=np.full(res.n_h, 500.0 / res.n_h),
        length=500.0, height=500.0)
    assert sr.grid_qsup(uniform, blue_rate) < res.q_sup


def test_solve_2d_scaling_invariance(blue_rate):
    # scaling the rate by kappa scales both limits by kappa, same geometry
    kappa = 3.0
    scaled = sr.RateFunction(lambda d: kappa * blue_rate.scalar(d),
                             lambda d: kappa * blue_rate(d))
    a = sr.solve_2d(blue_rate, 4, 450.0, 350.0)
    b = sr.solve_2d(scaled, 4, 450.0, 350.0)
    assert b.n_l == a.n_l
    assert rel(b.q_y, kappa * a.q_y) < 1e-9
    assert rel(b.q_x, kappa * a.q_x) < 1e-6
    assert np.allclose(b.grid.h_spacings, a.grid.h_spacings, rtol=1e-6)
    assert np.allclose(b.grid.l_spacings, a.grid.l_spacings, rtol=1e-5)


def test_solve_2d_column_sweep_is_minimal(blue_rate):
    # q_x grows with the column count, so n_l - 1 columns must not suffice
    res = sr.solve_2d(blue_rate, 5, 500.0, 500.0)
    assert res.n_l > 1
    c_max = float(sr.strip_heights(res.grid.h_spacings).max())
    assert sr.solve(blue_rate, res.n_l - 1, 500.0).q_sup / c_max <= res.q_y
    assert res.q_x > res.q_y


def test_solve_2d_infeasible_when_sweep_capped(blue_rate):
    res = sr.solve_2d(blue_rate, 5, 500.0, 500.0)
    with pytest.raises(sr.NoFeasibleGridError):
        sr.solve_2d(blue_rate, 5, 500.0, 500.0, n_l_max=res.n_l - 1)


def check_fewest_columns(res, rate):
    """res is y-limited, feasible, and one column fewer would not be."""
    assert res.q_sup == res.q_y < res.q_x
    assert sr.grid_qsup(res.grid, rate) >= res.q_sup * (1.0 - 1e-6)
    c_max = float(sr.strip_heights(res.grid.h_spacings).max())
    assert rel(sr.solve(rate, res.n_l, res.grid.length).q_sup / c_max, res.q_x) < 1e-8
    if res.n_l > 1:
        assert sr.solve(rate, res.n_l - 1, res.grid.length).q_sup / c_max <= res.q_y


@given(name=st.sampled_from(sorted(RATES)), n_h=st.integers(1, 8),
       u=st.floats(-1.5, 2.0), v=st.floats(-1.0, 0.5))
@settings(max_examples=40, deadline=None)
@example("fec", 3, -1.0, 0.0)   # L = H = L0/10: the columns' single-hop branch
@example("fec", 1, -0.5, -1.0)
def test_solve_2d_fewest_columns(name, n_h, u, v):
    # L = 10^u L0 and H = 10^v L, below L0 for the x-family's single-hop branch
    rate = RATES[name]
    length = sr.critical_length(rate) * 10.0 ** u
    check_fewest_columns(sr.solve_2d(rate, n_h, length, length * 10.0 ** v), rate)


@given(name=st.sampled_from(sorted(RATES)), n=st.integers(1, 300), u=st.floats(-1.5, 2.0))
@settings(max_examples=30, deadline=None)
@example("fec", 7, -1.0)     # L = L0/10: every count supports the one hop's load
@example("blue", 200, 1.5)   # the recursion doubles past 128 hops
def test_fewest_columns_just_below_qsup(name, n, u):
    # the 1-D rule: the fewest columns for a load q just below q_sup(n, L)
    # are n, and n columns do not carry q just above it.  Stage 1 is a stub:
    # one row of height L (c_max = L/2) at q_sup 2q sets q* = q_y c_max = q
    rate = RATES[name]
    length = sr.critical_length(rate) * 10.0 ** u
    if u <= 0.0:
        n = 1   # the single-hop branch: more hops do not raise q_sup
    q_sup = sr.solve(rate, n, length).q_sup
    below, above = q_sup * (1.0 - 1e-7), q_sup * (1.0 + 1e-7)
    if n > 1:
        assume(sr.solve(rate, n - 1, length).q_sup < below)

    def columns(q, n_l_max):
        row = SimpleNamespace(q_sup=2.0 * q, placement=SimpleNamespace(distances=[length]),
                              q0=sr.critical_load(rate), L0=sr.critical_length(rate))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver2d, "solve", lambda *args, **kwargs: row)
            return sr.solve_2d(rate, 1, length, length, n_l_max=n_l_max)

    res = columns(below, 10**9)
    assert res.n_l == n and res.q_sup == res.q_y < res.q_x
    with pytest.raises(sr.NoFeasibleGridError):
        columns(above, n)


def test_solve_2d_more_columns_where_one_hop_underflows(green_rate):
    # R(11958 m) underflows in green water; 20 columns span the row
    res = sr.solve_2d(green_rate, 2, 11958.0, 1219.0)
    assert res.n_l == 20
    check_fewest_columns(res, green_rate)


def test_solve_2d_tie_keeps_q_x_above_q_y(blue_rate):
    # bisect L to adjacent floats a < b where the column count steps up: at
    # a, q_sup(n_l, a) lies within the solve tolerance of q* = q_y c_max
    def design(length):
        res = sr.solve_2d(blue_rate, 5, length, 500.0)
        assert res.q_sup == res.q_y < res.q_x
        return res

    a, b = 400.0, 500.0
    lo, hi = design(a), design(b)
    assert lo.n_l < hi.n_l
    while math.nextafter(a, math.inf) < b:
        mid = 0.5 * (a + b)
        res = design(mid)
        if res.n_l < hi.n_l:
            a, lo = mid, res
        else:
            b, hi = mid, res
    assert hi.n_l == lo.n_l + 1
    assert lo.q_x / lo.q_y - 1.0 < 1e-9
    check_fewest_columns(lo, blue_rate)
    check_fewest_columns(hi, blue_rate)


def test_solve_2d_cap_does_not_cost(blue_rate):
    # the count comes from a recursion doubled until it covers L, so the
    # work follows the count found, 4, not the cap; the values are those
    # of a load search per count up to 4
    t0 = time.perf_counter()
    res = sr.solve_2d(blue_rate, 5, 500.0, 500.0, n_l_max=10**8)
    assert time.perf_counter() - t0 < 0.5
    assert res.n_l == 4
    assert res.q_y == pytest.approx(2979.1522248108226, rel=1e-12)
    assert rel(res.q_x, 6000.282179905405) < 1e-8
    assert np.allclose(res.grid.l_spacings, [102.48357874960983, 111.8478582582573,
                                             126.1037662582322, 159.5647967339006],
                       rtol=1e-7, atol=0.0)


def test_solve_2d_runs_one_load_search(blue_rate, monkeypatch):
    # machine-independent: one load search finds the columns, and solve_2d's
    # scalar R calls fall below those of the row solve and a load search
    # per column count up to n_l (257 against 436 when this was written)
    evals = [0]

    def counted(d):
        evals[0] += 1
        return blue_rate.scalar(d)

    rate = sr.RateFunction(counted, blue_rate)
    searches = []
    search = solver2d._solve
    monkeypatch.setattr(solver2d, "_solve", lambda *args: searches.append(args[1]) or search(*args))
    res = sr.solve_2d(rate, 5, 500.0, 500.0)
    assert searches == [res.n_l] == [4]
    grid_evals, evals[0] = evals[0], 0
    sr.solve(rate, 5, 500.0)
    list(sr.solve_n_range(rate, 500.0, 1, res.n_l))
    assert grid_evals < evals[0], (grid_evals, evals[0])


def test_solve_2d_validation(blue_rate):
    with pytest.raises(ValueError):
        sr.solve_2d(blue_rate, 0, 100.0, 100.0)
    with pytest.raises(ValueError):
        sr.solve_2d(blue_rate, 3, -1.0, 100.0)
    with pytest.raises(ValueError):
        sr.solve_2d(blue_rate, 3, 100.0, 100.0, n_l_max=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="length"):
            sr.solve_2d(blue_rate, 3, bad, 100.0)
        with pytest.raises(ValueError, match="height"):
            sr.solve_2d(blue_rate, 3, 100.0, bad)


@pytest.mark.parametrize("tol_q,message", [
    (1e307, r"^tol_q 1e\+307 is out of range"),
    *((bad, rf"^tol_q must be finite and > 0, got {bad!r}$")
      for bad in (math.nan, math.inf, -1.0, 0.0))])
def test_solve_2d_checks_tol_q_as_passed(blue_rate, tol_q, message):
    # the error names the value passed, never the product with a strip
    # factor (1e307 * 300 m overflows to inf; -1 * 300 m is -300)
    with pytest.raises(ValueError, match=message):
        sr.solve_2d(blue_rate, 3, 300.0, 200.0, tol_q=tol_q)


def test_grid2d_validation():
    with pytest.raises(ValueError):
        sr.Grid2D(l_spacings=np.array([1.0, 1.0]), h_spacings=np.array([2.0]),
                  length=3.0, height=2.0)
    with pytest.raises(ValueError):
        sr.Grid2D(l_spacings=np.array([1.0, -1.0]), h_spacings=np.array([2.0]),
                  length=0.0, height=2.0)
    nan, inf = math.nan, math.inf
    bad_axes = [
        dict(l_spacings=[nan, 1.0], h_spacings=[2.0], length=3.0, height=2.0),
        dict(l_spacings=[1.0, 2.0], h_spacings=[inf], length=3.0, height=inf),
        dict(l_spacings=[1.0, 2.0], h_spacings=[2.0], length=nan, height=2.0),
        dict(l_spacings=[1.0, 2.0], h_spacings=[2.0], length=inf, height=2.0),
        dict(l_spacings=[1.0, 2.0], h_spacings=[nan], length=3.0, height=nan),
        dict(l_spacings=[[1.0, 2.0]], h_spacings=[2.0], length=3.0, height=2.0),
    ]
    for kw, axis in zip(bad_axes, ["l_spacings", "h_spacings", "l_spacings",
                                   "l_spacings", "h_spacings", "l_spacings"]):
        with pytest.raises(ValueError, match=axis):
            sr.Grid2D(**kw)
    g = sr.Grid2D(l_spacings=np.array([1.0, 2.0]), h_spacings=np.array([2.0]),
                  length=3.0, height=2.0)
    assert g.length == 3.0


def test_grid_qsup_uniform_closed_form(blue_rate):
    # 2x2 uniform grid over a 100x80 patch, small enough to hand-check
    l = np.array([50.0, 50.0])
    h = np.array([40.0, 40.0])
    grid = sr.Grid2D(l_spacings=l, h_spacings=h, length=100.0, height=80.0)
    c = 40.0  # strips are (40+40)/2 and 40/2 -> max 40
    lim_x = min(blue_rate.scalar(50.0) / ((25.0 + 50.0) * c),
                blue_rate.scalar(50.0) / (25.0 * c))
    lim_y = min(blue_rate.scalar(40.0) / ((20.0 + 40.0) * 100.0),
                blue_rate.scalar(40.0) / (20.0 * 100.0))
    assert sr.grid_qsup(grid, blue_rate) == pytest.approx(min(lim_x, lim_y), rel=1e-12)
