"""Rectangular grid design: strip accounting, grid evaluation, two-stage solve."""

import math

import numpy as np
import pytest

import searelay as sr


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
