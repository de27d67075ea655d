"""The scalar root d_half of `critical_load`, where R falls to R(0)/2.

A doubling walk from 1 m (`bracket_monotone`) brackets it, and the hop root
that solves every hop of the recursion (`_hop_root`, here under the name
`bisect_monotone`) finds it on R(x) - R(0)/2, never past it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import searelay as sr
import searelay.solver1d as solver1d
from searelay.solver1d import MaxItersError, NoBracketError, bracket_monotone


def d_half(fn):
    """R(0)/q0 of the rate fn: the hop length where fn falls to fn(0)/2."""
    return sr.critical_length(sr.RateFunction(fn))


def test_linear_decreasing():
    assert d_half(lambda d: 10.0 - d) == pytest.approx(5.0, abs=1e-10)


def test_exponential_decreasing():
    assert d_half(lambda d: math.exp(-d)) == pytest.approx(math.log(2.0), abs=1e-10)


def test_surplus_root_matches_grid_scan(blue_rate):
    # brute-force oracle: one million point scan of the sign change of the
    # surplus shifted by a constant, R(x) - (c + q x/2)
    q, c = 1e6, 0.25 * blue_rate.r0
    grid = np.linspace(0.0, 2000.0, 1_000_001)
    vals = blue_rate(grid) - (c + q * 0.5 * grid)
    flip = int(np.argmax(vals < 0.0))  # first negative sample
    assert vals[flip - 1] >= 0.0 > vals[flip]
    r = blue_rate.scalar
    root = solver1d._hop_root(r, blue_rate.r0, q, 0.0, 2000.0, r(2000.0), 1.0, c=c)[0]
    assert abs(root - grid[flip]) <= 2 * (grid[1] - grid[0])


def test_bracket_straddles_and_result_inside(blue_rate):
    r, r0 = blue_rate.scalar, blue_rate.r0
    a, r_a, b, r_b = bracket_monotone(r, r0, 0.5 * r0)
    assert (a, b) == (8.0, 16.0)
    assert r_a == r(a) > 0.5 * r0 >= r_b == r(b)
    x = sr.critical_length(blue_rate)
    assert a <= x <= b
    assert r(x) >= 0.5 * r0


def test_closed_lower_bound_target(blue_rate):
    # the level R(0) is attained only at the bound itself: 0, unevaluated
    r, r0 = blue_rate.scalar, blue_rate.r0
    assert solver1d._hop_root(r, r0, 0.0, 0.0, 5.0, r(5.0), 1.0, c=r0) == (0.0, r0, None)


def test_unreachable_target_raises():
    # R = 2 + e^(-d) never falls to R(0)/2 = 1.5 (1 + e^(-d) reaches R(0)/2
    # = 1 in floats, from d = 37 m on)
    rate = sr.RateFunction(lambda d: 2.0 + math.exp(-d))
    with pytest.raises(NoBracketError):
        sr.critical_load(rate)
    with pytest.raises(NoBracketError):
        sr.solve(rate, 3, 100.0)


def test_open_bound_unreachable_raises():
    # the walk has no upper bound: 60 doublings, to 2**59 m, then it gives up
    calls = []
    with pytest.raises(NoBracketError):
        bracket_monotone(lambda d: calls.append(d) or 2.0, 2.0, 1.0)
    assert calls == [2.0 ** k for k in range(60)]


def test_max_iters_raises(blue_rate, monkeypatch):
    monkeypatch.setattr(solver1d, "_MAX_HOP_ITERS", 1)
    with pytest.raises(MaxItersError):
        sr.critical_load(blue_rate)


def test_deterministic():
    a, b = (sr.shannon_rate_function(sr.preset("green")) for _ in range(2))
    assert sr.critical_load(a) == sr.critical_load(a) == sr.critical_load(b)


@given(gain=st.floats(3.0, 12.0), k=st.floats(-4.0, 0.0), eps=st.floats(0.1, 10.0),
       alpha=st.floats(1.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_recovers_root_decreasing(gain, k, eps, alpha):
    # link budgets A e^(-K d) / (eps + d)^alpha, A and K log-uniform (K in
    # [1e-4, 1] 1/m): d_half lies within the hop tolerance, 1e-9 m + 5e-10
    # d, of a 200-step bisection of R(d) - R(0)/2, on the root's near side
    gain, k = 10.0 ** gain, 10.0 ** k
    fn = lambda d: gain * math.exp(-k * d) / (eps + d) ** alpha
    half = 0.5 * fn(0.0)
    lo, hi = 0.0, 1.0
    while fn(hi) > half:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fn(mid) > half else (lo, mid)
    x = d_half(fn)
    # R(0)/q0 may round an ulp or two past the root found
    assert -4e-16 * hi <= hi - x <= 1e-9 + 5e-10 * x, (x, hi)


def test_flat_secant_bisects():
    # R is flat on [1, 3) m, so two secant points there have equal f: the
    # secant's slope is 0 and the root-find bisects instead of dividing by
    # it.  R falls to R(0)/2 = 1 only at its step at 3 m, so q0 = 2/3
    def step(d):
        return 2.0 if d < 1.0 else 1.5 if d < 3.0 else 0.75 * 2.0 ** (3.0 - d)

    assert abs(sr.critical_load(sr.RateFunction(step)) - 2.0 / 3.0) <= 1e-9 * 2.0 / 3.0
