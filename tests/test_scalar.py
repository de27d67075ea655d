"""Doubling walk and Brent's method."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from searelay.scalar import (MaxItersError, NoBracketError, bisect_monotone,
                             bracket_monotone)

XTOL = 1e-12


def root_beyond(f, lo, f_lo, step, xtol=XTOL, **kw):
    """Root of monotone f at or beyond lo: walk out from lo, then Brent."""
    if f_lo == 0.0:
        return lo
    a, fa, b, fb = bracket_monotone(f, lo, f_lo, step)
    return bisect_monotone(f, a, b, fa, fb, xtol=xtol, **kw)[0]


def test_linear_decreasing():
    f = lambda x: 5.0 - x
    assert root_beyond(f, 0.0, f(0.0), 1.0) == pytest.approx(5.0, abs=1e-10)


def test_exponential_decreasing():
    f = lambda x: math.exp(-x) - 0.5
    x = root_beyond(f, 0.0, f(0.0), 1.0)
    assert x == pytest.approx(math.log(2.0), abs=1e-10)


def test_surplus_root_matches_grid_scan(blue_rate):
    # brute-force oracle: one million point scan of the surplus sign change
    q = 1e6
    g = lambda x: blue_rate.scalar(x) / q - 0.5 * x
    grid = np.linspace(0.0, 2000.0, 1_000_001)
    vals = blue_rate(grid) / q - 0.5 * grid
    flip = int(np.argmax(vals < 0.0))  # first negative sample
    assert vals[flip - 1] >= 0.0 > vals[flip]
    step = grid[1] - grid[0]
    root = root_beyond(g, 0.0, g(0.0), 1.0, xtol=1e-9)
    assert abs(root - grid[flip]) <= 2 * step


def test_bracket_straddles_and_result_inside():
    f = lambda x: x * x - 49.0
    a, fa, b, fb = bracket_monotone(f, 0.0, -49.0, 1.0)
    assert a <= 7.0 <= b
    assert fa == f(a) < 0.0 <= fb == f(b)
    x, width = bisect_monotone(f, a, b, fa, fb, xtol=XTOL)
    assert a <= x <= b
    assert 0.0 <= width <= b - a
    assert abs(f(x)) <= 1e-6


def test_walk_stops_at_limit():
    # root at 3, limit at 2.5: the walk ends on the limit, sign unchanged
    f = lambda x: 3.0 - x
    a, fa, b, fb = bracket_monotone(f, 0.0, 3.0, 1.0, limit=2.5)
    assert (a, b) == (2.0, 2.5)
    assert fa == 1.0 and fb == 0.5


def test_closed_lower_bound_target():
    # decreasing from f(0)=10; target 10 attained only at the bound itself
    f = lambda x: (10.0 - 3.0 * x) - 10.0
    assert bisect_monotone(f, 0.0, 5.0, xtol=XTOL) == (0.0, 0.0)


def test_unreachable_target_raises():
    f = lambda x: 10.0 * math.exp(-x) - 11.0  # target above the max at the bound
    with pytest.raises(NoBracketError):
        bisect_monotone(f, 0.0, 5.0, xtol=XTOL)


def test_open_lower_bound():
    # 1/x on x > 0: the walk never evaluates the open bound itself
    f = lambda x: 1.0 / x - 1.0 / 7.0
    assert root_beyond(f, 0.0, math.inf, 1.0) == pytest.approx(7.0, abs=1e-8)


def test_open_bound_unreachable_raises():
    # exp(-x) stays below 2 however far the walk goes
    f = lambda x: math.exp(-x) - 2.0
    with pytest.raises(NoBracketError):
        bracket_monotone(f, 0.0, -1.0, 1.0)


def test_max_iters_raises():
    f = lambda x: x ** 3 - math.pi
    with pytest.raises(MaxItersError):
        bisect_monotone(f, 0.0, 10.0, xtol=1e-300, max_iters=3)


def test_validation_errors():
    f = lambda x: x - 5.0
    with pytest.raises(ValueError):
        bracket_monotone(f, 0.0, -5.0, 0.0)  # step must be > 0
    with pytest.raises(ValueError):
        bracket_monotone(f, 2.0, -3.0, 1.0, limit=1.0)  # limit below lo
    with pytest.raises(ValueError):
        bracket_monotone(f, 5.0, 0.0, 1.0)  # lo is already the root
    with pytest.raises(ValueError):
        bisect_monotone(f, 9.0, 3.0, xtol=XTOL)  # a > b
    with pytest.raises(ValueError):
        bisect_monotone(f, 3.0, 9.0, xtol=0.0)
    with pytest.raises(ValueError):
        bisect_monotone(f, 3.0, 9.0, xtol=XTOL, rtol=-1.0)
    with pytest.raises(ValueError):
        bisect_monotone(f, 3.0, 9.0, xtol=XTOL, max_iters=0)


def test_deterministic():
    f = lambda x: x ** 3 + x - 123.456
    a = root_beyond(f, 0.0, f(0.0), 2.0)
    b = root_beyond(f, 0.0, f(0.0), 2.0)
    assert a == b


@given(a=st.floats(0.1, 10.0), b=st.floats(0.0, 5.0),
       x_star=st.floats(0.0, 100.0), seed=st.floats(0.01, 50.0))
@settings(max_examples=200, deadline=None)
def test_recovers_root_increasing(a, b, x_star, seed):
    fn = lambda x: a * x ** 3 + b * x
    target = fn(x_star)
    f = lambda x: fn(x) - target
    x = root_beyond(f, 0.0, f(0.0), seed, xtol=1e-10)
    assert abs(fn(x) - target) <= 1e-6 * max(1.0, abs(target)) or abs(x - x_star) <= 1e-6


@given(m=st.floats(1.0, 1e6), x_star=st.floats(0.0, 60.0), seed=st.floats(0.01, 40.0))
@settings(max_examples=200, deadline=None)
def test_recovers_root_decreasing(m, x_star, seed):
    fn = lambda x: m * math.exp(-x) - x
    target = fn(x_star)
    f = lambda x: fn(x) - target
    x = root_beyond(f, 0.0, f(0.0), seed, xtol=1e-10)
    assert abs(x - x_star) <= 1e-7 * max(1.0, x_star) + 1e-9
