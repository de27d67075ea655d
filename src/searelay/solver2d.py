"""Relay grids over a rectangular seafloor area.

Nodes sit on a grid: a column of relays repeats at every x-offset, packets
first travel along their row to column 0, then down column 0 to the sink at
the origin.  Row j's strip of seafloor is (h_j + h_{j+1})/2 high (sentinel 0
beyond the top row), so every x-hop in the worst row relays its strip height
times the usual line load, and the column-0 y-hops relay entire strips of
width L.  Both constraint families are the 1-D problem, its supportable load
divided by the strip each hop drains:

    y-hops:  q_sup(R over [0, H]) / L       -> q_y
    x-hops:  q_sup(R over [0, L]) / c_max   -> q_x,  c_max = tallest strip
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import RateFunction
from .evaluate import hop_limits
from .solver1d import (NumericalError, Placement, _checked_count, _checked_positive, solve,
                       solve_n_range)

__all__ = [
    "Grid2D",
    "Grid2DResult",
    "NoFeasibleGridError",
    "strip_heights",
    "grid_qsup",
    "solve_2d",
]


class NoFeasibleGridError(NumericalError):
    """No column count within the sweep limit made the x-family non-binding."""


@dataclass(frozen=True)
class Grid2D:
    """Grid spacings: l_spacings along the rows (sum L), h_spacings up the columns (sum H)."""

    l_spacings: np.ndarray
    h_spacings: np.ndarray
    length: float    # L, row extent
    height: float    # H, column extent

    def __post_init__(self) -> None:
        """Check each axis as a 1-D placement of its spacings over its extent."""
        for name, extent in (("l_spacings", "length"), ("h_spacings", "height")):
            try:
                axis = Placement(getattr(self, name), getattr(self, extent))
            except ValueError as exc:
                raise ValueError(f"{name} over {extent}: {exc}") from None
            object.__setattr__(self, name, axis.distances)


@dataclass(frozen=True)
class Grid2DResult:
    grid: Grid2D
    q_sup: float        # supportable load of the returned grid (= q_y)
    q_x: float          # x-family limit at the chosen column count
    q_y: float          # y-family limit
    n_l: int            # relay columns beyond the sink's column
    n_h: int            # relay rows beyond the sink's row
    total_nodes: int    # (n_l + 1) * (n_h + 1) - 1


def strip_heights(h_spacings: np.ndarray) -> np.ndarray:
    """Seafloor strip height drained by each relay row; top row gets h/2."""
    padded = np.append(h_spacings, 0.0)   # a float array, whatever the input's type
    return 0.5 * (padded[:-1] + padded[1:])


def grid_qsup(grid: Grid2D, rate: RateFunction) -> float:
    """Supportable load of an arbitrary grid: the smaller family's, each the
    1-D hop bound over its own extent divided by its strip factor."""
    c = float(strip_heights(grid.h_spacings).max())
    q_x = hop_limits(rate, grid.l_spacings[None], grid.length).min() / c
    q_y = hop_limits(rate, grid.h_spacings[None], grid.height).min() / grid.length
    return float(min(q_x, q_y))


def solve_2d(rate: RateFunction, n_h: int, length: float, height: float,
             tol_q: float | None = None, n_l_max: int = 64) -> Grid2DResult:
    """Two-stage grid design: fix the column spacings, then grow the row count.

    Stage 1 solves the 1-D problem over [0, height] (n_h hops), fixing the
    row spacings and the y-family limit q_y = q_sup / length.  Stage 2
    sweeps the column count n_l = 1, 2, ... over [0, length] until the
    x-family limit q_x = q_sup / c_max exceeds q_y; the smallest such n_l is
    returned and the grid supports q_sup = q_y.  tol_q bounds q_y and q_x.
    """
    _checked_count(n_h, "n_h")
    _checked_positive(length, "length")
    _checked_positive(height, "height")
    _checked_count(n_l_max, "n_l_max")
    # checked as passed, then against the factors that scale it below (c_max <= height)
    if tol_q is not None and _checked_positive(tol_q, "tol_q") * max(length, height) == np.inf:
        raise ValueError(f"tol_q {tol_q!r} is out of range: tol_q * max(length, height) "
                         "overflows")

    sol_y = solve(rate, n_h, height, tol_q=None if tol_q is None else tol_q * length)
    h_spacings = sol_y.placement.distances
    q_y = sol_y.q_sup / length
    c_max = float(strip_heights(h_spacings).max())

    sols = solve_n_range(rate, length, 1, n_l_max,
                         tol_q=None if tol_q is None else tol_q * c_max)
    for n_l, sol_x in enumerate(sols, start=1):
        q_x = sol_x.q_sup / c_max
        if q_y < q_x:
            grid = Grid2D(l_spacings=sol_x.placement.distances,
                          h_spacings=h_spacings, length=length, height=height)
            return Grid2DResult(grid=grid, q_sup=q_y, q_x=q_x, q_y=q_y,
                                n_l=n_l, n_h=n_h,
                                total_nodes=(n_l + 1) * (n_h + 1) - 1)
    raise NoFeasibleGridError(
        f"x-family limit stayed at or below q_y for all column counts <= {n_l_max}")
