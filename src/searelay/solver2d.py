"""Relay grids over a rectangular seafloor area.

Nodes sit on a grid: a column of relays repeats at every x-offset, packets
first travel along their row to column 0, then down column 0 to the sink at
the origin.  Row j's strip of seafloor is (h_j + h_{j+1})/2 high (sentinel 0
beyond the top row), so every x-hop in the worst row relays its strip height
times the usual line load, and the column-0 y-hops relay entire strips of
width L.  Both constraint families are the 1-D problem with a rescaled rate:

    y-hops:  R(.) / L       over [0, H]   -> q_y
    x-hops:  R(.) / c_max   over [0, L]   -> q_x,  c_max = tallest strip

The y-solve fixes the row spacings and q_y; the x-solve is repeated with a
growing column count until q_x exceeds q_y, which makes the y-family the
binding one and q_y the grid's supportable load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import RateFunction
from .evaluate import hop_limits
from .solver1d import solve

__all__ = [
    "Grid2D",
    "Grid2DResult",
    "NoFeasibleGridError",
    "strip_heights",
    "grid_qsup",
    "solve_2d",
]

_SUM_TOL = 1e-6


class NoFeasibleGridError(RuntimeError):
    """No column count within the sweep limit made the x-family non-binding."""


@dataclass(frozen=True)
class Grid2D:
    """Grid spacings: l_spacings along the rows (sum L), h_spacings up the columns (sum H)."""

    l_spacings: np.ndarray
    h_spacings: np.ndarray
    length: float    # L, row extent
    height: float    # H, column extent

    def __post_init__(self) -> None:
        l = np.asarray(self.l_spacings, dtype=float)
        h = np.asarray(self.h_spacings, dtype=float)
        object.__setattr__(self, "l_spacings", l)
        object.__setattr__(self, "h_spacings", h)
        if self.length <= 0 or self.height <= 0:
            raise ValueError("length and height must be > 0")
        for name, arr, total in (("l_spacings", l, self.length),
                                 ("h_spacings", h, self.height)):
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"{name} must be a 1-D array with at least one spacing")
            if float(arr.min()) < 0.0:
                raise ValueError(f"{name} must be >= 0")
            s = float(arr.sum())
            if abs(s - total) > _SUM_TOL * total:
                raise ValueError(f"{name} sum {s:.9g} != {total:.9g}")


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
    h = np.asarray(h_spacings, dtype=float)
    padded = np.append(h, 0.0)
    return 0.5 * (padded[:-1] + padded[1:])


def grid_qsup(grid: Grid2D, rate: RateFunction) -> float:
    """Supportable load of an arbitrary grid (min over both hop families).

    Each family is the 1-D hop bound over its own extent, divided by the
    strip each of its hops drains: the tallest strip for the x-hops, the
    row length L for the y-hops.
    """
    c = float(strip_heights(grid.h_spacings).max())
    q_x = hop_limits(rate, grid.l_spacings[None], grid.length).min() / c
    q_y = hop_limits(rate, grid.h_spacings[None], grid.height).min() / grid.length
    return float(min(q_x, q_y))


def solve_2d(rate: RateFunction, n_h: int, length: float, height: float,
             tol_q: float | None = None, n_l_max: int = 64) -> Grid2DResult:
    """Two-stage grid design: fix the column spacings, then grow the row count.

    Stage 1 solves the 1-D problem with rate R(.)/length over [0, height]
    (n_h hops), fixing the row spacings and the y-family limit q_y.  Stage 2
    sweeps the column count n_l = 1, 2, ... and solves with rate
    R(.)/c_max over [0, length] until its limit q_x exceeds q_y; the smallest
    such n_l is returned and the grid supports q_sup = q_y.
    """
    if n_h < 1:
        raise ValueError("n_h must be >= 1")
    if length <= 0 or height <= 0:
        raise ValueError("length and height must be > 0")
    if n_l_max < 1:
        raise ValueError("n_l_max must be >= 1")

    y_rate = rate.scaled(1.0 / length)
    sol_y = solve(y_rate, n_h, height, tol_q=tol_q)
    h_spacings = sol_y.placement.distances
    q_y = sol_y.q_sup
    c_max = float(strip_heights(h_spacings).max())

    x_rate = rate.scaled(1.0 / c_max)
    for n_l in range(1, n_l_max + 1):
        sol_x = solve(x_rate, n_l, length, tol_q=tol_q)
        if q_y < sol_x.q_sup:
            grid = Grid2D(l_spacings=sol_x.placement.distances,
                          h_spacings=h_spacings, length=length, height=height)
            return Grid2DResult(grid=grid, q_sup=q_y, q_x=sol_x.q_sup, q_y=q_y,
                                n_l=n_l, n_h=n_h,
                                total_nodes=(n_l + 1) * (n_h + 1) - 1)
    raise NoFeasibleGridError(
        f"x-family limit stayed at or below q_y for all column counts <= {n_l_max}")
