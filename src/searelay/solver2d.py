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
from .solver1d import (CASE_II, NumericalError, Placement, _checked_count, _checked_positive,
                       _extend, _solve, solve, solve_subproblem)

__all__ = [
    "Grid2D",
    "Grid2DResult",
    "NoFeasibleGridError",
    "strip_heights",
    "grid_qsup",
    "solve_2d",
]


class NoFeasibleGridError(NumericalError):
    """The grid needs more than n_l_max columns; with enough, every grid is feasible."""


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
    """Two-stage grid design: fix the row spacings, then the fewest columns.

    Stage 1 solves [0, height] in n_h hops: the row spacings and q_y =
    q_sup / length.  n_l is the first count whose recursion at q* = q_y c_max
    (4 ulps up, doubled toward the sink) covers more than length, the fewest
    with q_x = q_sup(n_l, length) / c_max > q_y; one load search at n_l,
    started there, gives the column spacings and q_x >= q* / c_max > q_y,
    ties included.  The grid supports q_sup = q_y; tol_q bounds q_y and q_x.
    """
    _checked_count(n_h, "n_h")
    _checked_positive(length, "length")
    _checked_positive(height, "height")
    _checked_count(n_l_max, "n_l_max")
    # checked as passed, then against the factors that scale it below (c_max <= height)
    if tol_q is not None and _checked_positive(tol_q, "tol_q") * max(length, height) == np.inf:
        raise ValueError(f"tol_q {tol_q!r} is out of range: tol_q * max(length, height) overflows")

    sol_y = solve(rate, n_h, height, tol_q=None if tol_q is None else tol_q * length)
    q_y = sol_y.q_sup / length
    c_max = float(strip_heights(sol_y.placement.distances).max())

    sub = prev = solve_subproblem(rate, q_y * c_max * (1.0 + 2.0 ** -50), 1)
    while sub.coverage <= length and sub.branch == CASE_II and sub.distances.size < n_l_max:
        prev, sub = sub, _extend(rate, sub, min(2 * sub.distances.size, n_l_max))
    if not sub.coverage > length:
        raise NoFeasibleGridError(f"the grid needs more than n_l_max = {n_l_max} columns")
    n_l = int(np.searchsorted(np.cumsum(sub.distances[::-1]), length, side="right")) + 1
    sol_x = _solve(rate, n_l, length, None if tol_q is None else tol_q * c_max,
                   sub if n_l == sub.distances.size else _extend(rate, prev, n_l),
                   (sol_y.q0, sol_y.L0))[0]
    return Grid2DResult(grid=Grid2D(l_spacings=sol_x.placement.distances,
                                    h_spacings=sol_y.placement.distances,
                                    length=length, height=height),
                        q_sup=q_y, q_x=sol_x.q_sup / c_max, q_y=q_y, n_l=n_l, n_h=n_h,
                        total_nodes=(n_l + 1) * (n_h + 1) - 1)
