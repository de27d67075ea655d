"""Globally optimal relay spacing on a line segment.

A chain of N relay nodes forwards traffic generated uniformly along [0, L]
toward a sink at 0; every node relays everything collected beyond it.  The
largest per-meter load q a placement can sustain is limited by each hop:
a hop of length d_i must carry q * (d_i/2 + sum of all spacings beyond i).

For a fixed q the headroom of a single hop is captured by the surplus

    surplus(x) = R(x)/q - x/2

the chain length a hop of length x can still feed after serving its own
half-cell.  Maximizing total covered length at fixed q has a closed-form
solution: either a single active hop (heavy load), or a backward recursion
that makes every hop's constraint tight, producing spacings that grow with
distance from the sink.  The optimal supportable load q_sup for a given L is
then the root, in log q, of log(maximal covered length / L).

Both root-finds, the surplus inverse inside the recursion and the load
outside it, use Brent's method (`scalar.bisect_monotone`) with tolerances
relative to the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import RateFunction
from . import scalar
from .scalar import bisect_monotone, bracket_monotone

__all__ = [
    "CASE_I",
    "CASE_II",
    "Placement",
    "SubproblemResult",
    "SolveResult",
    "OutOfRangeError",
    "WrongBranchError",
    "NumericalInfeasibleError",
    "surplus",
    "surplus_inverse",
    "critical_load",
    "critical_length",
    "solve_subproblem",
    "solve",
    "decay_factor",
    "surplus_slope",
]

CASE_I = "case-i"    # single active hop: load too heavy for a chain to help
CASE_II = "case-ii"  # all hop constraints tight, spacings non-decreasing

_SUM_TOL = 1e-6      # relative slack allowed on sum(distances) == length
_CLAMP_REL = 1e-9    # numeric overshoot tolerated on the recursion argument
_X_TOL = 1e-9        # hop-length roots: absolute [m] ...
_X_RTOL = 5e-10      # ... plus relative tolerance
_LOG_Q_TOL = 2e-10   # default load tolerance, in log q (i.e. relative)


class OutOfRangeError(ValueError):
    """Requested surplus value exceeds the maximum R(0)/q attained at x = 0."""


class WrongBranchError(RuntimeError):
    """Decay factor requested at a load where the chain solution is inactive."""


class NumericalInfeasibleError(RuntimeError):
    """Backward recursion left the surplus domain by more than roundoff."""


# ---------------------------------------------------------------------------
# placements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Placement:
    """Ordered hop spacings d_1..d_N from the sink outward; node N sits at L."""

    distances: np.ndarray
    length: float

    def __post_init__(self) -> None:
        d = np.asarray(self.distances, dtype=float)
        object.__setattr__(self, "distances", d)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("distances must be a 1-D array with at least one hop")
        if self.length <= 0:
            raise ValueError("length must be > 0")
        if float(d.min()) < 0.0:
            raise ValueError("distances must be >= 0")
        total = float(d.sum())
        if abs(total - self.length) > _SUM_TOL * self.length:
            raise ValueError(
                f"distances sum to {total:.9g}, expected {self.length:.9g} "
                f"within {_SUM_TOL:g} relative")

    @property
    def n(self) -> int:
        return int(self.distances.size)

    @property
    def positions(self) -> np.ndarray:
        """Node positions x_0 = 0, x_1, ..., x_N."""
        out = np.empty(self.distances.size + 1)
        out[0] = 0.0
        np.cumsum(self.distances, out=out[1:])
        return out


@dataclass(frozen=True)
class SubproblemResult:
    """Coverage-maximizing spacings at a fixed load q."""

    distances: np.ndarray
    coverage: float          # sum of spacings
    branch: str              # CASE_I or CASE_II


@dataclass(frozen=True)
class SolveResult:
    """Optimal placement for N hops over [0, L] and the load it supports.

    q_sup is the better end of the final load bracket, whose width is
    bracket_width; `iterations` counts the coverage evaluations (one
    backward recursion each) the load root-find spent.
    """

    q_sup: float                 # largest supportable per-meter load [bit/s per m]
    placement: Placement
    q0: float                    # load threshold where the single-hop branch takes over
    L0: float                    # coverage at that threshold; L <= L0 means branch case-i
    branch: str
    gamma: Optional[float]       # spacing decay factor, only on the chain branch
    iterations: int              # coverage evaluations of the load root-find
    bracket_width: float         # final q bracket width [bit/s per m]
    coverage_residual: float = field(default=0.0)  # |coverage - L| before rescaling


# ---------------------------------------------------------------------------
# surplus machinery
# ---------------------------------------------------------------------------

def surplus(rate: RateFunction, q: float, x):
    """Chain length a hop of length x can feed at load q: R(x)/q - x/2."""
    if q <= 0:
        raise ValueError("load q must be > 0")
    r = rate(x)
    if isinstance(x, np.ndarray):
        return r / q - 0.5 * x
    return r / q - 0.5 * float(x)


def surplus_inverse(rate: RateFunction, q: float, t: float, *,
                    upper: float | None = None) -> float:
    """Hop length x >= 0 with surplus(x) = t; t may not exceed R(0)/q.

    `upper`, if given, must be a hop length at or beyond the root (the
    recursion passes the next spacing out, which case-ii spacings never
    undercut).  Without it the root is bracketed by a doubling walk from
    1 m, capped at 2 (R(0)/q - t), where the surplus is already below t.
    """
    if q <= 0:
        raise ValueError("load q must be > 0")
    g0 = rate.r0 / q
    t = float(t)
    if t >= g0:
        if t - g0 <= _CLAMP_REL * max(1.0, abs(g0)):
            return 0.0
        raise OutOfRangeError(f"surplus target {t:.9g} exceeds maximum {g0:.9g}")
    r = rate.scalar

    # q * (surplus(x) - t): the same root, and finite even where R(0)/q
    # overflows at tiny loads
    def f(x: float) -> float:
        return r(x) - q * (0.5 * x + t)

    f_lo = rate.r0 - q * t
    if f_lo <= 0.0:
        # t is R(0)/q up to roundoff
        return 0.0
    if upper is not None:
        lo, hi = 0.0, float(upper)
        f_hi = f(hi)
    else:
        lo, f_lo, hi, f_hi = bracket_monotone(f, 0.0, f_lo, 1.0,
                                              limit=2.0 * (g0 - t))
    if f_hi >= 0.0:
        # the upper bound is the root up to roundoff
        return hi
    return bisect_monotone(f, lo, hi, f_lo, f_hi, xtol=_X_TOL, rtol=_X_RTOL)[0]


def critical_load(rate: RateFunction) -> float:
    """Load q0 above which a single active hop outperforms any chain.

    Root of the strictly increasing map q -> R(R(0)/q) - R(0)/2, i.e.
    R(0)/d_half with d_half the hop length at which R falls to R(0)/2.
    """
    r0 = rate.r0
    r = rate.scalar

    def f(d: float) -> float:
        return r(d) - 0.5 * r0

    lo, f_lo, hi, f_hi = bracket_monotone(f, 0.0, 0.5 * r0, 1.0)
    d_half = bisect_monotone(f, lo, hi, f_lo, f_hi, xtol=_X_TOL, rtol=_X_RTOL)[0]
    return r0 / d_half


def critical_length(rate: RateFunction) -> float:
    """Coverage L0 of the single active hop at the critical load."""
    return surplus_inverse(rate, critical_load(rate), 0.0)


def surplus_slope(rate: RateFunction, q: float, x: float) -> float:
    """Numeric derivative of the surplus: R'(x)/q - 1/2."""
    if q <= 0:
        raise ValueError("load q must be > 0")
    return rate.derivative(x) / q - 0.5


def decay_factor(rate: RateFunction, q: float) -> float:
    """Geometric factor gamma in (0, 1) bounding how fast spacings shrink sink-ward.

    Defined as 1 + 1/surplus_slope(0); only meaningful on the chain branch
    (q below the critical load), where the slope at 0 is below -1.
    """
    if q <= 0:
        raise ValueError("load q must be > 0")
    if q >= critical_load(rate):
        raise WrongBranchError("decay factor is defined only below the critical load")
    slope0 = surplus_slope(rate, q, 0.0)
    return 1.0 + 1.0 / slope0


# ---------------------------------------------------------------------------
# coverage maximization at fixed load
# ---------------------------------------------------------------------------

def solve_subproblem(rate: RateFunction, q: float, n: int) -> SubproblemResult:
    """Spacings maximizing covered length with n hops at fixed load q.

    Heavy load (surplus_inverse(0) >= R(0)/q): one active hop next to the
    sink, the remaining nodes collapse onto it.  Otherwise every constraint
    is made tight by a backward recursion from the farthest hop inward,
    yielding spacings non-decreasing away from the sink.  Near the ceiling
    q ~ R(0)/L the relayed tail reaches R(0)/q, and inner hops shorter than
    the inner root's ~1e-9 m resolution collapse to 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if q <= 0:
        raise ValueError("load q must be > 0")
    g0 = rate.r0 / q
    d_far = surplus_inverse(rate, q, 0.0)
    d = np.zeros(n)
    if d_far >= g0:
        # case i: the single hop already out-reaches anything a chain could add
        d[0] = d_far
        return SubproblemResult(distances=d, coverage=d_far, branch=CASE_I)
    d[n - 1] = d_far
    total = d_far
    for i in range(n - 2, -1, -1):
        t = total
        if t > g0:
            if t - g0 <= _CLAMP_REL * max(1.0, g0):
                t = g0
            else:
                raise NumericalInfeasibleError(
                    f"relayed-tail total {t:.9g} exceeds surplus maximum {g0:.9g}")
        d[i] = surplus_inverse(rate, q, t, upper=d[i + 1])
        total += d[i]
    return SubproblemResult(distances=d, coverage=total, branch=CASE_II)


# ---------------------------------------------------------------------------
# optimal load for a fixed segment
# ---------------------------------------------------------------------------

def solve(rate: RateFunction, n: int, length: float,
          tol_q: float | None = None) -> SolveResult:
    """Find the load at which n hops exactly cover [0, length].

    Coverage is continuous and strictly decreasing in q, so the supportable
    load is the unique q with coverage(q) = length; Brent's method finds it
    on log q inside a closed bracket built from R(length/n).  The default
    tolerance is relative, 2e-10 of q_sup; a given tol_q is an absolute
    bound [bit/s per m] on the final bracket width.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    length = float(length)
    if not (math.isfinite(length) and length > 0):
        raise ValueError(f"length must be finite and > 0, got {length!r}")
    if tol_q is not None and not (math.isfinite(tol_q) and tol_q > 0):
        raise ValueError(f"tol_q must be finite and > 0, got {tol_q!r}")
    r_eq = rate.scalar(length / n)
    # equal spacing supports 2 q_lo, and a hop of length >= length/n caps q
    # at q_up / 2; the factor-2 pads absorb roundoff at n = 1, where the
    # lower bound is exact
    q_lo = 0.5 * r_eq / (length * (1.0 - 0.5 / n))
    q_up = 4.0 * r_eq * n / length
    if not q_lo > 0:
        raise ValueError(
            f"R(length/n) = R({length / n:.9g} m) = {r_eq!r}: the supportable "
            f"load underflows; use a shorter length or more hops")
    if not math.isfinite(q_up):
        raise ValueError(f"length {length!r} is so short that the load "
                         f"R(length/n) * n / length overflows")
    iterations = 0

    def log_excess(log_q: float) -> float:
        nonlocal iterations
        iterations += 1
        return math.log(solve_subproblem(rate, math.exp(log_q), n).coverage / length)

    # called through `scalar`, not this module's name: perfbench's tracer
    # wraps solver1d.bisect_monotone to time the per-hop root-finds, and
    # an outer span there would nest every one of them inside it
    log_q, width = scalar.bisect_monotone(
        log_excess, math.log(q_lo), math.log(q_up),
        xtol=_LOG_Q_TOL if tol_q is None else tol_q / q_up)
    q_sup = math.exp(log_q)

    sub = solve_subproblem(rate, q_sup, n)
    residual = abs(sub.coverage - length)
    distances = sub.distances * (length / sub.coverage)
    q0 = critical_load(rate)
    l0 = surplus_inverse(rate, q0, 0.0)
    gamma = None
    if sub.branch == CASE_II:
        gamma = 1.0 + 1.0 / surplus_slope(rate, q_sup, 0.0)
    return SolveResult(
        q_sup=q_sup,
        placement=Placement(distances=distances, length=length),
        q0=q0,
        L0=l0,
        branch=sub.branch,
        gamma=gamma,
        iterations=iterations,
        bracket_width=q_sup * math.expm1(width),
        coverage_residual=residual,
    )
