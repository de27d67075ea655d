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

`solve_subproblem` runs the recursion and its derivative q dC/dq, `solve`
finds the load by safeguarded, inexact Newton on log q (`rtsafe`, Press et
al., *Numerical Recipes* 9.4; Dembo, Eisenstat & Steihaug 1982), and
`solve_n_range` runs it over hop counts; their docstrings say how.  Every
hop is a root of `_hop_root`, and so is d_half, where R falls to R(0)/2:
`critical_load` roots R(x) - R(0)/2 from a doubling bracket.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np

from .channel import RateFunction, _checked_positive

__all__ = [
    "CASE_I", "CASE_II", "Placement", "SubproblemResult", "SolveResult",
    "NumericalError", "NoBracketError", "MaxItersError", "OutOfRangeError",
    "WrongBranchError", "NumericalInfeasibleError",
    "surplus", "surplus_inverse", "critical_load", "critical_length",
    "solve_subproblem", "solve", "solve_n_range", "decay_factor", "surplus_slope",
]

CASE_I = "case-i"    # single active hop: load too heavy for a chain to help
CASE_II = "case-ii"  # all hop constraints tight, spacings non-decreasing

_SUM_TOL = 1e-6      # relative slack allowed on sum(distances) == length
_CLAMP_REL = 1e-9    # numeric overshoot tolerated on the recursion argument
_X_TOL = 1e-9        # hop-length roots: absolute [m] ...
_X_RTOL = 5e-10      # ... plus relative tolerance
_LOG_Q_TOL = 2e-10   # default load tolerance, in log q (i.e. relative)
_MAX_HOP_ITERS = 200  # hop-root cap; bisection takes a 1e6 m bracket to 1e-9 m in 50
_MAX_LOAD_ITERS = 100  # load-root cap; bisection takes the bracket to 2e-10 in ~40
_MAX_WALK_STEPS = 60   # d_half's walk limit: 2**59 m
_MAX_SWEEPS = 8        # sweeps before the hop-by-hop recursion takes over
# only longer chains sweep: a sweep's ~30 numpy calls cost more than the
# hop-by-hop recursion below 24-32 hops at dq/q = 1e-5 (1 sweep), 32-48 at
# 1e-3, 48-64 at 1e-2 and 64-96 at 0.1
_SWEEP_HOPS = 48
# and only longer chains start them cold, from a continuum map beyond their
# farthest 16 hops.  The hop-by-hop recursion's time over theirs, at q_sup,
# 0.5-10 m a hop, by hop count: 64: 0.65-0.83, 96: 0.89-1.18, 128:
# 1.11-1.45, 192: 1.52-1.99, 256: 1.92-2.47
_COLD_HOPS = 128
_TINY_PRODUCT = 1e-250  # smallest back-substitution product an array sweep takes
# a recursion within _WARM_REL of the one before, in log q, starts each hop
# from that one's, and keeps its f' within _NEAR_REL, where R' moves < 1e-5
_WARM_REL, _NEAR_REL = 0.1, 1e-5
_TIGHT, _LOOSE_FIRST, _LOOSE_FAR = 0.01, 2e5, 4e4  # hop tolerance multiples: `_hop_tol`


class NumericalError(RuntimeError):
    """A numeric routine failed on input it accepted; the CLI exits 3 on it."""


class NoBracketError(NumericalError):
    """R does not fall to R(0)/2 along the walk from 1 m to 2**59 m."""


class MaxItersError(NumericalError):
    """A root-finder hit its iteration cap before reaching tolerance."""


class OutOfRangeError(ValueError):
    """Requested surplus value exceeds the maximum R(0)/q attained at x = 0."""


class WrongBranchError(NumericalError):
    """Decay factor requested at a load where the chain solution is inactive."""


class NumericalInfeasibleError(NumericalError):
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
        if not (np.isfinite(d).all() and d.min() >= 0.0):
            raise ValueError("distances must be finite and >= 0")
        _checked_positive(self.length, "length")
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
        return np.concatenate(([0.0], np.cumsum(self.distances)))


@dataclass(frozen=True)
class SubproblemResult:
    """Coverage-maximizing spacings at a fixed load q, and their derivatives.

    The derivatives come from differentiating each tight hop
    R(d_i) = q (d_i/2 + t_i) implicitly, with t_i the tail beyond hop i:
    dd_i/dq = (d_i/2 + t_i + q dt_i/dq) / f'(d_i), where f'(x) = R'(x) - q/2
    is the slope the hop's root-find ends with.  They are kept in log q,
    q dd_i/dq, which stays finite where dd_i/dq overflows at tiny loads.
    """

    distances: np.ndarray
    coverage: float          # sum of spacings
    branch: str              # CASE_I or CASE_II
    q: float = math.nan                 # the load [bit/s per m]
    dcoverage_dlogq: float = math.nan   # q dC/dq [m]
    ddistances_dlogq: Optional[np.ndarray] = field(default=None, repr=False)
    hop_slopes: Optional[np.ndarray] = field(default=None, repr=False)  # f'(d_i)


@dataclass(frozen=True)
class SolveResult:
    """Optimal placement for N hops over [0, L] and the load it supports.

    The load root-find ends on a bracket of two recursions, one covering
    at least L and one at most L; q_sup is the end whose coverage is
    nearer L, and bracket_width the bracket's width in q.  `iterations`
    counts the backward recursions the root-find ran, one per Newton,
    probe or bisection step.
    """

    q_sup: float                 # largest supportable per-meter load [bit/s per m]
    placement: Placement
    q0: float                    # load threshold where the single-hop branch takes over
    L0: float                    # coverage at that threshold; L <= L0 means branch case-i
    branch: str
    gamma: Optional[float]       # spacing decay factor, only on the chain branch
    iterations: int              # backward recursions of the load root-find
    bracket_width: float         # final q bracket [bit/s per m]; see `solve` on q_sup's error
    coverage_residual: float = field(default=0.0)  # |coverage - L| before rescaling


# ---------------------------------------------------------------------------
# surplus machinery
# ---------------------------------------------------------------------------

def _checked_count(n, name: str = "n", least: int = 1) -> int:
    """n as an int, once checked to be an integer (not a bool) >= least."""
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")
    return int(n)


def surplus(rate: RateFunction, q: float, x):
    """Chain length a hop of length x can feed at load q: R(x)/q - x/2."""
    q = _checked_positive(q, "load q")
    r = rate(x)  # checks x, and takes a list or tuple as an array
    return r / q - 0.5 * (np.asarray(x, float) if isinstance(r, np.ndarray) else float(x))


def surplus_inverse(rate: RateFunction, q: float, t: float) -> float:
    """Hop length x >= 0 with surplus(x) = t; t may not exceed R(0)/q.

    Found by `_hop_root` from 1 m in [0, 2 (R(0)/q - t)], where surplus < t.
    """
    t, q = float(t), _checked_positive(q, "load q")
    if not t > -math.inf:
        raise ValueError(f"surplus target t must be > -inf, got {t!r}")
    g0 = rate.r0 / q
    if t - g0 > _CLAMP_REL * max(1.0, abs(g0)):
        raise OutOfRangeError(f"surplus target {t:.9g} exceeds maximum {g0:.9g}")
    hi = min(2.0 * (g0 - t), sys.float_info.max)  # 2 R(0)/q overflows at tiny q
    return _hop_root(rate.scalar, rate.r0, q, t, hi, rate.scalar(hi), 1.0)[0] if hi > 0.0 else 0.0


def _hop_root(r, r0: float, q: float, t: float, hi: float, r_hi: float,
              x: float, slope: float | None = None, tol: float = _TIGHT,
              warm: bool = False, c: float = 0.0) -> tuple[float, float, float | None]:
    """Root in [0, hi] of f(x) = R(x) - (c + q (x/2 + t)), R there, and f' there.

    r is R's float path and r_hi = R(hi).  f, q (surplus(x) - t) if c = 0,
    is finite where R(0)/q overflows, convex and decreasing: f' = R' - q/2
    <= -q/2.  A safeguarded secant runs from x, its first step Newton's with
    `slope` if given; each step aims a quarter tolerance, `tol` times 1e-9 m
    + 5e-10 x, below the root it predicts, and goes half a tolerance if
    shorter than one.  As f is convex, the chord from a point where f >= 0 to the
    bracket's upper end crosses zero at or beyond the root: once that is
    within the tolerance, the point is returned, never beyond the root.
    f' there, capped at -q/2, is `slope` if `warm` and x is returned; else
    the secant of the last two points if closer than 1e-6 (x + t), or 100
    tolerances, and their f differ by more than 1e-10 of its terms (closer,
    f is roundoff); else one over a step made for it.  It is None when the
    root is taken at 0 or hi unevaluated.
    """
    lo, r_lo = 0.0, r0
    f_lo = r0 - (c + q * t)
    if f_lo <= 0.0:
        # t is R(0)/q up to roundoff
        return lo, r_lo, None
    f_hi = r_hi - (c + q * (0.5 * hi + t))
    if f_hi >= 0.0:
        # the upper bound is the root up to roundoff
        return hi, r_hi, None
    # the start, the point before x, and the last two steps' lengths
    x0, xp, fp = x, hi, f_hi
    step = step_old = hi
    a, b = tol * _X_TOL, tol * _X_RTOL
    newton = slope
    for _ in range(_MAX_HOP_ITERS):
        if not lo < x < hi:  # bisect, in log x across a bracket wider than 4:1
            x = math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo > 0.0 else 0.5 * (lo + hi)
        r_x = r(x)
        fx = r_x - (c + q * (0.5 * x + t))
        if fx >= 0.0:
            lo, r_lo, f_lo = x, r_x, fx
        else:
            hi, f_hi = x, fx
        eps = a + b * lo
        if f_lo * (hi - lo) <= eps * (f_lo - f_hi):
            if not (warm and lo == x0):
                near = 1e-6 * (x + t) if 1e-6 * (x + t) > 100.0 * eps else 100.0 * eps
                noise = 1e-10 * (r_x + c + q * (0.5 * x + t))
                if -near < x - xp < near and not -noise < fx - fp < noise:
                    slope = (fx - fp) / (x - xp)
                else:
                    h = 1e-8 * (x + t) + _X_TOL
                    slope = (r(x + h) - r_x) / h - 0.5 * q
            return lo, r_lo, slope if slope < -0.5 * q else -0.5 * q
        try:
            # the slope first: at subnormal loads fx (xp - x) underflows
            s = -fx / ((fx - fp) / (x - xp) if newton is None else newton) - 0.25 * eps
        except ZeroDivisionError:  # flat secant: bisect
            s = math.inf
        xp, fp, newton = x, fx, None
        if -eps < s < eps:
            # toward the root, by half a tolerance
            s = math.copysign(0.5 * eps, fx)
        elif not (lo < x + s < hi and abs(s) <= 0.5 * step_old) or x + s > 4.0 * lo > 0.0:
            s = hi - x  # bisect at the loop's head
        step_old, step = step, abs(s)
        x += s
    raise MaxItersError(f"hop root did not converge in {_MAX_HOP_ITERS} iterations")


def bracket_monotone(r, r0: float, level: float) -> tuple[float, float, float, float]:
    """(a, R(a), b, R(b)) with R(b) <= level < R(a): b the first of 1, 2, 4, ...
    m where R falls to level, a the walk's point before (0 first, R(0) = r0)."""
    a, r_a, b = 0.0, r0, 1.0
    for _ in range(_MAX_WALK_STEPS):
        r_b = r(b)
        if r_b <= level:
            return a, r_a, b, r_b
        a, r_a, b = b, r_b, 2.0 * b
    raise NoBracketError(f"R stays above {level!r} up to {a!r} m")


bisect_monotone = _hop_root  # the name critical_load calls it by, which perfbench spans


def critical_load(rate: RateFunction) -> float:
    """Load q0 above which a single active hop outperforms any chain.

    Root of the strictly increasing map q -> R(R(0)/q) - R(0)/2, i.e.
    R(0)/d_half with d_half the hop length at which R falls to R(0)/2: the
    hop root of R(x) - R(0)/2 on the bracket a doubling walk from 1 m finds,
    started from the chord over the walk's last step, and never past it.
    """
    r, r0 = rate.scalar, rate.r0
    a, r_a, b, r_b = bracket_monotone(r, r0, 0.5 * r0)
    x = a + (r_a - 0.5 * r0) * ((b - a) / (r_a - r_b))
    return r0 / bisect_monotone(r, r0, 0.0, 0.0, b, r_b, x, c=0.5 * r0)[0]


def critical_length(rate: RateFunction) -> float:
    """Coverage L0 = R(0)/q0 = d_half of the single hop at the critical load."""
    return rate.r0 / critical_load(rate)


def surplus_slope(rate: RateFunction, q: float, x: float) -> float:
    """Numeric derivative of the surplus: R'(x)/q - 1/2."""
    return rate.derivative(x) / _checked_positive(q, "load q") - 0.5


def decay_factor(rate: RateFunction, q: float) -> float:
    """Geometric factor gamma in (0, 1) bounding how fast spacings shrink sink-ward.

    Defined as 1 + 1/surplus_slope(0); only meaningful on the chain branch
    (q below the critical load), where the slope at 0 is below -1.
    """
    if _checked_positive(q, "load q") >= critical_load(rate):
        raise WrongBranchError("decay factor is defined only below the critical load")
    return 1.0 + 1.0 / surplus_slope(rate, q, 0.0)


# ---------------------------------------------------------------------------
# coverage maximization at fixed load
# ---------------------------------------------------------------------------

def solve_subproblem(rate: RateFunction, q: float, n: int, *,
                     warm: SubproblemResult | None = None,
                     length: float | None = None) -> SubproblemResult:
    """Spacings maximizing covered length with n hops at fixed load q.

    Heavy load (surplus_inverse(0) >= R(0)/q): one active hop next to the
    sink, the remaining nodes collapse onto it.  Otherwise every constraint
    is made tight by a backward recursion from the farthest hop inward,
    yielding spacings non-decreasing away from the sink.  Near the ceiling
    q ~ R(0)/L the relayed tail approaches R(0)/q, and once a hop falls
    below the hop tolerance, 1e-9 m, the hops inward of it follow in closed
    form, a geometric series at the decay factor (`_extend`).

    `warm` is a recursion already run for n hops.  More than 48 of its hops
    above the hop tolerance start Newton sweeps over those (`_newton_sweeps`)
    from a chain-branch warm, at any load.  Otherwise the farthest hop is
    solved alone (as `surplus_inverse` is), and more than 128 hops start the sweeps from
    their farthest 16, solved one by one, and a continuum map beyond, down
    to the hop tolerance (`_continuum`).  Shorter chains and failed sweeps
    run hop by hop, from warm's hops if within 0.1 in log q.  `length`, a
    load search's target coverage, lets sweeps, or hops (`_hop_tol`), far
    from it be solved loosely, as far as the search's next step allows.
    """
    q, n = _checked_positive(q, "load q"), _checked_count(n)
    lq = math.inf if warm is None else abs(math.log(q / warm.q))
    chain = warm is not None and warm.branch == CASE_II and warm.distances.size == n
    # warm's hops above the hop tolerance, from the farthest: a recursion on
    # its own, which `_extend` finishes
    p = n - int(np.searchsorted(warm.distances, _X_TOL)) if chain and n > _SWEEP_HOPS else 0
    if p > _SWEEP_HOPS:
        z, g = _moved(warm, math.log(q / warm.q))
        sub = _newton_sweeps(rate, q, z[:-p - 1:-1].copy(), g[:-p - 1:-1].copy(), length)
        if sub is not None:
            return sub if p == n else _extend(rate, sub, n)
    tol = _TIGHT if length is None else _hop_tol(q, n, warm)
    z, g = [1.0 if length is None else length / n], [None]
    if chain and lq < _WARM_REL:  # each hop starts from warm's, with f' there
        z, g = _moved(warm, math.log(q / warm.q))
        z, g = z.tolist(), (g - 0.5 * q).tolist()
    hi = min(2.0 * rate.r0 / q, sys.float_info.max)
    d_far, r_hi, s_hi = _hop_root(rate.scalar, rate.r0, q, 0.0, hi, rate.scalar(hi),
                                  z[-1], g[-1], tol, chain and lq < _NEAR_REL)
    if s_hi is None:
        s_hi = -0.5 * q
    dt = 0.5 * d_far * (q / s_hi)
    if d_far >= rate.r0 / q:
        # case i: the single hop already out-reaches anything a chain could add
        d = np.zeros(n)
        d[0] = d_far
        return SubproblemResult(distances=d, coverage=d_far, branch=CASE_I,
                                q=q, dcoverage_dlogq=dt)
    m = 16 if n > _COLD_HOPS else n
    d, dd, fs = [0.0] * m, [0.0] * m, [0.0] * m
    d[-1], dd[-1], fs[-1] = d_far, dt, s_hi
    start = (z[-m:], g[-m:], lq < _NEAR_REL) if g[-1] is not None else None
    i, total, dt = _inward(rate, q, d, dd, fs, m - 1, r_hi, d_far, dt, tol, start)
    sub = SubproblemResult(distances=np.array(d[i:]), coverage=total, branch=CASE_II, q=q,
                           dcoverage_dlogq=dt, ddistances_dlogq=np.array(dd[i:]),
                           hop_slopes=np.array(fs[i:]))
    if m < n and sub.distances[0] > _X_TOL:  # else the inner hops collapse
        swept = _newton_sweeps(rate, q, *_continuum(rate, q, sub, n), length)
        if swept is not None:
            sub = swept
    return sub if sub.distances.size == n else _extend(rate, sub, n)


def _hop_tol(q: float, n: int, warm: SubproblemResult | None) -> float:
    """The hop tolerance's multiple for a load search's recursion of n hops
    at q after `warm`: 1/100, or 1e-4 of a hop (first) or 2e-5 for a short
    chain's one a step over 0.1 away, whose next Newton step errs by about
    that step squared.  Coverage errs by at most it times n 1e-9 m + 5e-10 C."""
    if n > _SWEEP_HOPS or warm is not None and abs(math.log(q / warm.q)) < _WARM_REL:
        return _TIGHT
    return _LOOSE_FIRST if warm is None else _LOOSE_FAR


def _moved(warm: SubproblemResult, lq: float) -> tuple[np.ndarray, np.ndarray]:
    """warm's hops moved by lq in log q along their q dd/dq, and R' there,
    by R'' from each hop to the next, for up to 128 hops (below 1e-6, R'
    moves less than its error; beyond _WARM_REL, R'' does not carry)."""
    d, dz = warm.distances, warm.ddistances_dlogq * lq
    g = warm.hop_slopes + 0.5 * warm.q
    if 1 < d.size <= _COLD_HOPS and 1e-6 < abs(lq) < _WARM_REL:
        step = d[1:] - d[:-1]
        curv = (g[1:] - g[:-1]) / np.where(step > 0.0, step, np.inf)
        g += np.append(curv, curv[-1]) * dz
    return d + dz, g


def _continuum(rate: RateFunction, q: float, sub: SubproblemResult, n: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Spacings and R' of up to n hops at load q, from the farthest: sub's,
    then the inner hops a continuum map of the recursion predicts down to
    the hop tolerance, below which `_extend` closes the recursion.

    A hop of length x fixes its tail, T(x) = R(x)/q - x/2, and the recursion
    steps T -> T + x, so hop j inward of sub's innermost lies about where
    k(x) = j, k = integral of dT / (x (1 - h'/2)) from there, h' = dx/dT =
    q/f'(x); (1 - h'/2) is the Euler-Maclaurin correction for a unit step.
    One array R call over a geometric grid down to 1e-12 of that hop gives
    T, h' and k, by the midpoint rule in log x."""
    grid = math.log(1e-12) / 511 * np.arange(512)  # log(x / sub's innermost hop)
    x = sub.distances[0] * np.exp(grid)
    s = np.diff(rate(x) / q - 0.5 * x) / np.diff(x)  # 1/h' between grid points
    k = np.concatenate(([0.0], np.cumsum(s * s / (s - 0.5) * grid[1])))
    reach = np.interp(math.log(_X_TOL / sub.distances[0]), grid[::-1], k[::-1])
    j = np.arange(1.0, min(n - sub.distances.size, math.floor(reach)) + 1)
    z = sub.distances[0] * np.exp(np.interp(j, k, grid))
    g = q * np.interp(j, 0.5 * (k[1:] + k[:-1]), s)
    return (np.concatenate((sub.distances[::-1], z)),
            np.concatenate((sub.hop_slopes[::-1], g)) + 0.5 * q)


def _newton_sweeps(rate: RateFunction, q: float, z: np.ndarray, g: np.ndarray,
                   length: float | None = None) -> SubproblemResult | None:
    """The hops at load q by Newton sweeps from spacings z with R' g, or None.

    z and g run inward from the farthest hop, whose tail T_0 is 0.  The hop
    equations F_i = R(d_i) - q (d_i/2 + T_i) = 0 are triangular: a sweep
    evaluates R at every hop in one array call, then back-substitutes from
    the farthest hop inward, delta_i = (q S_i - F_i) / f'_i with S_i the
    steps beyond hop i, and q dd_i/dq = (d_i/2 + T_i + q dT_i/dq) q / f'_i
    alongside; later sweeps take R' from the secant of a hop's last two
    iterates.  Given a target `length` L they also stop once the coverage's
    last correction |sum delta| <= eta |g| C', with C' the coverage after it,
    g = log(C'/L) and eta = min(0.1, |g|) (Eisenstat & Walker 1996): far from
    L, g keeps its sign; near L the rule cannot fire before convergence.
    None if a hop leaves (0, inf) or falls out of order, the tail passes
    R(0)/q, or _MAX_SWEEPS sweeps do not stop."""
    for sweep in range(_MAX_SWEEPS):
        if not z.min() > 0.0:
            return None
        r = rate(z)
        if sweep:
            np.divide(r - r_old, delta, out=g, where=~small)
        load = q * (np.cumsum(z) - 0.5 * z)
        s = np.minimum(g, 0.0) - 0.5 * q
        # x_j = a_j x_{j-1} + b_j is x_j = p_j sum_{k<=j} b_k/p_k, p_j the
        # product of a_1..a_j, falling in size as |a_j| <= 1; both rows sum
        # from x_{-1} = 0, the farthest hop's tail, so a_0 plays no part
        a = 1.0 + q / s
        a[0] = 1.0
        p = np.cumprod(a)
        if not abs(p[-1]) > _TINY_PRODUCT:
            return None
        sums = p * np.cumsum(np.array([load - r, load]) / s / p, axis=1)
        delta, dz = sums - np.hstack((np.zeros((2, 1)), sums[:, :-1]))  # np.diff(prepend=0) is slower
        z_old, r_old, z = z, r, z + delta
        small = np.abs(delta) <= _X_TOL + _X_RTOL * z_old
        if small.all():
            break
        c = float(z.sum())
        if length is not None and c > 0.0:
            u = abs(math.log(c / length))
            if abs(sums[0, -1]) <= min(0.1, u) * u * c:
                break
    else:
        return None
    tails = np.cumsum(z)
    g0 = rate.r0 / q
    if not (z[-1] > 0.0 and (z[:-1] >= z[1:]).all()
            and tails[-2] - g0 <= _CLAMP_REL * max(1.0, g0)):
        return None
    return SubproblemResult(distances=z[::-1], coverage=float(tails[-1]),
                            branch=CASE_II, q=q, dcoverage_dlogq=float(sums[1, -1]),
                            ddistances_dlogq=dz[::-1], hop_slopes=s[::-1])


def _extend(rate: RateFunction, sub: SubproblemResult, n: int | None = None
            ) -> SubproblemResult:
    """The recursion for n hops, by default one more, at sub's load: sub and
    new hops at the sink, since the recursion runs from the farthest hop
    inward.  On the chain branch this costs their roots and R at sub's
    innermost hop; on the single-hop branch nothing.

    Once a hop a falls below the hop tolerance (see `_inward`), R is linear
    in d to roundoff, and so is the recursion: each hop inward of a is gamma
    = `decay_factor` times the one beyond, with f' = R'(0) - q/2.  Summed as
    a series, the implicit derivative of hop m inward of a is q dd_m/dq =
    (1 - 1/gamma) gamma^m (dd_a (f'_a/q + 1) + m d_a (1 + gamma)/2).  These
    depend only on hop a and m, and the sums run on from sub's, so a
    recursion extended across the tail is the one solved whole, bit for bit.
    """
    n = sub.distances.size + 1 if n is None else n
    if sub.branch == CASE_I:
        d = np.zeros(n)
        d[0] = sub.coverage
        return replace(sub, distances=d)
    q, total, dt = sub.q, sub.coverage, sub.dcoverage_dlogq
    old = [sub.distances, sub.ddistances_dlogq, sub.hop_slopes]
    k, new = n - old[0].size, [[], [], []]  # the new hops, and those solved by root
    if old[0][0] >= _X_TOL:
        # their roots, from sub's innermost three hops on, stop at a tail's hop a
        d, dd, fs = ([0.0] * k + x[:3].tolist() for x in old)
        i, total, dt = _inward(rate, q, d, dd, fs, k, rate.scalar(d[k]), total, dt)
        new, k = [x[i:k] for x in (d, dd, fs)], i  # k: the hops left to the tail
    if k:
        # hop a: the first new one, or sub's outermost below the tolerance, b hops out
        src, b = (new, 0) if new[0] else (old, int(np.searchsorted(old[0], _X_TOL)) - 1)
        d_a, dd_a, f_a = (float(x[b]) for x in src)
        slope = surplus_slope(rate, q, 0.0)  # f'(0) / q
        gamma = 1.0 + 1.0 / slope
        m = np.arange(b + k, b, -1.0)
        # gamma^m as products from m = 1, alike wherever the tail is cut
        # (numpy's pow may round an element by its place in the array)
        p = np.cumprod(np.full(b + k, gamma))[b:][::-1]
        tail = (d_a * p, (1.0 - 1.0 / gamma) * p * (dd_a * (f_a / q + 1.0)
                                                    + m * (0.5 * d_a * (1.0 + gamma))),
                np.full(k, q * slope))
        sums = np.empty((2, k + 1))
        sums[:, 0] = total, dt
        sums[0, 1:], sums[1, 1:] = tail[0][::-1], tail[1][::-1]
        total, dt = sums.cumsum(axis=1)[:, -1].tolist()
        new = [np.concatenate(x) for x in zip(tail, new)]
    d, dd, fs = (np.concatenate(x) for x in zip(new, old))
    return SubproblemResult(distances=d, coverage=total, branch=CASE_II, q=q,
                            dcoverage_dlogq=dt, ddistances_dlogq=dd, hop_slopes=fs)


def _inward(rate: RateFunction, q: float, d: list, dd: list, fs: list, k: int,
            r_hi: float, total: float, dt: float, tol: float = _TIGHT,
            start: tuple[list, list] | None = None) -> tuple[int, float, float]:
    """Continue a chain-branch recursion at load q: solve hops k-1, ..., i,
    where i is 0 or the first hop of a collapsed tail, which `_extend` goes
    on with.  Return i and the coverage of hops i.. and its derivative.

    d, dd and fs hold the spacings, their q dd_i/dq and their slopes f',
    filled from hop k outward, and from hop i on return; r_hi is R(d[k]),
    and total and dt are the coverage of hops k.. and its derivative in
    log q.  Roots are found as `_hop_root` does at `tol`, from the starts
    and f' that `start` lists (its third item: `warm`), else from the hops
    beyond.  A root below the hop tolerance is replaced by the linear root,
    (T - R(0)/q) q/f'(0) for its tail T, as R is linear in d there.  Capped
    at the hop beyond, it may pass the tolerance; else it is the first hop
    of a collapsed tail.
    """
    g0 = rate.r0 / q
    t_max = g0 + _CLAMP_REL * max(1.0, g0)  # R(0)/q up to roundoff
    r, r0 = rate.scalar, rate.r0
    n = len(d)
    # d_{i+1}, d_{i+2}, d_{i+3} of the next hop in (0: none yet)
    hi = d[k]
    far = d[k + 1] if k + 1 < n else 0.0
    far2 = d[k + 2] if k + 2 < n else 0.0
    s_hi = fs[k]
    i, slope = k, None  # slope: f'(0) / q, once a root falls below the tolerance
    # hops from the farthest inward; each root lies in [0, next spacing
    # out], and dt, the tail's derivative in log q, sums the hops' q dd_i/dq
    for i in range(k - 1, -1, -1):
        if total > t_max:
            raise NumericalInfeasibleError(
                f"relayed-tail total {total:.9g} exceeds surplus maximum {g0:.9g}")
        t = total if total < g0 else g0
        s0 = None
        if start is not None:
            x, s0 = start[0][i], start[1][i]
        elif far > 0.0:
            # spacings shrink about geometrically toward the sink, at a
            # ratio that itself drifts: extrapolate both, d_{i+1}^3 d_{i+3}
            # / d_{i+2}^3 (d_{i+1}^2 / d_{i+2} while d_{i+3} is unknown)
            x = hi * hi / far
            if far2 > 0.0:
                x *= hi * far2 / (far * far)
        else:
            x = 0.5 * hi
        far2, far = far, hi
        hi, r_hi, s = _hop_root(r, r0, q, t, hi, r_hi, x, s0, tol, start is not None and start[2])
        if s is not None:
            s_hi = s
        if hi < _X_TOL:
            slope = surplus_slope(rate, q, 0.0) if slope is None else slope
            hi, s_hi = min((t - g0) / slope, far), q * slope
            if hi < _X_TOL:
                d[i], dd[i], fs[i] = hi, (0.5 * hi + t + dt) * (q / s_hi) if hi else 0.0, s_hi
                total, dt = total + hi, dt + dd[i]
                break
            r_hi = r(hi)
        ddi = (0.5 * hi + t + dt) * (q / s_hi)
        d[i], dd[i], fs[i] = hi, ddi, s_hi
        total += hi
        dt += ddi
    return i, total, dt


# ---------------------------------------------------------------------------
# optimal load for a fixed segment
# ---------------------------------------------------------------------------

def solve(rate: RateFunction, n: int, length: float,
          tol_q: float | None = None) -> SolveResult:
    """Find the load at which n hops exactly cover [0, length].

    Coverage is continuous and strictly decreasing in q, so the supportable
    load is the unique q with coverage(q) = length.  Newton's method on
    log q, with the derivative each recursion carries, finds it from the
    load equal spacing supports, inside a closed bracket built from
    R(length/n); recursions far from the root stop their sweeps early
    (`_newton_sweeps`) or solve their hops loosely (`_hop_tol`).  The
    default tolerance, 2e-10 relative, or a given tol_q, absolute [bit/s
    per m], bounds the final bracket in q.  It does not bound q_sup's
    error: where coverage is flat in q the hop roots' 5e-12 length
    resolution dominates (red water, N = 1, L = 2 km: q_sup 8e-10 below
    the exact 2R(L)/L, bracket 5e-11 relative).
    """
    length = _checked_args(n, length, tol_q)
    return _solve(rate, n, length, tol_q)[0]


def solve_n_range(rate: RateFunction, length: float, n_min: int, n_max: int,
                  tol_q: float | None = None) -> Iterator[SolveResult]:
    """`solve` for n = n_min, ..., n_max hops over [0, length], in order.

    The arguments are checked here; the solves run as the iterator is
    read, so a caller may stop early.  Each n after the first starts its
    load search from the previous n's recursion at its q_sup, extended by
    one hop at the sink: at a fixed load the n-hop recursion is the
    (n-1)-hop one plus that hop, which only adds coverage, so this start
    lies below the new q_sup, or above it by at most the tolerance, and it
    costs one hop root.  q0 and L0 are found once.  Each result meets
    `solve`'s tolerance, so it agrees with `solve(rate, n, length, tol_q)`
    within that tolerance, not bit for bit.
    """
    if not _checked_count(n_min, "n_min") <= _checked_count(n_max, "n_max"):
        raise ValueError(f"need n_min <= n_max, got {n_min!r}, {n_max!r}")
    length = _checked_args(n_min, length, tol_q)
    return _sweep(rate, length, n_min, n_max, tol_q)


def _sweep(rate: RateFunction, length: float, n_min: int, n_max: int,
           tol_q: float | None) -> Iterator[SolveResult]:
    res, sub = _solve(rate, n_min, length, tol_q)
    yield res
    for n in range(n_min + 1, n_max + 1):
        res, sub = _solve(rate, n, length, tol_q, _extend(rate, sub),
                          (res.q0, res.L0))
        yield res


def _checked_args(n: int, length: float, tol_q: float | None) -> float:
    """`length` as a float, once n, length and tol_q are checked."""
    _checked_count(n)
    length = _checked_positive(length, "length")
    if tol_q is not None:
        _checked_positive(tol_q, "tol_q")
    return length


def _solve(rate: RateFunction, n: int, length: float, tol_q: float | None,
           first: SubproblemResult | None = None,
           thresholds: tuple[float, float] | None = None
           ) -> tuple[SolveResult, SubproblemResult]:
    """`solve` on checked arguments, and the recursion at q_sup.

    `first`, if given, is a recursion for n hops that the search starts
    from instead of the equal-spacing load; `thresholds` is (q0, L0) if
    already known.
    """
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
    # safeguarded Newton on g(u) = log(coverage(e^u) / length), which falls
    # in u, inside [lo, hi]; an end is a proven bound until a recursion
    # there (sub_lo, sub_hi) has shown the sign of g, and the search stops
    # only on a bracket of two recursions narrower than the tolerance
    tol = _LOG_Q_TOL if tol_q is None else tol_q / q_up
    lo, hi = math.log(q_lo), math.log(q_up)
    sub_lo = sub_hi = None
    g_lo = g_hi = 0.0
    # start at the load equal spacing supports, a lower bound, or at `first`
    sub = first
    u = math.log(2.0 * q_lo if first is None else first.q)
    for iterations in range(1, _MAX_LOAD_ITERS + 1):
        tol_k = _TIGHT if iterations == 1 and first is not None else _hop_tol(math.exp(u), n, sub)
        if sub is None or iterations > 1:
            sub = solve_subproblem(rate, math.exp(u), n, warm=sub, length=length)
        g = math.log(sub.coverage / length)
        if tol_k > _TIGHT and abs(g) * sub.coverage <= tol_k * (n * _X_TOL + _X_RTOL * sub.coverage):
            continue  # too loose to tell the sign of g: solve it again, from itself
        # a recursion that hits length exactly is a lower end: the probe
        # below then steps up, so the bracket keeps a width
        if g >= 0.0:
            lo, g_lo, sub_lo = u, g, sub
        else:
            hi, g_hi, sub_hi = u, g, sub
        eps = tol + 4.0 * sys.float_info.epsilon * abs(u)
        if sub_lo is not None and sub_hi is not None and hi - lo < eps:
            break
        # g'(u) = q C'(q) / C, carried through the recursion
        try:
            s = -g * sub.coverage / sub.dcoverage_dlogq
        except ZeroDivisionError:
            s = math.nan
        if abs(s) < 0.75 * eps:
            # u is within the tolerance of the predicted root: probe just
            # past it, so that u and the probe close the bracket
            s += math.copysign(0.25 * eps, s)
        # a step onto or beyond an end of the bracket bisects it
        u = u + s if lo < u + s < hi else 0.5 * (lo + hi)
    else:
        raise MaxItersError(
            f"load root did not converge in {_MAX_LOAD_ITERS} recursions")
    # q_sup is the end nearer the root, as far as g tells
    sub = sub_lo if g_lo <= -g_hi else sub_hi
    q_sup = sub.q
    distances = sub.distances * (length / sub.coverage)
    if thresholds is None:
        q0 = critical_load(rate)
        thresholds = (q0, rate.r0 / q0)
    res = SolveResult(
        q_sup=q_sup, placement=Placement(distances=distances, length=length),
        q0=thresholds[0], L0=thresholds[1], branch=sub.branch,
        gamma=1.0 + 1.0 / surplus_slope(rate, q_sup, 0.0) if sub.branch == CASE_II else None,
        iterations=iterations, bracket_width=q_sup * math.expm1(hi - lo),
        coverage_residual=abs(sub.coverage - length))
    return res, sub
