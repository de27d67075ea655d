"""Root finding for strictly monotone scalar functions.

The critical load reduces to "find the sign change of a monotone f" with
no good start point.  Two pieces serve it: `bracket_monotone`, a doubling
walk that finds a bracket when no closed one is known, and
`bisect_monotone`, Brent's method (Brent 1973, *Algorithms for Minimization
without Derivatives*, ch. 4): inverse quadratic interpolation and secant
steps, safeguarded by bisection,
so it converges superlinearly on the smooth rate models yet never needs
more steps than about the square of plain bisection's.  Their errors, and
every other numeric failure in the package, derive from `NumericalError`.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

__all__ = [
    "NumericalError",
    "NoBracketError",
    "MaxItersError",
    "bracket_monotone",
    "bisect_monotone",
]

_MAX_WALK_STEPS = 60  # walk limit: 2**60 * step


class NumericalError(RuntimeError):
    """A numeric routine failed on input it accepted; the CLI exits 3 on it."""


class NoBracketError(NumericalError):
    """No sign change of f between the given points, or along the walk."""


class MaxItersError(NumericalError):
    """A root-finder hit its iteration cap before reaching tolerance."""


def bracket_monotone(f: Callable[[float], float], lo: float, f_lo: float,
                     step: float) -> tuple[float, float, float, float]:
    """Walk b = lo + step, lo + 2 step, lo + 4 step, ... until f(b) leaves the sign of f_lo.

    Returns (a, f(a), b, f(b)) with a the last point still of f_lo's sign
    (lo itself if the first probe already crossed; f(lo) is taken as f_lo,
    not evaluated).  Raises NoBracketError when 60 doublings find no
    crossing.
    """
    if step <= 0.0:
        raise ValueError("step must be > 0")
    if f_lo == 0.0:
        raise ValueError("f_lo must be nonzero: lo is already the root")
    positive = f_lo > 0.0
    a, fa = lo, f_lo
    for _ in range(_MAX_WALK_STEPS):
        b = lo + step
        fb = f(b)
        if fb == 0.0 or (fb > 0.0) != positive:
            return a, fa, b, fb
        a, fa = b, fb
        step *= 2.0
    raise NoBracketError(f"no sign change within {_MAX_WALK_STEPS} doublings of the step")


def bisect_monotone(f: Callable[[float], float], a: float, b: float,
                    fa: float | None = None, fb: float | None = None, *,
                    xtol: float, rtol: float = 0.0, max_iters: int = 100
                    ) -> tuple[float, float]:
    """Brent's method on a bracket [a, b] whose ends give f opposite signs.

    fa and fb, when given, are f(a) and f(b) already known to the caller.
    Stops when the bracket is narrower than about xtol + rtol * |root| (rtol
    is raised to 4 machine epsilons) or f is exactly 0.  Returns
    (root, width): the end of the final bracket with the smaller |f|, and
    that bracket's width (0 when a or b is already an exact root).
    """
    if a > b:
        raise ValueError("a must not exceed b")
    if xtol <= 0.0 or rtol < 0.0:
        raise ValueError("xtol must be > 0 and rtol >= 0")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rtol = max(rtol, 4.0 * sys.float_info.epsilon)
    if fa is None:
        fa = f(a)
    if fa == 0.0:
        return a, 0.0
    if fb is None:
        fb = f(b)
    if fb == 0.0:
        return b, 0.0
    if (fa > 0.0) == (fb > 0.0):
        raise NoBracketError(f"f has the same sign at {a!r} and {b!r}")
    # cur: best estimate; pre: previous iterate; blk: the end opposite cur
    xpre, fpre, xcur, fcur = a, fa, b, fb
    xblk, fblk = xpre, fpre
    spre = scur = xcur - xpre
    for _ in range(max_iters):
        if (fpre > 0.0) != (fcur > 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, fpre = xcur, fcur
            xcur, fcur = xblk, fblk
            xblk, fblk = xpre, fpre
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, abs(xblk - xcur)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # secant through the bracket ends
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # inverse quadratic through pre, cur and blk
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # a slope underflowed to 0: bisect
                stry = math.inf
            # an overflowed (inf or nan) step fails this test too
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise MaxItersError(f"Brent's method did not converge in {max_iters} iterations")
