"""Reference per-trial position-noise Monte Carlo (test oracle).

The loop ``searelay.evaluate.perturb_eval`` ran before it evaluated trials
in chunks through ``hop_limits``: one ``Placement`` per trial, re-evaluated
on its own by the per-placement hop-load bound that ``qsup_of_placement``
used then, kept here whole so the oracle shares no code with the kernel.
Trial t's noise is row t % 1024 of the block of standard normals that
``default_rng([seed, t // 1024])`` draws, scaled by sigma.
"""

from __future__ import annotations

import numpy as np

from searelay.evaluate import PerturbStats
from searelay.solver1d import Placement

BLOCK = 1024  # trials per Generator


def placement_qsup(placement: Placement, rate) -> float:
    """Minimum over hops of R(d_i) / (L - (x_{i-1} + x_i) / 2)."""
    d = placement.distances
    x = placement.positions
    mid = 0.5 * (x[:-1] + x[1:])
    carried = placement.length - mid
    rates = np.asarray(rate(d), dtype=float)
    if np.any(rates < 0.0):
        raise ValueError("rate model returned a negative rate")
    limits = np.full(d.size, np.inf)
    loaded = carried > 0.0
    if not loaded.any():
        raise ValueError("no hop carries traffic; degenerate placement")
    limits[loaded] = rates[loaded] / carried[loaded]
    return float(limits[int(np.argmin(limits))])


def perturb_trials(placement: Placement, rate, sigma: float,
                   trials: int = 10_000, seed: int = 0) -> PerturbStats:
    """perturb_eval, one trial at a time."""
    n = placement.n
    length = placement.length
    exact = placement_qsup(placement, rate)
    if n < 3 or sigma == 0.0:
        return PerturbStats(sigma=sigma, trials=trials, seed=seed,
                            mean_q_sup=exact, std_q_sup=0.0,
                            mean_delta=exact / n)
    base = placement.positions
    interior = slice(2, n)  # position indices 2..N-1
    n_interior = n - 2
    samples = np.empty(trials)
    for t in range(trials):
        if t % BLOCK == 0:
            rng = np.random.default_rng([seed, t // BLOCK])
            block = rng.standard_normal((BLOCK, n_interior))
        x = base.copy()
        x[interior] += sigma * block[t % BLOCK]
        np.clip(x[1:], 0.0, length, out=x[1:])
        x.sort()
        d = np.diff(x)
        samples[t] = placement_qsup(Placement(d, length), rate)
    mean = float(samples.mean())
    return PerturbStats(sigma=sigma, trials=trials, seed=seed,
                        mean_q_sup=mean, std_q_sup=float(samples.std()),
                        mean_delta=mean / n)
