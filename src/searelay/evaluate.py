"""Evaluating placements: supportable load, baselines, localization noise.

Every evaluation, ``solver2d.grid_qsup`` too, goes through one hop-load
bound, ``hop_limits``, which the README derives.  ``perturb_eval`` draws its
position noise from one NumPy ``Generator`` per block of 1024 trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import RateFunction, _checked_positive
from .solver1d import Placement, _checked_count

__all__ = [
    "PlacementLimit", "PerturbStats", "hop_limits", "qsup_of_placement",
    "constant_placement", "tradeoff", "vertical_qsup", "perturb_eval",
    "PERTURB_CSV_HEADER",
]

RNG_ALGORITHM = "numpy-pcg64-block1024"  # trial t is row t % 1024 of default_rng([seed, t // 1024])
_BLOCK_TRIALS = 1 << 10   # trials a Generator draws for
_BLOCK_VALUES = 1 << 13   # most spacings perturb_eval evaluates at once: bounds memory


@dataclass(frozen=True)
class PlacementLimit:
    q_sup: float        # largest supportable per-meter load
    bottleneck: int     # 0-based index into distances of the binding hop


def hop_limits(rate: RateFunction, D: np.ndarray, length: float) -> np.ndarray:
    """Per-hop load limits R(d_i) / (L - (x_{i-1} + x_i) / 2) of the (rows,
    N) placements ``D`` over [0, length]; a hop that carries no traffic
    (nodes stacked at the far end) gets ``inf``."""
    D = np.asarray(D, dtype=float)
    X = np.zeros((D.shape[0], D.shape[1] + 1))
    np.cumsum(D, axis=1, out=X[:, 1:])    # node positions, x_0 = 0
    carried = length - 0.5 * (X[:, :-1] + X[:, 1:])   # meters each hop relays
    R = np.asarray(rate(D.ravel()), dtype=float).reshape(D.shape)
    if np.any(R < 0.0):
        raise ValueError("rate model returned a negative rate")
    loaded = carried > 0.0
    if not loaded.any(axis=1).all():
        raise ValueError("no hop carries traffic; degenerate placement")
    return np.divide(R, carried, out=np.full(D.shape, np.inf), where=loaded)


def qsup_of_placement(placement: Placement, rate: RateFunction) -> PlacementLimit:
    """Supportable load of an arbitrary placement and its binding hop, > 0."""
    limits = hop_limits(rate, placement.distances[None], placement.length)[0]
    idx = int(np.argmin(limits))
    return PlacementLimit(q_sup=_checked_positive(limits[idx], f"the load limit of hop {idx + 1}, "
                          f"{placement.distances[idx]:.9g} m long,"), bottleneck=idx)


def constant_placement(n: int, length: float) -> Placement:
    """Equally spaced baseline: d_i = length / n."""
    _checked_count(n)
    return Placement(distances=np.full(n, length / n), length=length)


def tradeoff(q_sup: float, n: int) -> float:
    """Deployment efficiency: supportable load per deployed node."""
    return q_sup / _checked_count(n)


def vertical_qsup(rate: RateFunction, n_l: int, n_v: int, depth: float,
                  length: float) -> float:
    """Supportable load n_l * R(depth / n_v) / length of n_l risers, each a
    vertical chain of n_v equal hops up the water column, draining the
    segment jointly, > 0."""
    _checked_count(n_l, "n_l")
    _checked_count(n_v, "n_v")
    if not (0 < depth < math.inf and 0 < length < math.inf):
        raise ValueError("depth and length must be finite and > 0")
    return n_l * _checked_positive(rate.scalar(depth / n_v),
                                   f"the rate of a riser hop, {depth / n_v:.9g} m long,") / length


# --- localization uncertainty ----------------------------------------------

@dataclass(frozen=True)
class PerturbStats:
    """Monte-Carlo summary of the supportable load under position noise."""

    sigma: float
    trials: int
    seed: int
    mean_q_sup: float
    std_q_sup: float
    mean_delta: float      # mean q_sup / n
    rng_algorithm: str = RNG_ALGORITHM


def perturb_eval(placement: Placement, rate: RateFunction, sigma: float,
                 trials: int = 10_000, seed: int = 0) -> PerturbStats:
    """Gaussian position noise on x_2 .. x_{N-1} (the nodes next to the sink
    and at the end are surveyed exactly), repaired by sort + clamp.  Trial t
    adds ``sigma`` times row ``t % 1024`` of the standard normals
    ``default_rng([seed, t // 1024]).standard_normal((1024, N - 2))``, so its
    noise depends on neither the trial order nor the count, and every sigma
    scales the same normals; chunks of trials bound memory.  ``seed`` is an
    int >= 0."""
    seed = _checked_count(seed, "seed", 0)
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    _checked_count(trials, "trials")
    n, length = placement.n, placement.length
    exact = qsup_of_placement(placement, rate).q_sup
    if n < 3 or sigma == 0.0:
        return PerturbStats(sigma=sigma, trials=trials, seed=seed, mean_q_sup=exact,
                            std_q_sup=0.0, mean_delta=exact / n)
    # trials a chunk: a power of two, so no chunk straddles a Generator's block
    rows = min(_BLOCK_TRIALS, 1 << max(0, (_BLOCK_VALUES // n).bit_length() - 1))
    noise, x = np.empty((rows, n - 2)), placement.positions
    samples = np.empty(trials)
    for start in range(0, trials, rows):
        if start % _BLOCK_TRIALS == 0:
            gen = np.random.default_rng([seed, start // _BLOCK_TRIALS])
        gen.standard_normal(out=noise)      # the same numbers as one whole-block draw
        stop = min(start + rows, trials)
        X = np.tile(x, (stop - start, 1))
        with np.errstate(over="ignore"):   # a huge sigma's +-inf is clipped to an end
            X[:, 2:n] += sigma * noise[:stop - start]    # interior positions x_2..x_{N-1}
        np.clip(X[:, 1:], 0.0, length, out=X[:, 1:])
        X.sort(axis=1)
        samples[start:stop] = hop_limits(rate, np.diff(X, axis=1), length).min(axis=1)
    mean = float(samples.mean())
    return PerturbStats(sigma=sigma, trials=trials, seed=seed, mean_q_sup=mean,
                        std_q_sup=float(samples.std()), mean_delta=mean / n)


# columns of the CLI's perturb rows
PERTURB_CSV_HEADER = ["config_hash", "n", "l", "k_attenuation", "sigma",
                      "trials", "mean_q_sup", "std_q_sup", "mean_delta"]
