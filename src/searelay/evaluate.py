"""Evaluating placements: supportable load, baselines, localization noise.

Traffic is generated uniformly along [0, L] at q bit/s per meter; each point
is collected by the nearest node, so node i's catchment runs between the
midpoints toward its neighbors.  Hop i (length d_i) must then carry all
traffic generated beyond the midpoint between nodes i-1 and i, which caps
the supportable load at

    q <= R(d_i) / (L - (x_{i-1} + x_i) / 2)        for every hop i.

The minimum over hops is the placement's supportable load, the quantity all
comparisons below are built on.  ``hop_limits`` is that bound, evaluated for
a whole (rows, N) array of placements at once; ``qsup_of_placement``,
``perturb_eval`` and ``solver2d.grid_qsup`` all go through it.

``perturb_eval`` draws each Monte-Carlo trial from its own substream seeded
``(seed, trial)``, then repairs and evaluates the trials in blocks of rows
through ``hop_limits``; the blocks change neither the draws nor the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import RateFunction
from .solver1d import _SUM_TOL, Placement

__all__ = [
    "TrafficModel",
    "PlacementLimit",
    "PerturbStats",
    "hop_limits",
    "qsup_of_placement",
    "constant_placement",
    "tradeoff",
    "vertical_qsup",
    "perturb_eval",
    "PERTURB_CSV_HEADER",
    "perturb_csv_row",
]

RNG_ALGORITHM = "numpy-pcg64"  # default_rng seeded with (seed, trial)
_BLOCK_VALUES = 1 << 13        # spacings per perturb_eval block: bounds memory


@dataclass(frozen=True)
class TrafficModel:
    """Homogeneous packet traffic over a segment of seafloor."""

    packet_rate: float      # lambda, packets per second over the whole segment
    mean_data_size: float   # B, bits per packet
    area_length: float      # L, meters

    def __post_init__(self) -> None:
        for name in ("packet_rate", "mean_data_size", "area_length"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    @property
    def q(self) -> float:
        """Offered load per meter: lambda * B / L [bit/s per m]."""
        return self.packet_rate * self.mean_data_size / self.area_length


@dataclass(frozen=True)
class PlacementLimit:
    q_sup: float        # largest supportable per-meter load
    bottleneck: int     # 0-based index into distances of the binding hop


def hop_limits(rate: RateFunction, D: np.ndarray, length: float) -> np.ndarray:
    """Per-hop load limits R(d_i) / (L - (x_{i-1} + x_i) / 2) of placements.

    ``D`` is a (rows, N) array of spacings, each row a placement over
    [0, length]; the result has the same shape.  Hops whose catchment
    midpoint already sits at L carry no traffic and get ``inf`` (stacked
    nodes at the far end).
    """
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
    """Supportable load of an arbitrary placement and its binding hop."""
    limits = hop_limits(rate, placement.distances[None], placement.length)[0]
    idx = int(np.argmin(limits))
    return PlacementLimit(q_sup=float(limits[idx]), bottleneck=idx)


def constant_placement(n: int, length: float) -> Placement:
    """Equally spaced baseline: d_i = length / n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if length <= 0:
        raise ValueError("length must be > 0")
    return Placement(distances=np.full(n, length / n), length=length)


def tradeoff(q_sup: float, n: int) -> float:
    """Deployment efficiency: supportable load per deployed node."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return q_sup / n


def vertical_qsup(rate: RateFunction, n_l: int, n_v: int, depth: float,
                  length: float) -> float:
    """Supportable load of the vertical-riser alternative.

    n_l surface-reaching risers, each a vertical chain of n_v equally spaced
    hops over the water column of the given depth, jointly drain the segment:
    q = n_l * R(depth / n_v) / length.
    """
    if n_l < 1 or n_v < 1:
        raise ValueError("n_l and n_v must be >= 1")
    if depth <= 0 or length <= 0:
        raise ValueError("depth and length must be > 0")
    return n_l * rate.scalar(depth / n_v) / length


# ---------------------------------------------------------------------------
# localization uncertainty
# ---------------------------------------------------------------------------

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
    """Gaussian position noise on the interior nodes, repaired by sort + clamp.

    Only positions x_2 .. x_{N-1} are perturbed (the node next to the sink
    and the end node are assumed surveyed exactly).  Each trial uses the
    substream seeded (seed, trial), so results are reproducible and
    independent of trial order.  Trials are evaluated in blocks of rows
    through ``hop_limits``, so memory stays bounded for any trial count.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = placement.n
    length = placement.length
    exact = qsup_of_placement(placement, rate).q_sup
    if n < 3 or sigma == 0.0:
        return PerturbStats(sigma=sigma, trials=trials, seed=seed,
                            mean_q_sup=exact, std_q_sup=0.0,
                            mean_delta=exact / n)
    base = placement.positions
    block = max(1, _BLOCK_VALUES // n)
    samples = np.empty(trials)
    for start in range(0, trials, block):
        rows = range(start, min(start + block, trials))
        noise = [np.random.default_rng([seed, t]).normal(0.0, sigma, n - 2)
                 for t in rows]
        X = np.tile(base, (len(rows), 1))
        X[:, 2:n] += np.array(noise)            # interior positions x_2..x_{N-1}
        np.clip(X[:, 1:], 0.0, length, out=X[:, 1:])
        X.sort(axis=1)
        D = np.diff(X, axis=1)
        # the checks Placement makes, once per block
        if not (np.isfinite(D).all() and D.min() >= 0.0
                and (np.abs(D.sum(axis=1) - length) <= _SUM_TOL * length).all()):
            raise ValueError("perturbed spacings must be finite, >= 0 and sum "
                             f"to {length:.9g}")
        samples[rows.start:rows.stop] = hop_limits(rate, D, length).min(axis=1)
    mean = float(samples.mean())
    return PerturbStats(sigma=sigma, trials=trials, seed=seed,
                        mean_q_sup=mean, std_q_sup=float(samples.std()),
                        mean_delta=mean / n)


PERTURB_CSV_HEADER = ["config_hash", "n", "l", "k_attenuation", "sigma",
                      "trials", "mean_q_sup", "std_q_sup", "mean_delta"]


def perturb_csv_row(stats: PerturbStats, config_hash: str, n: int, length: float,
                    attenuation_per_m: float) -> list[str]:
    """One CSV row matching PERTURB_CSV_HEADER (floats at 9 significant digits)."""
    fmt = "%.9g"
    return [config_hash, str(n), fmt % length, fmt % attenuation_per_m,
            fmt % stats.sigma, str(stats.trials), fmt % stats.mean_q_sup,
            fmt % stats.std_q_sup, fmt % stats.mean_delta]
