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

``perturb_eval`` draws trial t from ``Generator(PCG64(SeedSequence([seed,
t])))``.  ``_substream_states`` builds those PCG64 states for a block of
trials at once, running SeedSequence's hash-mix (NEP 19) and PCG64's seeding
step (O'Neill 2014) in array arithmetic; ``tests/test_evaluate.py`` pins the
states and draws to NumPy's own, so a change of NumPy's stream fails loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import RateFunction
from .solver1d import _SUM_TOL, Placement, _checked_count

__all__ = [
    "PlacementLimit", "PerturbStats", "hop_limits", "qsup_of_placement",
    "constant_placement", "tradeoff", "vertical_qsup", "perturb_eval",
    "PERTURB_CSV_HEADER",
]

# trial t draws from Generator(PCG64(SeedSequence([seed, t]))), its PCG64
# state built by _substream_states
RNG_ALGORITHM = "numpy-pcg64"
_BLOCK_VALUES = 1 << 13        # spacings per perturb_eval block: bounds memory

# SeedSequence's hash-mix constants (NEP 19) and PCG64's 128-bit multiplier
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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
    _checked_count(n)
    return Placement(distances=np.full(n, length / n), length=length)


def tradeoff(q_sup: float, n: int) -> float:
    """Deployment efficiency: supportable load per deployed node."""
    return q_sup / _checked_count(n)


def vertical_qsup(rate: RateFunction, n_l: int, n_v: int, depth: float,
                  length: float) -> float:
    """Supportable load of the vertical-riser alternative.

    n_l surface-reaching risers, each a vertical chain of n_v equally spaced
    hops over the water column of the given depth, jointly drain the segment:
    q = n_l * R(depth / n_v) / length.
    """
    _checked_count(n_l, "n_l")
    _checked_count(n_v, "n_v")
    if not (0 < depth < math.inf and 0 < length < math.inf):
        raise ValueError("depth and length must be finite and > 0")
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


def _hash_consts(init: int, mult: int):
    """SeedSequence's running hash constant, stepped once per hashed word."""
    while True:
        nxt = (init * mult) & _MASK32
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _substream_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``PCG64(SeedSequence([seed, t]))`` for each
    t in range(start, stop), 0 <= t < 2**64.

    SeedSequence's entropy is the little-endian ``uint32`` words of seed,
    then of t; its pool mix and ``generate_state(4, uint64)`` run here for
    all trials at once on ``uint32`` columns, which wrap as its C code does.
    PCG64 then seeds from those four words: ``state = 0``,
    ``inc = (initseq << 1) | 1``, step, ``state += initstate``, step.
    """
    t = np.arange(start, stop, dtype=np.uint64)
    words = []
    while True:     # seed's words, low first; 0 is one word
        words.append(np.full(t.size, seed & _MASK32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    hi = (t >> np.uint64(32)).astype(np.uint32)
    words += [(t & np.uint64(_MASK32)).astype(np.uint32), hi]
    # t < 2**32 has no high word; inside the pool a missing word hashes as
    # a zero one, past the pool it must mix nothing
    long_t = hi > 0
    consts = _hash_consts(_INIT_A, _MULT_A)
    zero = np.zeros(t.size, dtype=np.uint32)
    pool = [_hashmix(words[i] if i < len(words) else zero, consts)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for i in range(_POOL_SIZE, len(words)):
        for dst in range(_POOL_SIZE):
            mixed = _mix(pool[dst], _hashmix(words[i], consts))
            pool[dst] = (mixed if i < len(words) - 1
                         else np.where(long_t, mixed, pool[dst]))
    consts = _hash_consts(_INIT_B, _MULT_B)
    out = [_hashmix(pool[i % _POOL_SIZE], consts).astype(np.uint64)
           for i in range(2 * _POOL_SIZE)]
    seeds = [(out[2 * k] | (out[2 * k + 1] << np.uint64(32))).tolist()
             for k in range(_POOL_SIZE)]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*seeds):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _trial_noise(seed: int, start: int, stop: int, sigma: float,
                 k: int) -> np.ndarray:
    """Row t - start holds the first k ``normal(0, sigma)`` draws of trial
    t's substream, for t in range(start, stop)."""
    bit_generator = np.random.PCG64()
    gen = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg,
            "has_uint32": 0, "uinteger": 0}
    noise = np.empty((stop - start, k))
    for row, (state, inc) in zip(noise, _substream_states(seed, start, stop)):
        pcg["state"], pcg["inc"] = state, inc
        bit_generator.state = full
        gen.standard_normal(out=row)
    noise *= sigma      # normal(0, sigma) is 0 + sigma * z, to the bit
    return noise


def perturb_eval(placement: Placement, rate: RateFunction, sigma: float,
                 trials: int = 10_000, seed: int = 0) -> PerturbStats:
    """Gaussian position noise on the interior nodes, repaired by sort + clamp.

    Only positions x_2 .. x_{N-1} are perturbed (the node next to the sink
    and the end node are assumed surveyed exactly).  Trial t draws from the
    stream of ``Generator(PCG64(SeedSequence([seed, t])))``, so results are
    reproducible and independent of trial order and count; the PCG64 states
    of a block of trials are built at once by ``_substream_states``, and one
    reused ``Generator`` draws them.  Trials are evaluated in blocks of rows
    through ``hop_limits``, so memory stays bounded for any trial count.
    ``seed`` must be a non-negative integer, not a bool.
    """
    seed = _checked_count(seed, "seed", 0)
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    _checked_count(trials, "trials")
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
        X = np.tile(base, (len(rows), 1))
        # interior positions x_2..x_{N-1}
        X[:, 2:n] += _trial_noise(seed, rows.start, rows.stop, sigma, n - 2)
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


# columns of the CLI's perturb rows
PERTURB_CSV_HEADER = ["config_hash", "n", "l", "k_attenuation", "sigma",
                      "trials", "mean_q_sup", "std_q_sup", "mean_delta"]
