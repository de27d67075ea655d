"""Evaluating placements: supportable load, baselines, localization noise.

Every evaluation, ``solver2d.grid_qsup`` too, goes through one hop-load
bound, ``hop_limits``; the README derives it and says how ``perturb_eval``
draws its noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import RateFunction
from .solver1d import Placement, _checked_count

__all__ = [
    "PlacementLimit", "PerturbStats", "hop_limits", "qsup_of_placement",
    "constant_placement", "tradeoff", "vertical_qsup", "perturb_eval",
    "PERTURB_CSV_HEADER",
]

RNG_ALGORITHM = "numpy-pcg64"  # trial t draws from default_rng([seed, t]), to the bit
_BLOCK_VALUES = 1 << 13        # spacings per perturb_eval block: bounds memory

# SeedSequence's hash-mix constants (NEP 19) and PCG64's 128-bit multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK52, _MASK128 = (1 << 52) - 1, (1 << 128) - 1
_ROW_LIMIT = 40     # draws a trial past which the per-row path is as cheap
_SETTLE_LIMIT = 32  # ... and past which settling its slow rows in arrays does not pay


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
    """Supportable load n_l * R(depth / n_v) / length of n_l risers, each a
    vertical chain of n_v equal hops up the water column, draining the
    segment jointly."""
    _checked_count(n_l, "n_l")
    _checked_count(n_v, "n_v")
    if not (0 < depth < math.inf and 0 < length < math.inf):
        raise ValueError("depth and length must be finite and > 0")
    return n_l * rate.scalar(depth / n_v) / length


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


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix: ``hashmix(value, n)`` hashes value with each
    of the next n steps of the running hash constant, one per row."""
    const = [init]
    def hashmix(value: np.ndarray, n: int) -> np.ndarray:
        c = np.array([const[0] * pow(mult, i, 1 << 32) & _MASK32 for i in range(n + 1)], np.uint32)
        const[0] = int(c[-1])
        value = (value ^ c[:-1, None]) * c[1:, None]
        return value ^ (value >> _XSHIFT)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _substream_states(seed: int, start: int, stop: int) -> np.ndarray:
    """Column t - start holds the PCG64 state of ``PCG64(SeedSequence([seed,
    t]))`` as ``uint64`` words (state high, low, inc high, low), for t in
    range(start, stop), 0 <= t < 2**64; the README says how."""
    t = np.arange(start, stop, dtype=np.uint64)
    hi = (t >> 32).astype(np.uint32)
    words = [np.full(t.size, seed >> 32 * i & _MASK32, dtype=np.uint32)   # seed's, low first
             for i in range(max(1, -(-seed.bit_length() // 32)))]
    words += [t.astype(np.uint32), hi]      # low word of t, then high
    hashmix = _hasher(_INIT_A, _MULT_A)
    # SeedSequence's pool of 4 words; a missing word hashes as a zero one
    pool = hashmix(np.stack((words + [0 * hi])[:4]), 4)
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], 3))
    for i in range(4, len(words)):
        mixed = _mix(pool, hashmix(words[i], 4))
        # past the pool, t < 2**32 has no high word to mix
        pool = mixed if i < len(words) - 1 else np.where(hi > 0, mixed, pool)
    out = _hasher(_INIT_B, _MULT_B)(pool[[0, 1, 2, 3] * 2], 8).astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = out[0::2] | out[1::2] << 32
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    state = _mul_add(_mul_add(inc, _limbs(1), (init_hi, init_lo)), _limbs(_PCG64_MULT), inc)
    return np.stack([*state, *inc])


def _limbs(*values: int) -> np.ndarray:
    """(high, low) ``uint64`` words of integers mod 2**128."""
    return np.array([divmod(v & _MASK128, 1 << 64) for v in values], dtype=np.uint64).T


def _mul_add(a, b, c):
    """a * b + c mod 2**128 on (high, low) pairs of ``uint64`` arrays, which
    broadcast; the low words' full product is summed from 32-bit halves."""
    (ah, al), (bh, bl), (ch, cl) = a, b, c
    a1, a0, b1, b0 = al >> 32, al & _MASK32, bl >> 32, bl & _MASK32
    p01, p10, lo = a0 * b1, a1 * b0, al * bl + cl
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return (a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
            + ah * bl + al * bh + ch + (lo < cl)), lo


@functools.cache
def _jump(k: int):
    """Words of C_j = (M**j - 1) / (M - 1), j = 1..k: PCG64's draw j from
    state s uses state M**j s + C_j inc = s + C_j (inc + (M - 1) s)."""
    return _limbs(*((_PCG64_MULT**j - 1) // (_PCG64_MULT - 1) for j in range(1, k + 1)))


def _set_state(gen: np.random.Generator, state: int, inc: int) -> None:
    gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state, "inc": inc}}


def _crafted_draw(gen: np.random.Generator, layer: int, rabs: int) -> tuple[float, bool]:
    """NumPy's normal draw from the word ``rabs << 9 | layer``, and whether it took no other."""
    word = rabs << 9 | layer
    _set_state(gen, 0, word)    # from state 0 the next state is inc; below 2**64, it is the output
    return gen.standard_normal(), gen.bit_generator.state["state"]["state"] == word


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """Per layer of NumPy's normal sampler, its width ``wi`` and a proven bound on the
    magnitudes that take its one-word fast path, read back on first use."""
    gen = np.random.Generator(np.random.PCG64(0))
    wi = [_crafted_draw(gen, i, 1)[0] for i in range(256)]
    # the table's bounds, guessed from the widths (layer 0's from wi[255]) to within 2 and
    # proven by one draw each; layer 1 (guess past 2**52), and a failed proof, go slow
    bound = [g if 0 < g <= 1 << 52 and _crafted_draw(gen, i, g - 1)[1] else 0
             for i, g in enumerate(int(2.0**52 * w / v) - 2 for w, v in zip(wi[-1:] + wi, wi))]
    return np.array(wi), np.array(bound, dtype=np.uint64)


@functools.cache
def _wedges() -> tuple[np.ndarray, np.ndarray]:
    """Per layer, f = exp(-x**2 / 2) at its edge x = 2**52 wi (f[0] = 1), and a bound,
    proven by a draw that took two words, on the magnitudes taking the wedge test."""
    wi, bound = _ziggurat()
    gen = np.random.Generator(np.random.PCG64(0))
    slow = [s if i and s < 1 << 52 and not _crafted_draw(gen, i, s)[1] else 1 << 52
            for i, s in enumerate(int(b) + 4 if b else 0 for b in bound)]
    return np.append(1.0, np.exp(-0.5 * (2.0**52 * wi[1:]) ** 2)), np.array(slow, dtype=np.uint64)


def _draws(words: np.ndarray, jumps: np.ndarray, out: np.ndarray | None = None):
    """Per stream (column of ``words``), its XSL-RR outputs at the draws ``jumps``, their
    one-word fast path's normals, their layers and magnitudes, and where they leave it."""
    wi, bound = _ziggurat()
    state = words[0, :, None], words[1, :, None]
    step = _mul_add(state, _limbs(_PCG64_MULT - 1), (words[2, :, None], words[3, :, None]))
    hi, lo = _mul_add(step, jumps, state)
    word, rot = hi ^ lo, hi >> 58
    word = word >> rot | word << ((64 - rot) & 63)
    layer, rabs = (word & 255).astype(np.intp), word >> 9 & _MASK52
    out = np.multiply(rabs, wi[layer], out=out)
    np.negative(out, out=out, where=(word & 256) > 0)
    return word, out, layer, rabs, rabs >= bound[layer]


def _trial_noise(words: np.ndarray, sigma: float, k: int) -> np.ndarray:
    """Row i holds the first k ``normal(0, sigma)`` draws of the PCG64
    stream whose words (``_substream_states``) are column i."""
    noise = np.empty((words.shape[1], k))
    rows = np.arange(words.shape[1])    # the rows drawn one at a time
    if k <= _ROW_LIMIT:
        step = max(1, _BLOCK_VALUES // k)     # rows a piece, as many values as a block: in cache
        rows = np.flatnonzero(np.concatenate([
            _draws(words[:, at:at + step], _jump(k), noise[at:at + step])[-1].any(axis=1)
            for at in range(0, rows.size, step)]))
    if k <= _SETTLE_LIMIT:     # settle the slow rows whose one slow draw read is a wedge draw
        f, wedge = _wedges()
        word, value, layer, rabs, slow = _draws(words[:, rows], _jump(k + 2))
        at, j = np.arange(rows.size), slow.argmax(axis=1)
        i, x = layer[at, j], value[at, j]
        lhs, rhs = (f[i - 1] - f[i]) * ((word[at, j + 1] >> 11) * 2.0**-53) + f[i], np.exp(-0.5 * x * x)
        accept, j, col = (lhs < rhs)[:, None], j[:, None], np.arange(k + 2)
        ok = ((rabs[at, j[:, 0]] >= wedge[i]) & (np.abs(lhs - rhs) > 1e-12 * rhs)    # no near-tie
              & ~(slow & (col > j + 1) & (col <= k + 1 - accept)).any(axis=1))
        col = col[:k] + (col[:k] >= j) * (2 - accept) - (col[:k] == j) * accept
        noise[rows[ok]] = np.take_along_axis(value[ok], col[ok], axis=1)
        rows = rows[~ok]
    gen = np.random.Generator(np.random.PCG64(0))
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(rows.tolist(), words[:, rows].T.tolist()):
        _set_state(gen, s_hi << 64 | s_lo, i_hi << 64 | i_lo)
        gen.standard_normal(out=noise[row])
    noise *= sigma      # normal(0, sigma) is 0 + sigma * z, to the bit
    return noise


def perturb_eval(placement: Placement, rate: RateFunction, sigma: float,
                 trials: int = 10_000, seed: int = 0) -> PerturbStats:
    """Gaussian position noise on x_2 .. x_{N-1} (the nodes next to the sink
    and at the end are surveyed exactly), repaired by sort + clamp.  Trial t
    draws from ``default_rng([seed, t])``, whatever the trial order and
    count; blocks of trials bound memory.  ``seed`` is an int >= 0."""
    seed = _checked_count(seed, "seed", 0)
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    _checked_count(trials, "trials")
    n, length = placement.n, placement.length
    exact = qsup_of_placement(placement, rate).q_sup
    if n < 3 or sigma == 0.0:
        return PerturbStats(sigma=sigma, trials=trials, seed=seed, mean_q_sup=exact,
                            std_q_sup=0.0, mean_delta=exact / n)
    block = max(1, _BLOCK_VALUES // n)
    seeded = block * (_BLOCK_VALUES // block)   # trials seeded at once
    drawn = seeded if n - 2 <= _SETTLE_LIMIT else block    # trials whose noise is drawn at once
    samples = np.empty(trials)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        if start % seeded == 0:
            words = _substream_states(seed, start, min(start + seeded, trials))
        if start % drawn == 0:
            noise = _trial_noise(words[:, start % seeded:][:, :drawn], sigma, n - 2)
        X = np.tile(placement.positions, (stop - start, 1))
        X[:, 2:n] += noise[start % drawn:][:stop - start]   # interior positions x_2..x_{N-1}
        np.clip(X[:, 1:], 0.0, length, out=X[:, 1:])
        X.sort(axis=1)
        samples[start:stop] = hop_limits(rate, np.diff(X, axis=1), length).min(axis=1)
    mean = float(samples.mean())
    return PerturbStats(sigma=sigma, trials=trials, seed=seed, mean_q_sup=mean,
                        std_q_sup=float(samples.std()), mean_delta=mean / n)


# columns of the CLI's perturb rows
PERTURB_CSV_HEADER = ["config_hash", "n", "l", "k_attenuation", "sigma",
                      "trials", "mean_q_sup", "std_q_sup", "mean_delta"]
