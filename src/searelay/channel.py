"""Link-budget and effective-rate models for underwater optical wireless hops.

The received signal-to-noise ratio over a hop of length ``d`` meters is

    SNR(d) = A * exp(-K * d**beta) * (eps + d)**(-alpha)

with gain ``A = P_t * D**2 * cos(phi) / (4 * tan(theta)**2 * P_n)`` collecting
the transmitter power, aperture, pointing misalignment, beamwidth, and noise
power.  ``K`` [1/m] is the attenuation coefficient of the water (wavelength
dependent), ``alpha`` the geometric-spreading exponent, ``beta`` an optional
softening of the attenuation exponent, and ``eps`` [m] keeps the geometric
term finite at d = 0.

Two effective-rate models sit on top:

* Shannon:  R(d) = W * ln(1 + SNR(d))   [natural log]
* FEC-limited symbol rate:  the same budget with gain eta * M * A' / zeta
  and beta = 1

Both are strictly decreasing, convex, and vanish as d grows; this is the regularity
all placement solvers in this package rely on.  ``validate_rate_assumption``
checks those properties numerically for any rate model, including custom ones
wrapped in :class:`RateFunction`.

Each model is written once, over a namespace ``xp`` (``math`` for floats,
``numpy`` for arrays): ``_budget`` for SNR and FEC, ``_shannon_model`` for
Shannon.  A rate model is evaluated only through its ``RateFunction``
(``shannon_rate_function``, ``fec_rate_function``), whose scalar and array
paths are the model over ``math`` and over ``numpy``.  ``snr`` evaluates the
budget itself.  Shannon is one closure with the budget inlined: calling the
budget closure from it cost 5-7% of solver throughput.  beta = 1, alpha = 2
(every preset) selects a ``1/(t*t)`` form, ~25% cheaper per float call than
the power.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

__all__ = [
    "ChannelParams", "ShannonRateParams", "FecRateParams", "RateFunction",
    "ValidationReport", "snr_gain", "snr", "shannon_rate_function",
    "fec_rate_function", "validate_rate_assumption",
    "preset", "preset_names", "load_channel_config", "load_fec_config", "CONFIG_KEYS",
]


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

def _checked_positive(x, name: str) -> float:
    """x as a float, once checked to be finite and > 0."""
    if not 0.0 < float(x) < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {x!r}")
    return float(x)


@dataclass(frozen=True)
class ChannelParams:
    """Physical constants of one optical transmitter/receiver pair."""

    transmit_power_W: float = 0.5
    noise_power_W: float = 2e-6
    aperture_diameter_m: float = 0.2
    misalignment_deg: float = 10.0   # phi, angle between beam axis and receiver plane normal
    half_beamwidth_deg: float = 10.0  # theta
    attenuation_per_m: float = 2e-2   # K, wavelength dependent
    epsilon_m: float = 1.0
    attenuation_exponent: float = 1.0  # beta in exp(-K d**beta), 0 < beta <= 1
    geometric_exponent: float = 2.0    # alpha, 2 = spherical spreading

    def __post_init__(self) -> None:
        for name in ("transmit_power_W", "noise_power_W", "aperture_diameter_m",
                     "epsilon_m", "attenuation_per_m", "geometric_exponent"):
            _checked_positive(getattr(self, name), name)
        # cos(phi) must stay positive and tan(theta) finite
        if not 0.0 <= self.misalignment_deg < 90.0:
            raise ValueError("misalignment_deg must lie in [0, 90)")
        if not 0.0 < self.half_beamwidth_deg < 90.0:
            raise ValueError("half_beamwidth_deg must lie in (0, 90)")
        if not 0.0 < self.attenuation_exponent <= 1.0:
            raise ValueError("attenuation_exponent must lie in (0, 1]")


@dataclass(frozen=True)
class ShannonRateParams:
    """Channel plus the bandwidth entering the Shannon-style rate."""

    channel: ChannelParams
    bandwidth_Hz: float = 5e8

    def __post_init__(self) -> None:
        _checked_positive(self.bandwidth_Hz, "bandwidth_Hz")


@dataclass(frozen=True)
class FecRateParams:
    """Rate-adaptation model: highest symbol rate keeping SNR at threshold zeta."""

    modulation_bits_per_symbol: int   # M
    code_rate: float                  # eta in (0, 1)
    snr_threshold: float              # zeta > 0
    scaled_gain: float                # A' > 0, gain referred to unit symbol time
    attenuation_per_m: float = 2e-2
    epsilon_m: float = 1.0
    geometric_exponent: float = 2.0

    def __post_init__(self) -> None:
        if not (isinstance(self.modulation_bits_per_symbol, int)
                and self.modulation_bits_per_symbol >= 1):
            raise ValueError("modulation_bits_per_symbol must be an integer >= 1")
        if not 0.0 < self.code_rate < 1.0:
            raise ValueError("code_rate must lie in (0, 1)")
        for name in ("snr_threshold", "scaled_gain", "epsilon_m", "geometric_exponent"):
            _checked_positive(getattr(self, name), name)
        if not 0.0 <= self.attenuation_per_m < math.inf:
            raise ValueError("attenuation_per_m must be finite and >= 0, "
                             f"got {self.attenuation_per_m!r}")


# ---------------------------------------------------------------------------
# raw models
# ---------------------------------------------------------------------------

def _checked_distance(d):
    """Accept a scalar or array distance, reject negatives and NaN."""
    if isinstance(d, np.ndarray):
        # the minimum of an array holding NaN is NaN, which fails >= 0
        if d.size and not float(d.min()) >= 0.0:
            raise ValueError("distance must be >= 0")
        return d.astype(float, copy=False), False
    dd = float(d)
    if not dd >= 0.0:
        raise ValueError("distance must be >= 0")
    return dd, True


def snr_gain(params: ChannelParams) -> float:
    """Aggregate link gain A (the SNR at d = 0 when eps = 1)."""
    phi = math.radians(params.misalignment_deg)
    theta = math.radians(params.half_beamwidth_deg)
    num = params.transmit_power_W * params.aperture_diameter_m ** 2 * math.cos(phi)
    den = 4.0 * math.tan(theta) ** 2 * params.noise_power_W
    return num / den


def _link_terms(params: ChannelParams) -> tuple:
    """(A, K, beta, alpha, eps) of a channel's link budget."""
    return (snr_gain(params), params.attenuation_per_m, params.attenuation_exponent,
            params.geometric_exponent, params.epsilon_m)


def _budget(gain, k, beta, alpha, eps, xp):
    """d -> gain * exp(-k * d**beta) * (eps + d)**-alpha over ``xp``."""
    exp = xp.exp
    if beta == 1.0 and alpha == 2.0:
        def budget(d):
            t = eps + d
            return gain * exp(-k * d) / (t * t)
    else:
        def budget(d):
            return gain * exp(-k * d ** beta) * (eps + d) ** -alpha
    return budget


def _fec_model(params: FecRateParams, xp):
    """The link budget with gain eta * M * A' / zeta and beta = 1."""
    gain = (params.code_rate * params.modulation_bits_per_symbol
            * params.scaled_gain / params.snr_threshold)
    return _budget(gain, params.attenuation_per_m, 1.0,
                   params.geometric_exponent, params.epsilon_m, xp)


def _shannon_model(params: ShannonRateParams, xp):
    """W * log1p(SNR(d)), with the budget inlined (see the module docstring)."""
    a, k, beta, alpha, eps = _link_terms(params.channel)
    w, exp, log1p = params.bandwidth_Hz, xp.exp, xp.log1p
    if beta == 1.0 and alpha == 2.0:
        def rate(d):
            t = eps + d
            return w * log1p(a * exp(-k * d) / (t * t))
    else:
        def rate(d):
            return w * log1p(a * exp(-k * d ** beta) * (eps + d) ** -alpha)
    return rate


def snr(params: ChannelParams, d):
    """Signal-to-noise ratio at hop length d [m]. Scalar in, scalar out."""
    dd, scalar = _checked_distance(d)
    return _budget(*_link_terms(params), math if scalar else np)(dd)


# ---------------------------------------------------------------------------
# rate-function wrapper used by the solvers
# ---------------------------------------------------------------------------

class RateFunction:
    """An evaluable hop-rate model R(d) with a numeric derivative.

    ``scalar`` is the raw float -> float callable (no validation, hot path);
    calling the object validates d >= 0 and also accepts arrays, which go
    to ``array_fn`` if given, else through ``fn`` one element at a time.
    """

    def __init__(self, fn, array_fn=None, label: str = "custom"):
        self.scalar = fn
        self._array = (array_fn if array_fn is not None
                       else np.vectorize(fn, otypes=[float]))
        self.label = label
        self.r0 = float(fn(0.0))
        if not math.isfinite(self.r0) or self.r0 <= 0:
            raise ValueError(f"rate model must be finite and positive at d=0, got {self.r0!r}")

    def __call__(self, d):
        dd, scalar = _checked_distance(np.asarray(d, dtype=float) if isinstance(d, (list, tuple)) else d)
        if scalar:
            return self.scalar(dd)
        return self._array(dd)

    def derivative(self, d: float) -> float:
        """Numeric dR/dd with step h = max(1e-6, 1e-6*d).

        Central difference away from the boundary; a second-order one-sided
        difference below d = h, where a central stencil would leave the domain.
        """
        dd = _checked_distance(float(d))[0]
        h = max(1e-6, 1e-6 * dd)
        f = self.scalar
        if dd >= h:
            return (f(dd + h) - f(dd - h)) / (2.0 * h)
        return (-3.0 * f(dd) + 4.0 * f(dd + h) - f(dd + 2.0 * h)) / (2.0 * h)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RateFunction({self.label}, r0={self.r0:.6g})"


def shannon_rate_function(params: ShannonRateParams) -> RateFunction:
    """Wrap a Shannon-rate channel as a RateFunction."""
    return RateFunction(_shannon_model(params, math), _shannon_model(params, np),
                        label=f"shannon(K={params.channel.attenuation_per_m:g})")


def fec_rate_function(params: FecRateParams) -> RateFunction:
    """Wrap a FEC-limited rate model as a RateFunction."""
    return RateFunction(_fec_model(params, math), _fec_model(params, np),
                        label=f"fec(K={params.attenuation_per_m:g})")


# ---------------------------------------------------------------------------
# regularity validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Numeric check that a rate model is decreasing, convex, and vanishing."""

    max_forward_diff: float   # must be < 0 (strict decrease)
    min_second_diff: float    # must be >= -convexity_tol
    tail_value: float         # R(d_max), flagged if above tail_threshold
    r0: float
    convexity_tol: float
    tail_threshold: float
    monotone_ok: bool
    convex_ok: bool
    tail_ok: bool

    @property
    def passed(self) -> bool:
        return self.monotone_ok and self.convex_ok and self.tail_ok


# validate_rate_assumption's thresholds, as fractions of R(0)
_CONVEXITY_TOL_REL = 1e-6   # second differences may dip this far below 0
_TAIL_RATIO = 1e-3          # R(d_max) above this is not vanishing


def validate_rate_assumption(rate: RateFunction, d_max: float = 2000.0,
                             n_grid: int = 10_000) -> ValidationReport:
    """Probe R on a uniform grid over [0, d_max] for the solver's regularity needs.

    The report is advisory: callers decide whether a failed flag is fatal.
    """
    if d_max <= 0:
        raise ValueError("d_max must be > 0")
    if n_grid < 3:
        raise ValueError("n_grid must be >= 3")
    r = rate(np.linspace(0.0, d_max, n_grid))
    tol, tail_thr = _CONVEXITY_TOL_REL * rate.r0, _TAIL_RATIO * rate.r0
    max_fwd, min_sec = float(np.diff(r).max()), float(np.diff(r, n=2).min())
    tail = float(r[-1])
    return ValidationReport(
        max_forward_diff=max_fwd, min_second_diff=min_sec, tail_value=tail,
        r0=rate.r0, convexity_tol=tol, tail_threshold=tail_thr,
        monotone_ok=max_fwd < 0.0, convex_ok=min_sec >= -tol, tail_ok=tail <= tail_thr)


# ---------------------------------------------------------------------------
# presets and config files
# ---------------------------------------------------------------------------

# attenuation coefficient K [1/m] by nominal wavelength band
_PRESET_K = {"red": 3e-1, "green": 7e-2, "blue": 2e-2}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESET_K)


def preset(name: str, **channel_overrides) -> ShannonRateParams:
    """Built-in water presets: 'red', 'green', 'blue' (clearest)."""
    try:
        k = _PRESET_K[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(_PRESET_K)}") from None
    ch = replace(ChannelParams(attenuation_per_m=k), **channel_overrides)
    return ShannonRateParams(channel=ch)


# exact key set of the flat JSON channel-config format
CONFIG_KEYS = tuple(f.name for f in fields(ChannelParams)) + ("bandwidth_Hz",)

_OPTIONAL_CONFIG_KEYS = ("attenuation_exponent", "geometric_exponent")


def _load_flat_config(path, keys, optional, build):
    """build(**values) from a flat JSON object of finite numbers: every key
    in `keys` but `optional` present, no other.  Errors name the file."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path}: expected a flat JSON object")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ValueError(f"config file {path}: unknown keys {unknown}")
    missing = sorted(set(keys) - set(optional) - set(raw))
    if missing:
        raise ValueError(f"config file {path}: missing keys {missing}")
    # bool is an int subclass, and json reads NaN and Infinity as floats
    bad = sorted(k for k, v in raw.items() if isinstance(v, bool)
                 or not isinstance(v, (int, float)) or not math.isfinite(v))
    if bad:
        raise ValueError(f"config file {path}: {bad} must be finite JSON numbers")
    try:
        return build(**raw)
    except ValueError as exc:
        raise ValueError(f"config file {path}: {exc}") from None


def load_channel_config(path) -> ShannonRateParams:
    """Read a flat JSON file of channel constants (exact keys, see CONFIG_KEYS)."""
    def build(bandwidth_Hz, **channel):
        return ShannonRateParams(
            channel=ChannelParams(**{k: float(v) for k, v in channel.items()}),
            bandwidth_Hz=float(bandwidth_Hz))
    return _load_flat_config(path, CONFIG_KEYS, _OPTIONAL_CONFIG_KEYS, build)


def load_fec_config(path) -> FecRateParams:
    """Read a flat JSON file of FecRateParams fields; those with defaults may be left out."""
    fs = fields(FecRateParams)
    optional = [f.name for f in fs if f.default is not MISSING]
    return _load_flat_config(path, [f.name for f in fs], optional, FecRateParams)
