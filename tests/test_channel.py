"""Channel model: frozen numeric anchors, regularity, config handling.

Anchor values were computed with mpmath at 40 digits from the closed forms,
independently of the package code.
"""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import searelay as sr
from searelay.channel import CONFIG_KEYS, ChannelParams, snr_gain

# frozen oracle values (see anchor note above)
GAIN_A = 79187.0064785
RATE_AT_0 = 5639790066.49
RATE_ANCHORS = {
    # preset -> {distance: rate}
    "blue": {100.0: 359057261.424, 200.0: 17634885.4938},
    "green": {100.0: 3526851.84532, 200.0: 814.908249895},
    "red": {100.0: 3.63200740445e-4},
}


def rel(a, b):
    return abs(a - b) / abs(b)


def test_gain_matches_frozen_constant():
    p = ChannelParams()
    assert rel(snr_gain(p), GAIN_A) < 1e-9
    # the aggregate gain ignores the water: any K gives the same A
    assert snr_gain(ChannelParams(attenuation_per_m=0.3)) == snr_gain(p)


def test_snr_at_zero_equals_gain():
    p = ChannelParams()
    assert rel(sr.snr(p, 0.0), GAIN_A) < 1e-9  # eps = 1 makes (eps+0)^alpha = 1


@pytest.mark.parametrize("name", ["red", "green", "blue"])
def test_rate_at_zero_frozen(name):
    rate = sr.shannon_rate_function(sr.preset(name))
    assert rel(rate.r0, RATE_AT_0) < 1e-9
    assert rel(rate.r0, 5e8 * math.log1p(snr_gain(ChannelParams()))) < 1e-12


@pytest.mark.parametrize("name", sorted(RATE_ANCHORS))
def test_rate_anchors_frozen(name):
    rate = sr.shannon_rate_function(sr.preset(name))
    for d, expected in RATE_ANCHORS[name].items():
        assert rel(rate(d), expected) < 1e-9, (name, d)


def test_capacity_ceiling_band():
    # natural log was pinned by this cross-check: R(0)/500 must sit near
    # 1.13e7; a base-2 log would land near 1.63e7
    rate = sr.shannon_rate_function(sr.preset("blue"))
    assert 1.12e7 <= rate.r0 / 500.0 <= 1.14e7


def test_rate_ordering_blue():
    rate = sr.shannon_rate_function(sr.preset("blue"))
    assert rate(100.0) > rate(200.0) > 0.0


def test_negative_distance_rejected():
    p = ChannelParams()
    rate = sr.shannon_rate_function(sr.preset("blue"))
    with pytest.raises(ValueError):
        sr.snr(p, -1.0)
    with pytest.raises(ValueError):
        rate(-0.5)
    with pytest.raises(ValueError):
        rate(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        rate.derivative(-1.0)


NAN_DISTANCE_CALLS = {
    "snr": lambda d: sr.snr(ChannelParams(), d),
    "shannon_rate": sr.shannon_rate_function(sr.preset("blue")),
    "fec_rate": sr.fec_rate_function(sr.FecRateParams(
        modulation_bits_per_symbol=2, code_rate=0.5, snr_threshold=10.0,
        scaled_gain=1e9, attenuation_per_m=2e-2, epsilon_m=1.0,
        geometric_exponent=2.0)),
    "rate_function": sr.shannon_rate_function(sr.preset("green")),
}


@pytest.mark.parametrize("call", sorted(NAN_DISTANCE_CALLS))
@pytest.mark.parametrize("d", [math.nan, np.array([1.0, math.nan]),
                               np.array([math.nan])],
                         ids=["scalar", "array", "all-nan"])
def test_nan_distance_rejected(call, d):
    # NaN fails d >= 0 as a negative distance does, with the same error
    with pytest.raises(ValueError, match="distance must be >= 0"):
        NAN_DISTANCE_CALLS[call](d)


def test_param_validation():
    with pytest.raises(ValueError):
        ChannelParams(misalignment_deg=90.0)   # cos(90) = 0 kills every link
    with pytest.raises(ValueError):
        ChannelParams(half_beamwidth_deg=0.0)
    with pytest.raises(ValueError):
        ChannelParams(attenuation_exponent=1.5)
    with pytest.raises(ValueError):
        ChannelParams(transmit_power_W=0.0)
    with pytest.raises(ValueError):
        sr.ShannonRateParams(channel=ChannelParams(), bandwidth_Hz=0.0)


def test_vanishing_power_vanishing_rate():
    params = sr.preset("blue", transmit_power_W=1e-300)
    rate = sr.shannon_rate_function(params)
    assert 0.0 < rate(10.0) < 1e-200


def test_snr_linear_in_transmit_power():
    base = sr.snr(ChannelParams(), 25.0)
    scaled = sr.snr(ChannelParams(transmit_power_W=1.5), 25.0)
    assert rel(scaled, 3.0 * base) < 1e-12


def test_fec_scale_collapses_to_one():
    p = sr.FecRateParams(modulation_bits_per_symbol=2, code_rate=0.5,
                         snr_threshold=7.0, scaled_gain=7.0,
                         attenuation_per_m=0.0)
    assert sr.fec_rate_function(p)(0.0) == 1.0


def test_fec_ratio_identity():
    p = sr.FecRateParams(modulation_bits_per_symbol=4, code_rate=0.8,
                         snr_threshold=3.0, scaled_gain=1e9,
                         attenuation_per_m=0.05, epsilon_m=2.0,
                         geometric_exponent=2.0)
    rate = sr.fec_rate_function(p)
    for d in (0.5, 10.0, 80.0):
        expected = math.exp(-p.attenuation_per_m * d) * (p.epsilon_m / (p.epsilon_m + d)) ** 2
        assert rel(rate(d) / rate.r0, expected) < 1e-12


def test_fec_linear_in_gain():
    kw = dict(modulation_bits_per_symbol=2, code_rate=0.5, snr_threshold=5.0,
              attenuation_per_m=0.02)
    a = sr.fec_rate_function(sr.FecRateParams(scaled_gain=1e8, **kw))(42.0)
    b = sr.fec_rate_function(sr.FecRateParams(scaled_gain=2e8, **kw))(42.0)
    assert rel(b, 2.0 * a) < 1e-12


FEC_REQUIRED = dict(modulation_bits_per_symbol=2, code_rate=0.5, snr_threshold=5.0,
                    scaled_gain=1e8)


def test_fec_param_validation():
    good = FEC_REQUIRED
    sr.FecRateParams(**good)
    with pytest.raises(ValueError):
        sr.FecRateParams(**{**good, "modulation_bits_per_symbol": 0})
    with pytest.raises(ValueError):
        sr.FecRateParams(**{**good, "code_rate": 1.0})
    with pytest.raises(ValueError):
        sr.FecRateParams(**{**good, "attenuation_per_m": -0.1})


PARAM_BUILDERS = {
    # class -> build(**one field); channel fields go through a preset
    ChannelParams: lambda **kw: sr.preset("blue", **kw),
    sr.ShannonRateParams: lambda **kw: sr.ShannonRateParams(channel=ChannelParams(), **kw),
    sr.FecRateParams: lambda **kw: sr.FecRateParams(**{**FEC_REQUIRED, **kw}),
}
FLOAT_FIELDS = [(cls, f.name) for cls in PARAM_BUILDERS for f in fields(cls)
                if f.type in ("float", float)]


@pytest.mark.parametrize("cls,name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_param_rejects_non_finite(cls, name, value):
    # NaN and inf fail at construction, naming the field, not later in a solve
    with pytest.raises(ValueError, match=rf"^{name} must"):
        PARAM_BUILDERS[cls](**{name: value})


@pytest.mark.parametrize("name", ["red", "green", "blue"])
def test_validate_shannon_passes(name):
    rate = sr.shannon_rate_function(sr.preset(name))
    report = sr.validate_rate_assumption(rate, d_max=2000.0, n_grid=10_000)
    assert report.passed, report


def test_validate_fec_passes():
    p = sr.FecRateParams(modulation_bits_per_symbol=2, code_rate=0.5,
                         snr_threshold=5.0, scaled_gain=1e9,
                         attenuation_per_m=0.02)
    report = sr.validate_rate_assumption(sr.fec_rate_function(p))
    assert report.passed


def test_validate_flags_increasing_function():
    bad = sr.RateFunction(lambda d: d + 1.0, label="increasing")
    report = sr.validate_rate_assumption(bad, d_max=10.0, n_grid=100)
    assert not report.monotone_ok
    assert not report.passed


def test_custom_scalar_rate_on_the_array_path():
    # a math-only callable, no array_fn: arrays go through it element-wise
    rate = sr.RateFunction(lambda d: 1e8 * math.exp(-d / 50.0))
    assert list(rate(np.array([0.0, 50.0]))) == [1e8, 1e8 * math.exp(-1.0)]
    assert rate(np.zeros((2, 0))).shape == (2, 0)
    res = sr.solve(rate, 6, 300.0)
    back = sr.qsup_of_placement(res.placement, rate).q_sup
    assert back == pytest.approx(res.q_sup, rel=1e-6)
    assert sr.validate_rate_assumption(rate).passed
    stats = sr.perturb_eval(res.placement, rate, 1.0, trials=20, seed=3)
    assert 0.0 < stats.mean_q_sup <= res.q_sup * (1 + 1e-6)


def test_derivative_matches_closed_form():
    # beta=1, alpha=2: R'(d) = W s'(d)/(1+s(d)), s' = -s (K + 2/(eps+d))
    params = sr.preset("blue")
    rate = sr.shannon_rate_function(params)
    ch = params.channel
    for d in (0.0, 0.3, 1.0, 10.0, 100.0):
        s = sr.snr(ch, d)
        sp = -s * (ch.attenuation_per_m + 2.0 / (ch.epsilon_m + d))
        expected = params.bandwidth_Hz * sp / (1.0 + s)
        assert rel(rate.derivative(d), expected) < 1e-5, d


FEC_KW = dict(modulation_bits_per_symbol=2, code_rate=0.5, snr_threshold=5.0,
              scaled_gain=1e9, attenuation_per_m=0.02)
RATE_MODELS = {
    # id -> (params, RateFunction builder)
    "shannon-green": (sr.preset("green"), sr.shannon_rate_function),
    "shannon-general": (sr.preset("blue", attenuation_exponent=0.8, geometric_exponent=1.5),
                        sr.shannon_rate_function),
    "fec-alpha2": (sr.FecRateParams(**FEC_KW), sr.fec_rate_function),
    "fec-alpha1.5": (sr.FecRateParams(**FEC_KW, geometric_exponent=1.5),
                     sr.fec_rate_function),
}


@pytest.mark.parametrize("model", sorted(RATE_MODELS))
def test_scalar_and_array_paths_agree(model):
    params, build = RATE_MODELS[model]
    rate = build(params)
    d = np.array([0.0, 0.7, 13.0, 210.0, 999.5, 2000.0])
    arr = rate(d)
    scalars = np.array([rate.scalar(float(di)) for di in d])
    np.testing.assert_array_max_ulp(arr, scalars, maxulp=4)
    for di, want in zip(d, scalars):
        # a checked float call is the scalar path, bit for bit
        assert rate(float(di)) == want
        if build is sr.shannon_rate_function:
            snr = sr.snr(params.channel, float(di))
            assert params.bandwidth_Hz * math.log1p(snr) == want


def test_rate_function_rejects_bad_origin():
    with pytest.raises(ValueError):
        sr.RateFunction(lambda d: 0.0)
    with pytest.raises(ValueError):
        sr.RateFunction(lambda d: float("nan"))


def test_preset_lookup():
    assert set(sr.preset_names()) == {"red", "green", "blue"}
    assert sr.preset("green").channel.attenuation_per_m == 7e-2
    with pytest.raises(KeyError):
        sr.preset("ultraviolet")
    # overrides reach the channel
    assert sr.preset("blue", epsilon_m=2.0).channel.epsilon_m == 2.0


def test_load_channel_config_roundtrip(tmp_path):
    cfg = {
        "transmit_power_W": 0.5,
        "noise_power_W": 2e-6,
        "aperture_diameter_m": 0.2,
        "misalignment_deg": 10.0,
        "half_beamwidth_deg": 10.0,
        "attenuation_per_m": 0.02,
        "epsilon_m": 1.0,
        "bandwidth_Hz": 5e8,
    }
    path = tmp_path / "blue.json"
    path.write_text(json.dumps(cfg))
    params = sr.load_channel_config(path)
    assert params.channel.attenuation_per_m == 0.02
    assert params.bandwidth_Hz == 5e8
    # the two optional exponent keys default in
    assert params.channel.attenuation_exponent == 1.0
    assert params.channel.geometric_exponent == 2.0
    want = sr.shannon_rate_function(sr.preset("blue"))
    got = sr.shannon_rate_function(params)
    assert got(123.0) == want(123.0)


def test_load_channel_config_rejects_bad_keys(tmp_path):
    base = {k: 1.0 for k in CONFIG_KEYS}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**base, "typo_key": 3.0}))
    with pytest.raises(ValueError, match="unknown keys"):
        sr.load_channel_config(path)
    incomplete = dict(base)
    incomplete.pop("bandwidth_Hz")
    path.write_text(json.dumps(incomplete))
    with pytest.raises(ValueError, match="missing keys"):
        sr.load_channel_config(path)
    path.write_text("not json at all {")
    with pytest.raises(ValueError, match="not valid JSON"):
        sr.load_channel_config(path)


def test_load_fec_config(tmp_path):
    path = tmp_path / "fec.json"
    required = {"modulation_bits_per_symbol": 2, "code_rate": 0.5,
                "snr_threshold": 10.0, "scaled_gain": 1e9}
    path.write_text(json.dumps(required))
    assert sr.load_fec_config(path) == sr.FecRateParams(**required)
    for bad, message in [({**required, "code_rate": True}, "finite JSON numbers"),
                         ({**required, "modulation_bits_per_symbol": 2.5}, "integer"),
                         ({"code_rate": 0.5}, "missing keys")]:
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=f"config file {path}: .*{message}"):
            sr.load_fec_config(path)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

channel_params = st.builds(
    ChannelParams,
    transmit_power_W=st.floats(1e-3, 10.0),
    noise_power_W=st.floats(1e-9, 1e-3),
    aperture_diameter_m=st.floats(0.01, 1.0),
    misalignment_deg=st.floats(0.0, 80.0),
    half_beamwidth_deg=st.floats(1.0, 80.0),
    attenuation_per_m=st.floats(1e-3, 0.5),
    epsilon_m=st.floats(0.1, 5.0),
    attenuation_exponent=st.floats(0.2, 1.0),
    geometric_exponent=st.floats(0.5, 3.0),
)


@given(params=channel_params, d1=st.floats(0.0, 500.0), gap=st.floats(1e-3, 500.0))
@settings(max_examples=200, deadline=None)
def test_snr_strictly_decreasing(params, d1, gap):
    assert sr.snr(params, d1) > sr.snr(params, d1 + gap) > 0.0


@given(params=channel_params, d=st.floats(0.0, 1000.0), c=st.floats(1.5, 50.0))
@settings(max_examples=100, deadline=None)
def test_snr_power_scaling(params, d, c):
    from dataclasses import replace
    boosted = replace(params, transmit_power_W=c * params.transmit_power_W)
    assert rel(sr.snr(boosted, d), c * sr.snr(params, d)) < 1e-9


@given(params=channel_params, d=st.floats(0.0, 2000.0))
@settings(max_examples=100, deadline=None)
def test_rate_bounded_by_origin(params, d):
    rp = sr.ShannonRateParams(channel=params, bandwidth_Hz=5e8)
    rate = sr.shannon_rate_function(rp)
    assert rate(d) <= rate.r0
