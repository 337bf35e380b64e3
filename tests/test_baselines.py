import numpy as np
import pytest

from cyclospeech import (
    ComplexSpectrogram,
    PipelineConfig,
    apply_mask,
    enhance_buffer,
    istft,
    min_stats_noise_psd,
    oracle_irm,
    stft,
    wiener_gain,
)
from cyclospeech.baselines import _smoothed_power, _trailing_min

FS = 16000
EPS = 1e-12


def make_spec(data, cfg):
    return ComplexSpectrogram(np.asarray(data, dtype=complex), cfg)


def test_identity_is_the_input(cfg16k, speech_4s):
    # the "id" preprocessor passes the spectrogram through unchanged, so the
    # output is the STFT round trip
    result = enhance_buffer(speech_4s, PipelineConfig(preproc="id"))
    round_trip = np.zeros(len(speech_4s))
    istft(stft(speech_4s, cfg16k), round_trip)
    assert np.array_equal(result.enhanced.samples, round_trip)


def test_min_stats_tracks_white_noise_level(cfg16k, white_10s):
    spec = stft(white_10s, cfg16k)
    psd, _ = min_stats_noise_psd(spec)
    # per-bin expected smoothed power of unit white noise: sum of w^2
    true_level = np.sum(cfg16k.window**2)
    ratio = psd[-1] / true_level  # steady state at the last frame
    in_band = np.mean((ratio >= 0.3) & (ratio <= 1.5))
    assert in_band >= 0.9


def test_min_stats_zero_input(cfg16k):
    spec = make_spec(np.zeros((300, 512)), cfg16k)
    psd, _ = min_stats_noise_psd(spec)
    assert np.all(psd == 0)


def test_min_stats_tracks_speech_pauses(cfg16k, speech_4s):
    spec = stft(speech_4s, cfg16k)
    psd, _ = min_stats_noise_psd(spec)
    power = np.abs(spec.data) ** 2
    active = power > np.median(power)
    assert np.mean(psd[active]) <= 0.1 * np.mean(power[active])


def test_min_stats_never_exceeds_biased_smoothed_psd(cfg16k, speech_4s):
    spec = stft(speech_4s, cfg16k)
    psd, smoothed = min_stats_noise_psd(spec)
    assert np.array_equal(smoothed, _smoothed_power(spec.data))
    assert np.all(psd <= 1.5 * smoothed + 1e-12)


def test_min_stats_short_input_rejected(cfg16k):
    spec = make_spec(np.ones((10, 512)), cfg16k)
    with pytest.raises(ValueError, match="shorter"):
        min_stats_noise_psd(spec)


def test_wiener_zero_noise_passthrough(cfg16k):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((200, 512)) + 1j * rng.standard_normal((200, 512))
    spec = make_spec(data, cfg16k)
    gain = wiener_gain(_smoothed_power(spec.data), np.zeros((200, 512)))
    assert np.array_equal(gain * spec.data, spec.data)


def test_wiener_full_noise_hits_floor(cfg16k):
    # constant-magnitude spectrogram: smoothed power equals |x|^2 exactly
    data = np.full((100, 512), 2.0, dtype=complex)
    spec = make_spec(data, cfg16k)
    floor = 10 ** (-25 / 20)
    gain = wiener_gain(_smoothed_power(spec.data), np.full((100, 512), 4.0))
    assert np.allclose(gain * spec.data, floor * data)


def test_wiener_half_noise_half_gain(cfg16k):
    data = np.full((100, 512), 2.0, dtype=complex)
    spec = make_spec(data, cfg16k)
    gain = wiener_gain(_smoothed_power(spec.data), np.full((100, 512), 2.0))
    assert np.allclose(gain * spec.data, 0.5 * data)


def test_wiener_gain_bounds(cfg16k, speech_4s):
    spec = stft(speech_4s, cfg16k)
    noise, smoothed = min_stats_noise_psd(spec)
    floor = 10 ** (-25 / 20)
    gain = wiener_gain(smoothed, noise)
    assert gain.min() >= floor
    assert gain.max() <= 1.0


def test_wiener_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        wiener_gain(np.ones((50, 512)), np.ones((49, 512)))


def test_apply_mask_trivial_cases(cfg16k):
    rng = np.random.default_rng(1)
    data = rng.standard_normal((40, 512)) + 1j * rng.standard_normal((40, 512))
    spec = make_spec(data, cfg16k)
    assert np.array_equal(apply_mask(spec, np.ones((40, 512))).data, data)
    assert np.all(apply_mask(spec, np.zeros((40, 512))).data == 0)
    mask = np.ones((40, 512))
    mask[7, 100] = 0.5
    out = apply_mask(spec, mask).data
    assert out[7, 100] == 0.5 * data[7, 100]
    other = np.ones((40, 512), dtype=bool)
    other[7, 100] = False
    assert np.array_equal(out[other], data[other])


def test_apply_mask_bounds_output(cfg16k):
    rng = np.random.default_rng(2)
    data = rng.standard_normal((30, 512)) + 1j * rng.standard_normal((30, 512))
    mask = rng.uniform(0, 2.0, (30, 512))
    out = apply_mask(make_spec(data, cfg16k), mask)
    assert np.all(np.abs(out.data) <= mask.max() * np.abs(data) + 1e-12)


def test_apply_mask_rejects_bad_masks(cfg16k):
    spec = make_spec(np.ones((10, 512)), cfg16k)
    with pytest.raises(ValueError, match="shape"):
        apply_mask(spec, np.ones((9, 512)))
    with pytest.raises(ValueError, match="nonnegative"):
        apply_mask(spec, -np.ones((10, 512)))


def test_oracle_irm_values(cfg16k):
    clean = make_spec(np.full((20, 512), 3.0), cfg16k)
    zero_noise = make_spec(np.zeros((20, 512)), cfg16k)
    mask = oracle_irm(clean, zero_noise, EPS)
    assert np.all(mask >= 1.0 - 1e-6)
    assert np.all(mask < 1.0)

    equal = oracle_irm(clean, make_spec(np.full((20, 512), 3.0), cfg16k), EPS)
    assert np.allclose(equal, 1.0 / np.sqrt(2.0), atol=1e-6)

    zero_clean = oracle_irm(make_spec(np.zeros((20, 512)), cfg16k), clean, EPS)
    assert np.all(zero_clean == 0.0)


def test_oracle_irm_range(cfg16k):
    rng = np.random.default_rng(3)
    clean = make_spec(rng.standard_normal((30, 512)), cfg16k)
    noise = make_spec(rng.standard_normal((30, 512)), cfg16k)
    mask = oracle_irm(clean, noise, EPS)
    assert np.all(mask >= 0.0)
    assert np.all(mask < 1.0)


@pytest.mark.parametrize("width", (1, 2, 3, 7, 8, 9, 188, 256))
@pytest.mark.parametrize("rows, count", ((300, 300), (300, 40), (300, 1), (5, 5)))
def test_trailing_min_equals_minimum_filter(width, rows, count):
    from scipy.ndimage import minimum_filter1d

    x = np.random.default_rng(width * rows + count).standard_normal((rows, 6))
    x[::7] = x[3]  # ties
    expected = minimum_filter1d(x, width, axis=0, mode="nearest", origin=(width - 1) // 2)
    assert np.array_equal(_trailing_min(x, width, count), expected[rows - count :])
