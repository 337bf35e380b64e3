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
from cyclospeech.baselines import MinStatsState, _smoothed_power

FS = 16000


def make_spec(data, cfg):
    return ComplexSpectrogram(np.asarray(data, dtype=complex), cfg)


def test_identity_is_the_input(cfg16k, speech_4s):
    # the "id" preprocessor passes the spectrogram through unchanged, so the
    # output is the STFT round trip
    result = enhance_buffer(speech_4s, PipelineConfig(preproc="id"))
    round_trip = istft(stft(speech_4s, cfg16k)).real()
    assert np.array_equal(result.enhanced.samples, round_trip.samples)


def test_min_stats_tracks_white_noise_level(cfg16k, white_10s):
    spec = stft(white_10s, cfg16k)
    psd = min_stats_noise_psd(spec)
    # per-bin expected smoothed power of unit white noise: sum of w^2
    true_level = np.sum(cfg16k.window**2)
    ratio = psd[:, -1] / true_level  # steady state at the last frame
    in_band = np.mean((ratio >= 0.3) & (ratio <= 1.5))
    assert in_band >= 0.9


def test_min_stats_zero_input(cfg16k):
    spec = make_spec(np.zeros((512, 300)), cfg16k)
    psd = min_stats_noise_psd(spec)
    assert np.all(psd == 0)


def test_min_stats_tracks_speech_pauses(cfg16k, speech_4s):
    spec = stft(speech_4s, cfg16k)
    psd = min_stats_noise_psd(spec)
    power = np.abs(spec.data) ** 2
    active = power > np.median(power)
    assert np.mean(psd[active]) <= 0.1 * np.mean(power[active])


def test_min_stats_never_exceeds_biased_smoothed_psd(cfg16k, speech_4s):
    spec = stft(speech_4s, cfg16k)
    psd = min_stats_noise_psd(spec, bias=1.5, smooth_alpha=0.85)
    smoothed = _smoothed_power(spec.data, 0.85)
    assert np.all(psd <= 1.5 * smoothed + 1e-12)


def test_min_stats_short_input_rejected(cfg16k):
    spec = make_spec(np.ones((512, 10)), cfg16k)
    with pytest.raises(ValueError, match="shorter"):
        min_stats_noise_psd(spec, window_sec=1.5)


def test_wiener_zero_noise_passthrough(cfg16k):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((512, 200)) + 1j * rng.standard_normal((512, 200))
    spec = make_spec(data, cfg16k)
    gain = wiener_gain(spec, np.zeros((512, 200)))
    assert np.array_equal(gain * spec.data, spec.data)


def test_wiener_full_noise_hits_floor(cfg16k):
    # constant-magnitude spectrogram: smoothed power equals |x|^2 exactly
    data = np.full((512, 100), 2.0, dtype=complex)
    spec = make_spec(data, cfg16k)
    floor = 10 ** (-25 / 20)
    gain = wiener_gain(spec, np.full((512, 100), 4.0), gain_floor=floor)
    assert np.allclose(gain * spec.data, floor * data)


def test_wiener_half_noise_half_gain(cfg16k):
    data = np.full((512, 100), 2.0, dtype=complex)
    spec = make_spec(data, cfg16k)
    gain = wiener_gain(spec, np.full((512, 100), 2.0))
    assert np.allclose(gain * spec.data, 0.5 * data)


def test_wiener_gain_bounds(cfg16k, speech_4s):
    spec = stft(speech_4s, cfg16k)
    noise = min_stats_noise_psd(spec)
    floor = 10 ** (-25 / 20)
    gain = wiener_gain(spec, noise, gain_floor=floor)
    assert gain.min() >= floor
    assert gain.max() <= 1.0


def test_wiener_shape_mismatch(cfg16k):
    spec = make_spec(np.ones((512, 50)), cfg16k)
    with pytest.raises(ValueError, match="shape"):
        wiener_gain(spec, np.ones((512, 49)))


def test_wiener_state_must_hold_this_blocks_power(cfg16k):
    rng = np.random.default_rng(4)
    spec = make_spec(rng.standard_normal((512, 200)), cfg16k)
    state = MinStatsState(num_frames=200)
    with pytest.raises(ValueError, match="smoothed power"):
        wiener_gain(spec, np.ones(spec.shape), state=state)
    noise = min_stats_noise_psd(spec, state=state)
    with pytest.raises(ValueError, match="smoothed power"):
        wiener_gain(make_spec(spec.data[:, :150], cfg16k), noise[:, :150], state=state)
    assert np.array_equal(wiener_gain(spec, noise, state=state), wiener_gain(spec, noise))


def test_apply_mask_trivial_cases(cfg16k):
    rng = np.random.default_rng(1)
    data = rng.standard_normal((512, 40)) + 1j * rng.standard_normal((512, 40))
    spec = make_spec(data, cfg16k)
    assert np.array_equal(apply_mask(spec, np.ones((512, 40))).data, data)
    assert np.all(apply_mask(spec, np.zeros((512, 40))).data == 0)
    mask = np.ones((512, 40))
    mask[100, 7] = 0.5
    out = apply_mask(spec, mask).data
    assert out[100, 7] == 0.5 * data[100, 7]
    other = np.ones((512, 40), dtype=bool)
    other[100, 7] = False
    assert np.array_equal(out[other], data[other])


def test_apply_mask_bounds_output(cfg16k):
    rng = np.random.default_rng(2)
    data = rng.standard_normal((512, 30)) + 1j * rng.standard_normal((512, 30))
    mask = rng.uniform(0, 2.0, (512, 30))
    out = apply_mask(make_spec(data, cfg16k), mask)
    assert np.all(np.abs(out.data) <= mask.max() * np.abs(data) + 1e-12)


def test_apply_mask_rejects_bad_masks(cfg16k):
    spec = make_spec(np.ones((512, 10)), cfg16k)
    with pytest.raises(ValueError, match="shape"):
        apply_mask(spec, np.ones((512, 9)))
    with pytest.raises(ValueError, match="nonnegative"):
        apply_mask(spec, -np.ones((512, 10)))


def test_oracle_irm_values(cfg16k):
    clean = make_spec(np.full((512, 20), 3.0), cfg16k)
    zero_noise = make_spec(np.zeros((512, 20)), cfg16k)
    mask = oracle_irm(clean, zero_noise)
    assert np.all(mask >= 1.0 - 1e-6)
    assert np.all(mask < 1.0)

    equal = oracle_irm(clean, make_spec(np.full((512, 20), 3.0), cfg16k))
    assert np.allclose(equal, 1.0 / np.sqrt(2.0), atol=1e-6)

    zero_clean = oracle_irm(make_spec(np.zeros((512, 20)), cfg16k), clean)
    assert np.all(zero_clean == 0.0)


def test_oracle_irm_range(cfg16k):
    rng = np.random.default_rng(3)
    clean = make_spec(rng.standard_normal((512, 30)), cfg16k)
    noise = make_spec(rng.standard_normal((512, 30)), cfg16k)
    mask = oracle_irm(clean, noise)
    assert np.all(mask >= 0.0)
    assert np.all(mask < 1.0)
