import numpy as np
import pytest

from cyclospeech import (
    AudioBuffer,
    HarmonicNoiseParams,
    MixSpec,
    mix_at_snr,
    synth_harmonic_cs_noise,
    synth_speech_like,
    welch_periodogram,
)
from cyclospeech.dataset import SynthSettings

FS = 16000
WELCH_RES = FS / 4096


def test_single_harmonic_peaks_at_f0():
    noise = synth_harmonic_cs_noise(
        8.0, FS, HarmonicNoiseParams(f0=140.0, num_harmonics=1, seed=0)
    )
    freqs, psd = welch_periodogram(noise)
    assert abs(freqs[np.argmax(psd)] - 140.0) <= WELCH_RES


def test_ten_harmonics_peak_locations():
    noise = synth_harmonic_cs_noise(
        8.0, FS, HarmonicNoiseParams(f0=100.0, num_harmonics=10, seed=1)
    )
    freqs, psd = welch_periodogram(noise)
    for p in range(1, 11):
        lo = np.searchsorted(freqs, p * 100.0 - 5 * WELCH_RES)
        hi = np.searchsorted(freqs, p * 100.0 + 5 * WELCH_RES)
        local_peak = freqs[lo + np.argmax(psd[lo:hi])]
        assert abs(local_peak - p * 100.0) <= WELCH_RES


def test_unit_power_and_seed_determinism():
    params = HarmonicNoiseParams(f0=90.0, seed=123)
    a = synth_harmonic_cs_noise(3.0, FS, params)
    b = synth_harmonic_cs_noise(3.0, FS, params)
    c = synth_harmonic_cs_noise(3.0, FS, HarmonicNoiseParams(f0=90.0, seed=124))
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert abs(a.power() - 1.0) <= 1e-12


def test_nyquist_guard():
    with pytest.raises(ValueError, match="Nyquist"):
        synth_harmonic_cs_noise(1.0, FS, HarmonicNoiseParams(f0=900.0, num_harmonics=10))


def test_param_validation():
    with pytest.raises(ValueError):
        HarmonicNoiseParams(f0=-5.0)
    with pytest.raises(ValueError):
        HarmonicNoiseParams(f0=100.0, correlation=1.2)
    with pytest.raises(ValueError):
        HarmonicNoiseParams(f0=100.0, num_harmonics=0)


@pytest.mark.parametrize("count", (2.5, 3.0, True, "3"))
def test_non_integer_num_harmonics_refused(count):
    with pytest.raises(ValueError, match="num_harmonics must be an integer"):
        HarmonicNoiseParams(f0=100.0, num_harmonics=count)
    # through the settings, before synth_dataset could create a directory
    with pytest.raises(ValueError, match="num_harmonics must be an integer"):
        SynthSettings(num_harmonics=count)


def test_integer_num_harmonics_of_any_integer_type_accepted():
    for count in (3, np.int64(3)):
        params = HarmonicNoiseParams(f0=100.0, num_harmonics=count, seed=2)
        assert len(synth_harmonic_cs_noise(0.5, FS, params)) == FS // 2


def test_generated_noise_is_cyclostationary(cfg16k, spectral_coherence):
    # correlated envelopes make the f0 shift coherent; uncorrelated ones do not
    high, low = [], []
    for seed in range(20):
        params = HarmonicNoiseParams(f0=100.0, correlation=0.9, seed=seed)
        noise = synth_harmonic_cs_noise(10.0, FS, params)
        high.append(spectral_coherence(noise, 100.0, cfg16k))
        params0 = HarmonicNoiseParams(f0=100.0, correlation=0.0, seed=seed)
        noise0 = synth_harmonic_cs_noise(10.0, FS, params0)
        low.append(spectral_coherence(noise0, 100.0, cfg16k))
    assert np.mean(high) >= 0.5
    assert np.mean(low) <= 0.15


def test_mix_snr_exact():
    rng = np.random.default_rng(2)
    speech = AudioBuffer(rng.standard_normal(FS), FS)
    noise = AudioBuffer(rng.standard_normal(FS) * 3.0, FS)
    for snr in (0.0, -20.0, 7.3):
        mixture, scaled = mix_at_snr(speech, noise, MixSpec(snr_db=snr))
        measured = 10 * np.log10(speech.power() / scaled.power())
        assert abs(measured - snr) <= 1e-9
        # additivity at float resolution of the dominant component
        atol = 1e-12 * max(np.abs(scaled.samples).max(), np.abs(speech.samples).max())
        assert np.allclose(
            mixture.samples - scaled.samples, speech.samples, rtol=0, atol=atol
        )
    _, scaled0 = mix_at_snr(speech, noise, MixSpec(snr_db=0.0))
    assert abs(scaled0.power() - speech.power()) <= 1e-10 * speech.power()
    _, scaled20 = mix_at_snr(speech, noise, MixSpec(snr_db=-20.0))
    assert abs(scaled20.power() - 100.0 * speech.power()) <= 1e-8 * scaled20.power()


def test_mix_rejects_degenerate_inputs():
    speech = AudioBuffer(np.ones(100), FS)
    with pytest.raises(ValueError, match="length"):
        mix_at_snr(speech, AudioBuffer(np.ones(50), FS), MixSpec(snr_db=0.0))
    with pytest.raises(ValueError, match="nonzero power"):
        mix_at_snr(speech, AudioBuffer(np.zeros(100), FS), MixSpec(snr_db=0.0))


def test_speech_like_signal_properties():
    a = synth_speech_like(4.0, FS, seed=5)
    b = synth_speech_like(4.0, FS, seed=5)
    assert np.array_equal(a.samples, b.samples)
    assert len(a) == 4 * FS
    # contains actual pauses: some 50 ms stretches are near-silent
    frames = a.samples[: len(a) // 800 * 800].reshape(-1, 800)
    frame_rms = np.sqrt(np.mean(frames**2, axis=1))
    assert frame_rms.min() < 0.01 * frame_rms.max()


NAN = float("nan")


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: HarmonicNoiseParams(f0=NAN), "f0"),
        (lambda: HarmonicNoiseParams(f0=100.0, envelope_rate=NAN), "envelope_rate"),
        (lambda: HarmonicNoiseParams(f0=100.0, amplitude_decay=NAN), "amplitude_decay"),
        (lambda: SynthSettings(f0_range=(NAN, NAN)), "f0_range"),
        (lambda: SynthSettings(snr_range=(NAN, 0.0)), "snr_range"),
        (lambda: SynthSettings(encoding="pcm24"), "encoding"),
        (lambda: SynthSettings(amplitude_decay=NAN), "amplitude_decay"),
        (lambda: HarmonicNoiseParams(f0=True), "f0"),
        (lambda: HarmonicNoiseParams(f0=100.0, correlation=True), "correlation"),
        (lambda: MixSpec(snr_db=True), "snr_db"),
        (lambda: MixSpec(snr_db="0"), "snr_db"),
    ],
    ids=[
        "f0",
        "envelope_rate",
        "amplitude_decay",
        "f0_range",
        "snr_range",
        "encoding",
        "settings_amplitude_decay",
        "f0_bool",
        "correlation_bool",
        "snr_db_bool",
        "snr_db_string",
    ],
)
def test_non_finite_or_unknown_synth_parameters_refused(build, name):
    with pytest.raises(ValueError, match=name):
        build()
