import numpy as np
import pytest

from cyclospeech import (
    AudioBuffer,
    HarmonicNoiseParams,
    MixSpec,
    mix_at_snr,
    spectral_coherence,
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


def test_generated_noise_is_cyclostationary(cfg16k):
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
    "build",
    [
        lambda: HarmonicNoiseParams(f0=NAN),
        lambda: HarmonicNoiseParams(f0=100.0, envelope_rate=NAN),
        lambda: HarmonicNoiseParams(f0=100.0, amplitude_decay=NAN),
        lambda: SynthSettings(f0_range=(NAN, NAN)),
        lambda: SynthSettings(snr_range=(NAN, 0.0)),
        lambda: SynthSettings(encoding="pcm24"),
        lambda: SynthSettings(amplitude_decay=NAN),
    ],
    ids=[
        "f0",
        "envelope_rate",
        "amplitude_decay",
        "f0_range",
        "snr_range",
        "encoding",
        "settings_amplitude_decay",
    ],
)
def test_non_finite_or_unknown_synth_parameters_refused(build):
    with pytest.raises(ValueError):
        build()
