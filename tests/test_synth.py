import tracemalloc

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import lfilter

import cyclospeech.synth
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


def _whole_signal_lowpass(rng, n, fs, cutoff):
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    spec *= np.exp(-0.5 * (np.fft.rfftfreq(n, 1.0 / fs) / cutoff) ** 2)
    g = np.fft.irfft(spec, n)
    return g / g.std()


def _whole_signal_noise(duration, fs, params):
    """The harmonic noise, one signal-length array per step."""
    n = round(duration * fs)
    rng = np.random.default_rng(params.seed)
    shared = _whole_signal_lowpass(rng, n, fs, params.envelope_rate)
    t = np.arange(n) / fs
    v = np.zeros(n)
    for p in range(1, params.num_harmonics + 1):
        own = _whole_signal_lowpass(rng, n, fs, params.envelope_rate)
        envelope = np.sqrt(params.correlation) * shared + np.sqrt(1.0 - params.correlation) * own
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = p ** (-params.amplitude_decay)
        v += amp * envelope * np.cos(2.0 * np.pi * p * params.f0 * t + phase)
    return v / np.sqrt(np.mean(v**2))


def _whole_signal_speech(duration, fs, seed):
    """The speech-like signal, one signal-length array per step."""
    n = round(duration * fs)
    rng = np.random.default_rng(seed)
    f0_base = rng.uniform(150.0, 240.0)
    contour = f0_base * (1.0 + 0.08 * _whole_signal_lowpass(rng, n, fs, 2.0))
    contour = np.clip(contour, 80.0, 400.0)
    inst_phase = 2.0 * np.pi * np.cumsum(contour) / fs
    source = np.zeros(n)
    for p in range(1, max(2, int((0.95 * fs / 2) / contour.max())) + 1):
        source += (p**-1.0) * np.cos(p * inst_phase + rng.uniform(0, 2 * np.pi))
    # the three formant resonators, applied on the whole zero-padded spectrum
    freqs = [rng.uniform(lo, hi) for lo, hi in ((300.0, 800.0), (900.0, 2200.0), (2300.0, 3000.0))]
    nfft = next_fast_len(n + 2048)
    theta = np.arange(nfft // 2 + 1) * (2.0 * np.pi / nfft)
    c1, s1 = np.cos(theta), np.sin(theta)
    g_re, g_im = np.zeros_like(theta), np.zeros_like(theta)
    for f in freqs:
        a1 = -2.0 * 0.97 * np.cos(2.0 * np.pi * f / fs)
        dr = 1.0 + a1 * c1 + 0.97 * 0.97 * (c1 * c1 - s1 * s1)
        di = a1 * s1 + 0.97 * 0.97 * (2.0 * (s1 * c1))
        w = (1.0 - 0.97) / (dr * dr + di * di)
        g_re, g_im = g_re + dr * w, g_im + di * w
    spec = np.fft.rfft(source, nfft)
    m_re, m_im = 1.0 + 1.5 * g_re, 1.5 * g_im
    spec.real, spec.imag = spec.real * m_re - spec.imag * m_im, spec.real * m_im + spec.imag * m_re
    voiced = np.fft.irfft(spec, nfft)[:n]
    voiced /= np.max(np.abs(voiced))
    syllabic = np.maximum(0.5 * _whole_signal_lowpass(rng, n, fs, 4.0) + 0.6, 0.08)
    spec = np.fft.rfft(rng.standard_normal(n))
    spec *= np.exp(-0.5 * ((np.fft.rfftfreq(n, 1.0 / fs) - 3500.0) / 1200.0) ** 2)
    frication = np.fft.irfft(spec, n)
    frication /= np.max(np.abs(frication))
    fric_env = np.maximum(_whole_signal_lowpass(rng, n, fs, 3.0) - 0.2, 0.0)
    speech = voiced * syllabic + 0.4 * frication * fric_env
    gate = np.zeros(n)
    pos = 0
    while pos < n:
        phrase = int(rng.uniform(0.8, 1.4) * fs)
        gap = int(rng.uniform(0.15, 0.3) * fs)
        gate[pos : min(pos + phrase, n)] = 1.0
        pos = min(pos + phrase, n) + gap
    kernel = np.hanning(2 * int(0.01 * fs) + 1)
    gate = np.convolve(gate, kernel / kernel.sum(), mode="same")
    speech *= gate
    return 0.1 * speech / np.sqrt(np.mean(speech[gate > 0.5] ** 2))


NOISE_PARAMS = (
    HarmonicNoiseParams(f0=97.0, seed=3),
    HarmonicNoiseParams(
        f0=60.0, num_harmonics=3, correlation=0.0, envelope_rate=2.0, amplitude_decay=0.0, seed=4
    ),
)


@pytest.mark.parametrize("fs, seconds", [(8000, 2.9), (16000, 2.3), (44100, 1.1)])
def test_generators_equal_their_whole_signal_references(fs, seconds):
    # every length exceeds the default chunk, so the chunked loops run
    got = synth_speech_like(seconds, fs, seed=2).samples
    assert np.array_equal(got, _whole_signal_speech(seconds, fs, 2))
    for params in NOISE_PARAMS:
        got = synth_harmonic_cs_noise(seconds, fs, params).samples
        assert np.array_equal(got, _whole_signal_noise(seconds, fs, params)), params


def _generate(fs, n):
    return (
        synth_speech_like(n / fs, fs, seed=6).samples,
        synth_harmonic_cs_noise(n / fs, fs, HarmonicNoiseParams(f0=97.0, seed=7)).samples,
    )


@pytest.mark.parametrize("fs", (8000, 16000, 44100))
def test_output_does_not_depend_on_the_chunk_length(fs, monkeypatch):
    # 4803 samples (2402 rfft bins): a multiple of none of the chunks
    n = 4803
    ref = _generate(fs, n)
    for chunk in (1, 7, 4096, n + 1):
        monkeypatch.setattr(cyclospeech.synth, "_CHUNK", chunk)
        for got, want in zip(_generate(fs, n), ref):
            assert len(got) == n
            assert np.array_equal(got, want), chunk


@pytest.mark.parametrize(
    "generate",
    [
        lambda seconds: synth_speech_like(seconds, FS, seed=8),
        lambda seconds: synth_harmonic_cs_noise(seconds, FS, HarmonicNoiseParams(f0=97.0, seed=9)),
    ],
    ids=("speech", "noise"),
)
def test_generator_working_memory_is_a_few_outputs(generate):
    # whole-signal temporaries held 14x (speech) and 9.5x (noise) the output
    generate(0.5)  # first-call imports stay out
    tracemalloc.start()
    try:
        out = generate(20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * out.samples.nbytes, peak / out.samples.nbytes
