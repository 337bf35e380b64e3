"""Random-harmonic cyclostationary noise generation and SNR-controlled mixing.

The noise model is a sum of harmonics p*f0 whose slowly varying random
envelopes share a common factor:

    a_p = sqrt(corr) * g0 + sqrt(1 - corr) * g_p

with each g a zero-mean, unit-variance low-pass Gaussian process, so the
pairwise envelope correlation equals ``correlation`` exactly. The envelopes
are kept signed (zero mean): rectifying them would leave deterministic
carrier lines at every harmonic, making even correlation = 0 noise strongly
spectrally coherent, which defeats the parameter's purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._fields import check_fields
from .stft import AudioBuffer

__all__ = [
    "HarmonicNoiseParams",
    "MixSpec",
    "synth_harmonic_cs_noise",
    "mix_at_snr",
    "synth_speech_like",
]


@dataclass
class HarmonicNoiseParams:
    f0: float = field(metadata={"admits": "(0, inf)"})
    num_harmonics: int = field(default=10, metadata={"admits": "[1, inf)"})
    correlation: float = field(default=0.9, metadata={"admits": "[0, 1]"})
    envelope_rate: float = field(default=5.0, metadata={"admits": "(0, inf)"})
    amplitude_decay: float = field(default=0.5, metadata={"admits": "(-inf, inf)"})
    seed: int = field(default=0, metadata={"admits": "[0, inf)"})

    def __post_init__(self):
        check_fields(self)


@dataclass
class MixSpec:
    snr_db: float = field(metadata={"admits": "(-inf, inf)"})

    def __post_init__(self):
        check_fields(self)


def _lowpass_gaussian(rng: np.random.Generator, n: int, fs: float, cutoff: float) -> np.ndarray:
    """Zero-mean unit-variance Gaussian process with ~cutoff Hz bandwidth."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    spec *= np.exp(-0.5 * (freqs / cutoff) ** 2)
    g = np.fft.irfft(spec, n)
    std = g.std()
    if std == 0.0:
        raise ValueError("degenerate envelope process (too few samples?)")
    return g / std


def synth_harmonic_cs_noise(
    duration: float, fs: int, params: HarmonicNoiseParams
) -> AudioBuffer:
    """Generate unit-power harmonic noise, deterministic per seed."""
    if params.f0 * params.num_harmonics >= fs / 2:
        raise ValueError(
            f"highest harmonic {params.f0 * params.num_harmonics:.1f} Hz reaches "
            f"the Nyquist frequency {fs / 2} Hz"
        )
    n = round(duration * fs)
    if n <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(params.seed)
    shared = _lowpass_gaussian(rng, n, fs, params.envelope_rate)
    t = np.arange(n) / fs
    w_shared = np.sqrt(params.correlation)
    w_own = np.sqrt(1.0 - params.correlation)
    v = np.zeros(n)
    for p in range(1, params.num_harmonics + 1):
        own = _lowpass_gaussian(rng, n, fs, params.envelope_rate)
        envelope = w_shared * shared + w_own * own
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = p ** (-params.amplitude_decay)
        v += amp * envelope * np.cos(2.0 * np.pi * p * params.f0 * t + phase)
    rms = np.sqrt(np.mean(v**2))
    if rms == 0.0:
        raise ValueError("generated noise has zero power")
    return AudioBuffer(v / rms, fs)


def mix_at_snr(
    speech: AudioBuffer, noise: AudioBuffer, spec: MixSpec
) -> tuple[AudioBuffer, AudioBuffer]:
    """Scale the noise for an exact full-utterance SNR and add it to the speech.

    Returns (mixture, scaled_noise); the speech is left untouched, so
    mixture - scaled_noise == speech sample-wise.
    """
    if len(speech) != len(noise):
        raise ValueError(f"length mismatch: {len(speech)} vs {len(noise)}")
    if speech.sample_rate != noise.sample_rate:
        raise ValueError(
            f"sample-rate mismatch: {speech.sample_rate} vs {noise.sample_rate}"
        )
    p_speech = speech.power()
    p_noise = noise.power()
    if p_speech <= 0.0 or p_noise <= 0.0:
        raise ValueError("speech and noise must both have nonzero power")
    scale = np.sqrt(p_speech / (p_noise * 10.0 ** (spec.snr_db / 10.0)))
    scaled = AudioBuffer(noise.samples * scale, noise.sample_rate)
    mixture = AudioBuffer(speech.samples + scaled.samples, speech.sample_rate)
    return mixture, scaled


def synth_speech_like(duration: float, fs: int, seed: int = 0) -> AudioBuffer:
    """Synthetic speech-like test signal: harmonic voicing with a drifting
    pitch, formant resonances, syllabic amplitude modulation, unvoiced
    bursts, and inter-phrase pauses. RMS of the active part ~0.1.

    Not a replacement for real speech corpora; it exists so that the
    pipeline and its evaluation harness can be exercised self-contained.
    """
    from scipy.signal import lfilter

    n = round(duration * fs)
    if n <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs

    # drifting fundamental, kept well above the machinery-noise f0 range
    f0_base = rng.uniform(150.0, 240.0)
    contour = f0_base * (1.0 + 0.08 * _lowpass_gaussian(rng, n, fs, 2.0))
    contour = np.clip(contour, 80.0, 400.0)
    inst_phase = 2.0 * np.pi * np.cumsum(contour) / fs

    max_harm = int((0.95 * fs / 2) / contour.max())
    source = np.zeros(n)
    for p in range(1, max(2, max_harm) + 1):
        source += (p**-1.0) * np.cos(p * inst_phase + rng.uniform(0, 2 * np.pi))

    # three fixed formant resonators per utterance
    voiced = source
    for lo, hi in ((300.0, 800.0), (900.0, 2200.0), (2300.0, 3000.0)):
        freq = rng.uniform(lo, hi)
        r = 0.97
        b = [1.0 - r]
        a = [1.0, -2.0 * r * np.cos(2.0 * np.pi * freq / fs), r * r]
        voiced = voiced + 1.5 * lfilter(b, a, source)
    voiced /= np.max(np.abs(voiced))

    # syllabic modulation (~4 Hz): realistic 10-20 dB swings within a phrase,
    # never a full dropout; true silence only comes from the phrase gate below
    syllabic = np.maximum(0.5 * _lowpass_gaussian(rng, n, fs, 4.0) + 0.6, 0.08)

    # unvoiced component: band-limited noise with its own slow envelope
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    spec *= np.exp(-0.5 * ((freqs - 3500.0) / 1200.0) ** 2)
    frication = np.fft.irfft(spec, n)
    frication /= np.max(np.abs(frication))
    fric_env = np.maximum(_lowpass_gaussian(rng, n, fs, 3.0) - 0.2, 0.0)

    speech = voiced * syllabic + 0.4 * frication * fric_env

    # explicit inter-phrase pauses so noise trackers see true speech gaps
    gate = np.zeros(n)
    pos = 0
    while pos < n:
        phrase = int(rng.uniform(0.8, 1.4) * fs)
        gap = int(rng.uniform(0.15, 0.3) * fs)
        end = min(pos + phrase, n)
        gate[pos:end] = 1.0
        pos = end + gap
    ramp = int(0.01 * fs)
    if ramp > 1:
        kernel = np.hanning(2 * ramp + 1)
        kernel /= kernel.sum()
        gate = np.convolve(gate, kernel, mode="same")
    speech *= gate

    rms = np.sqrt(np.mean(speech[gate > 0.5] ** 2)) if np.any(gate > 0.5) else 0.0
    if rms == 0.0:
        raise ValueError("generated signal is silent; increase duration")
    return AudioBuffer(0.1 * speech / rms, fs)
