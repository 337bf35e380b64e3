"""Random-harmonic cyclostationary noise generation and SNR-controlled mixing.

The noise model is a sum of harmonics p*f0 whose slowly varying random
envelopes share a common factor:

    a_p = sqrt(corr) * g0 + sqrt(1 - corr) * g_p

with each g a zero-mean, unit-variance low-pass Gaussian process, so the
pairwise envelope correlation equals ``correlation`` exactly. The envelopes
are kept signed (zero mean): rectifying them would leave deterministic
carrier lines at every harmonic, making even correlation = 0 noise strongly
spectrally coherent, which defeats the parameter's purpose.

Both generators hold about 4-5x their output while they run: every step
works in place on a few signal-length arrays, and each elementwise loop runs
over fixed-size chunks of one scratch buffer. The chunk length leaves every
output bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._fields import check_fields
from .stft import AudioBuffer, next_fast_len

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


# Samples per step of the elementwise loops: their temporaries live in one
# scratch buffer of this length, not in arrays as long as the signal. Any
# value gives the same samples bit for bit.
_CHUNK = 1 << 14


def _chunks(n: int):
    """(lo, hi) bounds of consecutive ``_CHUNK``-sample steps over ``n``."""
    return ((lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK))


def _max_abs(x: np.ndarray) -> float:
    return max(np.max(np.abs(x[lo:hi])) for lo, hi in _chunks(len(x)))


def _gaussian_noise(
    rng: np.random.Generator, fs: float, center: float, width: float, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with white Gaussian noise weighted in frequency by
    exp(-0.5 ((f - center) / width)^2), and return it."""
    n = len(out)
    rng.standard_normal(out=out)
    spec = np.fft.rfft(out)
    step = 1.0 / (n * (1.0 / fs))  # the bin spacing, as np.fft.rfftfreq(n, 1 / fs)
    for lo, hi in _chunks(len(spec)):
        x = np.arange(lo, hi) * step
        x -= center
        x /= width
        x **= 2
        x *= -0.5
        spec[lo:hi] *= np.exp(x, out=x)
    return np.fft.irfft(spec, n, out=out)


def _lowpass_gaussian(
    rng: np.random.Generator, fs: float, cutoff: float, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with a zero-mean unit-variance Gaussian process with
    ~cutoff Hz bandwidth, and return it."""
    std = _gaussian_noise(rng, fs, 0.0, cutoff, out).std()
    if std == 0.0:
        raise ValueError("degenerate envelope process (too few samples?)")
    out /= std
    return out


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
    shared = _lowpass_gaussian(rng, fs, params.envelope_rate, np.empty(n))
    shared *= np.sqrt(params.correlation)
    w_own = np.sqrt(1.0 - params.correlation)
    own = np.empty(n)
    v = np.zeros(n)
    scratch = np.empty(min(_CHUNK, n))
    for p in range(1, params.num_harmonics + 1):
        _lowpass_gaussian(rng, fs, params.envelope_rate, own)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = p ** (-params.amplitude_decay)
        omega = 2.0 * np.pi * p * params.f0
        # own becomes amp * envelope
        own *= w_own
        own += shared
        own *= amp
        for lo, hi in _chunks(n):
            x = np.divide(np.arange(lo, hi), fs, out=scratch[: hi - lo])
            x *= omega
            x += phase
            x = np.cos(x, out=x)
            x *= own[lo:hi]
            v[lo:hi] += x
    del shared, own
    rms = np.sqrt(np.mean(v**2))
    if rms == 0.0:
        raise ValueError("generated noise has zero power")
    v /= rms
    return AudioBuffer(v, fs)


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


# Formant pole radius, and zero padding of the formant filtering: the
# resonators' impulse responses fall by 0.97^2048 (about 1e-27) within it,
# so the circular convolution is the linear one.
_FORMANT_R = 0.97
_FORMANT_PAD = 2048


def _add_formants(source: np.ndarray, fs: float, freqs) -> np.ndarray:
    """``source`` plus 1.5 times its output through each two-pole resonator
    (1 - r) / (1 + a1 z^-1 + a2 z^-2), a1 = -2 r cos(2 pi f / fs), a2 = r^2,
    r = 0.97: all of them at once, as one product with the source's
    zero-padded spectrum.

    The product is formed in real arithmetic: numpy rounds a complex product
    differently in its vector loops and on a single element, which would tie
    the samples to the chunk length.
    """
    n = len(source)
    nfft = next_fast_len(n + _FORMANT_PAD)
    spec = np.fft.rfft(source, nfft)
    r = _FORMANT_R
    a1s = [-2.0 * r * np.cos(2.0 * np.pi * f / fs) for f in freqs]
    for lo, hi in _chunks(len(spec)):
        theta = np.arange(lo, hi) * (2.0 * np.pi / nfft)  # z^-1 = cos - i sin
        c1, s1 = np.cos(theta), np.sin(theta)
        c2, s2 = c1 * c1 - s1 * s1, 2.0 * (s1 * c1)  # of 2 theta, for z^-2
        # the summed gain g of the resonators: 1 / (dr - i di) = (dr + i di) / |.|^2
        g_re, g_im = np.zeros(hi - lo), np.zeros(hi - lo)
        for a1 in a1s:
            dr = 1.0 + a1 * c1 + r * r * c2
            di = a1 * s1 + r * r * s2
            w = (1.0 - r) / (dr * dr + di * di)
            g_re += dr * w
            g_im += di * w
        m_re, m_im = 1.0 + 1.5 * g_re, 1.5 * g_im
        s_re, s_im = spec.real[lo:hi].copy(), spec.imag[lo:hi]
        spec.real[lo:hi] = s_re * m_re - s_im * m_im
        spec.imag[lo:hi] = s_re * m_im + s_im * m_re
    return np.fft.irfft(spec, nfft)[:n]


def synth_speech_like(duration: float, fs: int, seed: int = 0) -> AudioBuffer:
    """Synthetic speech-like test signal: harmonic voicing with a drifting
    pitch, formant resonances, syllabic amplitude modulation, unvoiced
    bursts, and inter-phrase pauses. RMS of the active part ~0.1.

    Not a replacement for real speech corpora; it exists so that the
    pipeline and its evaluation harness can be exercised self-contained.
    """
    n = round(duration * fs)
    if n <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)
    scratch = np.empty(min(_CHUNK, n))

    # drifting fundamental, kept well above the machinery-noise f0 range
    f0_base = rng.uniform(150.0, 240.0)
    inst_phase = _lowpass_gaussian(rng, fs, 2.0, np.empty(n))
    # the pitch contour, then its running phase
    inst_phase *= 0.08
    inst_phase += 1.0
    inst_phase *= f0_base
    np.clip(inst_phase, 80.0, 400.0, out=inst_phase)
    max_harm = int((0.95 * fs / 2) / inst_phase.max())
    np.cumsum(inst_phase, out=inst_phase)
    inst_phase *= 2.0 * np.pi
    inst_phase /= fs

    source = np.zeros(n)
    for p in range(1, max(2, max_harm) + 1):
        phase = rng.uniform(0, 2 * np.pi)
        for lo, hi in _chunks(n):
            x = np.multiply(inst_phase[lo:hi], p, out=scratch[: hi - lo])
            x += phase
            x = np.cos(x, out=x)
            x *= p**-1.0
            source[lo:hi] += x
    del inst_phase

    # three fixed formant resonators per utterance
    freqs = [rng.uniform(*band) for band in ((300.0, 800.0), (900.0, 2200.0), (2300.0, 3000.0))]
    voiced = _add_formants(source, fs, freqs)
    del source
    voiced /= _max_abs(voiced)

    # syllabic modulation (~4 Hz): realistic 10-20 dB swings within a phrase,
    # never a full dropout; true silence only comes from the phrase gate below
    syllabic = _lowpass_gaussian(rng, fs, 4.0, np.empty(n))
    syllabic *= 0.5
    syllabic += 0.6
    np.maximum(syllabic, 0.08, out=syllabic)
    speech = voiced  # becomes voiced * syllabic + 0.4 * frication * fric_env
    speech *= syllabic
    del syllabic

    # unvoiced component: band-limited noise with its own slow envelope
    frication = _gaussian_noise(rng, fs, 3500.0, 1200.0, np.empty(n))
    frication /= _max_abs(frication)
    frication *= 0.4
    fric_env = _lowpass_gaussian(rng, fs, 3.0, np.empty(n))
    fric_env -= 0.2
    np.maximum(fric_env, 0.0, out=fric_env)
    fric_env *= frication
    speech += fric_env
    del frication, fric_env

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
    active = gate > 0.5
    del gate

    rms = np.sqrt(np.mean(speech[active] ** 2)) if np.any(active) else 0.0
    if rms == 0.0:
        raise ValueError("generated signal is silent; increase duration")
    speech *= 0.1
    speech /= rms
    return AudioBuffer(speech, fs)
