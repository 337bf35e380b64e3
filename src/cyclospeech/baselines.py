"""Comparison preprocessor (minimum-statistics Wiener filter) and the
real-valued mask stage, including an oracle ratio mask that stands in for a
learned second stage."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .stft import AudioBuffer, ComplexSpectrogram, StftConfig

__all__ = [
    "MinStatsState",
    "min_stats_noise_psd",
    "wiener_gain",
    "apply_mask",
    "oracle_irm",
    "oracle_eps",
]

# Floor of the oracle mask's denominator, relative to the mean clean power.
IRM_EPS_REL = 1e-12

# The minimum-statistics Wiener filter, a comparison preprocessor only: its
# trailing minimum window, the smoothing factor of the noisy power, the bias
# compensation of the minimum, and the gain floor (-25 dB).
_MS_WINDOW_SEC = 1.5
_MS_ALPHA = 0.85
_MS_BIAS = 1.5
_GAIN_FLOOR = 10.0 ** (-25.0 / 20.0)


def _smoothed_power(data: np.ndarray, seed: np.ndarray | None = None) -> np.ndarray:
    """First-order recursive smoothing of |x|^2 along frames, seeded with the
    first frame, or continuing from ``seed``, the smoothed power of the frame
    before ``data``."""
    power = np.abs(data) ** 2
    smoothed = np.empty_like(power)
    if seed is None:
        smoothed[0] = power[0]
    else:
        smoothed[0] = _MS_ALPHA * seed + (1.0 - _MS_ALPHA) * power[0]
    for l in range(1, power.shape[0]):
        smoothed[l] = _MS_ALPHA * smoothed[l - 1] + (1.0 - _MS_ALPHA) * power[l]
    return smoothed


@dataclass
class MinStatsState:
    """What the minimum-statistics tracker carries from one block of frames
    of a recording to the next: the trailing smoothed power its minimum
    reads. Over consecutive blocks, in order, ``min_stats_noise_psd(block,
    state=state)`` gives the whole recording's values bit for bit.
    """

    num_frames: int  # frames of the whole recording
    tail: np.ndarray | None = None  # trailing smoothed frames the minimum reads, (m, K)


def min_stats_noise_psd(
    noisy: ComplexSpectrogram, state: MinStatsState | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-statistics noise tracker; returns the (L, K) noise PSD and the
    smoothed noisy power it was tracked on.

    The smoothed noisy periodogram is tracked per bin and the noise PSD is
    the bias-compensated sliding minimum over a trailing window of
    ``_MS_WINDOW_SEC``, long enough to bridge speech activity between
    pauses. With ``state``, ``noisy`` is the next block of frames of a
    recording of ``state.num_frames`` frames.
    """
    hop_sec = noisy.config.hop / noisy.config.sample_rate
    win_frames = int(round(_MS_WINDOW_SEC / hop_sec))
    total = noisy.num_frames if state is None else state.num_frames
    if total < win_frames:
        raise ValueError(
            f"recording of {total} frames is shorter than the "
            f"{_MS_WINDOW_SEC} s minimum-tracking window ({win_frames} frames)"
        )
    tail = None if state is None else state.tail
    block = _smoothed_power(noisy.data, None if tail is None else tail[-1])
    smoothed = block if tail is None else np.concatenate([tail, block])
    floor = _trailing_min(smoothed, win_frames, noisy.num_frames)
    if state is not None:
        # the next block's minimum reads up to win_frames - 1 frames back,
        # and its recursion continues from the last one
        state.tail = smoothed[-max(win_frames - 1, 1) :].copy()
    return _MS_BIAS * floor, block


def _trailing_min(x: np.ndarray, width: int, count: int) -> np.ndarray:
    """The minimum over each of the last ``count`` rows of ``x`` and the
    ``width - 1`` rows before it, rows before the first read as the first.

    Minima of 2, 4, 8, ... rows are formed by doubling, and a window of any
    width is the minimum of two overlapping power-of-two windows. A minimum
    never rounds, so this equals any other exact sliding minimum.
    """
    lead = len(x) - count - (width - 1)  # the first row the windows read
    m = x[lead:] if lead >= 0 else np.concatenate([np.repeat(x[:1], -lead, axis=0), x])
    span = 1
    while 2 * span <= width:
        m = np.minimum(m[:-span], m[span:])
        span *= 2
    return np.minimum(m[:count], m[width - span : width - span + count])


def wiener_gain(smoothed: np.ndarray, noise_psd: np.ndarray) -> np.ndarray:
    """Spectral-subtraction style Wiener gain G = max(1 - N/P, floor), with P
    the smoothed noisy power that ``min_stats_noise_psd`` returns beside N."""
    noise_psd = np.asarray(noise_psd)
    if noise_psd.shape != smoothed.shape:
        raise ValueError(
            f"noise PSD shape {noise_psd.shape} does not match "
            f"smoothed power shape {smoothed.shape}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 1.0 - noise_psd / smoothed
    gain[~np.isfinite(gain)] = 0.0
    return np.maximum(gain, _GAIN_FLOOR)


def apply_mask(y: ComplexSpectrogram, mask: np.ndarray) -> ComplexSpectrogram:
    """Element-wise product of a real-valued gain mask with the spectrogram."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != y.shape:
        raise ValueError(
            f"mask shape {mask.shape} does not match spectrogram shape {y.shape}"
        )
    if np.any(mask < 0):
        raise ValueError("mask gains must be nonnegative")
    return replace(y, data=mask * y.data)


def oracle_irm(
    clean: ComplexSpectrogram, residual_noise: ComplexSpectrogram, eps: float
) -> np.ndarray:
    """Ideal ratio mask sqrt(|C|^2 / (|C|^2 + |N|^2 + eps)), entries in [0, 1).

    ``residual_noise`` is the preprocessed mixture minus the preprocessed
    clean signal, both passed through the identical preprocessor. The small
    positive eps (``oracle_eps``) keeps an all-zero noise estimate's mask
    below 1.
    """
    if clean.shape != residual_noise.shape:
        raise ValueError(
            f"shape mismatch: clean {clean.shape} vs noise {residual_noise.shape}"
        )
    cp = np.abs(clean.data) ** 2
    np_ = np.abs(residual_noise.data) ** 2
    return np.sqrt(cp / (cp + np_ + eps))


def oracle_eps(clean: AudioBuffer, cfg: StftConfig) -> float:
    """The oracle mask's eps from the clean signal itself: ``IRM_EPS_REL``
    times the mean power of its STFT coefficients, which is the signal power
    times the window energy (Parseval), known before any frame is analysed."""
    power = clean.power() * float(np.sum(cfg.window**2))
    return IRM_EPS_REL * max(power, np.finfo(np.float64).tiny)
