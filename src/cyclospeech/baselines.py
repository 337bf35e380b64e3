"""Comparison preprocessors (identity, minimum-statistics Wiener filter) and
the real-valued mask stage, including an oracle ratio mask that stands in for
a learned second stage."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import minimum_filter1d

from .stft import ComplexSpectrogram

__all__ = [
    "NoisePsdEstimate",
    "identity_preproc",
    "min_stats_noise_psd",
    "wiener_gain",
    "apply_mask",
    "oracle_irm",
]

DEFAULT_GAIN_FLOOR = 10.0 ** (-25.0 / 20.0)


@dataclass
class NoisePsdEstimate:
    """Per-bin noise power estimate and the tracker parameters that made it."""

    psd: np.ndarray
    window_sec: float
    smooth_alpha: float
    bias: float

    def __post_init__(self):
        self.psd = np.asarray(self.psd, dtype=np.float64)
        if np.any(self.psd < 0):
            raise ValueError("noise PSD must be nonnegative")


def identity_preproc(x: ComplexSpectrogram) -> ComplexSpectrogram:
    """The trivial preprocessor: pass the spectrogram through unchanged."""
    return x


def _smoothed_power(data: np.ndarray, smooth_alpha: float) -> np.ndarray:
    """First-order recursive smoothing of |x|^2 along frames, seeded with the
    first frame."""
    power = np.abs(data) ** 2
    smoothed = np.empty_like(power)
    smoothed[:, 0] = power[:, 0]
    for l in range(1, power.shape[1]):
        smoothed[:, l] = (
            smooth_alpha * smoothed[:, l - 1] + (1.0 - smooth_alpha) * power[:, l]
        )
    return smoothed


def min_stats_noise_psd(
    noisy: ComplexSpectrogram,
    window_sec: float = 1.5,
    smooth_alpha: float = 0.85,
    bias: float = 1.5,
) -> NoisePsdEstimate:
    """Minimum-statistics noise tracker.

    The smoothed noisy periodogram is tracked per bin and the noise PSD is
    the bias-compensated sliding minimum over a trailing window; the window
    should be long enough to bridge speech activity between pauses.
    """
    if not 0.0 < smooth_alpha < 1.0:
        raise ValueError("smooth_alpha must lie strictly between 0 and 1")
    if bias < 1.0:
        raise ValueError("bias must be at least 1")
    hop_sec = noisy.config.hop / noisy.config.sample_rate
    win_frames = int(round(window_sec / hop_sec))
    if win_frames < 1 or noisy.num_frames < win_frames:
        raise ValueError(
            f"recording of {noisy.num_frames} frames is shorter than the "
            f"{window_sec} s minimum-tracking window ({win_frames} frames)"
        )
    smoothed = _smoothed_power(noisy.data, smooth_alpha)
    # trailing minimum: nearest-edge padding only ever repeats the first
    # frame, which is already inside every early window
    floor = minimum_filter1d(
        smoothed, size=win_frames, axis=1, mode="nearest",
        origin=(win_frames - 1) // 2,
    )
    return NoisePsdEstimate(
        psd=bias * floor, window_sec=window_sec, smooth_alpha=smooth_alpha, bias=bias
    )


def wiener_gain(
    noisy: ComplexSpectrogram,
    noise,
    gain_floor: float = DEFAULT_GAIN_FLOOR,
    smooth_alpha: float = 0.85,
) -> np.ndarray:
    """Spectral-subtraction style Wiener gain G = max(1 - N/P, floor), with P
    the recursively smoothed noisy power (same constant as the tracker)."""
    if not 0.0 < gain_floor < 1.0:
        raise ValueError("gain_floor must lie strictly between 0 and 1")
    noise_psd = noise.psd if isinstance(noise, NoisePsdEstimate) else np.asarray(noise)
    if noise_psd.shape != noisy.shape:
        raise ValueError(
            f"noise PSD shape {noise_psd.shape} does not match "
            f"spectrogram shape {noisy.shape}"
        )
    smoothed = _smoothed_power(noisy.data, smooth_alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 1.0 - noise_psd / smoothed
    gain[~np.isfinite(gain)] = 0.0
    return np.maximum(gain, gain_floor)


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
    clean: ComplexSpectrogram,
    residual_noise: ComplexSpectrogram,
    eps_rel: float = 1e-12,
) -> np.ndarray:
    """Ideal ratio mask sqrt(|C|^2 / (|C|^2 + |N|^2 + eps)), entries in [0, 1).

    ``residual_noise`` is the preprocessed mixture minus the preprocessed
    clean signal, both passed through the identical preprocessor. The small
    eps is relative to the mean clean power so an all-zero noise estimate
    still yields a mask below 1.
    """
    if clean.shape != residual_noise.shape:
        raise ValueError(
            f"shape mismatch: clean {clean.shape} vs noise {residual_noise.shape}"
        )
    cp = np.abs(clean.data) ** 2
    np_ = np.abs(residual_noise.data) ** 2
    eps = eps_rel * max(float(cp.mean()), np.finfo(np.float64).tiny)
    return np.sqrt(cp / (cp + np_ + eps))
