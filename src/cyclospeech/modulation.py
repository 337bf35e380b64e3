"""The channel stack of frequency-shifted signal copies, each shift applied
by the analysis window inside ``stft`` so that off-grid shifts are realized
exactly.

Sign convention: a shift alpha analyses x * exp(+j*2*pi*alpha*n/fs), so
content originally at frequency f appears at f + alpha, and bin k of the
shifted spectrogram reads the input spectrum at (bin k) - alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import AudioBuffer, StftConfig, _check_shift, _phasor, stft

__all__ = ["ModulationSet", "AugmentedSpectrogram", "modulate", "build_augmented"]


@dataclass
class ModulationSet:
    """Ordered frequency shifts in Hz; the zero shift always comes first."""

    shifts: tuple[float, ...]

    def __post_init__(self):
        shifts = tuple(float(s) for s in self.shifts)
        if not shifts:
            raise ValueError("modulation set must contain at least the zero shift")
        if shifts[0] != 0.0:
            raise ValueError("first shift must be 0 Hz")
        if not all(np.isfinite(shifts)):
            raise ValueError("shifts must be finite")
        if len(set(shifts)) != len(shifts):
            raise ValueError("shifts must be distinct")
        self.shifts = shifts

    def __len__(self) -> int:
        return len(self.shifts)


def modulate(signal: AudioBuffer, alpha: float) -> AudioBuffer:
    """Multiply by exp(+j*2*pi*alpha*n/fs), the direct form: the product
    that ``stft(signal, cfg, shift=alpha)`` analyses without forming."""
    alpha = _check_shift(alpha, signal.sample_rate)
    n = np.arange(len(signal))
    return AudioBuffer(signal.samples * _phasor(alpha, n, signal.sample_rate), signal.sample_rate)


@dataclass(eq=False)
class AugmentedSpectrogram:
    """C-channel stack of spectrograms of frequency-shifted signal copies.

    Channel 0 is the plain STFT of the unmodulated input; channel c is the
    STFT of the input modulated by ``modset.shifts[c]``. Compared by
    identity, like ``ComplexSpectrogram``.
    """

    channels: np.ndarray  # (C, L, K) complex: channels x frames x bins
    modset: ModulationSet
    config: StftConfig

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.complex128)
        if self.channels.ndim != 3:
            raise ValueError("channels must be 3-D (channels x frames x bins)")
        if self.channels.shape[0] != len(self.modset):
            raise ValueError(
                f"{self.channels.shape[0]} channels do not match "
                f"{len(self.modset)} shifts"
            )
        if self.channels.shape[2] != self.config.fft_size:
            raise ValueError("bin count does not match fft_size")


def build_augmented(
    signal: AudioBuffer,
    modset: ModulationSet,
    cfg: StftConfig,
    frames: tuple[int, int] | None = None,
    out: np.ndarray | None = None,
) -> AugmentedSpectrogram:
    """Stack the STFTs of shifted signal copies, one channel per shift.

    With ``frames=(first, stop)`` only those frames are built, and the stack
    equals the same frames of the whole-signal stack bit for bit. The
    (C, L, K) stack is allocated once, or is ``out``, a (C, L, K) complex128
    array, and each channel's FFT is computed in its slot.
    """
    first, stop = (0, cfg.num_frames(len(signal))) if frames is None else frames
    shape = (len(modset), stop - first, cfg.fft_size)
    stack = np.empty(shape, dtype=np.complex128) if out is None else out
    if stack.shape != shape or stack.dtype != np.complex128:
        raise ValueError(f"out must be a {shape} complex128 array")
    for slot, alpha in zip(stack, modset.shifts):
        stft(signal, cfg, (first, stop), out=slot, shift=alpha)
    return AugmentedSpectrogram(channels=stack, modset=modset, config=cfg)
