"""Frequency shifting by time-domain complex modulation, applied before STFT
analysis so that off-grid shifts are realized exactly.

Sign convention: ``modulate(x, alpha)`` multiplies by exp(+j*2*pi*alpha*n/fs),
so content originally at frequency f appears at f + alpha, and bin k of the
modulated spectrogram reads the input spectrum at (bin k) - alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import AudioBuffer, StftConfig, stft

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

    def validate_for_rate(self, sample_rate: int) -> None:
        for s in self.shifts:
            if abs(s) >= sample_rate / 2:
                raise ValueError(
                    f"shift {s} Hz is not below the Nyquist frequency "
                    f"{sample_rate / 2} Hz"
                )


# Samples per block of the two-level rotator in ``modulate``.
ROTATOR_BLOCK = 1024


def modulate(signal: AudioBuffer, alpha: float, start: int = 0) -> AudioBuffer:
    """Multiply by a complex exponential of frequency ``alpha`` Hz.

    The rotator exp(j*2*pi*alpha*n/fs) is built without a full-length
    ``exp``: sample n = b*B + j gets exp(j*theta(b*B)) * exp(j*theta(j)), one
    short ``exp`` per block start and one over the B in-block offsets
    (B = ``ROTATOR_BLOCK``), joined by an outer product. alpha = 0 is
    bit-exact (every factor is exactly 1). Otherwise each sample is within
    8*eps*(1 + 2*pi*|alpha|*n/fs) of the direct full-length form; that form
    itself carries the phase rounding eps*2*pi*|alpha|*n/fs, so the two
    agree to the accuracy either has.

    ``signal`` may be a segment of a longer signal that starts at its sample
    ``start``: n is then the index in the longer signal, and the segment
    gets the same bits as that signal's modulation has there.
    """
    alpha = float(alpha)
    fs = signal.sample_rate
    if abs(alpha) >= fs / 2:
        raise ValueError(
            f"shift {alpha} Hz is not below the Nyquist frequency {fs / 2} Hz"
        )
    n = len(signal)
    first = start // ROTATOR_BLOCK  # block holding the segment's first sample
    starts = np.arange(first, -(-(start + n) // ROTATOR_BLOCK)) * ROTATOR_BLOCK
    # offsets past the segment's last sample are never read
    block = max(1, min(ROTATOR_BLOCK, start + n - first * ROTATOR_BLOCK))
    rotator = np.empty((len(starts), block), dtype=np.complex128)
    np.multiply.outer(
        np.exp(2j * np.pi * alpha * starts / fs),
        np.exp(2j * np.pi * alpha * np.arange(block) / fs),
        out=rotator,
    )
    skip = start - first * ROTATOR_BLOCK
    rotator = rotator.reshape(-1)[skip : skip + n]
    rotator *= signal.samples
    return AudioBuffer(rotator, fs)


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
    """Stack the STFTs of modulated signal copies, one channel per shift.

    With ``frames=(first, stop)`` only those frames are built: each shift
    modulates just the samples they read, at their index in ``signal``, and
    the stack equals the same frames of the whole-signal stack bit for bit.
    The (C, L, K) stack is allocated once, or is ``out``, a (C, L, K)
    complex128 array, and each channel's FFT is computed in its slot.
    """
    modset.validate_for_rate(signal.sample_rate)
    n = len(signal)
    first, stop = (0, cfg.num_frames(n)) if frames is None else frames
    lo, hi = cfg.frame_span(first, stop, n)
    segment = AudioBuffer(signal.samples[lo:hi], signal.sample_rate)
    shape = (len(modset), stop - first, cfg.fft_size)
    stack = np.empty(shape, dtype=np.complex128) if out is None else out
    if stack.shape != shape or stack.dtype != np.complex128:
        raise ValueError(f"out must be a {shape} complex128 array")
    for slot, alpha in zip(stack, modset.shifts):
        # the zero shift modulates bit-exactly to a complex copy, so channel 0
        # is the plain STFT without numpy casting a real frame matrix to
        # complex next to the stack
        stft(modulate(segment, alpha, start=lo), cfg, frames=(first, stop), out=slot)
    return AugmentedSpectrogram(channels=stack, modset=modset, config=cfg)
