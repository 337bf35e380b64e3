"""STFT analysis/synthesis with an exact constant-overlap-add window pair.

The full two-sided spectrum (``fft_size`` bins) is kept throughout: the
beamformer combines complex-modulated channels, which breaks conjugate
symmetry, so a one-sided representation would need per-bin symmetry
bookkeeping. Synthesis into a real array keeps each frame's real part.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "AudioBuffer",
    "StftConfig",
    "ComplexSpectrogram",
    "stft",
    "istft",
]


@dataclass
class AudioBuffer:
    """A mono sampled waveform; samples may be real or complex, the rate is
    a positive integer in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        data = np.asarray(self.samples)
        if data.ndim != 1:
            raise ValueError(f"expected mono 1-D samples, got shape {data.shape}")
        if np.iscomplexobj(data):
            data = data.astype(np.complex128, copy=False)
        else:
            data = data.astype(np.float64, copy=False)
        self.samples = data
        self.sample_rate = int(_integral_rate(self.sample_rate))
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate

    def power(self) -> float:
        """Mean of |x|^2, with one temporary as long as the signal."""
        if not len(self):
            return 0.0
        magnitude = np.abs(self.samples)
        return float(np.mean(np.square(magnitude, out=magnitude)))

    def require_finite(self, what: str = "signal") -> None:
        """Raise ``ValueError`` naming the first NaN or infinite sample."""
        finite = np.isfinite(self.samples)
        if not finite.all():
            first = int(np.argmin(finite))
            raise ValueError(
                f"{what} has a non-finite sample ({self.samples[first]}) "
                f"at index {first}"
            )


def _unit_peak(x: np.ndarray) -> np.ndarray:
    """``x`` divided by the power of two of its peak magnitude, which is
    exact: the peak lands in [0.5, 1), far from over- and underflow, and
    ``x`` scaled by any power of two that keeps it normal gives the same
    array. An all-zero or non-finite ``x`` comes back unchanged."""
    _, exponent = np.frexp(np.max(np.abs(x)))
    if not np.iscomplexobj(x):
        return np.ldexp(x, -exponent)
    out = np.empty_like(x)
    np.ldexp(x.real, -exponent, out=out.real)
    np.ldexp(x.imag, -exponent, out=out.imag)
    return out


def _integral_rate(rate):
    """``rate``, refused unless an integer (a numpy one too), not a bool."""
    if isinstance(rate, bool) or not isinstance(rate, numbers.Integral):
        raise ValueError(f"sample rate must be an integer, got {rate!r}")
    return rate


def periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c 7^d 11^e at or above ``n`` >= 1: a complex
    FFT length pocketfft transforms quickly (``scipy.fft.next_fast_len``)."""
    best = 1 << (n - 1).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:  # p3 times the least power of two reaching n
                    best = min(best, p3 << (-(-n // p3) - 1).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


@dataclass(frozen=True)
class StftConfig:
    """The analysis geometry at ``sample_rate``: 32 ms frames, 8 ms hop,
    square-root periodic Hann pair.

    The hop is 8 ms rounded to whole samples and the frame is four hops, so
    the hop divides the frame at every rate (1412/353 at 44.1 kHz). The FFT
    size is the next power of two at or above the frame length (512 points
    at 16 kHz). The synthesis window is the canonical dual of the analysis
    window, so the pair overlap-adds to one by construction. The rate is an
    integer of at least 63 Hz. Immutable, its windows read-only; two configs
    are equal when their rates are.
    """

    sample_rate: int

    def __post_init__(self):
        _integral_rate(self.sample_rate)
        if self.hop <= 0:
            raise ValueError(
                f"rate {self.sample_rate} Hz is below 63 Hz, where the 8 ms "
                f"hop rounds to no sample"
            )

    @cached_property
    def hop(self) -> int:
        return round(0.008 * self.sample_rate)

    @cached_property
    def frame_len(self) -> int:
        return 4 * self.hop

    @cached_property
    def fft_size(self) -> int:
        return 1 << (self.frame_len - 1).bit_length()

    @cached_property
    def window(self) -> np.ndarray:
        window = np.sqrt(periodic_hann(self.frame_len))
        window.flags.writeable = False
        return window

    @cached_property
    def synthesis_window(self) -> np.ndarray:
        # the analysis window over the hop-periodic sum of its square across
        # overlapping frames
        dens = (self.window.reshape(-1, self.hop) ** 2).sum(axis=0)
        window = self.window / np.tile(dens, self.frame_len // self.hop)
        window.flags.writeable = False
        return window

    @property
    def pad(self) -> int:
        return self.frame_len - self.hop

    def num_frames(self, num_samples: int) -> int:
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        return -(-(num_samples + self.pad) // self.hop)


@dataclass(eq=False)
class ComplexSpectrogram:
    """Frames x bins grid of complex STFT coefficients plus frame geometry.

    Compared by identity: compare ``data`` with numpy instead."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2:
            raise ValueError("spectrogram data must be 2-D (frames x bins)")
        if self.data.shape[1] != self.config.fft_size:
            raise ValueError(
                f"expected {self.config.fft_size} bins, got {self.data.shape[1]}"
            )

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def _check_shift(shift: float, sample_rate: int) -> float:
    """``shift`` in Hz as a float; ``ValueError`` unless it is finite and
    below the Nyquist frequency in magnitude."""
    shift = float(shift)
    if not abs(shift) < sample_rate / 2:  # NaN compares False too
        raise ValueError(
            f"shift {shift} Hz is not a finite frequency below the Nyquist "
            f"frequency {sample_rate / 2} Hz"
        )
    return shift


def _phasor(shift: float, n: np.ndarray, sample_rate: int) -> np.ndarray:
    """exp(+j*2*pi*shift*n/fs) at the sample indices ``n``."""
    return np.exp(2j * np.pi * shift * n / sample_rate)


def _frame_signal(
    x: np.ndarray, cfg: StftConfig, first: int = 0, count: int | None = None
) -> np.ndarray:
    """View ``count`` frames of the zero-padded signal from frame ``first``
    on (count x frame_len); by default every frame.

    The result is a read-only strided view of a zero-padded copy of just the
    samples those frames read, not a gather.
    """
    if count is None:
        count = cfg.num_frames(x.shape[0])
    begin = first * cfg.hop - cfg.pad  # sample index of the first frame's start
    padded = np.zeros((count - 1) * cfg.hop + cfg.frame_len, dtype=x.dtype)
    lo, hi = max(begin, 0), min(begin + len(padded), x.shape[0])
    if lo < hi:
        padded[lo - begin : hi - begin] = x[lo:hi]
    return sliding_window_view(padded, cfg.frame_len)[:: cfg.hop]


def stft(
    signal: AudioBuffer,
    cfg: StftConfig,
    frames: tuple[int, int] | None = None,
    out: np.ndarray | None = None,
    shift: float = 0.0,
) -> ComplexSpectrogram:
    """Analyze a (possibly complex) signal into a two-sided complex spectrogram.

    Row l is the windowed FFT of the padded signal starting at sample
    s_l = l*hop - pad. With ``frames=(first, stop)`` only those rows of the
    whole signal's STFT are computed; each row is computed from its own
    samples and index alone, so it equals the same row of the whole STFT bit
    for bit. ``out``, a (frames, fft_size) complex128 array, receives the
    FFTs and becomes the result's ``data``. Deterministic for fixed input.

    ``shift`` (Hz, finite, below Nyquist in magnitude) analyses
    signal * exp(+j*2*pi*shift*n/fs) without forming that product: each frame
    is windowed by window * exp(+j*2*pi*shift*m/fs), m = 0..frame_len - 1,
    and row l is multiplied by exp(+j*2*pi*shift*s_l/fs) after its FFT.
    Content at f then appears at f + shift. The zero shift is the plain STFT.
    """
    if len(signal) == 0:
        raise ValueError("cannot analyze an empty signal")
    if signal.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"signal sample rate {signal.sample_rate} does not match "
            f"config sample rate {cfg.sample_rate}"
        )
    shift = _check_shift(shift, cfg.sample_rate)
    if frames is None:
        first, count = 0, cfg.num_frames(len(signal))
    else:
        first, count = frames[0], frames[1] - frames[0]
        if first < 0 or count <= 0 or frames[1] > cfg.num_frames(len(signal)):
            raise ValueError(
                f"frame range {frames} is empty or outside the signal's "
                f"{cfg.num_frames(len(signal))} frames"
            )
    # window into one buffer with a zero tail and transform it in place: a
    # single allocation for the whole spectrogram
    buf = np.empty((count, cfg.fft_size), dtype=np.complex128) if out is None else out
    if buf.shape != (count, cfg.fft_size) or buf.dtype != np.complex128:
        raise ValueError(f"out must be a ({count}, {cfg.fft_size}) complex128 array")
    window = cfg.window
    if shift:
        window = window * _phasor(shift, np.arange(cfg.frame_len), cfg.sample_rate)
    frame_view = _frame_signal(signal.samples, cfg, first, count)
    np.multiply(frame_view, window, out=buf[:, : cfg.frame_len])
    buf[:, cfg.frame_len :] = 0.0
    np.fft.fft(buf, axis=1, out=buf)
    if shift:
        starts = np.arange(first, first + count) * cfg.hop - cfg.pad
        buf *= _phasor(shift, starts, cfg.sample_rate)[:, None]
    return ComplexSpectrogram(data=buf, config=cfg)


def istft(spec: ComplexSpectrogram, out: np.ndarray, first_frame: int = 0) -> None:
    """Weighted overlap-add synthesis into ``out``, with the config's
    synthesis window, which pairs with the analysis window to overlap-add
    to one by construction (the config cannot be changed after it).

    ``out`` holds the samples of the whole signal and ``spec`` its STFT's
    frames ``first_frame``..; the frames are overlap-added into ``out``,
    their real part when ``out`` is real, complex when it is complex. From
    zeros, one call on the whole spectrogram, or calls on consecutive frame
    blocks in order, leave the same samples bit for bit.
    """
    cfg = spec.config
    frames = np.fft.ifft(spec.data, axis=1)[:, : cfg.frame_len]
    frames *= cfg.synthesis_window
    if not np.iscomplexobj(out):
        frames = frames.real
    _overlap_add(frames, cfg.hop, out, first_frame * cfg.hop - cfg.pad)


def _overlap_add(frames: np.ndarray, hop: int, out: np.ndarray, begin: int) -> None:
    """Add frame i of ``frames`` (L x r*hop) into ``out`` at ``begin + i*hop``, clipped,
    by r hop-wide slice-adds, the last first: each sample sums its frames in frame order."""
    for q in reversed(range(frames.shape[1] // hop)):
        start = begin + q * hop
        lo, hi = max(start, 0), min(start + len(frames) * hop, len(out))
        if lo < hi:
            out[lo:hi] += frames[:, q * hop : (q + 1) * hop].reshape(-1)[lo - start : hi - start]
