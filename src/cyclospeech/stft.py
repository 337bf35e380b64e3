"""STFT analysis/synthesis with an exact constant-overlap-add window pair.

The full two-sided spectrum (``fft_size`` bins) is kept throughout: the
beamformer combines complex-modulated channels, which breaks conjugate
symmetry, so a one-sided representation would need per-bin symmetry
bookkeeping. Synthesis into a real array keeps each frame's real part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "AudioBuffer",
    "StftConfig",
    "ComplexSpectrogram",
    "default_stft_config",
    "stft",
    "istft",
]

# Maximum tolerated relative deviation of the overlap-added window product
# from a constant.
COLA_RTOL = 1e-10


@dataclass
class AudioBuffer:
    """A mono sampled waveform; samples may be real or complex."""

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
        self.sample_rate = int(self.sample_rate)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate

    def power(self) -> float:
        return float(np.mean(np.abs(self.samples) ** 2)) if len(self) else 0.0

    def require_finite(self, what: str = "signal") -> None:
        """Raise ``ValueError`` naming the first NaN or infinite sample."""
        finite = np.isfinite(self.samples)
        if not finite.all():
            first = int(np.argmin(finite))
            raise ValueError(
                f"{what} has a non-finite sample ({self.samples[first]}) "
                f"at index {first}"
            )


def periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@dataclass(eq=False)
class StftConfig:
    """Frame geometry and the analysis/synthesis window pair.

    The synthesis window is derived as the canonical dual of the analysis
    window, so the pair satisfies constant overlap-add with unit gain by
    construction; the pair is still checked against COLA_RTOL. Two configs
    are equal when their scalar fields and analysis windows are; the derived
    synthesis window is not compared.
    """

    frame_len: int
    hop: int
    fft_size: int
    window: np.ndarray
    sample_rate: int
    synthesis_window: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if min(self.frame_len, self.hop, self.fft_size) <= 0:
            raise ValueError("frame_len, hop and fft_size must be positive")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.frame_len > self.fft_size:
            raise ValueError(
                f"frame_len {self.frame_len} exceeds fft_size {self.fft_size}"
            )
        if self.frame_len % self.hop != 0:
            raise ValueError(f"hop {self.hop} must divide frame_len {self.frame_len}")
        self.window = np.asarray(self.window, dtype=np.float64)
        if self.window.shape != (self.frame_len,):
            raise ValueError("analysis window length must equal frame_len")
        dens = self._squared_window_ola()
        if np.any(dens <= 0.0):
            raise ValueError("analysis window has dead overlap-add points")
        self.synthesis_window = self.window / np.tile(dens, self.frame_len // self.hop)
        dev = self.cola_deviation()
        if not dev <= COLA_RTOL:
            raise ValueError(
                f"window pair violates constant overlap-add "
                f"(relative deviation {dev:.3e} > {COLA_RTOL:.0e})"
            )

    def __eq__(self, other):
        if not isinstance(other, StftConfig):
            return NotImplemented
        return (
            (self.frame_len, self.hop, self.fft_size, self.sample_rate)
            == (other.frame_len, other.hop, other.fft_size, other.sample_rate)
            and np.array_equal(self.window, other.window)
        )

    def _squared_window_ola(self) -> np.ndarray:
        # hop-periodic sum of the squared analysis window across overlapping
        # frames; length hop
        return (self.window.reshape(-1, self.hop) ** 2).sum(axis=0)

    def _ola_product(self) -> np.ndarray:
        prod = self.window * self.synthesis_window
        return prod.reshape(-1, self.hop).sum(axis=0)

    def cola_deviation(self) -> float:
        """Relative deviation of the overlap-added window product from constant."""
        ola = self._ola_product()
        mean = float(ola.mean())
        if mean == 0.0:
            return math.inf
        return float(np.max(np.abs(ola - mean)) / abs(mean))

    @property
    def pad(self) -> int:
        return self.frame_len - self.hop

    def num_frames(self, num_samples: int) -> int:
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        return -(-(num_samples + self.pad) // self.hop)

    def frame_span(self, first: int, stop: int, num_samples: int) -> tuple[int, int]:
        """The samples [lo, hi) of a ``num_samples``-long signal that frames
        ``first``..``stop - 1`` of its STFT read; frame l reads samples
        l*hop - pad .. l*hop + hop - 1, zero outside the signal."""
        return max(first * self.hop - self.pad, 0), min(stop * self.hop, num_samples)


def default_stft_config(sample_rate: int = 16000) -> StftConfig:
    """32 ms frames, 8 ms hop, square-root periodic Hann pair.

    The hop is 8 ms rounded to whole samples and the frame is four hops, so
    the hop divides the frame at every rate (1412/353 at 44.1 kHz). The FFT
    size is the next power of two at or above the frame length (512 points
    at 16 kHz).
    """
    hop = round(0.008 * sample_rate)
    frame_len = 4 * hop
    return StftConfig(
        frame_len=frame_len,
        hop=hop,
        fft_size=1 << (frame_len - 1).bit_length(),
        window=np.sqrt(periodic_hann(frame_len)),
        sample_rate=sample_rate,
    )


@dataclass(eq=False)
class ComplexSpectrogram:
    """K x L grid of complex STFT coefficients plus frame geometry.

    Compared by identity: compare ``data`` with numpy instead."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2:
            raise ValueError("spectrogram data must be 2-D (bins x frames)")
        if self.data.shape[0] != self.config.fft_size:
            raise ValueError(
                f"expected {self.config.fft_size} bins, got {self.data.shape[0]}"
            )

    @property
    def num_frames(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def _frame_signal(
    x: np.ndarray, cfg: StftConfig, first: int = 0, count: int | None = None
) -> np.ndarray:
    """Zero-pad the signal and view it as overlapping frames (L x frame_len).

    With ``first``, ``x`` holds the samples that frames ``first``.. read (see
    ``StftConfig.frame_span``) and ``count`` frames are framed. The result is
    a read-only strided view of the padded copy, not a gather.
    """
    if count is None:
        count = cfg.num_frames(x.shape[0])
    begin = first * cfg.hop - cfg.pad  # sample index of the first frame's start
    padded = np.zeros((count - 1) * cfg.hop + cfg.frame_len, dtype=x.dtype)
    lead = max(-begin, 0)
    padded[lead : lead + x.shape[0]] = x
    return sliding_window_view(padded, cfg.frame_len)[:: cfg.hop]


def stft(
    signal: AudioBuffer,
    cfg: StftConfig,
    frames: tuple[int, int] | None = None,
    out: np.ndarray | None = None,
) -> ComplexSpectrogram:
    """Analyze a (possibly complex) signal into a two-sided complex spectrogram.

    Column l is the windowed FFT of the padded signal starting at l*hop.
    With ``frames=(first, stop)`` only those columns are computed, and
    ``signal`` holds just the samples they read, ``cfg.frame_span(first,
    stop, n)`` of the n-sample signal; the columns equal the same columns of
    the whole signal's STFT bit for bit. ``out``, a (frames, fft_size)
    complex128 array, receives the FFTs frame-major; the result's ``data`` is
    its transpose. Deterministic for fixed input.
    """
    if len(signal) == 0:
        raise ValueError("cannot analyze an empty signal")
    if signal.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"signal sample rate {signal.sample_rate} does not match "
            f"config sample rate {cfg.sample_rate}"
        )
    if frames is None:
        first, count = 0, cfg.num_frames(len(signal))
    else:
        first, count = frames[0], frames[1] - frames[0]
        if first < 0 or count <= 0:
            raise ValueError(f"frame range {frames} is empty or negative")
    # window into one (L, fft_size) buffer with a zero tail and transform it
    # in place: a single allocation for the whole spectrogram
    buf = np.empty((count, cfg.fft_size), dtype=np.complex128) if out is None else out
    if buf.shape != (count, cfg.fft_size) or buf.dtype != np.complex128:
        raise ValueError(f"out must be a ({count}, {cfg.fft_size}) complex128 array")
    frame_view = _frame_signal(signal.samples, cfg, first, count)
    np.multiply(frame_view, cfg.window, out=buf[:, : cfg.frame_len])
    buf[:, cfg.frame_len :] = 0.0
    np.fft.fft(buf, axis=1, out=buf)
    return ComplexSpectrogram(data=buf.T, config=cfg)


def istft(spec: ComplexSpectrogram, out: np.ndarray, first_frame: int = 0) -> None:
    """Weighted overlap-add synthesis into ``out``.

    ``out`` holds the samples of the whole signal and ``spec`` its STFT's
    frames ``first_frame``..; the frames are overlap-added into ``out``,
    their real part when ``out`` is real, complex when it is complex. From
    zeros, one call on the whole spectrogram, or calls on consecutive frame
    blocks in order, leave the same samples bit for bit.
    """
    cfg = spec.config
    dev = cfg.cola_deviation()
    if not dev <= COLA_RTOL:
        raise ValueError(
            f"window pair violates constant overlap-add "
            f"(relative deviation {dev:.3e} > {COLA_RTOL:.0e})"
        )
    frames = np.fft.ifft(spec.data.T, axis=1)[:, : cfg.frame_len]
    frames *= cfg.synthesis_window
    if not np.iscomplexobj(out):
        frames = frames.real
    begin = first_frame * cfg.hop - cfg.pad  # where the first frame starts
    for i, frame in enumerate(frames):
        start = begin + i * cfg.hop
        lo, hi = max(start, 0), min(start + cfg.frame_len, len(out))
        out[lo:hi] += frame[lo - start : hi - start]
