"""STFT analysis/synthesis with an exact constant-overlap-add window pair.

The full two-sided spectrum (``fft_size`` bins) is kept throughout: the
beamformer combines complex-modulated channels, which breaks conjugate
symmetry, so a one-sided representation would need per-bin symmetry
bookkeeping. Real output is recovered by taking the real part after
synthesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def real(self) -> "AudioBuffer":
        return AudioBuffer(np.real(self.samples), self.sample_rate)

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


@dataclass
class StftConfig:
    """Frame geometry and the analysis/synthesis window pair.

    When ``synthesis_window`` is omitted it is derived as the canonical dual
    of the analysis window, so the pair satisfies constant overlap-add with
    unit gain by construction. An explicitly supplied pair is validated
    against COLA_RTOL.
    """

    frame_len: int
    hop: int
    fft_size: int
    window: np.ndarray
    sample_rate: int
    synthesis_window: np.ndarray | None = None

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
        if self.synthesis_window is None:
            dens = self._squared_window_ola()
            if np.any(dens <= 0.0):
                raise ValueError("analysis window has dead overlap-add points")
            self.synthesis_window = self.window / np.tile(
                dens, self.frame_len // self.hop
            )
        else:
            self.synthesis_window = np.asarray(self.synthesis_window, dtype=np.float64)
            if self.synthesis_window.shape != (self.frame_len,):
                raise ValueError("synthesis window length must equal frame_len")
        dev = self.cola_deviation()
        if not dev <= COLA_RTOL:
            raise ValueError(
                f"window pair violates constant overlap-add "
                f"(relative deviation {dev:.3e} > {COLA_RTOL:.0e})"
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

    def ola_gain(self) -> float:
        """The constant the window-product overlap-add sums to (1 for the dual pair)."""
        return float(self._ola_product().mean())

    @property
    def num_bins(self) -> int:
        return self.fft_size

    @property
    def pad(self) -> int:
        return self.frame_len - self.hop

    def num_frames(self, num_samples: int) -> int:
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        return -(-(num_samples + self.pad) // self.hop)

    def bin_frequency(self, k: int) -> float:
        """Center frequency in Hz of bin k of the two-sided spectrum."""
        k = k % self.fft_size
        if k > self.fft_size // 2:
            k -= self.fft_size
        return k * self.sample_rate / self.fft_size


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


@dataclass
class ComplexSpectrogram:
    """K x L grid of complex STFT coefficients plus frame geometry."""

    data: np.ndarray
    config: StftConfig
    num_samples: int | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2:
            raise ValueError("spectrogram data must be 2-D (bins x frames)")
        if self.data.shape[0] != self.config.fft_size:
            raise ValueError(
                f"expected {self.config.fft_size} bins, got {self.data.shape[0]}"
            )
        if self.num_samples is not None:
            expected = self.config.num_frames(self.num_samples)
            if self.data.shape[1] != expected:
                raise ValueError(
                    f"frame count {self.data.shape[1]} inconsistent with "
                    f"{self.num_samples} samples (expected {expected})"
                )

    @property
    def num_bins(self) -> int:
        return self.data.shape[0]

    @property
    def num_frames(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def energy(self) -> float:
        return float(np.sum(np.abs(self.data) ** 2))


def _frame_signal(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Zero-pad the signal and view it as overlapping frames (L x frame_len).

    The result is a read-only strided view of the padded copy, not a gather.
    """
    n = x.shape[0]
    num_frames = cfg.num_frames(n)
    total = (num_frames - 1) * cfg.hop + cfg.frame_len
    padded = np.zeros(total, dtype=x.dtype)
    padded[cfg.pad : cfg.pad + n] = x
    return sliding_window_view(padded, cfg.frame_len)[:: cfg.hop]


def stft(signal: AudioBuffer, cfg: StftConfig) -> ComplexSpectrogram:
    """Analyze a (possibly complex) signal into a two-sided complex spectrogram.

    Column l is the windowed FFT of the padded signal starting at l*hop.
    Deterministic for fixed input.
    """
    if len(signal) == 0:
        raise ValueError("cannot analyze an empty signal")
    if signal.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"signal sample rate {signal.sample_rate} does not match "
            f"config sample rate {cfg.sample_rate}"
        )
    frames = _frame_signal(signal.samples, cfg) * cfg.window
    data = np.fft.fft(frames, n=cfg.fft_size, axis=1).T
    return ComplexSpectrogram(data=data, config=cfg, num_samples=len(signal))


def istft(spec: ComplexSpectrogram) -> AudioBuffer:
    """Weighted overlap-add synthesis.

    Output is complex in general; callers producing audio take the real part.
    When the spectrogram records the original sample count, exactly that many
    samples are returned; otherwise the zero-padding margins are trimmed.
    """
    cfg = spec.config
    dev = cfg.cola_deviation()
    if not dev <= COLA_RTOL:
        raise ValueError(
            f"window pair violates constant overlap-add "
            f"(relative deviation {dev:.3e} > {COLA_RTOL:.0e})"
        )
    num_frames = spec.num_frames
    frames = np.fft.ifft(spec.data.T, axis=1)[:, : cfg.frame_len]
    frames *= cfg.synthesis_window
    total = (num_frames - 1) * cfg.hop + cfg.frame_len
    out = np.zeros(total, dtype=np.complex128)
    for l in range(num_frames):
        start = l * cfg.hop
        out[start : start + cfg.frame_len] += frames[l]
    out /= cfg.ola_gain()
    if spec.num_samples is not None:
        out = out[cfg.pad : cfg.pad + spec.num_samples]
    else:
        out = out[cfg.pad : total - cfg.pad]
    return AudioBuffer(out, cfg.sample_rate)
