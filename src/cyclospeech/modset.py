"""Modulation-set estimation from a noisy recording.

Pipeline: Welch periodogram -> top peaks -> pairwise peak differences as
candidate shifts -> sub-bin refinement of each candidate -> keep candidates
whose frequency-shifted spectrogram is coherent with the unshifted one. The
estimate is global per recording; the noise resonances are assumed stable
over its duration.

The refinement step is essential: the coherence of a shifted copy falls off
with shift error at roughly 1/duration (a 0.1 Hz error halves it on a 10 s
recording), which is orders of magnitude finer than any practical
periodogram grid. A residual shift error delta makes every per-frame
cross-product rotate at exactly delta Hz, so delta is recovered as the peak
of the cross products' zero-padded DFT along frames (grid step at most
0.01 Hz), searched within one periodogram bin of the coarse candidate. Only
the DFT points inside that window are computed, by a chirp-z transform
(Rabiner, Schafer & Rader, 1969) planned once per recording: about 6 % of
the padded grid, at a cost set by frames + window points rather than the
padded length. Its values match the full padded FFT to about 1e-11
relative; points within ``SHIFT_TIE_RTOL`` of the peak count as tied and
resolve as exact ties do on the full grid (zero offset first, then positive,
then negative offsets), so a zero or flat spectrum returns the coarse
candidate.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .modulation import ModulationSet
from .stft import AudioBuffer, StftConfig, _unit_peak, next_fast_len, stft

# Unused here; the traced benchmark wraps this module attribute.
from .modulation import modulate  # noqa: F401

__all__ = [
    "PeakList",
    "CoherenceReport",
    "welch_periodogram",
    "pick_peaks",
    "candidate_modulations",
    "estimate_modulation_set_detailed",
]

logger = logging.getLogger(__name__)

# Fraction of bins (ranked by energy support) the coherence statistic
# averages over.
COHERENCE_BIN_FRACTION = 0.10
# Hard cap on candidates scored per recording; candidates are kept by merged
# peak-power weight.
MAX_CANDIDATES = 64
# Periodogram peaks must stand this far above the median PSD.
PEAK_THRESHOLD_DB = 10.0
# Shortest recording the estimator accepts.
MIN_DURATION_SEC = 2.0
# Relative distance from the refinement spectrum's peak within which points
# count as tied; far above the chirp-z rounding (about 1e-11 relative).
SHIFT_TIE_RTOL = 1e-9
# The estimator's fixed settings, the defaults of the functions below.
PEAK_COUNT = 20  # periodogram peaks kept
COHERENCE_THRESHOLD = 0.3  # a candidate's coherence to be accepted
MAX_SHIFTS = 5  # in the set, zero included
WELCH_SEG = 4096  # samples: a 3.9 Hz grid at 16 kHz
WELCH_OVERLAP = 0.5


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Threads one estimate may score candidates on. The candidates are independent
# and their FFT and ufunc work releases the GIL, so an idle CPU is a helper;
# eval's pool workers lower this to their share of the CPUs.
_thread_budget = _usable_cpus()


def _set_thread_budget(threads: int) -> None:
    global _thread_budget
    _thread_budget = threads


@dataclass
class PeakList:
    """Periodogram peaks, frequency-sorted."""

    frequencies: np.ndarray
    powers: np.ndarray
    resolution_hz: float

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=np.float64)
        self.powers = np.asarray(self.powers, dtype=np.float64)
        if self.frequencies.shape != self.powers.shape:
            raise ValueError("frequencies and powers must have the same length")
        if len(self.frequencies) > 1 and np.any(np.diff(self.frequencies) <= 0):
            raise ValueError("peak frequencies must be strictly increasing")
        if np.any(self.powers <= 0):
            raise ValueError("peak powers must be positive")
        if self.resolution_hz <= 0:
            raise ValueError("resolution_hz must be positive")

    def __len__(self) -> int:
        return len(self.frequencies)


@dataclass
class CoherenceReport:
    candidate_hz: float  # after sub-bin refinement
    coherence: float
    accepted: bool
    coarse_hz: float = float("nan")  # the raw pairwise-difference candidate


def welch_periodogram(
    signal: AudioBuffer, seg_len: int = WELCH_SEG, overlap: float = WELCH_OVERLAP
) -> tuple[np.ndarray, np.ndarray]:
    """Welch PSD with Hann segments; returns (frequencies, psd).

    Grid resolution is sample_rate / seg_len; ``seg_len`` must be at least 2,
    so the grid has the two points ``pick_peaks`` reads its step from.
    Raises ``ValueError`` on a NaN or infinite sample, naming its index.
    """
    signal.require_finite()
    if seg_len < 2:
        raise ValueError(f"seg_len must be >= 2, got {seg_len}")
    if len(signal) < seg_len:
        raise ValueError(
            f"signal of {len(signal)} samples is shorter than one segment ({seg_len})"
        )
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must lie in [0, 1)")
    fs = signal.sample_rate
    noverlap = int(seg_len * overlap)
    hop = seg_len - noverlap
    # scipy.signal.welch's arithmetic, step for step, so the PSD is the same
    # to the last bit: its periodic Hann, scaled by 1 / sqrt(sum(w^2) * fs)
    # with the squares summed in order; the mean over segments taken on a
    # C-contiguous (bins, segments) array
    window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, seg_len + 1))[:-1]
    window *= 1 / np.sqrt(sum(window**2) / (1 / fs))
    count = (len(signal) - noverlap) // hop
    segments = sliding_window_view(np.real(signal.samples), seg_len)[: count * hop : hop]
    spec = np.fft.rfft(segments * window, axis=-1)
    power = np.ascontiguousarray((spec.real**2 + spec.imag**2).T)
    power[1 : -1 if seg_len % 2 == 0 else None] *= 2  # the one-sided fold
    return np.fft.rfftfreq(seg_len, 1 / fs), power.mean(axis=-1)


def pick_peaks(freqs: np.ndarray, psd: np.ndarray, max_peaks: int = PEAK_COUNT) -> PeakList:
    """Local PSD maxima at least ``PEAK_THRESHOLD_DB`` above the median and
    above the PSD's rounding level, strongest ``max_peaks`` kept, returned
    frequency-sorted: the peaks of ``scipy.signal.find_peaks`` with that
    height and a distance of 2 bins. ``freqs`` and ``psd`` are 1-D, of one
    length of at least 2 points.

    The rounding level is the PSD's maximum times its length times the
    machine epsilon. A noise-free input (a constant, a pure tone) has a
    median made of rounding noise, and would otherwise find peaks in it."""
    if max_peaks < 1:
        raise ValueError("max_peaks must be at least 1")
    freqs = np.asarray(freqs, dtype=np.float64)
    psd = np.asarray(psd, dtype=np.float64)
    if freqs.ndim != 1 or freqs.shape != psd.shape or len(freqs) < 2:
        raise ValueError(
            f"freqs and psd must be 1-D grids of one length of at least 2 "
            f"points, got shapes {freqs.shape} and {psd.shape}"
        )
    resolution = float(freqs[1] - freqs[0])
    floor = max(
        float(np.median(psd)) * 10.0 ** (PEAK_THRESHOLD_DB / 10.0),
        float(psd.max()) * len(psd) * np.finfo(np.float64).eps,
    )
    if floor <= 0.0:
        return PeakList(np.empty(0), np.empty(0), resolution)
    # local maxima: runs of equal values above both neighbours, at the run's
    # (lower) midpoint; two such are always at least two bins apart
    starts = np.flatnonzero(np.concatenate(([True], psd[1:] != psd[:-1])))
    ends = np.append(starts[1:], len(psd)) - 1
    inner = (starts > 0) & (ends < len(psd) - 1)
    starts, ends = starts[inner], ends[inner]
    rising = psd[starts - 1] < psd[starts]
    falling = psd[ends + 1] < psd[ends]
    idx = (starts + ends)[rising & falling] // 2
    idx = idx[psd[idx] >= floor]
    if len(idx) > max_peaks:
        idx = idx[np.argsort(psd[idx])[::-1][:max_peaks]]
        idx = np.sort(idx)
    return PeakList(freqs[idx], psd[idx], resolution)


def candidate_modulations(peaks: PeakList) -> list[float]:
    """Positive pairwise peak differences, merged within one grid bin.

    Differences closer than the grid resolution are merged to their
    power-weighted mean (weight = geometric mean of the pair powers). When
    more than ``MAX_CANDIDATES`` survive, the heaviest are kept. Returned
    ascending.

    The weights are formed on the powers divided by the power of two of
    their maximum. That is exact, as is the square root of a product scaled
    by 2^-2e, so it changes no merged frequency and no ranking, and the pair
    products cannot overflow at any input scale.
    """
    m = len(peaks)
    if m < 2:
        return []
    powers = _unit_peak(peaks.powers)
    diffs = []
    for j in range(1, m):
        for i in range(j):
            delta = peaks.frequencies[j] - peaks.frequencies[i]
            weight = float(np.sqrt(powers[i] * powers[j]))
            diffs.append((delta, weight))
    diffs.sort()
    merged: list[tuple[float, float]] = []
    cur_freqs, cur_weights = [diffs[0][0]], [diffs[0][1]]
    tol = peaks.resolution_hz
    for delta, weight in diffs[1:]:
        if delta - cur_freqs[-1] <= tol:
            cur_freqs.append(delta)
            cur_weights.append(weight)
        else:
            merged.append(
                (float(np.average(cur_freqs, weights=cur_weights)), sum(cur_weights))
            )
            cur_freqs, cur_weights = [delta], [weight]
    merged.append((float(np.average(cur_freqs, weights=cur_weights)), sum(cur_weights)))
    if len(merged) > MAX_CANDIDATES:
        merged.sort(key=lambda fw: fw[1], reverse=True)
        merged = merged[:MAX_CANDIDATES]
    return sorted(f for f, _ in merged)


def _frames(x: np.ndarray) -> np.ndarray:
    """The (frames, 2 * bins) float64 view of a (frames, bins) complex
    spectrogram, real and imaginary parts interleaved; a view of a
    C-contiguous spectrogram, a copy of any other."""
    return np.ascontiguousarray(x).view(np.float64)


def _column_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # one contiguous pass over the frames, no temporaries; each column is
    # accumulated frame by frame, so its sum does not depend on the others
    return np.einsum("lk,lk->k", a, b)


def _real_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sums = _column_sums(a, b)
    return sums[0::2] + sums[1::2]  # re*re + im*im, per bin


def _bin_cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-bin sum over frames of x * conj(y), for (frames, bins) spectrograms.

    The real part is ``_real_cross``, the expression behind ``_bin_energy``
    too: ``abs`` rounds through ``hypot`` and would disagree with the cross
    term in the last bit, so sharing one expression makes the cross term of a
    spectrogram with itself equal its energy exactly. Its imaginary part is
    then exactly 0, the difference of two sums of the same products.
    """
    a, b = _frames(x), _frames(y)
    cross = np.empty(a.shape[1] // 2, dtype=np.complex128)
    cross.real = _real_cross(a, b)
    cross.imag = _column_sums(a[:, 1::2], b[:, 0::2]) - _column_sums(
        a[:, 0::2], b[:, 1::2]
    )
    return cross


def _bin_energy(x: np.ndarray) -> np.ndarray:
    frames = _frames(x)
    return _real_cross(frames, frames)


def _top_support_bins(
    e_base: np.ndarray, e_shift: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and energy products of the best-supported bins, strongest
    first."""
    support = e_base * e_shift
    num_bins = max(1, round(COHERENCE_BIN_FRACTION * len(support)))
    top = np.argsort(support)[::-1][:num_bins]
    return top, support[top]


def _coherence_between(
    base: np.ndarray, e_base: np.ndarray, shifted: np.ndarray
) -> float:
    """Energy-weighted average of per-bin coherence over the best-supported
    bins.

    Per bin: |sum_l x * conj(x_shifted)| / sqrt(sum |x|^2 * sum |x_shifted|^2).
    Bins are ranked and weighted by the product of the two channel energies,
    so only bins where both channels carry signal contribute; window-leakage
    bins near a spectral line are dominated by the line itself. ``e_base`` is
    ``_bin_energy(base)``, passed in so a caller scoring many shifts against
    one base computes it once.

    The cross term is formed on those bins only. Energies and cross term go
    through ``_bin_cross``, whose per-bin sums do not depend on which other
    bins are summed alongside, so when ``shifted`` is ``base`` every per-bin
    ratio is e / sqrt(e * e), which IEEE arithmetic rounds to exactly 1
    barring overflow and underflow. Otherwise the result lies in [0, 1] up to
    rounding.
    """
    e_shift = _bin_energy(shifted)
    total = float(np.sum(e_base))
    if total <= 0.0:
        raise ValueError("zero-energy signal has no defined coherence")
    top, weights = _top_support_bins(e_base, e_shift)
    valid = weights > 0.0
    if not np.any(valid):
        return 0.0
    top, weights = top[valid], weights[valid]
    cross = np.abs(_bin_cross(base[:, top], shifted[:, top]))
    return float(np.average(cross / np.sqrt(weights), weights=weights))


class _ShiftSearch:
    """The in-window points of the frame-rate DFT that ``_refine_shift``
    searches: a chirp-z plan for one frame count and search window.

    The grid is that of a zero-padded FFT of ``nfft`` points (the smallest
    power of two with a step of at most 0.01 Hz and at least twice the frame
    count); only the points with ``|fftfreq| <= search_hz`` are evaluated.
    """

    def __init__(self, n_frames: int, cfg: StftConfig, search_hz: float):
        frame_rate = cfg.sample_rate / cfg.hop
        nfft = 1
        while nfft < max(2 * n_frames, frame_rate / 0.01):
            nfft *= 2
        deltas = np.fft.fftfreq(nfft, d=1.0 / frame_rate)
        picked = np.flatnonzero(np.abs(deltas) <= search_hz)  # fftfreq order
        signed = np.where(picked < (nfft + 1) // 2, picked, picked - nfft)
        lo = int(signed.min())
        width = int(signed.max()) - lo + 1
        self.deltas = deltas[picked]
        self._order = signed - lo
        # the chirp-z plan of scipy.signal.ZoomFFT(n_frames, [lo, lo + width],
        # width, fs=nfft), built with its expressions so its values are
        # ZoomFFT's to the last bit: points lo, lo + 1, ... of the nfft grid
        n, m = n_frames, width
        k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
        wk2 = np.exp(-(1j * np.pi * (width / nfft) * k**2) / m)
        self._awk2 = np.exp(-2j * np.pi * lo / nfft * k[:n]) * wk2[:n]
        self._nfft = next_fast_len(n + m - 1)
        self._fwk2 = np.fft.fft(1 / np.hstack((wk2[n - 1 : 0 : -1], wk2[:m])), self._nfft)
        self._wk2 = wk2[:m]
        self._points = slice(n - 1, n + m - 1)

    def _chirp_z(self, products: np.ndarray) -> np.ndarray:
        """The (points, bins) chirp-z transform of the columns of
        ``products``, in ZoomFFT's operation and memory order."""
        x = products.T
        y = np.fft.ifft(self._fwk2 * np.fft.fft(x * self._awk2, self._nfft))
        return (y[..., self._points] * self._wk2).T

    def best_offset(self, products: np.ndarray) -> float:
        """Offset in Hz of the peak of the summed magnitude spectra of the
        columns of ``products`` (frames x bins).

        Points within ``SHIFT_TIE_RTOL`` of the peak count as tied and the
        first in fftfreq order wins: where the full padded FFT ties exactly
        (a zero or flat spectrum) the chirp-z values differ by rounding only.
        """
        spectrum = np.abs(self._chirp_z(products)).sum(axis=1)[self._order]
        tied = spectrum >= spectrum.max() * (1.0 - SHIFT_TIE_RTOL)
        return float(self.deltas[np.argmax(tied)])


def _refine_shift(
    base: np.ndarray,
    e_base: np.ndarray,
    signal: AudioBuffer,
    alpha: float,
    cfg: StftConfig,
    search: _ShiftSearch,
    out: np.ndarray | None = None,
) -> float:
    """Correct a coarse candidate shift by the rotation frequency of the
    per-frame cross products, searched over ``search``'s window. ``out`` is
    an STFT buffer (see ``stft``), free again on return."""
    shifted = stft(signal, cfg, out=out, shift=alpha).data
    top, _ = _top_support_bins(e_base, _bin_energy(shifted))
    # rotates at (true - alpha) Hz
    products = base[:, top] * np.conj(shifted[:, top])
    return alpha + search.best_offset(products)


def _in_threads(score, candidates: list[float], buffer_shape) -> list[CoherenceReport]:
    """``score(candidate, buffer)`` for every candidate, in candidate order.

    Candidates are dealt out by stride over n = min(candidates, budget)
    threads: the calling thread scores every n-th one itself and n - 1
    helpers, joined before return, score the rest. Each thread reuses one
    complex128 STFT buffer of ``buffer_shape``. A report depends on its
    candidate only, so the reports are the same for any n.
    """
    n = min(len(candidates), _thread_budget)
    buffers = [np.empty(buffer_shape, dtype=np.complex128) for _ in range(n)]

    def share(first: int) -> list[CoherenceReport]:
        return [score(cand, buffers[first]) for cand in candidates[first::n]]

    # at n = 1 nothing is submitted, so the pool starts no thread
    with ThreadPoolExecutor(max_workers=max(n - 1, 1)) as pool:
        helpers = [pool.submit(share, first) for first in range(1, n)]
        shares = [share(0)] + [h.result() for h in helpers]
    return [shares[i % n][i // n] for i in range(len(candidates))]


def estimate_modulation_set_detailed(
    signal: AudioBuffer,
    cfg: StftConfig,
    peak_count: int = PEAK_COUNT,
    coherence_threshold: float = COHERENCE_THRESHOLD,
    max_shifts: int = MAX_SHIFTS,
    seg_len: int = WELCH_SEG,
    overlap: float = WELCH_OVERLAP,
) -> tuple[ModulationSet, list[CoherenceReport]]:
    """Estimate the modulation set and report per-candidate coherence; the
    settings default to the module constants, which every pipeline uses.

    Shifts below one STFT bin are rejected: a copy shifted by less than the
    analysis resolution still overlaps the unshifted content bin-for-bin, so
    its coherence is trivially high. The smallest surviving shift is always
    kept: it is the fundamental of the dominant harmonic family, and pairs
    every noise harmonic with its direct neighbour; the remaining slots are
    filled by coherence rank.

    Candidates are scored on as many threads as there are usable CPUs
    (``eval``'s pool workers use their share of them); the set and every
    report are the same for any thread count.

    Raises ``ValueError`` on a recording shorter than ``MIN_DURATION_SEC``
    (2 s), and through ``welch_periodogram`` on a NaN or infinite sample,
    naming its index. On any longer input the worst case is the trivial set
    ``{0}``.
    """
    if signal.duration < MIN_DURATION_SEC:
        raise ValueError(
            f"recording of {signal.duration:.2f} s is shorter than the "
            f"{MIN_DURATION_SEC:.2f} s required for stable statistics"
        )
    if max_shifts < 1:
        raise ValueError("max_shifts must be at least 1")
    # run at unit peak, so no level over- or underflows; a NaN or infinite
    # sample passes unscaled, and Welch refuses it by index
    signal = AudioBuffer(_unit_peak(signal.samples), signal.sample_rate)
    min_shift_hz = cfg.sample_rate / cfg.fft_size
    freqs, psd = welch_periodogram(signal, seg_len=seg_len, overlap=overlap)
    peaks = pick_peaks(freqs, psd, max_peaks=peak_count)
    resolution = signal.sample_rate / seg_len
    candidates = [
        c
        for c in candidate_modulations(peaks)
        if min_shift_hz <= c < signal.sample_rate / 2
    ]
    reports: list[CoherenceReport] = []
    if candidates and max_shifts > 1:
        base = stft(signal, cfg).data
        e_base = _bin_energy(base)
        search = _ShiftSearch(base.shape[0], cfg, search_hz=resolution)

        def score(cand: float, out: np.ndarray) -> CoherenceReport:
            refined = _refine_shift(base, e_base, signal, cand, cfg, search, out)
            if not 0.0 < refined < signal.sample_rate / 2:
                refined = cand
            shifted = stft(signal, cfg, out=out, shift=refined).data
            coh = _coherence_between(base, e_base, shifted)
            accepted = coh >= coherence_threshold and refined >= min_shift_hz
            return CoherenceReport(refined, coh, accepted, coarse_hz=cand)

        reports = _in_threads(score, candidates, base.shape)
    accepted = [r for r in reports if r.accepted]
    ranked = sorted(accepted, key=lambda r: r.coherence, reverse=True)
    if accepted:
        fundamental = min(accepted, key=lambda r: r.candidate_hz)
        ranked = [fundamental] + [r for r in ranked if r is not fundamental]
    # refinement can pull neighbouring candidates onto the same shift
    chosen: list[float] = []
    for rep in ranked:
        if all(abs(rep.candidate_hz - s) > 0.5 for s in chosen):
            chosen.append(rep.candidate_hz)
        if len(chosen) >= max_shifts - 1:
            break
    chosen.sort()
    modset = ModulationSet((0.0, *chosen))
    logger.info(
        "estimated modulation set %s Hz from %d candidates",
        [round(s, 3) for s in modset.shifts],
        len(reports),
    )
    return modset, reports
