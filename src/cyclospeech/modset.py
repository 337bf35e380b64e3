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
from dataclasses import dataclass

import numpy as np
from scipy.signal import ZoomFFT, find_peaks, welch

from .modulation import ModulationSet, modulate
from .stft import AudioBuffer, StftConfig, stft

__all__ = [
    "PeakList",
    "CoherenceReport",
    "welch_periodogram",
    "pick_peaks",
    "candidate_modulations",
    "spectral_coherence",
    "estimate_modulation_set_detailed",
]

logger = logging.getLogger(__name__)

# Fraction of bins (ranked by energy support) the coherence statistic
# averages over.
COHERENCE_BIN_FRACTION = 0.10
# Hard cap on candidates scored per recording; candidates are kept by merged
# peak-power weight.
MAX_CANDIDATES = 64
# Relative distance from the refinement spectrum's peak within which points
# count as tied; far above the chirp-z rounding (about 1e-11 relative).
SHIFT_TIE_RTOL = 1e-9


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
    signal: AudioBuffer, seg_len: int = 4096, overlap: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Welch PSD with Hann segments; returns (frequencies, psd).

    Grid resolution is sample_rate / seg_len.
    """
    if len(signal) < seg_len:
        raise ValueError(
            f"signal of {len(signal)} samples is shorter than one segment ({seg_len})"
        )
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must lie in [0, 1)")
    freqs, psd = welch(
        np.real(signal.samples),
        fs=signal.sample_rate,
        window="hann",
        nperseg=seg_len,
        noverlap=int(seg_len * overlap),
        detrend=False,
    )
    return freqs, psd


def pick_peaks(
    freqs: np.ndarray,
    psd: np.ndarray,
    max_peaks: int = 20,
    threshold_db: float = 10.0,
    min_separation_bins: int = 2,
) -> PeakList:
    """Local PSD maxima at least ``threshold_db`` above the median, strongest
    ``max_peaks`` kept, returned frequency-sorted."""
    if max_peaks < 1:
        raise ValueError("max_peaks must be at least 1")
    freqs = np.asarray(freqs, dtype=np.float64)
    psd = np.asarray(psd, dtype=np.float64)
    resolution = float(freqs[1] - freqs[0])
    floor = float(np.median(psd)) * 10.0 ** (threshold_db / 10.0)
    if floor <= 0.0:
        return PeakList(np.empty(0), np.empty(0), resolution)
    idx, _ = find_peaks(psd, height=floor, distance=min_separation_bins)
    if len(idx) > max_peaks:
        idx = idx[np.argsort(psd[idx])[::-1][:max_peaks]]
        idx = np.sort(idx)
    return PeakList(freqs[idx], psd[idx], resolution)


def candidate_modulations(
    peaks: PeakList, max_candidates: int | None = MAX_CANDIDATES
) -> list[float]:
    """Positive pairwise peak differences, merged within one grid bin.

    Differences closer than the grid resolution are merged to their
    power-weighted mean (weight = geometric mean of the pair powers). When
    more than ``max_candidates`` survive, the heaviest are kept. Returned
    ascending.
    """
    m = len(peaks)
    if m < 2:
        return []
    diffs = []
    for j in range(1, m):
        for i in range(j):
            delta = peaks.frequencies[j] - peaks.frequencies[i]
            weight = float(np.sqrt(peaks.powers[i] * peaks.powers[j]))
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
    if max_candidates is not None and len(merged) > max_candidates:
        merged.sort(key=lambda fw: fw[1], reverse=True)
        merged = merged[:max_candidates]
    return sorted(f for f, _ in merged)


def _bin_cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-bin sum over frames of x * conj(y).

    Bin energies are ``_bin_cross(x, x).real`` rather than ``sum |x|^2``:
    ``abs`` rounds through ``hypot`` and would disagree with the cross term
    in the last bit, so sharing one expression makes the cross term of a
    spectrogram with itself equal its energy exactly.
    """
    return np.sum(x * np.conj(y), axis=1)


def _bin_energy(x: np.ndarray) -> np.ndarray:
    return _bin_cross(x, x).real


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

    Energies and cross term go through ``_bin_cross``, so when ``shifted`` is
    ``base`` every per-bin ratio is e / sqrt(e * e), which IEEE arithmetic
    rounds to exactly 1 barring overflow and underflow. Otherwise the result
    lies in [0, 1] up to rounding.
    """
    e_shift = _bin_energy(shifted)
    cross = np.abs(_bin_cross(base, shifted))
    total = float(np.sum(e_base))
    if total <= 0.0:
        raise ValueError("zero-energy signal has no defined coherence")
    top, weights = _top_support_bins(e_base, e_shift)
    valid = weights > 0.0
    if not np.any(valid):
        return 0.0
    per_bin = cross[top][valid] / np.sqrt(weights[valid])
    return float(np.average(per_bin, weights=weights[valid]))


def spectral_coherence(signal: AudioBuffer, alpha: float, cfg: StftConfig) -> float:
    """Coherence between the signal's spectrogram and its copy
    frequency-shifted by ``alpha`` Hz.

    Exactly 1 for alpha = 0 on any finite, non-silent input: the energy and
    cross terms share one expression (see ``_coherence_between``). For
    alpha != 0 it lies in [0, 1] up to rounding. Raises ``ValueError`` on a
    zero-energy input, whatever alpha is."""
    base = stft(signal, cfg).data
    if alpha == 0.0:
        shifted = base
    else:
        shifted = stft(modulate(signal, alpha), cfg).data
    return _coherence_between(base, _bin_energy(base), shifted)


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
        self._zoom = ZoomFFT(n_frames, [lo, lo + width], width, fs=nfft)

    def best_offset(self, products: np.ndarray) -> float:
        """Offset in Hz of the peak of the summed magnitude spectra of the
        rows of ``products``.

        Points within ``SHIFT_TIE_RTOL`` of the peak count as tied and the
        first in fftfreq order wins: where the full padded FFT ties exactly
        (a zero or flat spectrum) the chirp-z values differ by rounding only.
        """
        spectrum = np.abs(self._zoom(products, axis=1)).sum(axis=0)[self._order]
        tied = spectrum >= spectrum.max() * (1.0 - SHIFT_TIE_RTOL)
        return float(self.deltas[np.argmax(tied)])


def _refine_shift(
    base: np.ndarray,
    e_base: np.ndarray,
    signal: AudioBuffer,
    alpha: float,
    cfg: StftConfig,
    search: _ShiftSearch,
) -> float:
    """Correct a coarse candidate shift by the rotation frequency of the
    per-frame cross products, searched over ``search``'s window."""
    shifted = stft(modulate(signal, alpha), cfg).data
    top, _ = _top_support_bins(e_base, _bin_energy(shifted))
    products = base[top] * np.conj(shifted[top])  # rotates at (true - alpha) Hz
    return alpha + search.best_offset(products)


def estimate_modulation_set_detailed(
    signal: AudioBuffer,
    cfg: StftConfig,
    peak_count: int = 20,
    coherence_threshold: float = 0.3,
    max_shifts: int = 5,
    seg_len: int = 4096,
    overlap: float = 0.5,
    min_duration_sec: float = 2.0,
    min_shift_hz: float | None = None,
) -> tuple[ModulationSet, list[CoherenceReport]]:
    """Estimate the modulation set and report per-candidate coherence.

    Shifts below ``min_shift_hz`` (default: one STFT bin) are rejected:
    a copy shifted by less than the analysis resolution still overlaps the
    unshifted content bin-for-bin, so its coherence is trivially high. The
    smallest surviving shift is always kept: it is the fundamental of the
    dominant harmonic family, and pairs every noise harmonic with its direct
    neighbour; the remaining slots are filled by coherence rank.

    Raises ``ValueError`` on a NaN or infinite sample, naming its index, and
    on a recording shorter than ``min_duration_sec`` (2 s by default). On
    any longer input the worst case is the trivial set ``{0}``.
    """
    signal.require_finite()
    if signal.duration < min_duration_sec:
        raise ValueError(
            f"recording of {signal.duration:.2f} s is shorter than the "
            f"{min_duration_sec:.2f} s required for stable statistics"
        )
    if max_shifts < 1:
        raise ValueError("max_shifts must be at least 1")
    if min_shift_hz is None:
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
        search = _ShiftSearch(base.shape[1], cfg, search_hz=resolution)
        for cand in candidates:
            refined = _refine_shift(base, e_base, signal, cand, cfg, search)
            if not 0.0 < refined < signal.sample_rate / 2:
                refined = cand
            shifted = stft(modulate(signal, refined), cfg).data
            coh = _coherence_between(base, e_base, shifted)
            accepted = coh >= coherence_threshold and refined >= min_shift_hz
            reports.append(CoherenceReport(refined, coh, accepted, coarse_hz=cand))
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
