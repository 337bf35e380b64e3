"""Objective evaluation: SI-SDR, STOI, and SNR-bucketed aggregation.

The per-file CSV schema is
    file,input_snr_db,preproc,mask,si_sdr_db,stoi
written UTF-8 with LF line endings and six decimal places. The aggregate
table reserves empty ``dnsmos`` and ``pesq`` columns so externally computed
values can be merged.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .stft import AudioBuffer, _overlap_add, _unit_peak, periodic_hann

__all__ = [
    "MetricRecord",
    "si_sdr",
    "stoi",
    "aggregate",
    "curve_points",
    "write_records_csv",
    "write_table_csv",
]

SI_SDR_CAP_DB = 100.0

# Input-SNR buckets of the aggregate table (the last includes its upper edge)
# and the bin width of the metric-vs-SNR curves, in dB.
SNR_BUCKETS = ((-20.0, -10.0), (-10.0, 0.0))
CURVE_BIN_DB = 5.0

# STOI constants (10 kHz analysis rate)
_STOI_FS = 10000
_STOI_FRAME = 256
_STOI_HOP = 128
_STOI_NFFT = 512
_STOI_NUM_BANDS = 15
_STOI_LOWEST_CF = 150.0
_STOI_SEG_FRAMES = 30  # 384 ms at 12.8 ms per hop
_STOI_SEG_BLOCK = 256  # segments scored at once; any value gives the same score
_STOI_CLIP_DB = -15.0
_STOI_VAD_RANGE_DB = 40.0
# Products held at once by the resampler, per buffer; any value gives the
# same samples.
_RESAMPLE_BLOCK = 1 << 16
# Chebyshev coefficients of exp(-x) I0(x) on [0, 8] in x / 2 - 2, from
# cephes' i0.c (S. L. Moshier), the series scipy.special.i0 evaluates there.
_I0_CHEB = (
    -4.41534164647933937950e-18, 3.33079451882223809783e-17, -2.43127984654795469359e-16,
    1.71539128555513303061e-15, -1.16853328779934516808e-14, 7.67618549860493561688e-14,
    -4.85644678311192946090e-13, 2.95505266312963983461e-12, -1.72682629144155570723e-11,
    9.67580903537323691224e-11, -5.18979560163526290666e-10, 2.65982372468238665035e-9,
    -1.30002500998624804212e-8, 6.04699502254191894932e-8, -2.67079385394061173391e-7,
    1.11738753912010371815e-6, -4.41673835845875056359e-6, 1.64484480707288970893e-5,
    -5.75419501008210370398e-5, 1.88502885095841655729e-4, -5.76375574538582365885e-4,
    1.63947561694133579842e-3, -4.32430999505057594430e-3, 1.05464603945949983183e-2,
    -2.37374148058994688156e-2, 4.93052842396707084878e-2, -9.49010970480476444210e-2,
    1.71620901522208775349e-1, -3.04682672343198398683e-1, 6.76795274409476084995e-1,
)


@dataclass
class MetricRecord:
    file: str
    input_snr_db: float
    preproc: str
    mask: str
    si_sdr_db: float
    stoi: float

    def __post_init__(self):
        # correlation-based score can dip below zero; report clamped
        self.stoi = min(max(float(self.stoi), 0.0), 1.0)


def _checked_pair(
    estimate: AudioBuffer, reference: AudioBuffer
) -> tuple[np.ndarray, np.ndarray]:
    """The real parts of two equal-length, finite signals; the reference
    must not be all zero."""
    e = np.real(estimate.samples)
    r = np.real(reference.samples)
    if e.shape != r.shape:
        raise ValueError(f"length mismatch: {e.shape[0]} vs {r.shape[0]}")
    estimate.require_finite("estimate")
    reference.require_finite("reference")
    if not r.any():
        raise ValueError("reference signal has zero energy")
    return e, r


def si_sdr(estimate: AudioBuffer, reference: AudioBuffer) -> float:
    """Scale-invariant signal-to-distortion ratio in dB, capped at +100 dB.

    Each input is first divided by the power of two of its own peak, which
    is exact, so the energies neither over- nor underflow and a pair scores
    the same, bit for bit, at any power-of-two scale that keeps it normal.
    """
    e, r = map(_unit_peak, _checked_pair(estimate, reference))
    r_energy = float(np.dot(r, r))
    target = (np.dot(e, r) / r_energy) * r
    target_energy = float(np.dot(target, target))
    residual = e - target
    residual_energy = float(np.dot(residual, residual))
    if residual_energy <= target_energy * 10.0 ** (-SI_SDR_CAP_DB / 10.0):
        return SI_SDR_CAP_DB
    return min(10.0 * math.log10(target_energy / residual_energy), SI_SDR_CAP_DB)


def _third_octave_bands(nfft: int, fs: int) -> np.ndarray:
    """Boolean (bands x bins) membership matrix for the one-sided spectrum."""
    bin_freqs = np.arange(nfft // 2 + 1) * fs / nfft
    centers = _STOI_LOWEST_CF * 2.0 ** (np.arange(_STOI_NUM_BANDS) / 3.0)
    lo = centers / 2.0 ** (1.0 / 6.0)
    hi = centers * 2.0 ** (1.0 / 6.0)
    return (bin_freqs[None, :] >= lo[:, None]) & (bin_freqs[None, :] < hi[:, None])


def _frame(x: np.ndarray, window: np.ndarray, hop: int) -> np.ndarray:
    return sliding_window_view(x, len(window))[::hop] * window


def _remove_silent_frames(
    x: np.ndarray, y: np.ndarray, window: np.ndarray, hop: int
) -> np.ndarray:
    """Drop frames where the reference is more than 40 dB below its loudest
    frame, and overlap-add the survivors back to signals: the rows of the result."""
    xf = _frame(x, window, hop)
    yf = _frame(y, window, hop)
    energies = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + np.finfo(float).eps)
    keep = energies > energies.max() - _STOI_VAD_RANGE_DB
    out = np.zeros((2, (np.count_nonzero(keep) - 1) * hop + len(window)))
    _overlap_add(xf[keep], hop, out[0], 0)
    _overlap_add(yf[keep], hop, out[1], 0)
    return out


def _i0(x: np.ndarray) -> np.ndarray:
    """The modified Bessel function I0 at each 0 <= x <= 8, as cephes'
    ``i0`` (so ``scipy.special.i0``) computes it, to the last bit: the
    Chebyshev recurrence in cephes' operation order, times ``math.exp``.
    (``np.i0`` sums another series and differs in the last bit.)"""
    y = x / 2.0 - 2.0
    b0, b1 = np.full_like(y, _I0_CHEB[0]), np.zeros_like(y)
    for c in _I0_CHEB[1:]:
        b0, b1, b2 = y * b0 - b1 + c, b0, b1
    return np.array([math.exp(v) for v in x]) * (0.5 * (b0 - b2))


def _kaiser_lowpass(numtaps: int, cutoff: float) -> np.ndarray:
    """``scipy.signal.firwin(numtaps, cutoff, window=("kaiser", 5.0))``, in
    its operation order: a windowed sinc scaled to unit DC gain."""
    m = np.arange(0, numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    h = 0 + cutoff * np.sinc(cutoff * m)
    n = np.arange(0, numtaps, dtype=np.float64)
    alpha = (numtaps - 1) / 2.0
    h *= _i0(5.0 * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0)) / _i0(np.array([5.0]))
    h /= np.sum(h)
    return h


def _resample_poly(signals, up: int, down: int) -> list[np.ndarray]:
    """Each of ``signals`` (equal lengths) resampled by ``up / down``, coprime:
    ``scipy.signal.resample_poly(x, up, down)`` to the last bit.

    The filter is scipy's (``firwin`` with a Kaiser window, beta 5, and
    10 * max(up, down) taps either side), padded and split into ``up``
    polyphase branches as ``upfirdn`` splits it. Output ``i`` is a sum over
    ``taps`` consecutive input samples, accumulated from the oldest sample on
    as ``upfirdn`` accumulates it: ``np.add.reduce`` over the leading axis of
    a C-contiguous (taps, outputs) product adds its rows in order, for two or
    more outputs (a single column it would sum pairwise).
    """
    n_in = len(signals[0])
    n_out = -(-n_in * up // down)
    half_len = 10 * max(up, down)
    h = _kaiser_lowpass(2 * half_len + 1, 1.0 / max(up, down))
    h *= up
    n_pre_pad = down - half_len % down
    taps = -(-(n_pre_pad + len(h)) // up)
    h_full = np.zeros(taps * up)
    h_full[n_pre_pad : n_pre_pad + len(h)] = h
    # outputs as (rows, up): output i = up * row + r reads
    # x[down * row + base[r] - taps + 1 :][:taps] through branch phase[r]
    rows = max(2, -(-n_out // up))
    first = (half_len + n_pre_pad) // down  # upfirdn's outputs before ours
    base, phase = np.divmod((first + np.arange(up)) * down, up)
    coef = h_full.reshape(taps, up)[::-1, phase].T.copy()[:, :, None]  # oldest first
    span = int(base[-1]) + taps  # one row reads x_pad[down * row :][:span]
    blocks = -(-span // down)
    step = max(2, _RESAMPLE_BLOCK // taps)  # rows per product buffer
    cols = np.empty((blocks * down, min(rows, step)))
    prod = np.empty((taps, min(rows, step)))
    results = []
    for x in signals:
        x_pad = np.zeros(down * (rows + blocks))
        x_pad[taps - 1 : taps - 1 + n_in] = x
        # branches[c, m] = x_pad[c + down * m]
        branches = np.ascontiguousarray(x_pad.reshape(-1, down).T)
        del x_pad
        out = np.empty((up, rows))
        for lo in range(0, rows, step):
            lo = min(lo, rows - 2)  # a last block of one row redoes the row before
            n = min(step, rows - lo)
            for q in range(blocks):  # cols[c, j] = x_pad[c + down * (lo + j)]
                cols[q * down : (q + 1) * down, :n] = branches[:, lo + q : lo + q + n]
            for r in range(up):
                np.multiply(cols[base[r] : base[r] + taps, :n], coef[r], out=prod[:, :n])
                np.add.reduce(prod[:, :n], axis=0, out=out[r, lo : lo + n])
        results.append(out.T.ravel()[:n_out])
    return results


def stoi(estimate: AudioBuffer, reference: AudioBuffer) -> float:
    """Short-time objective intelligibility of the estimate given the clean
    reference.

    Both signals are resampled to 10 kHz, silent reference frames are
    removed, band envelopes over 15 one-third-octave bands are compared in
    384 ms segments with per-segment normalization and clipping, and the
    band/segment correlations are averaged. Each input is first divided by
    the power of two of its own peak, as in ``si_sdr``, so a pair scores the
    same, bit for bit, at any power-of-two scale that keeps it normal.
    """
    e, r = map(_unit_peak, _checked_pair(estimate, reference))
    fs = reference.sample_rate
    if estimate.sample_rate != fs:
        raise ValueError("sample-rate mismatch between estimate and reference")
    if fs != _STOI_FS:
        g = math.gcd(fs, _STOI_FS)
        e, r = _resample_poly((e, r), _STOI_FS // g, fs // g)

    min_samples = (_STOI_SEG_FRAMES - 1) * _STOI_HOP + _STOI_FRAME
    if len(r) < min_samples:
        raise ValueError(
            f"need at least {min_samples / _STOI_FS * 1e3:.0f} ms of signal"
        )
    window = periodic_hann(_STOI_FRAME)
    r, e = _remove_silent_frames(r, e, window, _STOI_HOP)
    if len(r) < min_samples:
        raise ValueError("less than one 384 ms segment of active signal")

    bands = _third_octave_bands(_STOI_NFFT, _STOI_FS).astype(float)
    # band envelopes, shape (bands, frames)
    x_env, y_env = (_band_envelopes(s, window, bands) for s in (r, e))

    # (segments, bands) correlations, averaged in segment-major order; each
    # block of segments is scored on contiguous (segments, bands, frames)
    # copies, so each last-axis sum adds as on one segment's (bands, frames)
    # slice, and no copy outgrows a block
    x_segs, y_segs = (
        sliding_window_view(env.T, _STOI_SEG_FRAMES, axis=0) for env in (x_env, y_env)
    )
    corr = np.empty(x_segs.shape[:2])
    for lo in range(0, len(corr), _STOI_SEG_BLOCK):
        hi = lo + _STOI_SEG_BLOCK
        corr[lo:hi] = _segment_correlations(x_segs[lo:hi], y_segs[lo:hi])
    return float(np.mean(corr))


def _band_envelopes(x: np.ndarray, window: np.ndarray, bands: np.ndarray) -> np.ndarray:
    """The (bands, frames) one-third-octave band magnitudes of ``x``."""
    power = np.abs(np.fft.rfft(_frame(x, window, _STOI_HOP), n=_STOI_NFFT, axis=1).T)
    power **= 2
    return np.sqrt(bands @ power)


def _segment_correlations(x_segs: np.ndarray, y_segs: np.ndarray) -> np.ndarray:
    """Per-segment, per-band correlations of clean ``x`` and clipped,
    normalized ``y`` envelopes, (segments, bands, frames) windows each."""
    x, y = map(np.ascontiguousarray, (x_segs, y_segs))
    # -15 dB lower SDR bound: normalized estimate may exceed the clean
    # envelope by at most 1 + 10^(15/20)
    clip_factor = 1.0 + 10.0 ** (-_STOI_CLIP_DB / 20.0)
    eps = np.finfo(float).eps
    y *= np.linalg.norm(x, axis=-1, keepdims=True) / (
        np.linalg.norm(y, axis=-1, keepdims=True) + eps
    )
    np.minimum(y, clip_factor * x, out=y)
    x -= x.mean(axis=-1, keepdims=True)
    y -= y.mean(axis=-1, keepdims=True)
    denom = np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1) + eps
    return np.sum(x * y, axis=-1) / denom


def _group_means(records: list[MetricRecord], key, names: tuple) -> list[dict]:
    """One row per distinct ``key(record)``, in key order: the key's parts
    under ``names``, the record count and the mean SI-SDR and STOI."""
    groups: dict[tuple, list[MetricRecord]] = {}
    for rec in records:
        groups.setdefault(key(rec), []).append(rec)
    return [
        {
            **dict(zip(names, parts)),
            "count": len(recs),
            "si_sdr_db": float(np.mean([r.si_sdr_db for r in recs])),
            "stoi": float(np.mean([r.stoi for r in recs])),
        }
        for parts, recs in sorted(groups.items())
    ]


def aggregate(records: list[MetricRecord]) -> list[dict]:
    """Mean metrics per (``SNR_BUCKETS`` bucket x preprocessor x mask).

    The final bucket includes its upper edge. Records outside every bucket
    land in an "other" row rather than being dropped.
    """
    if not records:
        raise ValueError("no records to aggregate")
    last = len(SNR_BUCKETS) - 1
    labels = [f"[{lo:g},{hi:g}{']' if i == last else ')'}" for i, (lo, hi) in enumerate(SNR_BUCKETS)]
    labels.append("other")

    def bucket(snr_db: float) -> int:
        for i, (lo, hi) in enumerate(SNR_BUCKETS):
            if lo <= snr_db < hi or (i == last and snr_db == hi):
                return i
        return len(SNR_BUCKETS)

    rows = _group_means(
        records,
        lambda r: (bucket(r.input_snr_db), r.preproc, r.mask),
        ("snr_bucket", "preproc", "mask"),
    )
    for row in rows:
        row.update(snr_bucket=labels[row["snr_bucket"]], dnsmos="", pesq="")
    return rows


def curve_points(records: list[MetricRecord]) -> list[dict]:
    """Metric-vs-SNR curve samples: means over SNR bins ``CURVE_BIN_DB`` wide."""

    def center(snr_db: float) -> float:
        return (math.floor(snr_db / CURVE_BIN_DB) + 0.5) * CURVE_BIN_DB

    return _group_means(
        records,
        lambda r: (r.preproc, r.mask, center(r.input_snr_db)),
        ("preproc", "mask", "snr_bin_db"),
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def write_records_csv(path, records: list[MetricRecord]) -> None:
    names = [f.name for f in fields(MetricRecord)]
    _write_csv(path, names, ([getattr(r, n) for n in names] for r in records))


def write_table_csv(path, rows: list[dict]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    _write_csv(path, rows[0].keys(), (row.values() for row in rows))
