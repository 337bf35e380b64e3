"""The library's replacements for scipy.signal routines, against scipy.signal.

The library never imports scipy.signal; these tests do, to pin Welch, peak
picking, the chirp-z refinement grid and STOI's resampler to it bit for bit,
and the formant filtering of the speech generator to ``lfilter`` within
1e-12 relative.
"""

import math

import numpy as np
import pytest
from scipy import signal

from cyclospeech import AudioBuffer, StftConfig, metrics, pick_peaks, welch_periodogram
from cyclospeech.modset import PEAK_THRESHOLD_DB, _ShiftSearch
from cyclospeech.synth import _add_formants


@pytest.mark.parametrize("fs", (8000, 11025, 16000, 22050, 44100, 48000))
@pytest.mark.parametrize("seg_len", (256, 257, 1024, 4096))
@pytest.mark.parametrize("overlap", (0.0, 0.5, 0.75))
def test_welch_equals_scipy(fs, seg_len, overlap):
    rng = np.random.default_rng(fs + seg_len)
    # one length a whole number of hops long, one with a partial last hop
    for n in (3 * seg_len, 2 * fs + 17):
        x = rng.standard_normal(n)
        freqs, psd = welch_periodogram(AudioBuffer(x, fs), seg_len=seg_len, overlap=overlap)
        want_freqs, want_psd = signal.welch(
            x, fs=fs, window="hann", nperseg=seg_len, noverlap=int(seg_len * overlap), detrend=False
        )
        assert np.array_equal(freqs, want_freqs)
        assert np.array_equal(psd, want_psd)


def _scipy_peaks(psd):
    floor = float(np.median(psd)) * 10.0 ** (PEAK_THRESHOLD_DB / 10.0)
    idx, _ = signal.find_peaks(psd, height=floor, distance=2)
    return idx


PEAK_CASES = {
    "constant": np.full(40, 3.0),
    "edge maxima": np.r_[50.0, np.ones(20), 9.0, np.ones(20), 50.0],
    "plateaus": np.r_[np.ones(10), 20.0, 20.0, 1.0, 30.0, 30.0, 30.0, 30.0, np.ones(10), 25.0, 25.0, 25.0],
    "plateau at an edge": np.r_[40.0, 40.0, np.ones(10), 40.0, 40.0, 40.0, 1.0],
}


@pytest.mark.parametrize("name", PEAK_CASES)
def test_pick_peaks_equals_find_peaks(name):
    psd = PEAK_CASES[name]
    freqs = np.arange(len(psd)) * 3.9
    peaks = pick_peaks(freqs, psd, max_peaks=len(psd))
    assert np.array_equal(peaks.frequencies, freqs[_scipy_peaks(psd)])


def test_pick_peaks_equals_find_peaks_on_random_plateaus():
    rng = np.random.default_rng(0)
    for _ in range(300):
        # few distinct values, so plateaus of every length occur
        psd = rng.integers(1, 4, rng.integers(3, 80)).astype(float)
        psd[rng.random(len(psd)) < 0.1] = 100.0
        freqs = np.arange(len(psd)) * 3.9
        peaks = pick_peaks(freqs, psd, max_peaks=len(psd))
        assert np.array_equal(peaks.frequencies, freqs[_scipy_peaks(psd)]), psd


@pytest.mark.parametrize("fs, n_frames", [(16000, 313), (8000, 50), (44100, 1250), (16000, 2)])
def test_shift_search_equals_zoom_fft(fs, n_frames):
    cfg = StftConfig(fs)
    search = _ShiftSearch(n_frames, cfg, search_hz=fs / 4096)
    # the zoom window, read back from the searched grid (fftfreq order)
    step = search.deltas[1] - search.deltas[0]
    nfft = round(cfg.sample_rate / cfg.hop / step)
    signed = np.round(search.deltas / step).astype(int)
    lo, width = int(signed.min()), int(signed.max() - signed.min()) + 1
    zoom = signal.ZoomFFT(n_frames, [lo, lo + width], width, fs=nfft)
    rng = np.random.default_rng(n_frames)
    products = rng.standard_normal((n_frames, 37)) + 1j * rng.standard_normal((n_frames, 37))
    assert np.array_equal(search._chirp_z(products), zoom(products, axis=0))


@pytest.mark.parametrize("fs", (8000, 16000, 22050, 44100, 48000))
def test_resampler_equals_resample_poly(fs, monkeypatch):
    g = math.gcd(fs, metrics._STOI_FS)
    up, down = metrics._STOI_FS // g, fs // g
    rng = np.random.default_rng(fs)
    # the default block, one that leaves a last block of one output row, and
    # the smallest; a signal shorter than the filter, and longer ones
    for block in (metrics._RESAMPLE_BLOCK, 997, 1):
        monkeypatch.setattr(metrics, "_RESAMPLE_BLOCK", block)
        for n in (17, fs // 2 + 3, 3 * fs + 1):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            got = metrics._resample_poly((x, y), up, down)
            for a, b in zip(got, (x, y)):
                want = signal.resample_poly(b, up, down)
                assert a.shape == want.shape and np.array_equal(a, want), (block, n)


@pytest.mark.parametrize("fs", (8000, 16000, 44100))
def test_formants_match_lfilter(fs):
    rng = np.random.default_rng(fs)
    source = rng.standard_normal(3 * fs)
    freqs = [rng.uniform(300.0, 800.0), rng.uniform(900.0, 2200.0), rng.uniform(2300.0, 3000.0)]
    want = source.copy()
    for f in freqs:
        a = [1.0, -2.0 * 0.97 * np.cos(2.0 * np.pi * f / fs), 0.97 * 0.97]
        want += 1.5 * signal.lfilter([1.0 - 0.97], a, source)
    got = _add_formants(source, fs, freqs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
