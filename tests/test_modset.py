import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclospeech import (
    AudioBuffer,
    HarmonicNoiseParams,
    PeakList,
    candidate_modulations,
    estimate_modulation_set_detailed,
    pick_peaks,
    spectral_coherence,
    synth_harmonic_cs_noise,
    welch_periodogram,
)
from cyclospeech.modset import _bin_energy, _refine_shift, _ShiftSearch, _top_support_bins
from cyclospeech.modulation import modulate
from cyclospeech.stft import stft

FS = 16000
WELCH_RES = FS / 4096


def test_welch_white_noise_flat_interior():
    rng = np.random.default_rng(10)
    # long recording keeps extreme-bin fluctuations well inside 3 dB
    sig = AudioBuffer(rng.standard_normal(40 * FS), FS)
    _, psd = welch_periodogram(sig, seg_len=4096)
    med = np.median(psd)
    interior = psd[1:-1]  # DC/Nyquist sit 3 dB low by one-sided convention
    assert 10 * np.log10(interior.max() / med) <= 3.0
    assert 10 * np.log10(interior.min() / med) >= -3.0


def test_welch_tone_power_matches_window_gain():
    # oracle: peak density of a bin-centered tone is (A^2/2) / ENBW
    amp = 0.7
    seg = 4096
    f_tone = 40 * FS / seg
    n = 8 * FS
    t = np.arange(n) / FS
    rng = np.random.default_rng(11)
    sig = AudioBuffer(
        amp * np.cos(2 * np.pi * f_tone * t) + 1e-3 * rng.standard_normal(n), FS
    )
    freqs, psd = welch_periodogram(sig, seg_len=seg)
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(seg) / seg)
    enbw_hz = FS * np.sum(window**2) / np.sum(window) ** 2
    expected = (amp**2 / 2) / enbw_hz
    k = np.argmax(psd)
    assert abs(freqs[k] - f_tone) < WELCH_RES
    assert abs(psd[k] - expected) <= 0.1 * expected


def test_welch_zero_signal_zero_psd():
    _, psd = welch_periodogram(AudioBuffer(np.zeros(FS), FS), seg_len=4096)
    assert np.all(psd == 0)


def test_welch_short_signal_rejected():
    with pytest.raises(ValueError, match="shorter"):
        welch_periodogram(AudioBuffer(np.zeros(1000), FS), seg_len=4096)


def test_pick_peaks_two_tones():
    n = 8 * FS
    t = np.arange(n) / FS
    rng = np.random.default_rng(12)
    sig = AudioBuffer(
        np.cos(2 * np.pi * 100.0 * t)
        + 0.8 * np.cos(2 * np.pi * 250.0 * t)
        + 0.01 * rng.standard_normal(n),
        FS,
    )
    freqs, psd = welch_periodogram(sig)
    peaks = pick_peaks(freqs, psd)
    assert len(peaks) == 2
    assert abs(peaks.frequencies[0] - 100.0) <= WELCH_RES
    assert abs(peaks.frequencies[1] - 250.0) <= WELCH_RES


def test_pick_peaks_flat_spectrum_empty():
    freqs = np.arange(100) * 2.0
    peaks = pick_peaks(freqs, np.ones(100))
    assert len(peaks) == 0


def test_pick_peaks_harmonic_series():
    noise = synth_harmonic_cs_noise(
        10.0, FS, HarmonicNoiseParams(f0=120.0, num_harmonics=5, seed=13)
    )
    freqs, psd = welch_periodogram(noise)
    peaks = pick_peaks(freqs, psd)
    for target in (120.0, 240.0, 360.0, 480.0, 600.0):
        assert np.min(np.abs(peaks.frequencies - target)) <= WELCH_RES


def test_candidates_pairwise_differences():
    peaks = PeakList(np.array([100.0, 250.0]), np.array([1.0, 1.0]), WELCH_RES)
    assert candidate_modulations(peaks) == [150.0]

    peaks = PeakList(
        np.array([120.0, 240.0, 360.0]), np.array([1.0, 0.5, 0.25]), WELCH_RES
    )
    cands = candidate_modulations(peaks)
    assert len(cands) == 2
    assert abs(cands[0] - 120.0) < 1e-9  # appears twice, merged
    assert abs(cands[1] - 240.0) < 1e-9


def test_single_peak_no_candidates():
    peaks = PeakList(np.array([100.0]), np.array([1.0]), WELCH_RES)
    assert candidate_modulations(peaks) == []


def test_self_coherence_is_one(cfg16k, cs_noise_10s):
    assert spectral_coherence(cs_noise_10s, 0.0, cfg16k) == 1.0


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    duration=st.floats(2.0, 6.0),
    log_scale=st.floats(-6.0, 3.0),
)
def test_self_coherence_exact_and_silence_rejected(cfg16k, seed, duration, log_scale):
    n = int(duration * FS)
    noise = np.random.default_rng(seed).standard_normal(n) * 10.0**log_scale
    assert spectral_coherence(AudioBuffer(noise, FS), 0.0, cfg16k) == 1.0
    with pytest.raises(ValueError, match="zero-energy"):
        spectral_coherence(AudioBuffer(np.zeros(n), FS), 0.0, cfg16k)


def test_white_noise_coherence_low(cfg16k, white_10s):
    assert spectral_coherence(white_10s, 100.0, cfg16k) < 0.1


def test_shared_envelope_coherence_high(cfg16k):
    # two harmonics riding the same random envelope: fully correlated pair
    rng = np.random.default_rng(14)
    n = 10 * FS
    t = np.arange(n) / FS
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    spec *= np.exp(-0.5 * (np.fft.rfftfreq(n, 1 / FS) / 4.0) ** 2)
    envelope = np.abs(np.fft.irfft(spec, n))
    sig = AudioBuffer(
        envelope * (np.cos(2 * np.pi * 500.0 * t) + np.cos(2 * np.pi * 600.0 * t))
        + 1e-4 * rng.standard_normal(n),
        FS,
    )
    assert spectral_coherence(sig, 100.0, cfg16k) >= 0.8


def test_coherence_scale_invariant(cfg16k, cs_noise_10s):
    base = spectral_coherence(cs_noise_10s, 100.0, cfg16k)
    scaled = AudioBuffer(cs_noise_10s.samples * 37.5, FS)
    assert abs(spectral_coherence(scaled, 100.0, cfg16k) - base) <= 1e-10


def test_coherence_zero_energy_rejected(cfg16k):
    with pytest.raises(ValueError, match="zero-energy"):
        spectral_coherence(AudioBuffer(np.zeros(4 * FS), FS), 100.0, cfg16k)


def test_estimate_white_noise_trivial(cfg16k, white_10s):
    modset = estimate_modulation_set_detailed(white_10s, cfg16k)[0]
    assert modset.shifts == (0.0,)


def test_estimate_recovers_f0(cfg16k, cs_noise_10s):
    modset = estimate_modulation_set_detailed(cs_noise_10s, cfg16k)[0]
    nonzero = [s for s in modset.shifts if s != 0.0]
    assert nonzero, "estimator returned only the trivial shift"
    assert min(abs(s - 100.0) for s in nonzero) <= WELCH_RES


def test_estimate_cmax_one_always_trivial(cfg16k, cs_noise_10s):
    modset = estimate_modulation_set_detailed(cs_noise_10s, cfg16k, max_shifts=1)[0]
    assert modset.shifts == (0.0,)


def test_estimate_returns_valid_set(cfg16k, cs_noise_10s):
    modset, reports = estimate_modulation_set_detailed(
        cs_noise_10s, cfg16k, max_shifts=3
    )
    assert modset.shifts[0] == 0.0
    assert len(set(modset.shifts)) == len(modset.shifts)
    assert len(modset.shifts) <= 3
    for report in reports:
        assert 0.0 <= report.coherence <= 1.0 + 1e-12


def test_estimate_short_signal_rejected(cfg16k):
    sig = AudioBuffer(np.random.default_rng(15).standard_normal(FS), FS)
    with pytest.raises(ValueError, match="shorter"):
        estimate_modulation_set_detailed(sig, cfg16k)[0]


def test_estimate_deterministic(cfg16k, cs_noise_10s):
    a = estimate_modulation_set_detailed(cs_noise_10s, cfg16k)[0]
    b = estimate_modulation_set_detailed(cs_noise_10s, cfg16k)[0]
    assert a.shifts == b.shifts


def _full_grid_offset(products, cfg, search_hz):
    """Reference: the full zero-padded FFT along frames, argmax in window."""
    frame_rate = cfg.sample_rate / cfg.hop
    n_frames = products.shape[1]
    nfft = 1
    while nfft < max(2 * n_frames, frame_rate / 0.01):
        nfft *= 2
    spectrum = np.abs(np.fft.fft(products, n=nfft, axis=1)).sum(axis=0)
    deltas = np.fft.fftfreq(nfft, d=1.0 / frame_rate)
    in_window = np.abs(deltas) <= search_hz
    return float(deltas[np.argmax(np.where(in_window, spectrum, -np.inf))])


@settings(max_examples=40, deadline=None)
@given(
    n_frames=st.integers(1, 3000),
    rows=st.integers(1, 60),
    search_hz=st.floats(0.005, 80.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_chirp_z_search_matches_full_grid(cfg16k, n_frames, rows, search_hz, seed):
    rng = np.random.default_rng(seed)
    products = rng.standard_normal((rows, n_frames)) + 1j * rng.standard_normal(
        (rows, n_frames)
    )
    search = _ShiftSearch(n_frames, cfg16k, search_hz)
    assert search.best_offset(products) == _full_grid_offset(products, cfg16k, search_hz)
    # an all-zero spectrum ties everywhere; the zero offset wins, as on the full grid
    assert search.best_offset(np.zeros_like(products)) == 0.0


@settings(max_examples=15, deadline=None)
@given(
    f0=st.floats(60.0, 150.0),
    miss=st.floats(-1.0, 1.0),
    duration=st.floats(2.0, 4.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_refined_shift_matches_full_grid(cfg16k, f0, miss, duration, seed):
    noise = synth_harmonic_cs_noise(duration, FS, HarmonicNoiseParams(f0=f0, seed=seed))
    alpha = f0 + miss * WELCH_RES
    base = stft(noise, cfg16k).data
    e_base = _bin_energy(base)
    search = _ShiftSearch(base.shape[1], cfg16k, WELCH_RES)
    refined = _refine_shift(base, e_base, noise, alpha, cfg16k, search)

    shifted = stft(modulate(noise, alpha), cfg16k).data
    top, _ = _top_support_bins(e_base, _bin_energy(shifted))
    products = base[top] * np.conj(shifted[top])
    assert refined == alpha + _full_grid_offset(products, cfg16k, WELCH_RES)


def test_refine_shift_of_silence_keeps_coarse_shift(cfg16k):
    silence = AudioBuffer(np.zeros(3 * FS), FS)
    base = stft(silence, cfg16k).data
    search = _ShiftSearch(base.shape[1], cfg16k, WELCH_RES)
    assert _refine_shift(base, _bin_energy(base), silence, 101.3, cfg16k, search) == 101.3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_estimate_rejects_non_finite_sample(cfg16k, cs_noise_10s, bad):
    samples = cs_noise_10s.samples.copy()
    samples[1000] = bad
    with pytest.raises(ValueError, match="non-finite sample .* at index 1000"):
        estimate_modulation_set_detailed(AudioBuffer(samples, FS), cfg16k)
