import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclospeech import (
    AudioBuffer,
    HarmonicNoiseParams,
    ModulationSet,
    StftConfig,
    build_augmented,
    modulate,
    stft,
    synth_harmonic_cs_noise,
)

FS = 16000


def test_modset_validation():
    ModulationSet((0.0, 100.0, 250.0))
    with pytest.raises(ValueError, match="first shift"):
        ModulationSet((100.0, 0.0))
    with pytest.raises(ValueError, match="distinct"):
        ModulationSet((0.0, 100.0, 100.0))
    with pytest.raises(ValueError, match="at least"):
        ModulationSet(())


def test_zero_shift_is_identity():
    rng = np.random.default_rng(0)
    x = AudioBuffer(rng.standard_normal(1000), FS)
    y = modulate(x, 0.0)
    assert np.iscomplexobj(y.samples)
    assert np.array_equal(y.samples, x.samples.astype(complex))


def test_cosine_shift_moves_spectral_lines():
    # 100 Hz cosine shifted by +50 Hz: lines move from +-100 to 150 and -50
    n = 4 * FS
    t = np.arange(n) / FS
    x = AudioBuffer(np.cos(2 * np.pi * 100.0 * t), FS)
    y = modulate(x, 50.0)
    spectrum = np.abs(np.fft.fft(y.samples))
    freqs = np.fft.fftfreq(n, 1.0 / FS)
    order = np.argsort(spectrum)[::-1][:2]
    found = sorted(freqs[order])
    assert abs(found[0] - (-50.0)) < FS / n + 1e-9
    assert abs(found[1] - 150.0) < FS / n + 1e-9


def test_modulation_preserves_magnitude():
    rng = np.random.default_rng(1)
    x = AudioBuffer(rng.standard_normal(5000), FS)
    y = modulate(x, 333.3)
    assert np.allclose(np.abs(y.samples), np.abs(x.samples), atol=1e-12)


def test_shift_beyond_nyquist_rejected(cfg16k):
    x = AudioBuffer(np.ones(100), FS)
    for shift in (8000.0, -8123.0):
        with pytest.raises(ValueError, match="Nyquist"):
            modulate(x, shift)
        with pytest.raises(ValueError, match="Nyquist"):
            stft(x, cfg16k, shift=shift)


@pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
def test_non_finite_shift_refused(cfg16k, shift):
    # NaN fails every comparison, so a bare |shift| >= fs/2 check lets it by
    x = AudioBuffer(np.ones(100), FS)
    with pytest.raises(ValueError, match="not a finite frequency"):
        modulate(x, shift)
    with pytest.raises(ValueError, match="not a finite frequency"):
        stft(x, cfg16k, shift=shift)


def test_off_grid_shift_matches_directly_synthesized_tone(cfg16k):
    # analysing a tone shifted by the window must equal the STFT of the
    # shifted tone synthesized directly
    n = np.arange(4000)
    f1, alpha = 1000.0, 73.3  # alpha far from any multiple of fs/K = 31.25
    tone = AudioBuffer(np.exp(2j * np.pi * f1 * n / FS), FS)
    shifted_tone = AudioBuffer(np.exp(2j * np.pi * (f1 + alpha) * n / FS), FS)
    via_shift = stft(tone, cfg16k, shift=alpha).data
    direct = stft(shifted_tone, cfg16k).data
    assert np.abs(via_shift - direct).max() <= 1e-9 * np.abs(direct).max()


def test_energy_preserved_per_channel(cfg16k):
    rng = np.random.default_rng(2)
    sig = AudioBuffer(rng.standard_normal(8000), FS)
    aug = build_augmented(sig, ModulationSet((0.0, 87.1, 311.7)), cfg16k)
    energies = [np.sum(np.abs(aug.channels[c]) ** 2) for c in range(3)]
    for e in energies[1:]:
        assert abs(e - energies[0]) <= 1e-9 * energies[0]


def test_channel_zero_bit_identical():
    # and every other channel is the shifted STFT bit for bit, within the
    # stated bound of the STFT of the directly modulated copy, at each rate
    rng = np.random.default_rng(3)
    for fs in (8000, 11025, 16000, 44100, 48000):
        cfg = StftConfig(fs)
        sig = AudioBuffer(rng.standard_normal(6000), fs)
        modset = ModulationSet((0.0, 120.0, -57.3, 0.31 * fs))
        aug = build_augmented(sig, modset, cfg)
        assert np.array_equal(aug.channels[0], stft(sig, cfg).data)
        for c, alpha in enumerate(modset.shifts[1:], start=1):
            assert np.array_equal(aug.channels[c], stft(sig, cfg, shift=alpha).data)
            direct = stft(modulate(sig, alpha), cfg).data
            assert np.abs(aug.channels[c] - direct).max() <= _direct_form_bound(sig, alpha, cfg)


def test_build_augmented_peak_memory():
    # the stack is built in place: at most one channel's STFT temporaries
    # are alive next to it, never a second copy of the stack
    sig = AudioBuffer(np.random.default_rng(4).standard_normal(10 * FS), FS)
    cfg = StftConfig(FS)
    modset = ModulationSet((0.0, 100.0, 200.0, 300.0, 400.0))
    build_augmented(sig, modset, cfg)  # first-call setup stays out of the trace
    tracemalloc.start()
    try:
        aug = build_augmented(sig, modset, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * aug.channels.nbytes


@settings(max_examples=40, deadline=None)
@given(
    fs=st.sampled_from([8000, 11025, 16000, 22050, 44100, 48000]),
    seconds=st.floats(1e-4, 2.5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_frame_range_equals_the_columns_of_the_whole_stack(fs, seconds, seed, data):
    cfg = StftConfig(fs)
    length = max(1, round(seconds * fs))
    sig = AudioBuffer(np.random.default_rng(seed).standard_normal(length), fs)
    modset = ModulationSet((0.0, 120.0, -57.3, 0.31 * fs))
    whole = build_augmented(sig, modset, cfg).channels
    total = whole.shape[1]
    # consecutive blocks, whose first and last touch the edges and whose last
    # is ragged unless the block length divides the frame count, plus a
    # single frame and a range drawn anywhere
    block = data.draw(st.integers(1, total), label="block")
    ranges = [(first, min(first + block, total)) for first in range(0, total, block)]
    one = data.draw(st.integers(0, total - 1), label="one")
    first = data.draw(st.integers(0, total - 1), label="first")
    ranges += [(one, one + 1), (first, data.draw(st.integers(first + 1, total), label="stop"))]
    for first, stop in ranges:
        part = build_augmented(sig, modset, cfg, frames=(first, stop)).channels
        assert np.array_equal(part, whole[:, first:stop]), (first, stop)


def test_stack_is_built_into_the_callers_array(cfg16k):
    sig = AudioBuffer(np.random.default_rng(5).standard_normal(20000), FS)
    modset = ModulationSet((0.0, 120.0, -57.3))
    ref = build_augmented(sig, modset, cfg16k, frames=(30, 90)).channels
    out = np.full((3, 60, cfg16k.fft_size), np.nan, dtype=np.complex128)
    aug = build_augmented(sig, modset, cfg16k, frames=(30, 90), out=out)
    assert aug.channels is out
    assert np.array_equal(out, ref)
    for bad in (np.empty((3, 61, cfg16k.fft_size), dtype=np.complex128), out.real.copy()):
        with pytest.raises(ValueError, match="out must be"):
            build_augmented(sig, modset, cfg16k, frames=(30, 90), out=bad)


def test_trivial_modset_single_channel(cfg16k):
    sig = AudioBuffer(np.sin(np.arange(4000) * 0.02), FS)
    aug = build_augmented(sig, ModulationSet((0.0,)), cfg16k)
    assert aug.channels.shape[0] == 1
    assert np.array_equal(aug.channels[0], stft(sig, cfg16k).data)


def test_three_shifts_three_channels(cfg16k):
    sig = AudioBuffer(np.sin(np.arange(4000) * 0.02), FS)
    aug = build_augmented(sig, ModulationSet((0.0, 50.0, 100.0)), cfg16k)
    assert aug.channels.shape[0] == 3
    assert aug.channels[1].shape == aug.channels[0].shape


def test_on_grid_shift_rolls_magnitudes(cfg16k):
    # f0 = 125 Hz is exactly 4 grid bins, so the shifted channel's magnitudes
    # are a circular roll of the unshifted ones: harmonic bins carry the
    # next-lower harmonic's energy
    f0 = 125.0
    g = round(f0 * cfg16k.fft_size / FS)
    noise = synth_harmonic_cs_noise(
        2.0, FS, HarmonicNoiseParams(f0=f0, num_harmonics=6, seed=5)
    )
    aug = build_augmented(noise, ModulationSet((0.0, f0)), cfg16k)
    mag0 = np.abs(aug.channels[0])
    mag1 = np.abs(aug.channels[1])
    assert np.abs(mag1 - np.roll(mag0, g, axis=1)).max() <= 1e-9 * mag0.max()


def _direct_form_bound(sig, alpha, cfg):
    """The stated bound on |stft(sig, shift=alpha) - stft(modulate(sig, alpha))|:
    FFT rounding, plus the rounding of the phase 2*pi*alpha*n/fs, which both
    forms carry, at sample indices up to the signal's length plus a frame."""
    phase = 2 * np.pi * abs(alpha) * (len(sig) + cfg.frame_len) / cfg.sample_rate
    scale = np.linalg.norm(cfg.window) * np.abs(sig.samples).max()
    return np.finfo(float).eps * (4 + phase) * scale


_lengths = st.sampled_from([1, 2]) | st.integers(1, 40000)


@settings(max_examples=80, deadline=None)
@given(
    fs=st.sampled_from([8000, 11025, 16000, 22050, 44100, 48000]) | st.integers(8000, 48000),
    length=_lengths,
    frac=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
    | st.sampled_from([-1.0, 1.0]).map(lambda s: s * np.nextafter(1.0, 0.0)),
    is_complex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_shifted_stft_rows_and_direct_form(fs, length, frac, is_complex, seed, data):
    alpha = frac * fs / 2  # negative shifts and shifts next to Nyquist included
    if abs(alpha) >= fs / 2:
        alpha = np.nextafter(fs / 2, 0.0) * np.sign(alpha)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(length)
    if is_complex:
        x = x + 1j * rng.standard_normal(length)
    sig, cfg = AudioBuffer(x, fs), StftConfig(fs)
    whole = stft(sig, cfg, shift=alpha).data
    # every frame range reads the same rows: consecutive blocks, a single
    # frame and a range drawn anywhere
    total = whole.shape[0]
    block = data.draw(st.integers(1, total), label="block")
    ranges = [(first, min(first + block, total)) for first in range(0, total, block)]
    one = data.draw(st.integers(0, total - 1), label="one")
    first = data.draw(st.integers(0, total - 1), label="first")
    ranges += [(one, one + 1), (first, data.draw(st.integers(first + 1, total), label="stop"))]
    for first, stop in ranges:
        part = stft(sig, cfg, frames=(first, stop), shift=alpha).data
        assert np.array_equal(part, whole[first:stop]), (first, stop)
    direct = stft(modulate(sig, alpha), cfg).data
    assert np.abs(whole - direct).max() <= _direct_form_bound(sig, alpha, cfg)


@settings(max_examples=30, deadline=None)
@given(length=_lengths, is_complex=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_zero_shift_bit_exact_at_any_length(length, is_complex, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(length)
    if is_complex:
        x = x + 1j * rng.standard_normal(length)
    y = modulate(AudioBuffer(x, FS), 0.0).samples
    assert np.array_equal(y, x.astype(complex))


def test_empty_signal_modulates_to_empty():
    assert len(modulate(AudioBuffer(np.zeros(0), FS), 100.0)) == 0
