import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclospeech import AudioBuffer, ComplexSpectrogram, StftConfig, istft, stft
from cyclospeech.stft import _frame_signal, _overlap_add, next_fast_len

FS = 16000


def cola_deviation(cfg):
    """Relative deviation of the overlap-added window product from constant."""
    ola = (cfg.window * cfg.synthesis_window).reshape(-1, cfg.hop).sum(axis=0)
    return np.max(np.abs(ola - ola.mean())) / abs(ola.mean())


@pytest.mark.parametrize(
    "fs, geometry",
    [
        (8000, (256, 64, 256)),
        (11025, (352, 88, 512)),
        (22050, (704, 176, 1024)),
        (44100, (1412, 353, 2048)),
        (48000, (1536, 384, 2048)),
    ],
)
def test_default_config_geometry_off_16k(fs, geometry):
    cfg = StftConfig(fs)
    assert (cfg.frame_len, cfg.hop, cfg.fft_size) == geometry


def test_default_config_matches_16k_geometry():
    cfg = StftConfig(FS)
    assert cfg.frame_len == 512  # 32 ms at 16 kHz
    assert cfg.hop == 128  # 8 ms
    assert cfg.fft_size == 512
    assert cola_deviation(cfg) <= 1e-10


@pytest.mark.parametrize("fs", [8000, 11025, 16000, 22050, 44100, 48000])
def test_default_config_valid_and_round_trips(fs):
    cfg = StftConfig(fs)
    assert cfg.hop == round(0.008 * fs)
    assert cfg.frame_len == 4 * cfg.hop
    # smallest power of two that holds a frame
    assert cfg.fft_size >= cfg.frame_len > cfg.fft_size // 2
    assert cfg.fft_size & (cfg.fft_size - 1) == 0
    assert cola_deviation(cfg) <= 1e-10
    x = np.random.default_rng(fs).standard_normal(fs // 2 + 17)
    spec = stft(AudioBuffer(x, fs), cfg)
    assert spec.shape[1] == cfg.fft_size
    out = np.zeros(len(x), dtype=complex)
    istft(spec, out)
    assert len(out) == len(x)
    assert np.abs(out - x).max() <= 1e-12


def test_zero_signal_gives_zero_spectrogram(cfg16k):
    spec = stft(AudioBuffer(np.zeros(4000), FS), cfg16k)
    assert spec.shape[1] == 512
    assert np.all(spec.data == 0)


def test_bin_center_exponential_peaks_at_its_bin(cfg16k):
    k0 = 37
    f = k0 * FS / cfg16k.fft_size
    n = np.arange(3 * cfg16k.frame_len)
    sig = AudioBuffer(np.exp(2j * np.pi * f * n / FS), FS)
    spec = stft(sig, cfg16k)
    argmax = np.argmax(np.abs(spec.data), axis=1)
    assert np.all(argmax == k0)


def test_one_column_matches_direct_windowed_fft(cfg16k):
    # oracle: frame the padded signal by hand and FFT it
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2000)
    spec = stft(AudioBuffer(x, FS), cfg16k)
    pad = cfg16k.frame_len - cfg16k.hop
    padded = np.zeros(pad + len(x) + cfg16k.frame_len)
    padded[pad : pad + len(x)] = x
    for col in (0, 3, 7):
        frame = padded[col * cfg16k.hop : col * cfg16k.hop + cfg16k.frame_len]
        expected = np.fft.fft(frame * cfg16k.window, n=cfg16k.fft_size)
        assert np.allclose(spec.data[col], expected, atol=1e-12)


def test_roundtrip_interior_error(cfg16k):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(12 * cfg16k.frame_len)
    out = np.zeros(len(x), dtype=complex)
    istft(stft(AudioBuffer(x, FS), cfg16k), out)
    inner = slice(cfg16k.frame_len, -cfg16k.frame_len)
    err = np.linalg.norm(out.real[inner] - x[inner]) / np.linalg.norm(x[inner])
    assert err <= 1e-6
    assert np.abs(out.imag).max() < 1e-10


def test_zero_spectrogram_inverts_to_zero(cfg16k):
    spec = ComplexSpectrogram(np.zeros((20, 512), dtype=complex), cfg16k)
    out = np.zeros(20 * cfg16k.hop - cfg16k.pad, dtype=complex)
    istft(spec, out)
    assert np.all(out == 0)


def test_istft_scaling_linearity(cfg16k):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(6000)
    spec = stft(AudioBuffer(x, FS), cfg16k)
    doubled = ComplexSpectrogram(2.0 * spec.data, cfg16k)
    y = np.zeros(len(x))
    istft(doubled, y)
    assert np.linalg.norm(y - 2 * x) / np.linalg.norm(x) <= 1e-6


def test_stft_linearity(cfg16k):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4000)
    y = rng.standard_normal(4000)
    a, b = 1.7, -0.4
    lhs = stft(AudioBuffer(a * x + b * y, FS), cfg16k).data
    rhs = a * stft(AudioBuffer(x, FS), cfg16k).data + b * stft(AudioBuffer(y, FS), cfg16k).data
    scale = np.abs(lhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_parseval_per_frame(cfg16k):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(4000)
    spec = stft(AudioBuffer(x, FS), cfg16k)
    pad = cfg16k.pad
    padded = np.zeros(pad + len(x) + cfg16k.frame_len)
    padded[pad : pad + len(x)] = x
    for col in (1, 5, 10):
        frame = padded[col * cfg16k.hop : col * cfg16k.hop + cfg16k.frame_len]
        time_energy = np.sum((frame * cfg16k.window) ** 2)
        freq_energy = np.sum(np.abs(spec.data[col]) ** 2) / cfg16k.fft_size
        assert abs(time_energy - freq_energy) <= 1e-9 * max(time_energy, 1e-30)


def test_empty_signal_rejected(cfg16k):
    with pytest.raises(ValueError, match="empty"):
        stft(AudioBuffer(np.zeros(0), FS), cfg16k)


@pytest.mark.parametrize("frames", [(3, 3), (-1, 2), (0, 8), (7, 8)])
def test_frame_range_outside_the_signal_refused(cfg16k, frames):
    # 500 samples make 7 frames; rows past them would be silent zeros
    with pytest.raises(ValueError, match="empty or outside the signal's 7 frames"):
        stft(AudioBuffer(np.ones(500), FS), cfg16k, frames=frames)


def test_sample_rate_mismatch_rejected(cfg16k):
    with pytest.raises(ValueError, match="sample rate"):
        stft(AudioBuffer(np.zeros(1000), 8000), cfg16k)


def test_configs_compare_by_value_and_spectrograms_by_identity():
    cfg = StftConfig(FS)
    assert cfg == StftConfig(FS)
    assert cfg != StftConfig(8000)
    spec = stft(AudioBuffer(np.ones(3000), FS), cfg)
    assert spec == spec
    assert spec != stft(AudioBuffer(np.ones(3000), FS), cfg)


def test_config_is_immutable():
    # the window pair cannot be sabotaged after construction, so istft need
    # not recheck it
    cfg = StftConfig(FS)
    for name in ("sample_rate", "hop", "window", "synthesis_window"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, getattr(cfg, name))
    for window in (cfg.window, cfg.synthesis_window):
        with pytest.raises(ValueError, match="read-only"):
            window[0] = 1.0
    assert cfg == StftConfig(FS)


def test_rate_without_a_hop_refused():
    # the 8 ms hop rounds to one sample at 63 Hz and to none below
    assert (StftConfig(63).hop, StftConfig(63).fft_size) == (1, 4)
    for rate in (62, 1, 0, -8000):
        with pytest.raises(ValueError, match="below 63 Hz"):
            StftConfig(rate)


def test_rate_must_be_an_integer():
    # a fractional rate used to be truncated by AudioBuffer and kept by
    # StftConfig, so the two then disagreed; a bool was taken as 1 Hz
    for rate in (16000.9, 16000.5, 16000.0, True):
        with pytest.raises(ValueError, match=f"integer, got {rate!r}$"):
            AudioBuffer(np.zeros(8), rate)
        with pytest.raises(ValueError, match=f"integer, got {rate!r}$"):
            StftConfig(rate)
    rate = np.int64(FS)
    assert AudioBuffer(np.zeros(8), rate).sample_rate == FS
    assert StftConfig(rate) == StftConfig(FS)


def test_complex_input_supported(cfg16k):
    rng = np.random.default_rng(5)
    z = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    out = np.zeros(len(z), dtype=complex)
    istft(stft(AudioBuffer(z, FS), cfg16k), out)
    assert np.linalg.norm(out - z) / np.linalg.norm(z) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    fs=st.sampled_from([8000, 11025, 16000, 22050, 44100, 48000]),
    length=st.integers(1, 3 * 48000),
    is_complex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_roundtrip_at_every_rate_and_length(fs, length, is_complex, seed):
    cfg = StftConfig(fs)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(length)
    if is_complex:
        x = x + 1j * rng.standard_normal(length)
    out = np.zeros(length, dtype=complex)
    istft(stft(AudioBuffer(x, fs), cfg), out)
    assert len(out) == length
    assert np.abs(out - x).max() <= 1e-12 * max(1.0, np.abs(x).max())


def _gather_frames(x, cfg):
    """Reference framing: zero-pad, then a fancy-index gather."""
    n = x.shape[0]
    num_frames = cfg.num_frames(n)
    total = (num_frames - 1) * cfg.hop + cfg.frame_len
    padded = np.zeros(total, dtype=x.dtype)
    padded[cfg.pad : cfg.pad + n] = x
    idx = cfg.hop * np.arange(num_frames)[:, None] + np.arange(cfg.frame_len)[None, :]
    return padded[idx]


@settings(max_examples=60, deadline=None)
@given(
    fs=st.integers(63, 8000),  # hops of 1..64 samples
    length=st.integers(1, 3000),
    is_complex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_strided_framing_matches_gather(fs, length, is_complex, seed):
    cfg = StftConfig(fs)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(length)
    if is_complex:
        x = x + 1j * rng.standard_normal(length)
    frames = _frame_signal(x, cfg)
    expected = _gather_frames(x, cfg)
    assert frames.dtype == expected.dtype
    assert np.array_equal(frames, expected)


def test_require_finite_names_first_bad_sample():
    x = np.zeros(100)
    AudioBuffer(x, FS).require_finite()
    x[[40, 70]] = [np.inf, np.nan]
    with pytest.raises(ValueError, match=r"input has a non-finite sample \(inf\) at index 40"):
        AudioBuffer(x, FS).require_finite("input")
    with pytest.raises(ValueError, match="index 3"):
        AudioBuffer(np.array([0, 1, 2, np.nan * 1j]), FS).require_finite()


def _loop_overlap_add(frames, hop, out, begin):
    """Reference overlap-add: one frame at a time, in frame order."""
    for i, frame in enumerate(frames):
        start = begin + i * hop
        lo, hi = max(start, 0), min(start + frames.shape[1], len(out))
        if lo < hi:
            out[lo:hi] += frame[lo - start : hi - start]


@settings(max_examples=200, deadline=None)
@given(
    hop=st.integers(1, 64),
    hops_per_frame=st.sampled_from([1, 2, 4]),
    count=st.integers(1, 40),
    length=st.integers(1, 600),
    lead=st.integers(-300, 700),
    is_complex=st.booleans(),
    blocks=st.lists(st.integers(1, 40), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_overlap_add_matches_per_frame_loop(
    hop, hops_per_frame, count, length, lead, is_complex, blocks, seed
):
    # frames may start before sample 0 and past the end; magnitudes spread
    # over 16 decades, so a sum in any other order would change bits
    rng = np.random.default_rng(seed)
    shape = (count, hops_per_frame * hop)
    frames = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    initial = rng.standard_normal(length)
    if is_complex:
        frames = frames + 1j * rng.standard_normal(shape)
        initial = initial + 1j * rng.standard_normal(length)
    begin = lead - shape[1]
    expected = initial.copy()
    _loop_overlap_add(frames, hop, expected, begin)
    # one call on all frames, and calls on consecutive blocks of them
    whole = initial.copy()
    _overlap_add(frames, hop, whole, begin)
    assert np.array_equal(whole, expected)
    blocked = initial.copy()
    bounds = np.cumsum([0, *blocks, count]).clip(max=count)
    for first, stop in zip(bounds[:-1], bounds[1:]):
        _overlap_add(frames[first:stop], hop, blocked, begin + first * hop)
    assert np.array_equal(blocked, expected)


def test_next_fast_len_equals_scipy():
    from scipy.fft import next_fast_len as scipy_next_fast_len

    for n in [*range(1, 5000), *range(960_000, 962_501)]:
        assert next_fast_len(n) == scipy_next_fast_len(n), n
