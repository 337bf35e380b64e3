import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclospeech import AudioBuffer, ComplexSpectrogram, StftConfig, istft, stft
from cyclospeech.stft import _frame_signal, default_stft_config, periodic_hann

FS = 16000


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
    cfg = default_stft_config(fs)
    assert (cfg.frame_len, cfg.hop, cfg.fft_size) == geometry


def test_default_config_matches_16k_geometry():
    cfg = default_stft_config(FS)
    assert cfg.frame_len == 512  # 32 ms at 16 kHz
    assert cfg.hop == 128  # 8 ms
    assert cfg.fft_size == 512
    assert cfg.cola_deviation() <= 1e-10


@pytest.mark.parametrize("fs", [8000, 11025, 16000, 22050, 44100, 48000])
def test_default_config_valid_and_round_trips(fs):
    cfg = default_stft_config(fs)
    assert cfg.hop == round(0.008 * fs)
    assert cfg.frame_len == 4 * cfg.hop
    # smallest power of two that holds a frame
    assert cfg.fft_size >= cfg.frame_len > cfg.fft_size // 2
    assert cfg.fft_size & (cfg.fft_size - 1) == 0
    assert cfg.cola_deviation() <= 1e-10
    x = np.random.default_rng(fs).standard_normal(fs // 2 + 17)
    spec = stft(AudioBuffer(x, fs), cfg)
    assert spec.shape[0] == cfg.fft_size
    out = np.zeros(len(x), dtype=complex)
    istft(spec, out)
    assert len(out) == len(x)
    assert np.abs(out - x).max() <= 1e-12


def test_zero_signal_gives_zero_spectrogram(cfg16k):
    spec = stft(AudioBuffer(np.zeros(4000), FS), cfg16k)
    assert spec.shape[0] == 512
    assert np.all(spec.data == 0)


def test_bin_center_exponential_peaks_at_its_bin(cfg16k):
    k0 = 37
    f = k0 * FS / cfg16k.fft_size
    n = np.arange(3 * cfg16k.frame_len)
    sig = AudioBuffer(np.exp(2j * np.pi * f * n / FS), FS)
    spec = stft(sig, cfg16k)
    argmax = np.argmax(np.abs(spec.data), axis=0)
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
        assert np.allclose(spec.data[:, col], expected, atol=1e-12)


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
    spec = ComplexSpectrogram(np.zeros((512, 20), dtype=complex), cfg16k)
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
        freq_energy = np.sum(np.abs(spec.data[:, col]) ** 2) / cfg16k.fft_size
        assert abs(time_energy - freq_energy) <= 1e-9 * max(time_energy, 1e-30)


def test_empty_signal_rejected(cfg16k):
    with pytest.raises(ValueError, match="empty"):
        stft(AudioBuffer(np.zeros(0), FS), cfg16k)


def test_sample_rate_mismatch_rejected(cfg16k):
    with pytest.raises(ValueError, match="sample rate"):
        stft(AudioBuffer(np.zeros(1000), 8000), cfg16k)


def test_geometry_invariants_enforced():
    win = np.sqrt(periodic_hann(512))
    with pytest.raises(ValueError, match="divide"):
        StftConfig(frame_len=512, hop=100, fft_size=512, window=win, sample_rate=FS)
    with pytest.raises(ValueError, match="exceeds"):
        StftConfig(frame_len=512, hop=128, fft_size=256, window=win, sample_rate=FS)


def test_configs_compare_by_value_and_spectrograms_by_identity():
    cfg = default_stft_config(FS)
    assert cfg == default_stft_config(FS)
    assert cfg != default_stft_config(8000)
    other_window = default_stft_config(FS)
    other_window.window = periodic_hann(512)
    assert cfg != other_window
    spec = stft(AudioBuffer(np.ones(3000), FS), cfg)
    assert spec == spec
    assert spec != stft(AudioBuffer(np.ones(3000), FS), cfg)


def test_istft_rechecks_cola():
    cfg = default_stft_config(FS)
    spec = stft(AudioBuffer(np.ones(3000), FS), cfg)
    # sabotage the pair after construction; istft must notice
    cfg.synthesis_window = cfg.synthesis_window + np.linspace(0, 0.5, 512)
    with pytest.raises(ValueError, match="overlap-add"):
        istft(spec, np.zeros(3000))


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
    cfg = default_stft_config(fs)
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
    hop=st.integers(1, 64),
    overlap=st.integers(1, 8),
    length=st.integers(1, 3000),
    is_complex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_strided_framing_matches_gather(hop, overlap, length, is_complex, seed):
    frame_len = hop * overlap
    cfg = StftConfig(frame_len, hop, frame_len, np.ones(frame_len), FS)
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
