import numpy as np
import pytest
from scipy.io import wavfile

from cyclospeech import AudioBuffer, read_wav, write_wav

FS = 16000


def test_pcm16_full_scale_normalization(tmp_path):
    path = tmp_path / "fullscale.wav"
    wavfile.write(path, FS, np.array([32767, -32768, 0], dtype=np.int16))
    buf = read_wav(path)
    assert buf.sample_rate == FS
    assert abs(buf.samples[0] - 32767 / 32768) <= 1e-12
    assert buf.samples[1] == -1.0
    assert buf.samples[2] == 0.0


def test_float32_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal(5000).astype(np.float32)
    path = tmp_path / "f32.wav"
    clipped = write_wav(path, AudioBuffer(data, FS), "float32")
    assert clipped in (0, int(np.count_nonzero(np.abs(data) > 1.0)))
    back = read_wav(path)
    assert np.array_equal(back.samples.astype(np.float32), data)


def test_pcm16_roundtrip_quantized(tmp_path):
    rng = np.random.default_rng(1)
    data = np.clip(0.3 * rng.standard_normal(3000), -0.999, 0.999)
    path = tmp_path / "p16.wav"
    write_wav(path, AudioBuffer(data, FS), "pcm16")
    back = read_wav(path)
    assert np.abs(back.samples - data).max() <= 1.0 / 32768


def test_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    wavfile.write(path, FS, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(ValueError, match="2 channels"):
        read_wav(path)


def test_unsupported_encoding_rejected(tmp_path):
    path = tmp_path / "i32.wav"
    wavfile.write(path, FS, np.zeros(100, dtype=np.int32))
    with pytest.raises(ValueError, match="unsupported"):
        read_wav(path)


def test_empty_buffer_rejected(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        write_wav(tmp_path / "x.wav", AudioBuffer(np.zeros(0), FS))


def test_clipping_counted_but_written(tmp_path):
    data = np.array([0.5, 2.0, -2.0, 0.1])
    path = tmp_path / "clip.wav"
    clipped = write_wav(path, AudioBuffer(data, FS), "pcm16")
    assert clipped == 2
    assert path.exists()
    back = read_wav(path)
    assert abs(back.samples[1] - 32767 / 32768) <= 1e-12  # clipped to full scale


def test_nonfinite_rejected(tmp_path):
    with pytest.raises(ValueError, match="finite"):
        write_wav(tmp_path / "nan.wav", AudioBuffer(np.array([0.0, np.nan]), FS))


def test_nonfinite_error_names_first_bad_index(tmp_path):
    x = np.zeros(50)
    x[[17, 30]] = [-np.inf, np.nan]
    with pytest.raises(ValueError, match=r"non-finite sample \(-inf\) at index 17"):
        write_wav(tmp_path / "bad.wav", AudioBuffer(x, FS), "pcm16")


def test_complex_rejected(tmp_path):
    with pytest.raises(ValueError, match="complex"):
        write_wav(tmp_path / "c.wav", AudioBuffer(np.array([1j, 0j]), FS))


def test_unknown_encoding_rejected(tmp_path):
    with pytest.raises(ValueError, match="encoding"):
        write_wav(tmp_path / "e.wav", AudioBuffer(np.ones(10), FS), "mp3")
