import re
import struct
import warnings

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


@pytest.mark.parametrize("big", (1e39, -np.finfo(np.float64).max))
def test_float32_overflow_is_refused_naming_path_and_index(tmp_path, big):
    # the largest float32 itself is written; beyond it float32 holds only inf
    top = float(np.finfo(np.float32).max)
    path = tmp_path / "big.wav"
    assert write_wav(path, AudioBuffer(np.array([0.5, -top]), FS)) == 1
    assert read_wav(path).samples[1] == -top
    path = tmp_path / "overflow.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"overflow\.wav: .* at index 2 is beyond float32"):
            write_wav(path, AudioBuffer(np.array([0.5, top, big, 1e39]), FS))
    assert not path.exists()


def test_complex_rejected(tmp_path):
    with pytest.raises(ValueError, match="complex"):
        write_wav(tmp_path / "c.wav", AudioBuffer(np.array([1j, 0j]), FS))


def test_unknown_encoding_rejected(tmp_path):
    with pytest.raises(ValueError, match="encoding"):
        write_wav(tmp_path / "e.wav", AudioBuffer(np.ones(10), FS), "mp3")


def _riff(*chunks, form=b"RIFF"):
    """A WAVE file of the given (id, payload) chunks, each padded to even
    size."""
    body = b"WAVE" + b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2)
        for cid, data in chunks
    )
    return form + struct.pack("<I", len(body)) + body


def _fmt(tag, bits, extensible=False):
    block = bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, 1, FS, FS * block, block, bits)
    if extensible:  # cbSize 22, valid bits, channel mask, subformat GUID
        guid = struct.pack("<IHH", tag, 0, 0x10) + bytes.fromhex("800000aa00389b71")
        fmt += struct.pack("<HHI", 22, bits, 4) + guid
    return fmt


@pytest.mark.parametrize("n", (1, 2, 1001, 4000))
@pytest.mark.parametrize("encoding", ("pcm16", "float32"))
def test_writer_bytes_equal_scipy(tmp_path, encoding, n):
    x = np.clip(0.4 * np.random.default_rng(n).standard_normal(n), -1.0, 1.0)
    write_wav(tmp_path / "ours.wav", AudioBuffer(x, FS), encoding)
    if encoding == "pcm16":
        data = np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int16)
    else:
        data = x.astype(np.float32)
    wavfile.write(tmp_path / "scipy.wav", FS, data)
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


@pytest.mark.parametrize(
    "tag, bits, dtype", ((1, 16, "<i2"), (3, 32, "<f4")), ids=("pcm16", "float32")
)
def test_extensible_header_is_read(tmp_path, tag, bits, dtype):
    data = (np.arange(-50, 51) * 300).astype(dtype)
    path = tmp_path / "ext.wav"
    fmt = _fmt(tag, bits, extensible=True)
    path.write_bytes(_riff((b"fmt ", fmt), (b"data", data.tobytes())))
    rate, expected = wavfile.read(path)
    back = read_wav(path)
    assert back.sample_rate == rate == FS
    scale = 32768.0 if tag == 1 else 1.0
    assert np.array_equal(back.samples, expected.astype(np.float64) / scale)


def test_list_and_odd_sized_unknown_chunks_are_skipped(tmp_path):
    data = np.array([1, -2, 3, -4, 5], dtype="<i2")
    path = tmp_path / "chunks.wav"
    path.write_bytes(
        _riff(
            (b"LIST", b"INFOISFT\x05\x00\x00\x00test\x00"),
            (b"fmt ", _fmt(1, 16)),
            (b"odd ", b"abc"),  # 3 bytes and a pad byte
            (b"data", data.tobytes()),
            (b"tail", b"x"),
        )
    )
    with pytest.warns(wavfile.WavFileWarning):  # scipy warns on unknown chunks
        _, expected = wavfile.read(path)
    assert np.array_equal(read_wav(path).samples, expected / 32768.0)


def test_big_endian_riff_is_refused_naming_its_path(tmp_path):
    path = tmp_path / "rifx.wav"
    path.write_bytes(_riff((b"fmt ", _fmt(1, 16)), (b"data", bytes(4)), form=b"RIFX"))
    with pytest.raises(ValueError, match=re.escape(str(path)) + ": not a RIFF WAVE"):
        read_wav(path)


def test_float64_file_is_read(tmp_path):
    data = np.array([0.1, -0.7, 1.5e-300])
    path = tmp_path / "f64.wav"
    wavfile.write(path, FS, data)
    assert np.array_equal(read_wav(path).samples, data)


@pytest.mark.parametrize(
    "cut", (3, 20, 43, 46), ids=("in RIFF header", "in fmt", "in data header", "in data")
)
def test_truncated_file_is_refused_naming_its_path(tmp_path, cut):
    full = tmp_path / "full.wav"
    write_wav(full, AudioBuffer(np.linspace(-0.5, 0.5, 100), FS), "pcm16")
    path = tmp_path / "cut.wav"
    path.write_bytes(full.read_bytes()[:cut])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_wav(path)


def test_file_without_data_chunk_is_refused_naming_its_path(tmp_path):
    path = tmp_path / "nodata.wav"
    path.write_bytes(_riff((b"fmt ", _fmt(1, 16)), (b"LIST", b"INFO")))
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*no data chunk"):
        read_wav(path)
