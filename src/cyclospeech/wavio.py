"""Mono WAV reading/writing (PCM16 and float32).

Files are RIFF WAVE: a ``fmt `` chunk, then ``data``. The writer emits the
headers of ``scipy.io.wavfile.write`` byte for byte: a 16-byte ``fmt`` for
PCM16, an 18-byte ``fmt`` and a ``fact`` chunk for float32. The reader also
takes ``WAVE_FORMAT_EXTENSIBLE`` headers, and skips any other chunk with its
pad byte.
"""

from __future__ import annotations

import logging
import struct

import numpy as np

from .stft import AudioBuffer

__all__ = ["read_wav", "write_wav"]

logger = logging.getLogger(__name__)

_PCM16_SCALE = 32768.0
# Largest magnitude PCM16 stores without clipping.
PCM16_MAX = 32767.0 / _PCM16_SCALE
# The sample encodings write_wav accepts.
ENCODINGS = ("float32", "pcm16")

# WAVE format tags; an extensible header carries the tag in the first field
# of a subformat GUID {tag-0000-0010-8000-00AA00389B71}, whose last 12 bytes
# are these.
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (tag, bits per sample, block size) -> sample type
_ENCODINGS_READ = {
    (_PCM, 16, 2): "<i2", (_IEEE_FLOAT, 32, 4): "<f4", (_IEEE_FLOAT, 64, 8): "<f8"
}


def read_wav(path) -> AudioBuffer:
    """Read a mono PCM16 or float32 WAV into [-1, 1]-normalized float samples.

    A float64 file is read too. Raises ``ValueError`` naming ``path`` on a
    file that is not RIFF WAVE, is truncated or has no ``data`` chunk after
    its ``fmt`` chunk, or holds several channels or another encoding.
    """
    with open(path, "rb") as f:
        riff = f.read(12)
        if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
            raise ValueError(f"{path}: not a RIFF WAVE file")
        fmt = None
        while True:
            head = f.read(8)
            if len(head) < 8:
                raise ValueError(f"{path}: truncated file, or no data chunk")
            chunk, size = head[:4], struct.unpack("<I", head[4:])[0]
            if chunk == b"data":
                break
            if chunk == b"fmt ":
                fmt = f.read(size)
                if len(fmt) < size:
                    raise ValueError(f"{path}: truncated fmt chunk")
                f.seek(size % 2, 1)
            else:
                f.seek(size + size % 2, 1)
        if fmt is None or len(fmt) < 16:
            raise ValueError(f"{path}: no valid fmt chunk before the data chunk")
        tag, channels, rate, _, align, bits = struct.unpack("<HHIIHH", fmt[:16])
        if tag == _EXTENSIBLE and fmt[28:40] == _GUID_TAIL:
            tag = struct.unpack("<I", fmt[24:28])[0]
        if channels != 1:
            raise ValueError(f"{path}: expected a mono file, got {channels} channels")
        dtype = _ENCODINGS_READ.get((tag, bits, align))
        if dtype is None:
            raise ValueError(
                f"{path}: unsupported sample encoding (format tag {tag}, "
                f"{bits}-bit); only PCM16 and float32 are handled"
            )
        count = size // align
        data = np.fromfile(f, dtype=dtype, count=count)
    if len(data) < count:
        raise ValueError(
            f"{path}: truncated data chunk ({len(data)} of {count} samples)"
        )
    if dtype == "<i2":
        samples = data.astype(np.float64) / _PCM16_SCALE
    else:
        samples = data.astype(np.float64)
    return AudioBuffer(samples, rate)


def write_wav(path, buffer: AudioBuffer, encoding: str = "float32") -> int:
    """Write a mono WAV; returns the number of samples outside [-1, 1].

    Out-of-range samples are clipped for PCM16 and written as-is for float32;
    either way the count is logged as a warning.
    """
    if len(buffer) == 0:
        raise ValueError("refusing to write an empty buffer")
    if np.iscomplexobj(buffer.samples):
        raise ValueError("cannot write complex samples; take the real part first")
    buffer.require_finite(f"audio for {path}")
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}; use one of {ENCODINGS}")
    x = buffer.samples
    clipped = int(np.count_nonzero(np.abs(x) > 1.0))
    if clipped:
        logger.warning("%s: %d samples outside [-1, 1]", path, clipped)
    rate = buffer.sample_rate
    if encoding == "pcm16":
        data = np.clip(np.round(x * _PCM16_SCALE), -32768, 32767).astype("<i2")
        fmt = struct.pack("<HHIIHH", _PCM, 1, rate, 2 * rate, 2, 16)
        fact = b""
    else:  # a non-PCM fmt carries an empty extension (its size, 0) and a fact chunk
        data = x.astype("<f4")
        fmt = struct.pack("<HHIIHHH", _IEEE_FLOAT, 1, rate, 4 * rate, 4, 32, 0)
        fact = b"fact" + struct.pack("<II", 4, len(data))
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + fact
    if len(body) + 8 + data.nbytes > 0xFFFFFFFF:
        raise ValueError(f"{path}: {len(data)} samples do not fit in a RIFF file")
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", len(body) + 8 + data.nbytes) + body)
        f.write(b"data" + struct.pack("<I", data.nbytes))
        data.tofile(f)
    return clipped
