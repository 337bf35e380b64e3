"""Mono WAV reading/writing (PCM16 and float32)."""

from __future__ import annotations

import logging

import numpy as np

from .stft import AudioBuffer

__all__ = ["read_wav", "write_wav"]

logger = logging.getLogger(__name__)

_PCM16_SCALE = 32768.0
# Largest magnitude PCM16 stores without clipping.
PCM16_MAX = 32767.0 / _PCM16_SCALE
# The sample encodings write_wav accepts.
ENCODINGS = ("float32", "pcm16")


def read_wav(path) -> AudioBuffer:
    """Read a mono PCM16 or float32 WAV into [-1, 1]-normalized float samples."""
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise ValueError(
            f"{path}: expected a mono file, got {data.shape[1]} channels"
        )
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / _PCM16_SCALE
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(
            f"{path}: unsupported sample encoding {data.dtype}; "
            "only PCM16 and float32 are handled"
        )
    return AudioBuffer(samples, int(rate))


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
    from scipy.io import wavfile

    x = buffer.samples
    clipped = int(np.count_nonzero(np.abs(x) > 1.0))
    if clipped:
        logger.warning("%s: %d samples outside [-1, 1]", path, clipped)
    if encoding == "pcm16":
        q = np.clip(np.round(x * _PCM16_SCALE), -32768, 32767).astype(np.int16)
        wavfile.write(path, buffer.sample_rate, q)
    elif encoding == "float32":
        wavfile.write(path, buffer.sample_rate, x.astype(np.float32))
    else:
        raise ValueError(f"unknown encoding {encoding!r}; use one of {ENCODINGS}")
    return clipped
