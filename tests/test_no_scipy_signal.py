"""No library path loads scipy.signal.

A fresh interpreter runs the generators, the estimator, every pipeline with
and without the oracle mask, STOI at 16 and 44.1 kHz, WAV I/O and a
two-worker eval; scipy.signal must not be among its modules afterwards.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

GUARD = """
import sys
import tempfile
from pathlib import Path

import numpy as np

from cyclospeech import (
    AudioBuffer, HarmonicNoiseParams, MixSpec, PipelineConfig, StftConfig, SynthSettings,
    enhance_buffer, estimate_modulation_set_detailed, eval_dataset, mix_at_snr, read_wav,
    stoi, synth_dataset, synth_harmonic_cs_noise, synth_speech_like, write_wav,
)

FS = 16000
speech = synth_speech_like(3.0, FS, seed=1)
noise = synth_harmonic_cs_noise(3.0, FS, HarmonicNoiseParams(f0=97.0, seed=2))
mixture, _ = mix_at_snr(speech, noise, MixSpec(snr_db=-5.0))
estimate_modulation_set_detailed(mixture, StftConfig(FS))
for preproc in ("id", "wiener", "cmpdr"):
    for mask in ("none", "oracle-irm"):
        enhance_buffer(mixture, PipelineConfig(preproc=preproc, mask=mask), clean=speech)
stoi(mixture, speech)
loud = synth_speech_like(1.0, 44100, seed=3)
stoi(AudioBuffer(loud.samples + 0.01, 44100), loud)
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    (tmp / "speech").mkdir()
    write_wav(tmp / "speech" / "utt.wav", speech)
    read_wav(tmp / "speech" / "utt.wav")
    synth_dataset(tmp / "speech", tmp / "ds", SynthSettings(seed=4))
    records, _ = eval_dataset(
        tmp / "ds", [PipelineConfig(preproc="id"), PipelineConfig(preproc="wiener")], workers=2
    )
    assert len(records) == 2
print("loaded" if "scipy.signal" in sys.modules else "not loaded")
"""


def test_no_library_path_loads_scipy_signal():
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(GUARD)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "not loaded"
