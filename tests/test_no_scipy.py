"""No library path loads scipy: numpy is the only runtime dependency.

A fresh interpreter runs the generators, the estimator, every pipeline with
and without the oracle mask, STOI at 16 and 44.1 kHz, WAV I/O, a two-worker
eval and each CLI subcommand; no scipy module may be among its modules
afterwards. The same script runs once more with scipy made unimportable, as
if it were not installed.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# a finder ahead of every other that refuses scipy and its subpackages
UNIMPORTABLE = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not installed")
        return None

sys.meta_path.insert(0, NoScipy())
"""

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
from cyclospeech.cli import main

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
    clean, mix = str(tmp / "speech" / "utt.wav"), str(tmp / "mix.wav")
    write_wav(clean, speech)
    write_wav(mix, mixture, "pcm16")
    read_wav(clean)
    synth_dataset(tmp / "speech", tmp / "ds", SynthSettings(seed=4))
    records, _ = eval_dataset(
        tmp / "ds", [PipelineConfig(preproc="id"), PipelineConfig(preproc="wiener")], workers=2
    )
    assert len(records) == 2
    for argv in (
        ["synth", "--clean-dir", str(tmp / "speech"), "--out-dir", str(tmp / "ds2")],
        ["eval", "--dataset-dir", str(tmp / "ds2"), "--pipeline", "cmpdr:oracle-irm"],
        ["enhance", mix, str(tmp / "out.wav"), "--preproc", "wiener", "--reference", clean],
        ["modset", mix],
    ):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


@pytest.mark.parametrize("scipy", ("installed", "unimportable"))
def test_no_library_path_loads_scipy(scipy):
    script = (UNIMPORTABLE if scipy == "unimportable" else "") + GUARD
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
