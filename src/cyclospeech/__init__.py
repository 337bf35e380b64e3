"""Cyclostationarity-aware single-channel speech enhancement.

A cyclic MPDR spectral beamformer suppresses harmonic (machinery-style)
noise by linearly combining frequency-shifted copies of the input signal,
with the shifts estimated from the recording itself. Identity and
minimum-statistics Wiener preprocessors, an oracle ratio-mask second stage,
a harmonic-noise generator, SI-SDR/STOI metrics, and a batch harness round
out the toolkit.
"""

from .baselines import apply_mask, min_stats_noise_psd, oracle_irm, wiener_gain
from .beamformer import process as cmpdr_process
from .dataset import SynthSettings, eval_dataset, synth_dataset
from .metrics import MetricRecord, aggregate, curve_points, si_sdr, stoi
from .modset import (
    CoherenceReport,
    PeakList,
    candidate_modulations,
    estimate_modulation_set_detailed,
    pick_peaks,
    welch_periodogram,
)
from .modulation import AugmentedSpectrogram, ModulationSet, build_augmented, modulate
from .pipeline import (
    EnhanceResult,
    PipelineConfig,
    PipelineError,
    enhance_buffer,
    run_pipeline,
    select_modulation_set,
    trim_edges,
)
from .stft import AudioBuffer, ComplexSpectrogram, StftConfig, istft, stft
from .synth import (
    HarmonicNoiseParams,
    MixSpec,
    mix_at_snr,
    synth_harmonic_cs_noise,
    synth_speech_like,
)
from .wavio import read_wav, write_wav

__version__ = "0.1.0"
