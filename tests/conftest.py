import numpy as np
import pytest

from cyclospeech import (
    AudioBuffer,
    AugmentedSpectrogram,
    HarmonicNoiseParams,
    StftConfig,
    cmpdr_process,
    stft,
    synth_harmonic_cs_noise,
    synth_speech_like,
)
from cyclospeech import beamformer, modset

FS = 16000


@pytest.fixture(scope="session")
def cfg16k():
    return StftConfig(FS)


@pytest.fixture(scope="session")
def speech_4s():
    return synth_speech_like(4.0, FS, seed=42)


@pytest.fixture(scope="session")
def cs_noise_10s():
    return synth_harmonic_cs_noise(
        10.0, FS, HarmonicNoiseParams(f0=100.0, seed=7)
    )


@pytest.fixture(scope="session")
def white_10s():
    rng = np.random.default_rng(1234)
    return AudioBuffer(rng.standard_normal(10 * FS), FS)


def _anchor_weights(cov, diag_load=1e-6):
    """The recursion's anchor solve on one C x C covariance: (w = [1, -z], fallback)."""
    z, _, fallback = beamformer._loaded_solve(np.asarray(cov, dtype=complex)[:, :, None], diag_load)
    return np.concatenate([[1.0 + 0j], -z[:, 0]]), bool(fallback[0])


def _realized_weights(aug):
    """The filter ``process`` ran on ``aug``, C > 1: (output, final covariance
    (K, C, C), weights (L, K, C)).

    y = w^H x is linear in x, so co-filtering a companion that is 1 in channel
    j and 0 elsewhere returns conj(w_j) in every bin and frame.
    """
    c, l, k = aug.channels.shape
    weights = np.empty((l, k, c), dtype=np.complex128)
    state = beamformer.CmpdrState()
    for j in range(c):
        unit = np.zeros((c, l, k), dtype=np.complex128)
        unit[j] = 1.0
        comp = AugmentedSpectrogram(channels=unit, modset=aug.modset, config=aug.config)
        y, y_comp = cmpdr_process(aug, companion=comp, state=state if j == 0 else None)
        weights[:, :, j] = np.conj(y_comp.data)
    cov = beamformer._covariance(state.cov, state.since)
    return y, cov.transpose(2, 0, 1), weights


@pytest.fixture(scope="session")
def anchor_weights():
    return _anchor_weights


@pytest.fixture(scope="session")
def realized_weights():
    return _realized_weights


def _spectral_coherence(signal, alpha, cfg):
    """The estimator's coherence score of ``signal`` against its copy
    shifted by ``alpha`` Hz (the unshifted spectrogram itself at 0 Hz)."""
    base = stft(signal, cfg).data
    shifted = base if alpha == 0.0 else stft(signal, cfg, shift=alpha).data
    return modset._coherence_between(base, modset._bin_energy(base), shifted)


@pytest.fixture(scope="session")
def spectral_coherence():
    return _spectral_coherence
