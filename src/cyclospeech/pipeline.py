"""Single-file enhancement: configuration, preprocessor/mask composition, and
the wav-in/wav-out entry point."""

from __future__ import annotations

import logging
import numbers
import typing
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import modset as modset_module
from .baselines import (
    MinStatsState,
    apply_mask,
    min_stats_noise_psd,
    oracle_eps,
    oracle_irm,
    wiener_gain,
)
from .beamformer import CmpdrState
from .beamformer import process as cmpdr_process
from .metrics import MetricRecord, si_sdr, stoi
from .modset import CoherenceReport
from .modulation import ModulationSet, build_augmented
from .stft import AudioBuffer, StftConfig, default_stft_config, istft
from .wavio import read_wav, write_wav

# Unused here; the traced benchmark wraps this module attribute.
from .stft import stft  # noqa: F401

__all__ = ["PipelineConfig", "PipelineError", "EnhanceResult", "enhance_buffer", "run_pipeline", "select_modulation_set", "trim_edges"]

logger = logging.getLogger(__name__)


class PipelineError(RuntimeError):
    """A pipeline failure, tagged with the stage it occurred in."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def _within(allowed: str, value) -> bool:
    """Whether ``value`` lies in an interval written "(0, 1)", "[2, inf)"..."""
    low, high = (float(b) for b in allowed[1:-1].split(","))
    above = low < value if allowed[0] == "(" else low <= value
    below = value < high if allowed[-1] == ")" else value <= high
    return above and below


@dataclass
class PipelineConfig:
    """Everything one enhancement run depends on; loadable from a flat
    key=value file with CLI overrides.

    A field's metadata ``admits`` is its admissible values, an interval
    string or a tuple of choices, checked at construction and shown in the
    field's CLI help.
    """

    sample_rate: int = field(default=16000, metadata={"admits": "(0, inf)"})
    preproc: str = field(default="cmpdr", metadata={"admits": ("id", "wiener", "cmpdr")})
    mask: str = field(default="none", metadata={"admits": ("none", "oracle-irm")})
    # beamformer
    beta_x: float = field(default=0.95, metadata={"admits": "(0, 1)"})
    diag_load: float = field(default=1e-6, metadata={"admits": "(0, inf)"})
    # modulation-set estimation
    peak_count: int = field(default=20, metadata={"admits": "[1, inf)"})
    coherence_threshold: float = field(default=0.3, metadata={"admits": "[0, 1]"})
    max_shifts: int = field(default=5, metadata={"admits": "[1, inf)"})
    # a one-sample Welch segment gives a one-point grid, which has no step
    welch_seg: int = field(default=4096, metadata={"admits": "[2, inf)"})
    welch_overlap: float = field(default=0.5, metadata={"admits": "[0, 1)"})
    # minimum-statistics Wiener
    ms_window_sec: float = field(default=1.5, metadata={"admits": "(0, inf)"})
    ms_alpha: float = field(default=0.85, metadata={"admits": "(0, 1)"})
    ms_bias: float = field(default=1.5, metadata={"admits": "[1, inf)"})
    gain_floor_db: float = field(default=-25.0, metadata={"admits": "(-inf, 0)"})
    # when set, bypasses estimation entirely: zero first, distinct, each
    # below the Nyquist frequency
    forced_modset: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        for f in fields(self):
            allowed = f.metadata.get("admits")
            value = getattr(self, f.name)
            if _FIELD_TYPES[f.name] is int and (
                isinstance(value, bool) or not isinstance(value, numbers.Integral)
            ):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if isinstance(allowed, tuple) and value not in allowed:
                raise ValueError(f"{f.name} must be one of {allowed}, got {value!r}")
            if isinstance(allowed, str) and not _within(allowed, value):
                raise ValueError(f"{f.name} must lie in {allowed}, got {value!r}")
        if self.forced_modset is not None:
            self.forced_modset = tuple(float(s) for s in self.forced_modset)
            try:
                ModulationSet(self.forced_modset).validate_for_rate(self.sample_rate)
            except ValueError as exc:
                raise ValueError(f"forced_modset: {exc}") from None

    def stft_config(self) -> StftConfig:
        """The analysis geometry, which follows ``sample_rate``: 32 ms
        frames, 8 ms hop (512/128/512 points at 16 kHz)."""
        return default_stft_config(self.sample_rate)

    @property
    def gain_floor(self) -> float:
        return 10.0 ** (self.gain_floor_db / 20.0)

    def label(self) -> str:
        return f"{self.preproc}+{self.mask}"

    def as_mapping(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "forced_modset":
                value = "" if value is None else ",".join(repr(s) for s in value)
            out[f.name] = value
        return out

    @classmethod
    def from_mapping(cls, mapping: dict) -> "PipelineConfig":
        kwargs = {}
        for key, raw in mapping.items():
            if key not in _FIELD_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            try:
                kwargs[key] = field_parser(key)(raw) if isinstance(raw, str) else raw
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        mapping = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                mapping[key.strip()] = value.strip()
        return cls.from_mapping(mapping)


_FIELD_TYPES = typing.get_type_hints(PipelineConfig)


def _parse_shifts(raw: str) -> Optional[tuple[float, ...]]:
    raw = raw.strip()
    return tuple(float(tok) for tok in raw.split(",")) if raw else None


def field_parser(name: str):
    """The string parser of one config field: its annotated type, except for
    ``forced_modset``, which is comma-separated shifts ("" for none)."""
    return _parse_shifts if name == "forced_modset" else _FIELD_TYPES[name]


def select_modulation_set(
    signal: AudioBuffer, config: PipelineConfig
) -> tuple[ModulationSet, list[CoherenceReport]]:
    """The shifts the beamformer uses on ``signal``: ``config.forced_modset``
    when set (with no candidate reports), else the estimate from the signal.

    The estimator is looked up on its module at call time, so a wrapper
    installed there (as the traced benchmark does) sees every estimate.
    """
    if config.forced_modset is not None:
        return ModulationSet(config.forced_modset), []
    return modset_module.estimate_modulation_set_detailed(
        signal,
        config.stft_config(),
        peak_count=config.peak_count,
        coherence_threshold=config.coherence_threshold,
        max_shifts=config.max_shifts,
        seg_len=config.welch_seg,
        overlap=config.welch_overlap,
    )


@dataclass
class EnhanceResult:
    enhanced: AudioBuffer
    modset: Optional[ModulationSet]


# Frames per block of the enhancement loop (4.1 s at the 8 ms hop of every
# rate): each block is analysed, filtered and overlap-added before the next,
# so memory beyond the audio arrays does not grow with the input's length.
_STREAM_FRAMES = 512


def _beamform(noisy, clean, modset, cfg, frames, config, state):
    """The beamformer's (Y, Y_clean_or_None) for the frames (first, stop) of
    ``noisy`` on ``modset``, continuing ``state``. The block's stacks are
    freed on return, before the Wiener and mask steps run.

    A clean companion is passed through the *identical* realized filter, so
    Y - Y_clean is exactly the filtered noise. Only the oracle mask reads it.
    """
    # aug is positional and the rest keywords, as the traced benchmark's
    # inspector of cmpdr_process expects
    aug = build_augmented(noisy, modset, cfg, frames=frames)
    kwargs = dict(beta_x=config.beta_x, diag_load=config.diag_load, state=state)
    if clean is None:
        return cmpdr_process(aug, **kwargs), None
    aug_clean = build_augmented(clean, modset, cfg, frames=frames)
    return cmpdr_process(aug, companion=aug_clean, **kwargs)


def enhance_buffer(
    noisy: AudioBuffer,
    config: PipelineConfig,
    clean: Optional[AudioBuffer] = None,
) -> EnhanceResult:
    """Run preprocessor + optional oracle mask on in-memory audio.

    Every preprocessor is the beamformer: ``cmpdr`` on the estimated or
    forced set, ``id`` and ``wiener`` on the trivial set {0}, which passes
    the STFT through bit for bit; ``wiener`` then applies its gain. The
    stages run over consecutive blocks of ``_STREAM_FRAMES`` frames, each
    carrying its state to the next, and the output is the same for any
    block length. Raises ``ValueError`` on a NaN or infinite sample in
    ``noisy`` or ``clean``, naming its index, rather than returning
    non-finite audio.
    """
    noisy.require_finite("noisy input")
    if clean is not None:
        clean.require_finite("clean reference")
    if noisy.sample_rate != config.sample_rate:
        raise ValueError(
            f"input sample rate {noisy.sample_rate} does not match configured "
            f"rate {config.sample_rate}"
        )
    if clean is not None and len(clean) != len(noisy):
        raise ValueError("clean reference must match the input length")
    if config.mask == "oracle-irm" and clean is None:
        raise ValueError("the oracle mask requires a clean reference signal")

    cfg = config.stft_config()
    total = cfg.num_frames(len(noisy))
    if config.preproc == "cmpdr":
        modset, _ = select_modulation_set(noisy, config)
        logger.info("modulation set: %s Hz", [round(s, 3) for s in modset.shifts])
        shifts = modset
    else:
        modset, shifts = None, ModulationSet((0.0,))
    wiener = MinStatsState(num_frames=total) if config.preproc == "wiener" else None
    companion = clean if config.mask == "oracle-irm" else None
    eps = oracle_eps(companion, cfg) if companion is not None else None
    state = CmpdrState()
    enhanced = np.zeros(len(noisy))
    for first in range(0, total, _STREAM_FRAMES):
        frames = (first, min(first + _STREAM_FRAMES, total))
        y, y_clean = _beamform(noisy, companion, shifts, cfg, frames, config, state)
        if wiener is not None:
            noise_psd, smoothed = min_stats_noise_psd(
                y, config.ms_window_sec, config.ms_alpha, config.ms_bias, state=wiener
            )
            gain = wiener_gain(smoothed, noise_psd, config.gain_floor)
            y = replace(y, data=gain * y.data)
            if y_clean is not None:
                y_clean = replace(y_clean, data=gain * y_clean.data)
        if companion is not None:
            residual = replace(y, data=y.data - y_clean.data)
            y = apply_mask(y, oracle_irm(y_clean, residual, eps=eps))
        istft(y, out=enhanced, first_frame=first)
    return EnhanceResult(enhanced=AudioBuffer(enhanced, noisy.sample_rate), modset=modset)


def trim_edges(buffer: AudioBuffer, cfg: StftConfig) -> AudioBuffer:
    """Drop one analysis frame at each edge; evaluation runs on the interior."""
    if len(buffer) <= 2 * cfg.frame_len:
        raise ValueError("signal too short to trim one frame per edge")
    return AudioBuffer(
        buffer.samples[cfg.frame_len : -cfg.frame_len], buffer.sample_rate
    )


def run_pipeline(
    input_wav,
    config: PipelineConfig,
    output_wav=None,
    reference_wav=None,
    file_label: str | None = None,
    input_snr_db: float = float("nan"),
) -> tuple[AudioBuffer, Optional[MetricRecord]]:
    """Enhance one file; optionally score it against a clean reference.

    Errors from any stage are re-raised as PipelineError tagged with the
    stage name.
    """

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(name, str(exc)) from exc

    noisy = stage("read", read_wav, input_wav)
    reference = stage("read", read_wav, reference_wav) if reference_wav else None
    result = stage("enhance", enhance_buffer, noisy, config, reference)
    if output_wav is not None:
        stage("write", write_wav, output_wav, result.enhanced)

    record = None
    if reference is not None:
        cfg = config.stft_config()
        est = stage("metrics", trim_edges, result.enhanced, cfg)
        ref = stage("metrics", trim_edges, reference, cfg)
        record = MetricRecord(
            file=file_label or str(input_wav),
            input_snr_db=input_snr_db,
            preproc=config.preproc,
            mask=config.mask,
            si_sdr_db=stage("metrics", si_sdr, est, ref),
            stoi=stage("metrics", stoi, est, ref),
        )
    return result.enhanced, record
