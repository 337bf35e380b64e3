"""Single-file enhancement: configuration, preprocessor/mask composition, and
the wav-in/wav-out entry point."""

from __future__ import annotations

import logging
import typing
from dataclasses import dataclass, fields, replace
from typing import Optional

from . import modset as modset_module
from .baselines import apply_mask, min_stats_noise_psd, oracle_irm, wiener_gain
from .beamformer import process as cmpdr_process
from .metrics import MetricRecord, si_sdr, stoi
from .modset import CoherenceReport
from .modulation import ModulationSet, build_augmented
from .stft import AudioBuffer, StftConfig, default_stft_config, istft, stft
from .wavio import read_wav, write_wav

__all__ = ["PipelineConfig", "PipelineError", "EnhanceResult", "enhance_buffer", "run_pipeline", "select_modulation_set", "trim_edges"]

logger = logging.getLogger(__name__)

PREPROC_CHOICES = ("id", "wiener", "cmpdr")
MASK_CHOICES = ("none", "oracle-irm")


class PipelineError(RuntimeError):
    """A pipeline failure, tagged with the stage it occurred in."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class PipelineConfig:
    """Everything one enhancement run depends on; loadable from a flat
    key=value file with CLI overrides."""

    sample_rate: int = 16000
    preproc: str = "cmpdr"
    mask: str = "none"
    # beamformer
    beta_x: float = 0.95
    diag_load: float = 1e-6
    # modulation-set estimation
    peak_count: int = 20
    coherence_threshold: float = 0.3
    max_shifts: int = 5
    welch_seg: int = 4096
    welch_overlap: float = 0.5
    # minimum-statistics Wiener
    ms_window_sec: float = 1.5
    ms_alpha: float = 0.85
    ms_bias: float = 1.5
    gain_floor_db: float = -25.0
    # when set, bypasses estimation entirely
    forced_modset: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.preproc not in PREPROC_CHOICES:
            raise ValueError(f"preproc must be one of {PREPROC_CHOICES}")
        if self.mask not in MASK_CHOICES:
            raise ValueError(f"mask must be one of {MASK_CHOICES}")
        if not 0.0 < self.beta_x < 1.0:
            raise ValueError("beta_x must lie strictly between 0 and 1")
        if self.diag_load <= 0:
            raise ValueError("diag_load must be positive")
        if self.max_shifts < 1 or self.peak_count < 1:
            raise ValueError("max_shifts and peak_count must be >= 1")
        if not 0.0 <= self.coherence_threshold <= 1.0:
            raise ValueError("coherence_threshold must lie in [0, 1]")
        if self.welch_seg < 2:
            raise ValueError("welch_seg must be >= 2")
        if not 0.0 <= self.welch_overlap < 1.0:
            raise ValueError("welch_overlap must lie in [0, 1)")
        if not self.ms_window_sec > 0.0:
            raise ValueError("ms_window_sec must be positive")
        if not 0.0 < self.ms_alpha < 1.0:
            raise ValueError("ms_alpha must lie strictly between 0 and 1")
        if not self.ms_bias >= 1.0:
            raise ValueError("ms_bias must be at least 1")
        if self.gain_floor_db >= 0.0:
            raise ValueError("gain_floor_db must be negative")
        if self.forced_modset is not None:
            self.forced_modset = tuple(float(s) for s in self.forced_modset)
            ModulationSet(self.forced_modset)  # validates zero-first/distinct

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
            kwargs[key] = field_parser(key)(raw) if isinstance(raw, str) else raw
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
    preprocessed: object  # ComplexSpectrogram of the first stage output


def _preprocess(noisy: AudioBuffer, config: PipelineConfig, clean: Optional[AudioBuffer]):
    """First enhancement stage; returns (Y, Y_clean_or_None, modset_or_None).

    When a clean companion is supplied it is passed through the *identical*
    realized filter (same beamformer weights / same Wiener gains), so
    Y - Y_clean is exactly the filtered noise. Only the oracle mask reads it.
    """
    cfg = config.stft_config()
    if config.preproc == "cmpdr":
        modset, _ = select_modulation_set(noisy, config)
        logger.info("modulation set: %s Hz", [round(s, 3) for s in modset.shifts])
        aug = build_augmented(noisy, modset, cfg)
        if clean is None:
            y = cmpdr_process(aug, beta_x=config.beta_x, diag_load=config.diag_load)
            return y, None, modset
        aug_clean = build_augmented(clean, modset, cfg)
        y, y_clean = cmpdr_process(
            aug,
            beta_x=config.beta_x,
            diag_load=config.diag_load,
            companion=aug_clean,
        )
        return y, y_clean, modset

    x = stft(noisy, cfg)
    x_clean = stft(clean, cfg) if clean is not None else None
    if config.preproc == "id":
        return x, x_clean, None

    noise_psd = min_stats_noise_psd(
        x,
        window_sec=config.ms_window_sec,
        smooth_alpha=config.ms_alpha,
        bias=config.ms_bias,
    )
    gain = wiener_gain(
        x, noise_psd, gain_floor=config.gain_floor, smooth_alpha=config.ms_alpha
    )
    y = replace(x, data=gain * x.data)
    y_clean = replace(x_clean, data=gain * x_clean.data) if x_clean is not None else None
    return y, y_clean, None


def enhance_buffer(
    noisy: AudioBuffer,
    config: PipelineConfig,
    clean: Optional[AudioBuffer] = None,
) -> EnhanceResult:
    """Run preprocessor + optional oracle mask on in-memory audio.

    Raises ``ValueError`` on a NaN or infinite sample in ``noisy`` or
    ``clean``, naming its index, rather than returning non-finite audio.
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

    companion = clean if config.mask == "oracle-irm" else None
    y, y_clean, modset = _preprocess(noisy, config, companion)
    if config.mask == "oracle-irm":
        residual = replace(y, data=y.data - y_clean.data)
        mask = oracle_irm(y_clean, residual)
        d = apply_mask(y, mask)
    else:
        d = y
    enhanced = istft(d).real()
    return EnhanceResult(enhanced=enhanced, modset=modset, preprocessed=y)


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
