"""Single-file enhancement: configuration, preprocessor/mask composition, and
the wav-in/wav-out entry point."""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar, Optional

import numpy as np

from . import modset as modset_module
from ._fields import check_fields, field_parser
from .baselines import (
    MinStatsState,
    apply_mask,
    min_stats_noise_psd,
    oracle_eps,
    oracle_irm,
    wiener_gain,
)
from .beamformer import _BLOCK_FRAMES, _WARM_FRAMES, CmpdrState
from .beamformer import process as cmpdr_process
from .metrics import MetricRecord, si_sdr, stoi
from .modset import CoherenceReport
from .modulation import ModulationSet, build_augmented
from .stft import AudioBuffer, StftConfig, _check_shift, istft
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


@dataclass
class PipelineConfig:
    """Everything one enhancement run depends on; loadable from a flat
    key=value file with CLI overrides. The estimator's settings are fixed.

    A field's metadata ``admits`` is its tuple of choices, checked at
    construction (see ``_fields``) and shown in the field's CLI help.
    """

    preproc: str = field(default="cmpdr", metadata={"admits": ("id", "wiener", "cmpdr")})
    mask: str = field(default="none", metadata={"admits": ("none", "oracle-irm")})
    # when set, bypasses estimation entirely (see select_modulation_set)
    forced_modset: Optional[tuple[float, ...]] = field(
        default=None,
        metadata={
            "flag": "modset",
            "help": "comma-separated shifts in Hz (e.g. 0,110,220) to bypass estimation",
        },
    )

    # Unused here; the benchmark reads these. Class attributes, not fields.
    peak_count: ClassVar[int] = modset_module.PEAK_COUNT
    coherence_threshold: ClassVar[float] = modset_module.COHERENCE_THRESHOLD
    max_shifts: ClassVar[int] = modset_module.MAX_SHIFTS
    welch_seg: ClassVar[int] = modset_module.WELCH_SEG
    welch_overlap: ClassVar[float] = modset_module.WELCH_OVERLAP

    def __post_init__(self):
        check_fields(self)
        if self.forced_modset is not None:
            try:
                ModulationSet(self.forced_modset)
            except ValueError as exc:
                raise ValueError(f"forced_modset: {exc}") from None

    # Only the benchmark's 16 kHz workloads call this; it goes with ROADMAP item 1.
    def stft_config(self) -> StftConfig:
        return StftConfig(16000)

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
        names = {f.name for f in fields(cls)}
        for key, raw in mapping.items():
            if key not in names:
                raise ValueError(f"unknown config key {key!r}")
            try:
                kwargs[key] = field_parser(cls, key)(raw) if isinstance(raw, str) else raw
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


def select_modulation_set(
    signal: AudioBuffer, config: PipelineConfig
) -> tuple[ModulationSet, list[CoherenceReport]]:
    """The shifts the beamformer uses on ``signal``: ``config.forced_modset``
    when set (with no candidate reports), refused unless each shift is below
    ``signal``'s Nyquist frequency, else the estimate at fixed settings.

    The estimator is looked up on its module at call time, so a wrapper
    installed there (as the traced benchmark does) sees every estimate.
    """
    if config.forced_modset is None:
        return modset_module.estimate_modulation_set_detailed(signal, StftConfig(signal.sample_rate))
    modset = ModulationSet(config.forced_modset)
    try:
        for shift in modset.shifts:
            _check_shift(shift, signal.sample_rate)
    except ValueError as exc:
        raise ValueError(f"forced_modset: {exc}") from None
    return modset, []


@dataclass
class EnhanceResult:
    enhanced: AudioBuffer


# Frames per block of the enhancement loop (4.1 s at the 8 ms hop of every
# rate): each block's stacks are analysed, then filtered, masked and
# overlap-added _BLOCK_FRAMES frames at a time, before the next block's, so
# memory beyond the audio arrays does not grow with the input's length.
_STREAM_FRAMES = 512


def enhance_buffer(
    noisy: AudioBuffer,
    config: PipelineConfig,
    clean: Optional[AudioBuffer] = None,
) -> EnhanceResult:
    """Run preprocessor + optional oracle mask on in-memory audio.

    Every preprocessor is the beamformer: ``cmpdr`` on the estimated or
    forced set, ``id`` and ``wiener`` on the trivial set {0}, which passes
    the STFT through bit for bit; ``wiener`` then applies its gain. Each
    block of ``_STREAM_FRAMES`` frames has its noisy stack (and clean stack)
    built at once; the beamformer, the Wiener gain, the oracle mask and the
    iSTFT then run over consecutive chunks of ``_BLOCK_FRAMES`` frames of
    those stacks, carrying their state from chunk to chunk and from block to
    block, so no output, residual, mask or synthesis array longer than a
    chunk is held, and the output is the same for any block or chunk length.
    One helper thread builds each block's noisy stack, the next block's
    once the current block's stacks are dropped, so two blocks' stacks are
    never held at once.
    Raises ``ValueError`` on an empty ``noisy`` or ``clean``, and on a NaN
    or infinite sample in either, naming its index.
    """
    for buffer, what in ((noisy, "noisy input"), (clean, "clean reference")):
        if buffer is not None:
            if not len(buffer):
                raise ValueError(f"{what} is empty")
            buffer.require_finite(what)
    if clean is not None and len(clean) != len(noisy):
        raise ValueError("clean reference must match the input length")
    if config.mask == "oracle-irm" and clean is None:
        raise ValueError("the oracle mask requires a clean reference signal")

    cfg = StftConfig(noisy.sample_rate)
    total = cfg.num_frames(len(noisy))
    if config.preproc == "cmpdr":
        shifts, _ = select_modulation_set(noisy, config)
        logger.info("modulation set: %s Hz", [round(s, 3) for s in shifts.shifts])
    else:
        shifts = ModulationSet((0.0,))
    wiener = MinStatsState(num_frames=total) if config.preproc == "wiener" else None
    # a clean companion is passed through the *identical* realized filter, so
    # Y - Y_clean is exactly the filtered noise; only the oracle mask reads it
    companion = clean if config.mask == "oracle-irm" else None
    eps = oracle_eps(companion, cfg) if companion is not None else None
    state = CmpdrState()
    enhanced = np.zeros(len(noisy))
    blocks = [(f, min(f + _STREAM_FRAMES, total)) for f in range(0, total, _STREAM_FRAMES)]
    # the beamformer's first call must hold the frames its warm start reads
    chunk = max(_BLOCK_FRAMES, _WARM_FRAMES)

    def stack(frames):
        # every stack is allocated on this thread, also those the helper
        # fills: a helper's own allocations would grow a second malloc arena
        return np.empty((len(shifts), frames[1] - frames[0], cfg.fft_size), dtype=np.complex128)

    def enhance_chunk(aug, aug_clean, first_frame):
        # everything made here is chunk-sized and dropped on return
        if aug_clean is None:
            y, y_clean = cmpdr_process(aug, state=state), None
        else:
            y, y_clean = cmpdr_process(aug, companion=aug_clean, state=state)
        if wiener is not None:
            noise_psd, smoothed = min_stats_noise_psd(y, state=wiener)
            gain = wiener_gain(smoothed, noise_psd)
            y = replace(y, data=gain * y.data)
            if y_clean is not None:
                y_clean = replace(y_clean, data=gain * y_clean.data)
        if y_clean is not None:
            residual = replace(y, data=y.data - y_clean.data)
            y = apply_mask(y, oracle_irm(y_clean, residual, eps=eps))
        istft(y, out=enhanced, first_frame=first_frame)

    with ThreadPoolExecutor(max_workers=1) as helper:
        first = blocks[0]
        pending = helper.submit(build_augmented, noisy, shifts, cfg, frames=first, out=stack(first))
        for b, frames in enumerate(blocks):
            aug, aug_clean = pending.result(), None
            if companion is not None:
                aug_clean = build_augmented(companion, shifts, cfg, frames=frames, out=stack(frames))
            for lo in range(0, frames[1] - frames[0], chunk):
                part = np.s_[:, lo : lo + chunk]
                enhance_chunk(
                    replace(aug, channels=aug.channels[part]),
                    None if aug_clean is None else replace(aug_clean, channels=aug_clean.channels[part]),
                    frames[0] + lo,
                )
            # the block's stacks are dropped before the next one's is made
            aug = aug_clean = pending = None
            if b + 1 < len(blocks):
                nxt = blocks[b + 1]
                pending = helper.submit(
                    build_augmented, noisy, shifts, cfg, frames=nxt, out=stack(nxt)
                )
    return EnhanceResult(enhanced=AudioBuffer(enhanced, noisy.sample_rate))


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
        cfg = StftConfig(noisy.sample_rate)
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
