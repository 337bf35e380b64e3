"""In-memory span tracer for the traced benchmark run.

The tracer wraps library functions at the module attributes through which
the layers call each other (``cyclospeech.pipeline.cmpdr_process``,
``cyclospeech.modset.stft``, ...), records one span per call and puts the
original attributes back when the traced pass ends. The library itself is
never edited, and the untraced run installs nothing.

Spans are strictly nested because the traced pass runs in one thread of one
process, so a span's self time is its duration minus the summed durations of
its direct children.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects the spans of one traced pass, in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module_name: str, attr: str, span_name: str, inspect=None) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(span_name, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.duration
            if inspect is not None:
                span.info = inspect(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        install_library_wraps(self)
        try:
            yield self
        finally:
            self.restore()

    def select(self, prefix: str) -> list[Span]:
        return [s for s in self.spans if s.name == prefix or s.name.startswith(prefix + "@")]

    def total_s(self, prefix: str) -> float:
        return sum((s.duration for s in self.select(prefix)), 0.0)

    def self_s(self, prefix: str) -> float:
        return sum((s.self_s for s in self.select(prefix)), 0.0)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def info_sum(self, prefix: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in self.select(prefix))


# --- what each wrapped call reports besides its time ---------------------

def _frames(args, kwargs, result):
    return {"frames": result.num_frames}


def _estimate(args, kwargs, result):
    _, reports = result
    return {"candidates": len(reports), "accepted": sum(r.accepted for r in reports)}


def _augmented(args, kwargs, result):
    c, k, l = result.channels.shape
    return {"channels": c, "aug_bytes": c * k * l * result.channels.itemsize}


def _solves(args, kwargs, result):
    aug = args[0] if args else kwargs["aug"]
    stride = kwargs.get("weight_stride", args[3] if len(args) > 3 else 1)
    c, k, l = aug.channels.shape
    # a single-channel stack is copied through without any solve
    return {"solves": 0 if c == 1 else k * math.ceil(l / stride)}


def _read(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _write(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "clipped": result}


def _eval(args, kwargs, result):
    records, skips = result
    return {"tasks": len(records) + len(skips), "skipped": len(skips)}


# (module, attribute, span name, inspect); "layer.op@site" names one call
# site of a function that several layers call.
LIBRARY_WRAPS = [
    ("cyclospeech.modset", "estimate_modulation_set_detailed", "modset.estimate", _estimate),
    ("cyclospeech.modset", "welch_periodogram", "modset.welch", None),
    ("cyclospeech.modset", "stft", "stft.stft@modset", _frames),
    ("cyclospeech.modset", "modulate", "modulation.modulate@modset", None),
    ("cyclospeech.modulation", "stft", "stft.stft@modulation", _frames),
    ("cyclospeech.modulation", "modulate", "modulation.modulate@modulation", None),
    ("cyclospeech.pipeline", "enhance_buffer", "pipeline.enhance@pipeline", None),
    ("cyclospeech.pipeline", "build_augmented", "modulation.build_augmented", _augmented),
    ("cyclospeech.pipeline", "cmpdr_process", "beamformer.process", _solves),
    ("cyclospeech.pipeline", "stft", "stft.stft@pipeline", _frames),
    ("cyclospeech.pipeline", "istft", "stft.istft", None),
    ("cyclospeech.pipeline", "min_stats_noise_psd", "baselines.min_stats", None),
    ("cyclospeech.pipeline", "wiener_gain", "baselines.wiener_gain", None),
    ("cyclospeech.pipeline", "oracle_irm", "baselines.oracle_irm", None),
    ("cyclospeech.pipeline", "apply_mask", "baselines.apply_mask", None),
    ("cyclospeech.pipeline", "si_sdr", "metrics.si_sdr@pipeline", None),
    ("cyclospeech.pipeline", "stoi", "metrics.stoi@pipeline", None),
    ("cyclospeech.pipeline", "read_wav", "wavio.read@pipeline", _read),
    ("cyclospeech.pipeline", "write_wav", "wavio.write@pipeline", _write),
    ("cyclospeech.dataset", "synth_dataset", "dataset.synth", None),
    ("cyclospeech.dataset", "eval_dataset", "dataset.eval", _eval),
    ("cyclospeech.dataset", "enhance_buffer", "pipeline.enhance@dataset", None),
    ("cyclospeech.dataset", "si_sdr", "metrics.si_sdr@dataset", None),
    ("cyclospeech.dataset", "stoi", "metrics.stoi@dataset", None),
    ("cyclospeech.dataset", "read_wav", "wavio.read@dataset", _read),
    ("cyclospeech.dataset", "write_wav", "wavio.write@dataset", _write),
    ("cyclospeech.dataset", "synth_harmonic_cs_noise", "synth.noise", None),
    ("cyclospeech.dataset", "mix_at_snr", "synth.mix", None),
]


def install_library_wraps(tracer: Tracer) -> None:
    for module_name, attr, span_name, inspect in LIBRARY_WRAPS:
        tracer.wrap(module_name, attr, span_name, inspect)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, files: int) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass over ``files`` input files.

    Returns (metrics, bases): each ratio's denominator is listed in bases.
    """
    estimates = t.count("modset.estimate")
    candidates = int(t.info_sum("modset.estimate", "candidates"))
    accepted = int(t.info_sum("modset.estimate", "accepted"))
    estimate_s = t.total_s("modset.estimate")
    solves = int(t.info_sum("beamformer.process", "solves"))
    process_s = t.total_s("beamformer.process")
    aug = t.select("modulation.build_augmented")
    m = {
        "modset.estimate_s": estimate_s,
        "modset.estimate_self_s": t.self_s("modset.estimate"),
        "modset.welch_s": t.total_s("modset.welch"),
        "modset.calls": estimates,
        "modset.candidates": candidates,
        "modset.accepted_frac": _ratio(accepted, candidates),
        "modset.s_per_candidate": _ratio(estimate_s, candidates),
        "modset.stft_calls": t.count("stft.stft@modset"),
        "modset.modulate_calls": t.count("modulation.modulate@modset"),
        "modset.estimates_per_file": _ratio(estimates, files),
        "modulation.build_augmented_s": t.total_s("modulation.build_augmented"),
        "modulation.modulate_s": t.total_s("modulation.modulate"),
        "modulation.channels": int(t.info_sum("modulation.build_augmented", "channels")),
        "modulation.aug_mb": max((s.info["aug_bytes"] for s in aug), default=0) / 2**20,
        "stft.stft_s": t.total_s("stft.stft"),
        "stft.stft_calls": len(t.select("stft.stft")),
        "stft.istft_s": t.total_s("stft.istft"),
        "stft.frames": int(t.info_sum("stft.stft", "frames")),
        "beamformer.process_s": process_s,
        "beamformer.solves": solves,
        "beamformer.us_per_solve": 1e6 * _ratio(process_s, solves),
        "baselines.min_stats_s": t.total_s("baselines.min_stats"),
        "baselines.wiener_gain_s": t.total_s("baselines.wiener_gain"),
        "baselines.oracle_irm_s": t.total_s("baselines.oracle_irm"),
        "baselines.apply_mask_s": t.total_s("baselines.apply_mask"),
        "metrics.stoi_s": t.total_s("metrics.stoi"),
        "metrics.si_sdr_s": t.total_s("metrics.si_sdr"),
        "wavio.read_s": t.total_s("wavio.read"),
        "wavio.write_s": t.total_s("wavio.write"),
        "wavio.bytes_read": int(t.info_sum("wavio.read", "bytes")),
        "wavio.bytes_written": int(t.info_sum("wavio.write", "bytes")),
        "wavio.clipped_samples": int(t.info_sum("wavio.write", "clipped")),
        "synth.noise_s": t.total_s("synth.noise"),
        "synth.mix_s": t.total_s("synth.mix"),
        "pipeline.enhance_s": t.total_s("pipeline.enhance"),
        "pipeline.self_s": t.self_s("pipeline.enhance"),
        "dataset.synth_s": t.total_s("dataset.synth"),
        "dataset.eval_s": t.total_s("dataset.eval"),
        "dataset.tasks": int(t.info_sum("dataset.eval", "tasks")),
        "dataset.skipped": int(t.info_sum("dataset.eval", "skipped")),
    }
    bases = {
        "modset.accepted_frac": {"candidates_scored": candidates},
        "modset.s_per_candidate": {"candidates_scored": candidates},
        "modset.estimates_per_file": {"files": files},
        "beamformer.us_per_solve": {"solves": solves},
        "modulation.aug_mb": {"build_augmented_calls": len(aug)},
        "modulation.channels": {"build_augmented_calls": len(aug)},
    }
    return m, bases
