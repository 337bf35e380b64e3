"""Dataset synthesis and batch evaluation.

``synth_dataset`` turns a directory of clean WAVs into (clean, noise,
mixture) triples plus a manifest; ``eval_dataset`` runs pipeline configs over
the triples and writes per-file metrics, bucketed aggregates, curve points,
and a skip log. All outputs are deterministically ordered so identical seeds
give byte-identical CSVs.
"""

from __future__ import annotations

import csv
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import modset
from ._fields import check_fields
from .metrics import (
    MetricRecord,
    aggregate,
    curve_points,
    write_records_csv,
    write_table_csv,
)
from .pipeline import PipelineConfig, run_pipeline

# Unused here; the traced benchmark wraps these module attributes.
from .metrics import si_sdr, stoi  # noqa: F401
from .pipeline import enhance_buffer  # noqa: F401
from .synth import HarmonicNoiseParams, MixSpec, mix_at_snr, synth_harmonic_cs_noise
from .stft import AudioBuffer
from .wavio import ENCODINGS, PCM16_MAX, read_wav, write_wav

__all__ = ["SynthSettings", "synth_dataset", "eval_dataset"]

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.csv"


def _noise_field(name: str, **overrides):
    """A field declared as the ``HarmonicNoiseParams`` field ``name`` is:
    its admissible values and, unless overridden, its default. Its metadata
    ``noise`` names that field."""
    noise = next(f for f in fields(HarmonicNoiseParams) if f.name == name)
    metadata = {**noise.metadata, "noise": name}
    return field(**{"default": noise.default, "metadata": metadata, **overrides})


@dataclass
class SynthSettings:
    """Per file, ``synth_dataset`` draws f0 and SNR from U(low, high) of
    ``f0_range`` and ``snr_range``."""

    seed: int = field(default=0, metadata={"admits": "[0, inf)"})
    snr_range: tuple[float, float] = field(
        default=(-20.0, 0.0), metadata={"admits": "(-inf, inf)"}
    )
    f0_range: tuple[float, float] = _noise_field("f0", default=(60.0, 150.0))
    num_harmonics: int = _noise_field("num_harmonics")
    correlation: float = _noise_field("correlation")
    envelope_rate: float = _noise_field("envelope_rate")
    amplitude_decay: float = _noise_field("amplitude_decay")
    encoding: str = field(default="float32", metadata={"admits": ENCODINGS})

    def __post_init__(self):
        # checked here, before synth_dataset writes anything
        check_fields(self)
        for name in ("snr_range", "f0_range"):
            low, high = getattr(self, name)
            if low > high:
                raise ValueError(f"{name} must be (low, high), got {(low, high)!r}")


# The settings that pass to each file's HarmonicNoiseParams as they are; f0 is
# drawn from f0_range instead.
_NOISE_SETTINGS = [f.name for f in fields(SynthSettings) if f.metadata.get("noise") == f.name]


def synth_dataset(clean_dir, out_dir, settings: SynthSettings | None = None) -> Path:
    """Build a noisy dataset from every WAV in ``clean_dir``.

    Per file, a fundamental and an SNR are drawn from the configured uniform
    ranges with per-file seeds spawned deterministically from the master
    seed. For PCM16, a triple whose largest peak would clip is scaled by one
    common gain so that it fits, which keeps mix = clean + noise and the SNR
    exact; the manifest's ``gain`` column records it (1 when unscaled, and
    always for float32). Returns the manifest path.
    """
    settings = settings or SynthSettings()
    clean_dir = Path(clean_dir)
    out_dir = Path(out_dir)
    sources = sorted(p for p in clean_dir.glob("*.wav"))
    if not sources:
        raise ValueError(f"no WAV files found in {clean_dir}")
    for sub in ("clean", "noise", "mix"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)

    seed_seq = np.random.SeedSequence(settings.seed)
    children = seed_seq.spawn(len(sources))
    rows = []
    for src, child in zip(sources, children):
        clean = read_wav(src)
        rng = np.random.default_rng(child)
        f0 = float(rng.uniform(*settings.f0_range))
        snr_db = float(rng.uniform(*settings.snr_range))
        noise_seed = int(rng.integers(0, 2**31 - 1))
        params = HarmonicNoiseParams(
            f0=f0,
            seed=noise_seed,
            **{name: getattr(settings, name) for name in _NOISE_SETTINGS},
        )
        noise = synth_harmonic_cs_noise(
            len(clean) / clean.sample_rate, clean.sample_rate, params
        )
        mixture, scaled_noise = mix_at_snr(clean, noise, MixSpec(snr_db=snr_db))
        triple = (clean, scaled_noise, mixture)
        gain = 1.0
        if settings.encoding == "pcm16":
            peak = max(float(np.abs(b.samples).max()) for b in triple)
            if peak > PCM16_MAX:
                gain = PCM16_MAX / peak
                triple = tuple(
                    AudioBuffer(gain * b.samples, b.sample_rate) for b in triple
                )

        stem = src.stem
        rel = {
            "clean_path": f"clean/{stem}.wav",
            "noise_path": f"noise/{stem}.wav",
            "mix_path": f"mix/{stem}.wav",
        }
        for path, buffer in zip(rel.values(), triple):
            write_wav(out_dir / path, buffer, settings.encoding)
        rows.append(
            {
                "file": stem,
                **rel,
                "sample_rate": clean.sample_rate,
                "num_samples": len(clean),
                "f0_hz": f0,
                "num_harmonics": settings.num_harmonics,
                "correlation": float(settings.correlation),
                "envelope_rate_hz": float(settings.envelope_rate),
                "amplitude_decay": float(settings.amplitude_decay),
                "noise_seed": noise_seed,
                "snr_db": snr_db,
                "gain": gain,
            }
        )

    manifest = out_dir / MANIFEST_NAME
    write_table_csv(manifest, rows)
    logger.info("synthesized %d triples into %s", len(rows), out_dir)
    return manifest


def _read_manifest(dataset_dir: Path) -> list[dict]:
    manifest = dataset_dir / MANIFEST_NAME
    if not manifest.exists():
        raise ValueError(f"no {MANIFEST_NAME} in {dataset_dir}")
    with open(manifest, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _eval_one(task) -> tuple[str, MetricRecord | None, str | None]:
    """Evaluate one (manifest row, config) pair; importable so worker pools
    can pickle it. Returns (sort key, record or None, skip reason or None)."""
    dataset_dir, row, config = task
    key = f"{row['file']}|{config.preproc}|{config.mask}"
    mix_path = Path(dataset_dir) / row["mix_path"]
    clean_path = Path(dataset_dir) / row["clean_path"]
    for path, role in ((mix_path, "mixture"), (clean_path, "reference")):
        if not path.exists():
            return key, None, f"{row['file']}: missing {role} file {path}"
    try:
        snr_db = float(row["snr_db"])
        if not np.isfinite(snr_db):
            raise ValueError(f"snr_db {row['snr_db']} is not finite")
        _, record = run_pipeline(
            mix_path,
            config,
            reference_wav=clean_path,
            file_label=row["file"],
            input_snr_db=snr_db,
        )
        return key, record, None
    except Exception as exc:  # noqa: BLE001 - skip reasons must be logged, not raised
        return key, None, f"{row['file']} [{config.label()}]: {exc}"


def eval_dataset(
    dataset_dir,
    configs: list[PipelineConfig],
    out_dir=None,
    workers: int = 1,
) -> tuple[list[MetricRecord], list[str]]:
    """Run every config over every manifest row.

    Writes metrics.csv, aggregate.csv, curves.csv and skipped.log under
    ``out_dir`` (defaults to the dataset directory). Rows are sorted by
    (file, preproc, mask) regardless of worker completion order. The pool
    has min(``workers``, tasks) processes, and each scores modulation-set
    candidates on its share of the usable CPUs; a serial run uses them all.
    """
    if not configs:
        raise ValueError("need at least one pipeline config")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    dataset_dir = Path(dataset_dir)
    rows = _read_manifest(dataset_dir)
    tasks = [(str(dataset_dir), row, config) for row in rows for config in configs]
    out_dir = Path(out_dir) if out_dir is not None else dataset_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    pool_size = min(workers, len(tasks))
    if pool_size > 1:
        with ProcessPoolExecutor(
            max_workers=pool_size,
            initializer=modset._set_thread_budget,
            initargs=(max(1, modset._usable_cpus() // pool_size),),
        ) as pool:
            outcomes = list(pool.map(_eval_one, tasks))
    else:
        outcomes = [_eval_one(t) for t in tasks]
    outcomes.sort(key=lambda item: item[0])

    records = [rec for _, rec, _ in outcomes if rec is not None]
    skips = [reason for _, _, reason in outcomes if reason is not None]
    for reason in skips:
        logger.warning("skipped: %s", reason)

    write_records_csv(out_dir / "metrics.csv", records)
    if records:
        write_table_csv(out_dir / "aggregate.csv", aggregate(records))
        write_table_csv(out_dir / "curves.csv", curve_points(records))
    with open(out_dir / "skipped.log", "w", encoding="utf-8", newline="\n") as fh:
        for reason in skips:
            fh.write(reason + "\n")
    return records, skips
