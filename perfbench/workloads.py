"""The benchmark's three workloads.

Each workload makes its inputs from the workload seed with the library's own
seeded generators, hands the library only those inputs, and checks every
output. Why each workload is in the benchmark is recorded in README.md.

The library is always reached through its module attributes at call time
(``pipeline.enhance_buffer``, not a name bound at import), so the traced run
can wrap those attributes and the untraced run sees the library untouched.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cyclospeech
from cyclospeech import dataset, modset, pipeline

FS = 16000
# The estimator's Welch grid: a harmonic input is estimated correctly when
# the set holds its f0 within one bin of it.
WELCH_RES_HZ = FS / pipeline.PipelineConfig().welch_seg
# Floor on the SI-SDR gain of every enhance-long file: the oracle-set floor
# of acceptance criterion A3. A correct build gains far more (~18 dB).
MIN_ENHANCE_GAIN_DB = 3.0
EVAL_PIPELINES = (("id", "none"), ("wiener", "none"), ("cmpdr", "none"), ("cmpdr", "oracle-irm"))


@dataclass
class Unit:
    """One unit call of a workload: one file, or one dataset batch."""

    label: str
    audio_s: float
    files: int
    fingerprint: str
    payload: dict = field(default_factory=dict)


def _sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _stratified(rng: np.random.Generator, n: int, low: float, high: float) -> np.ndarray:
    """One uniform draw from each of n equal slices of [low, high), shuffled.

    Every seed then covers the whole range, so run-to-run spread comes from
    the inputs' detail rather than from which part of the range a seed hit.
    """
    return low + (high - low) * (rng.permutation(n) + rng.uniform(size=n)) / n


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _harmonic_mixture(rng, duration: float, f0: float, snr_db: float):
    speech = cyclospeech.synth_speech_like(duration, FS, seed=_seed(rng))
    noise = cyclospeech.synth_harmonic_cs_noise(
        duration, FS, cyclospeech.HarmonicNoiseParams(f0=f0, seed=_seed(rng))
    )
    mixture, _ = cyclospeech.mix_at_snr(speech, noise, cyclospeech.MixSpec(snr_db=snr_db))
    return mixture, speech


def _gain_db(enhanced, noisy, clean, cfg) -> float:
    ref = pipeline.trim_edges(clean, cfg)
    return cyclospeech.si_sdr(pipeline.trim_edges(enhanced, cfg), ref) - cyclospeech.si_sdr(
        pipeline.trim_edges(noisy, cfg), ref
    )


class ModsetScan:
    """``estimate_modulation_set_detailed``, as ``cyclospeech modset`` runs it,
    over 16 mixtures of 5 s; a minority of them carry white noise.

    One unit call scans the whole set. A file's cost follows its candidate
    count (0 to 64), which the seed moves, so per-file times would spread
    more between seeds than any regression bound. Sixteen 5 s files halve
    the seed-to-seed spread of a scan's cost that eight 10 s files give.
    """

    name = "modset-scan"

    def __init__(self, workdir: Path, smoke: bool, eval_workers: int):
        self.duration = 3.0 if smoke else 5.0
        self.harmonic = 1 if smoke else 14
        self.white = 1 if smoke else 2
        self.config = pipeline.PipelineConfig()
        self.cfg = self.config.stft_config()

    def prepare(self, seed: int) -> list[Unit]:
        rng = np.random.default_rng(seed)
        f0s = _stratified(rng, self.harmonic, 60.0, 150.0)
        snrs = _stratified(rng, self.harmonic + self.white, -20.0, 0.0)
        files = []
        for i, snr in enumerate(snrs):
            if i < self.harmonic:
                mixture, _ = _harmonic_mixture(rng, self.duration, float(f0s[i]), float(snr))
                files.append((mixture, float(f0s[i])))
            else:
                speech = cyclospeech.synth_speech_like(self.duration, FS, seed=_seed(rng))
                white = cyclospeech.AudioBuffer(rng.standard_normal(len(speech)), FS)
                mixture, _ = cyclospeech.mix_at_snr(speech, white, cyclospeech.MixSpec(snr_db=float(snr)))
                files.append((mixture, None))
        self.warm, _ = _harmonic_mixture(rng, 3.0, float(f0s[0]), float(snrs[0]))
        fingerprint = _sha(*(m.samples for m, _ in files))
        return [Unit("scan", sum(m.duration for m, _ in files), len(files), fingerprint, {"files": files})]

    def warm_up(self) -> None:
        self.estimate(self.warm)

    def estimate(self, signal):
        c = self.config
        return modset.estimate_modulation_set_detailed(
            signal,
            self.cfg,
            peak_count=c.peak_count,
            coherence_threshold=c.coherence_threshold,
            max_shifts=c.max_shifts,
            seg_len=c.welch_seg,
            overlap=c.welch_overlap,
        )

    def run(self, unit: Unit):
        return [self.estimate(mixture) for mixture, _ in unit.payload["files"]]

    def check(self, unit: Unit, out) -> list[str]:
        problems = []
        for i, (estimate, _) in enumerate(out):
            shifts = estimate.shifts
            if not isinstance(estimate, cyclospeech.ModulationSet) or shifts[0] != 0.0:
                problems.append(f"file {i}: estimate is not a zero-first modulation set")
            if not all(math.isfinite(s) and 0.0 <= s < FS / 2 for s in shifts):
                problems.append(f"file {i}: shift outside [0, fs/2): {shifts}")
            if len(shifts) > self.config.max_shifts:
                problems.append(f"file {i}: {len(shifts)} shifts exceed max_shifts")
        return problems

    def digest(self, out) -> str:
        return repr(
            [(e.shifts, [(r.candidate_hz, r.coherence, r.accepted, r.coarse_hz) for r in reports]) for e, reports in out]
        )

    def quality(self, units, outputs) -> dict:
        hits = 0
        for (estimate, _), (_, f0) in zip(outputs["scan"], units[0].payload["files"]):
            if f0 is None:
                hits += estimate.shifts == (0.0,)
            else:
                hits += any(s != 0.0 and abs(s - f0) <= WELCH_RES_HZ for s in estimate.shifts)
        return {"modset.correct_frac": hits / units[0].files}


class EnhanceLong:
    """``enhance_buffer`` (cmpdr + oracle-irm, clean companion) on one 60 s
    mixture at -10 dB with the shift set forced to (0, f0, 2f0, 3f0, 4f0)."""

    name = "enhance-long"

    def __init__(self, workdir: Path, smoke: bool, eval_workers: int):
        self.duration = 3.0 if smoke else 60.0
        self.snr_db = -10.0

    def _config(self, f0: float):
        return pipeline.PipelineConfig(
            preproc="cmpdr", mask="oracle-irm", forced_modset=tuple(p * f0 for p in range(5))
        )

    def prepare(self, seed: int) -> list[Unit]:
        rng = np.random.default_rng(seed)
        f0 = float(rng.uniform(60.0, 150.0))
        mixture, speech = _harmonic_mixture(rng, self.duration, f0, self.snr_db)
        self.warm = _harmonic_mixture(rng, 3.0, f0, self.snr_db) + (self._config(f0),)
        payload = {"mixture": mixture, "speech": speech, "config": self._config(f0)}
        return [Unit("file0", mixture.duration, 1, _sha(mixture.samples, speech.samples), payload)]

    def warm_up(self) -> None:
        mixture, speech, config = self.warm
        pipeline.enhance_buffer(mixture, config, clean=speech)

    def run(self, unit: Unit):
        p = unit.payload
        return pipeline.enhance_buffer(p["mixture"], p["config"], clean=p["speech"]).enhanced

    def check(self, unit: Unit, out) -> list[str]:
        p = unit.payload
        if len(out) != len(p["mixture"]):
            return [f"enhanced length {len(out)} != input length {len(p['mixture'])}"]
        if not np.all(np.isfinite(out.samples)):
            return ["enhanced audio is not finite"]
        gain = _gain_db(out, p["mixture"], p["speech"], p["config"].stft_config())
        if not gain >= MIN_ENHANCE_GAIN_DB:
            return [f"SI-SDR gain {gain:.2f} dB below the {MIN_ENHANCE_GAIN_DB} dB floor"]
        return []

    def digest(self, out) -> str:
        return _sha(out.samples)

    def quality(self, units, outputs) -> dict:
        gains = [
            _gain_db(outputs[u.label], u.payload["mixture"], u.payload["speech"], u.payload["config"].stft_config())
            for u in units
        ]
        return {"metrics.si_sdr_gain_db": float(np.mean(gains))}


class EvalBatch:
    """``synth_dataset`` then ``eval_dataset`` over seeded 4 s clips with four
    pipelines, on the library's own worker pool."""

    name = "eval-batch"

    def __init__(self, workdir: Path, smoke: bool, eval_workers: int):
        self.workdir = workdir
        self.duration = 3.0 if smoke else 4.0
        self.batches = 1 if smoke else 4
        self.clips = 1 if smoke else 2
        self.workers = eval_workers
        self.configs = [pipeline.PipelineConfig(preproc=p, mask=m) for p, m in EVAL_PIPELINES]

    def _write_batch(self, rng, name: str, clips: int, duration: float, snr_range, f0_range) -> Unit:
        base = self.workdir / name
        clean_dir = base / "clean_src"
        clean_dir.mkdir(parents=True, exist_ok=True)
        arrays = []
        for i in range(clips):
            clip = cyclospeech.synth_speech_like(duration, FS, seed=_seed(rng))
            cyclospeech.write_wav(clean_dir / f"clip{i:02d}.wav", clip)
            arrays.append(clip.samples)
        settings = dataset.SynthSettings(seed=_seed(rng), snr_range=snr_range, f0_range=f0_range)
        payload = {"clean_dir": clean_dir, "data_dir": base / "data", "out_dir": base / "results", "settings": settings}
        fingerprint = _sha(*arrays, np.array([settings.seed]))
        return Unit(name, clips * duration * len(self.configs), clips, fingerprint, payload)

    def prepare(self, seed: int) -> list[Unit]:
        rng = np.random.default_rng(seed)
        # Batch b draws its SNRs from slice b of -20..0 dB and its f0s from a
        # shuffled slice of 60..150 Hz, so every seed covers both ranges; the
        # estimation cost follows the candidate count, which follows SNR.
        snr = np.linspace(-20.0, 0.0, self.batches + 1)
        f0 = np.linspace(60.0, 150.0, self.batches + 1)
        order = rng.permutation(self.batches)
        units = [
            self._write_batch(
                rng,
                f"batch{b}",
                self.clips,
                self.duration,
                (float(snr[b]), float(snr[b + 1])),
                (float(f0[order[b]]), float(f0[order[b] + 1])),
            )
            for b in range(self.batches)
        ]
        self.warm = self._write_batch(rng, "warm", 1, 3.0, (-20.0, 0.0), (60.0, 150.0))
        return units

    def warm_up(self) -> None:
        self.run(self.warm)

    def run(self, unit: Unit):
        p = unit.payload
        dataset.synth_dataset(p["clean_dir"], p["data_dir"], p["settings"])
        records, skips = dataset.eval_dataset(p["data_dir"], self.configs, out_dir=p["out_dir"], workers=self.workers)
        return {
            "records": records,
            "skips": skips,
            "metrics_csv": (p["out_dir"] / "metrics.csv").read_bytes(),
            "skipped_log": (p["out_dir"] / "skipped.log").read_bytes(),
        }

    def check(self, unit: Unit, out) -> list[str]:
        problems = []
        expected = unit.files * len(self.configs)
        if len(out["records"]) != expected:
            problems.append(f"{len(out['records'])} metric rows, expected {expected}")
        if out["skips"] or out["skipped_log"]:
            problems.append(f"skipped.log is not empty: {out['skips']}")
        if not all(math.isfinite(r.si_sdr_db) and math.isfinite(r.stoi) for r in out["records"]):
            problems.append("non-finite metric in metrics.csv")
        return problems

    def digest(self, out) -> str:
        return hashlib.sha256(out["metrics_csv"]).hexdigest()

    def quality(self, units, outputs) -> dict:
        cfg = self.configs[0].stft_config()
        gains, stois = [], []
        for unit in units:
            data_dir = unit.payload["data_dir"]
            input_sdr = {}
            for mix in sorted((data_dir / "mix").glob("*.wav")):
                clean = cyclospeech.read_wav(data_dir / "clean" / mix.name)
                noisy = cyclospeech.read_wav(mix)
                input_sdr[mix.stem] = cyclospeech.si_sdr(
                    pipeline.trim_edges(noisy, cfg), pipeline.trim_edges(clean, cfg)
                )
            for rec in outputs[unit.label]["records"]:
                stois.append(rec.stoi)
                if rec.preproc == "cmpdr":
                    gains.append(rec.si_sdr_db - input_sdr[rec.file])
        return {"metrics.si_sdr_gain_db": float(np.mean(gains)), "metrics.stoi_mean": float(np.mean(stois))}


WORKLOADS = {w.name: w for w in (ModsetScan, EnhanceLong, EvalBatch)}
