import csv
import hashlib

import numpy as np
import pytest
from scipy.io import wavfile

from cyclospeech import (
    PipelineConfig,
    eval_dataset,
    read_wav,
    si_sdr,
    synth_dataset,
    synth_speech_like,
    trim_edges,
    write_wav,
)
from cyclospeech.cli import main as cli_main
from cyclospeech.dataset import SynthSettings

FS = 16000


def make_clean_dir(tmp_path, count=2, duration=3.0):
    clean_dir = tmp_path / "speech"
    clean_dir.mkdir()
    for i in range(count):
        write_wav(clean_dir / f"utt{i:02d}.wav", synth_speech_like(duration, FS, seed=50 + i))
    return clean_dir


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_synth_dataset_layout_and_determinism(tmp_path):
    clean_dir = make_clean_dir(tmp_path)
    out_a = tmp_path / "ds_a"
    out_b = tmp_path / "ds_b"
    settings = SynthSettings(seed=7)
    manifest_a = synth_dataset(clean_dir, out_a, settings)
    manifest_b = synth_dataset(clean_dir, out_b, settings)
    assert digest(manifest_a) == digest(manifest_b)
    rows = list(csv.DictReader(open(manifest_a, encoding="utf-8")))
    assert len(rows) == 2
    for row in rows:
        assert 60.0 <= float(row["f0_hz"]) <= 150.0
        assert -20.0 <= float(row["snr_db"]) <= 0.0
        for key in ("clean_path", "noise_path", "mix_path"):
            assert (out_a / row[key]).exists()
            assert digest(out_a / row[key]) == digest(out_b / row[key])
        # mixture really sits at the recorded SNR
        clean = read_wav(out_a / row["clean_path"])
        noise = read_wav(out_a / row["noise_path"])
        measured = 10 * np.log10(clean.power() / noise.power())
        assert abs(measured - float(row["snr_db"])) <= 1e-3  # float32 storage


def test_synth_dataset_empty_source_rejected(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    with pytest.raises(ValueError, match="no WAV files"):
        synth_dataset(empty, tmp_path / "out")


def test_eval_dataset_rows_and_identity_neutrality(tmp_path, cfg16k):
    clean_dir = make_clean_dir(tmp_path)
    ds = tmp_path / "ds"
    synth_dataset(clean_dir, ds, SynthSettings(seed=3))
    configs = [
        PipelineConfig(preproc="id", mask="none"),
        PipelineConfig(preproc="wiener", mask="none"),
    ]
    records, skips = eval_dataset(ds, configs, out_dir=tmp_path / "res")
    assert len(records) == 4  # 2 configs x 2 files
    assert skips == []
    assert (tmp_path / "res" / "metrics.csv").exists()
    assert (tmp_path / "res" / "aggregate.csv").exists()
    assert (tmp_path / "res" / "curves.csv").exists()

    rows = list(csv.DictReader(open(ds / "manifest.csv", encoding="utf-8")))
    for row in rows:
        mix = read_wav(ds / row["mix_path"])
        clean = read_wav(ds / row["clean_path"])
        noisy_sdr = si_sdr(trim_edges(mix, cfg16k), trim_edges(clean, cfg16k))
        rec = next(
            r for r in records if r.file == row["file"] and r.preproc == "id"
        )
        assert abs(rec.si_sdr_db - noisy_sdr) <= 0.01


def test_eval_dataset_missing_reference_skipped_loudly(tmp_path):
    clean_dir = make_clean_dir(tmp_path)
    ds = tmp_path / "ds"
    synth_dataset(clean_dir, ds, SynthSettings(seed=4))
    victim = sorted((ds / "clean").glob("*.wav"))[0]
    victim.unlink()
    records, skips = eval_dataset(ds, [PipelineConfig(preproc="id")], out_dir=tmp_path / "res")
    assert len(records) == 1
    assert len(skips) == 1
    assert "missing reference" in skips[0]
    log_text = (tmp_path / "res" / "skipped.log").read_text(encoding="utf-8")
    assert "missing reference" in log_text


def test_eval_dataset_parallel_matches_serial(tmp_path):
    clean_dir = make_clean_dir(tmp_path, count=2)
    ds = tmp_path / "ds"
    synth_dataset(clean_dir, ds, SynthSettings(seed=5))
    config = [PipelineConfig(preproc="id")]
    eval_dataset(ds, config, out_dir=tmp_path / "serial", workers=1)
    eval_dataset(ds, config, out_dir=tmp_path / "parallel", workers=2)
    assert digest(tmp_path / "serial" / "metrics.csv") == digest(
        tmp_path / "parallel" / "metrics.csv"
    )


def test_cli_synth_enhance_eval_modset(tmp_path, capsys):
    clean_dir = make_clean_dir(tmp_path, count=1, duration=3.0)
    ds = tmp_path / "ds"
    rc = cli_main(
        ["synth", "--clean-dir", str(clean_dir), "--out-dir", str(ds), "--seed", "9"]
    )
    assert rc == 0
    mix = sorted((ds / "mix").glob("*.wav"))[0]
    ref = sorted((ds / "clean").glob("*.wav"))[0]

    out = tmp_path / "enhanced.wav"
    log = tmp_path / "run.log"
    rc = cli_main(
        [
            "enhance", str(mix), str(out),
            "--reference", str(ref),
            "--preproc", "cmpdr", "--modset", "0,100,200",
            "--log", str(log),
        ]
    )
    assert rc == 0
    assert out.exists()
    assert "preproc=cmpdr" in log.read_text(encoding="utf-8")
    assert "si_sdr_db=" in capsys.readouterr().out

    res = tmp_path / "res"
    rc = cli_main(
        [
            "eval", "--dataset-dir", str(ds), "--out-dir", str(res),
            "--pipeline", "id:none", "--pipeline", "wiener:none",
        ]
    )
    assert rc == 0
    lines = (res / "metrics.csv").read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 1 + 2  # header + 2 pipelines x 1 file
    assert (res / "run.log").exists()

    rc = cli_main(["modset", str(mix)])
    assert rc == 0
    assert "modulation set [Hz]: 0" in capsys.readouterr().out


def test_cli_errors_return_nonzero(tmp_path, capsys):
    rc = cli_main(["enhance", str(tmp_path / "nope.wav"), str(tmp_path / "out.wav")])
    assert rc == 2
    assert "[read]" in capsys.readouterr().err

    clean_dir = make_clean_dir(tmp_path, count=1)
    ds = tmp_path / "ds"
    cli_main(["synth", "--clean-dir", str(clean_dir), "--out-dir", str(ds)])
    rc = cli_main(["eval", "--dataset-dir", str(ds), "--pipeline", "bogus"])
    assert rc == 2


def test_eval_dataset_skips_non_finite_mixture(tmp_path):
    clean_dir = make_clean_dir(tmp_path)
    ds = tmp_path / "ds"
    synth_dataset(clean_dir, ds, SynthSettings(seed=4))
    victim = sorted((ds / "mix").glob("*.wav"))[0]
    samples = read_wav(victim).samples.astype(np.float32)
    samples[1000] = np.nan
    wavfile.write(victim, FS, samples)
    records, skips = eval_dataset(ds, [PipelineConfig(preproc="id")], out_dir=tmp_path / "res")
    assert len(records) == 1
    assert len(skips) == 1 and "non-finite sample" in skips[0] and "index 1000" in skips[0]
    log_text = (tmp_path / "res" / "skipped.log").read_text(encoding="utf-8")
    assert "index 1000" in log_text
