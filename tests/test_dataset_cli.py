import csv
import hashlib
from dataclasses import fields

import numpy as np
import pytest
from scipy.io import wavfile

from cyclospeech import (
    HarmonicNoiseParams,
    PipelineConfig,
    eval_dataset,
    read_wav,
    si_sdr,
    synth_dataset,
    synth_speech_like,
    trim_edges,
    write_wav,
)
from cyclospeech import modset
from cyclospeech._fields import field_parser
from cyclospeech.cli import _build_config, _given, _log_config, build_parser
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
    rows = list(csv.DictReader(manifest_a.read_text(encoding="utf-8").splitlines()))
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
        assert row["gain"] == "1.000000"


def test_pcm16_synthesis_scales_each_triple_to_fit(tmp_path):
    # at -20 dB the noise peaks far above full scale; one common gain per
    # triple keeps mix = clean + noise up to rounding, and the SNR exact
    clean_dir = make_clean_dir(tmp_path, count=3, duration=4.0)
    settings = SynthSettings(seed=1, snr_range=(-20.0, -20.0), encoding="pcm16")
    manifest = synth_dataset(clean_dir, tmp_path / "ds", settings)
    rows = list(csv.DictReader(manifest.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 3
    for row in rows:
        clean, noise, mix = (
            read_wav(tmp_path / "ds" / row[key])
            for key in ("clean_path", "noise_path", "mix_path")
        )
        lsb = np.abs(mix.samples - clean.samples - noise.samples).max() * 32768
        assert lsb <= 1.5
        assert 0.0 < float(row["gain"]) < 1.0
        measured = 10 * np.log10(clean.power() / noise.power())
        assert abs(measured - float(row["snr_db"])) <= 0.01


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

    rows = list(csv.DictReader((ds / "manifest.csv").read_text(encoding="utf-8").splitlines()))
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


def test_cli_eval_exits_1_when_it_skipped_a_row(tmp_path, capsys):
    clean_dir = make_clean_dir(tmp_path)
    ds = tmp_path / "ds"
    synth_dataset(clean_dir, ds, SynthSettings(seed=4))
    (ds / "mix" / "utt00.wav").unlink()
    res = tmp_path / "res"
    argv = ["eval", "--dataset-dir", str(ds), "--out-dir", str(res), "--pipeline", "id:none"]
    assert cli_main(argv) == 1
    assert "(1 skipped)" in capsys.readouterr().out
    with open(res / "metrics.csv", encoding="utf-8", newline="") as fh:
        assert [r["file"] for r in csv.DictReader(fh)] == ["utt01"]
    (skip,) = (res / "skipped.log").read_text(encoding="utf-8").splitlines()
    assert skip.startswith("utt00: missing mixture file")


def test_manifest_writes_integer_noise_settings_as_floats(tmp_path):
    clean_dir = make_clean_dir(tmp_path, count=1, duration=1.0)
    settings = SynthSettings(correlation=1, amplitude_decay=0, envelope_rate=5)
    manifest = synth_dataset(clean_dir, tmp_path / "ds", settings)
    header, line = manifest.read_text(encoding="utf-8").splitlines()
    assert header == (
        "file,clean_path,noise_path,mix_path,sample_rate,num_samples,f0_hz,"
        "num_harmonics,correlation,envelope_rate_hz,amplitude_decay,noise_seed,snr_db,gain"
    )
    row = dict(zip(header.split(","), line.split(",")))
    assert (row["correlation"], row["amplitude_decay"], row["envelope_rate_hz"]) == (
        "1.000000", "0.000000", "5.000000"
    )


def test_eval_dataset_skips_a_non_finite_snr_row(tmp_path):
    clean_dir = make_clean_dir(tmp_path)
    ds = tmp_path / "ds"
    manifest = synth_dataset(clean_dir, ds, SynthSettings(seed=4))
    rows = list(csv.DictReader(manifest.read_text(encoding="utf-8").splitlines()))
    rows[0]["snr_db"] = "nan"
    with open(manifest, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    res = tmp_path / "res"
    records, skips = eval_dataset(ds, [PipelineConfig(preproc="id")], out_dir=res)
    assert [r.file for r in records] == [rows[1]["file"]]
    assert len(skips) == 1 and rows[0]["file"] in skips[0] and "snr_db" in skips[0]
    assert (res / "skipped.log").read_text(encoding="utf-8") == skips[0] + "\n"
    for name in ("metrics.csv", "aggregate.csv", "curves.csv", "skipped.log"):
        assert (res / name).exists()


def test_eval_dataset_parallel_matches_serial(tmp_path, monkeypatch):
    clean_dir = make_clean_dir(tmp_path, count=2)
    ds = tmp_path / "ds"
    synth_dataset(clean_dir, ds, SynthSettings(seed=5))
    # cmpdr estimates its set: the serial run scores candidates on 2 threads,
    # the 2 pool workers share 2 CPUs and so score them on 1 thread each
    config = [PipelineConfig(preproc="id"), PipelineConfig(preproc="cmpdr")]
    monkeypatch.setattr(modset, "_thread_budget", 2)
    monkeypatch.setattr(modset, "_usable_cpus", lambda: 2)
    records, _ = eval_dataset(ds, config, out_dir=tmp_path / "serial", workers=1)
    assert sum(r.preproc == "cmpdr" for r in records) == 2
    eval_dataset(ds, config, out_dir=tmp_path / "parallel", workers=2)
    assert digest(tmp_path / "serial" / "metrics.csv") == digest(
        tmp_path / "parallel" / "metrics.csv"
    )


@pytest.mark.parametrize("workers", (0, -3))
def test_eval_dataset_refuses_fewer_than_one_worker(tmp_path, capsys, workers):
    clean_dir = make_clean_dir(tmp_path, count=1)
    ds = tmp_path / "ds"
    synth_dataset(clean_dir, ds, SynthSettings(seed=5))
    config = [PipelineConfig(preproc="id")]
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        eval_dataset(ds, config, out_dir=tmp_path / "res", workers=workers)
    assert not (tmp_path / "res").exists()
    argv = ["eval", "--dataset-dir", str(ds), "--out-dir", str(tmp_path / "res")]
    rc = cli_main(argv + ["--workers", str(workers)])
    assert rc == 2
    assert f"got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_eval_without_pipeline_runs_the_configs_preproc_and_mask(tmp_path, capsys):
    clean_dir = make_clean_dir(tmp_path, count=1)
    ds = tmp_path / "ds"
    synth_dataset(clean_dir, ds, SynthSettings(seed=5))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preproc=id\nmask=oracle-irm\n", encoding="utf-8")
    eval_argv = ["eval", "--dataset-dir", str(ds), "--modset", "0,100", "--out-dir"]
    for extra, pipeline in (
        ([], ("cmpdr", "none")),
        (["--preproc", "wiener", "--mask", "oracle-irm"], ("wiener", "oracle-irm")),
        (["--config", str(cfg)], ("id", "oracle-irm")),
        (["--config", str(cfg), "--mask", "none"], ("id", "none")),
    ):
        res = tmp_path / "-".join(pipeline)
        assert cli_main(eval_argv + [str(res)] + extra) == 0
        with open(res / "metrics.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["preproc"], r["mask"]) for r in rows] == [pipeline]
    for flag in ("--preproc", "--mask"):
        value = "wiener" if flag == "--preproc" else "oracle-irm"
        res = tmp_path / "refused"
        argv = eval_argv + [str(res), "--pipeline", "id:none", flag, value]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and "--pipeline" in err
        assert not res.exists()


def test_eval_run_log_with_pipelines_replays_the_run(tmp_path):
    # the config file's preproc and mask are not what ran: run.log leaves
    # them out and lists the pipelines as comments, which --config skips
    clean_dir = make_clean_dir(tmp_path, count=1)
    ds = tmp_path / "ds"
    synth_dataset(clean_dir, ds, SynthSettings(seed=7))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preproc=wiener\nmask=oracle-irm\n", encoding="utf-8")
    pipelines = ["--pipeline", "id:none", "--pipeline", "cmpdr:oracle-irm", "--modset", "0,100"]
    argv = ["eval", "--dataset-dir", str(ds), *pipelines, "--out-dir"]
    assert cli_main(argv + [str(tmp_path / "first"), "--config", str(cfg)]) == 0
    log = (tmp_path / "first" / "run.log").read_text(encoding="utf-8")
    assert "preproc=" not in log and "mask=" not in log
    assert "forced_modset=0.0,100.0\n" in log
    assert log.endswith("# pipeline=id:none\n# pipeline=cmpdr:oracle-irm\n")
    replay = ["--config", str(tmp_path / "first" / "run.log")]
    assert cli_main(argv + [str(tmp_path / "replay")] + replay) == 0
    for name in ("metrics.csv", "run.log"):
        assert digest(tmp_path / "replay" / name) == digest(tmp_path / "first" / name)


def test_modset_refuses_preproc_and_mask_flags(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    write_wav(wav, synth_speech_like(2.5, FS, seed=55))
    # modset runs no pipeline, so it has neither flag
    for flag, value in (("--preproc", "wiener"), ("--mask", "oracle-irm")):
        with pytest.raises(SystemExit) as exc:
            cli_main(["modset", str(wav), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    # the same keys in a shared config file are accepted
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preproc=wiener\nmask=oracle-irm\n", encoding="utf-8")
    assert cli_main(["modset", str(wav), "--config", str(cfg), "--modset", "0,100"]) == 0
    assert "modulation set [Hz]: 0.0,100.0" in capsys.readouterr().out


def test_synth_refuses_a_bad_seed(tmp_path, capsys):
    for seed in (-1, 2.5, True):
        with pytest.raises(ValueError, match="seed"):
            SynthSettings(seed=seed)
    clean_dir = make_clean_dir(tmp_path, count=1, duration=1.0)
    out = tmp_path / "ds"
    argv = ["synth", "--clean-dir", str(clean_dir), "--out-dir", str(out), "--seed", "-1"]
    assert cli_main(argv) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--clean-dir", "c", "--out-dir", "o", "--snr-range=False,True"],
        ["synth", "--clean-dir", "c", "--out-dir", "o", "--f0-range=60,high"],
        ["modset", "in.wav", "--modset=0,110Hz"],
    ],
    ids=lambda argv: argv[-1].split("=")[0],
)
def test_tuple_flag_refusal_names_the_expected_form(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-1].split('=')[0]}: expected comma-separated numbers" in err
    assert "_parse_floats" not in err
    # the same text in a config file is refused by its key
    path = tmp_path / "run.cfg"
    path.write_text(f"forced_modset={argv[-1].split('=')[1]}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="forced_modset: expected comma-separated numbers"):
        PipelineConfig.from_file(path)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_identically_seeded_runs_write_identical_csvs(tmp_path, seed):
    clean_dir = make_clean_dir(tmp_path, count=1, duration=2.5)
    # too short to estimate on, so every run skips its cmpdr task
    write_wav(clean_dir / "short.wav", synth_speech_like(1.5, FS, seed=60))
    configs = [PipelineConfig(preproc="wiener"), PipelineConfig(mask="oracle-irm")]
    names = ("metrics.csv", "aggregate.csv", "curves.csv", "skipped.log")
    outputs = []
    for run in ("one", "two"):
        synth_dataset(clean_dir, tmp_path / f"ds_{run}", SynthSettings(seed=seed))
        eval_dataset(tmp_path / f"ds_{run}", configs, out_dir=tmp_path / f"res_{run}")
        outputs.append([(tmp_path / f"res_{run}" / n).read_bytes() for n in names])
    assert outputs[0] == outputs[1]
    assert b"short" in outputs[0][3]


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


def test_cli_synth_defaults_are_the_settings_defaults(tmp_path):
    clean_dir = make_clean_dir(tmp_path, count=1, duration=1.0)
    rc = cli_main(["synth", "--clean-dir", str(clean_dir), "--out-dir", str(tmp_path / "cli")])
    assert rc == 0
    manifest = synth_dataset(clean_dir, tmp_path / "lib", SynthSettings())
    assert digest(tmp_path / "cli" / "manifest.csv") == digest(manifest)


def test_synth_settings_take_the_noise_defaults():
    names = ("num_harmonics", "correlation", "envelope_rate", "amplitude_decay")
    settings, params = SynthSettings(), HarmonicNoiseParams(f0=100.0)
    assert [getattr(settings, n) for n in names] == [getattr(params, n) for n in names]


def test_cli_errors_return_nonzero(tmp_path, capsys):
    rc = cli_main(["enhance", str(tmp_path / "nope.wav"), str(tmp_path / "out.wav")])
    assert rc == 2
    assert "[read]" in capsys.readouterr().err

    clean_dir = make_clean_dir(tmp_path, count=1)
    ds = tmp_path / "ds"
    cli_main(["synth", "--clean-dir", str(clean_dir), "--out-dir", str(ds)])
    rc = cli_main(["eval", "--dataset-dir", str(ds), "--pipeline", "bogus"])
    assert rc == 2
    # a directory without a manifest is refused before anything is created
    argv = ["eval", "--dataset-dir", str(clean_dir), "--out-dir", str(tmp_path / "res")]
    assert cli_main(argv) == 2
    assert "manifest" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_cli_enhance_and_modset_at_44k(tmp_path, capsys):
    fs = 44100
    mix = tmp_path / "mix44k.wav"
    write_wav(mix, synth_speech_like(2.5, fs, seed=53))
    out = tmp_path / "enhanced.wav"
    rc = cli_main(
        [
            "enhance", str(mix), str(out), "--preproc", "cmpdr", "--modset", "0,100,200",
        ]
    )
    assert rc == 0, capsys.readouterr().err
    enhanced = read_wav(out)
    assert enhanced.sample_rate == fs
    assert len(enhanced) == len(read_wav(mix))

    rc = cli_main(["modset", str(mix)])
    assert rc == 0, capsys.readouterr().err
    assert "modulation set [Hz]: 0" in capsys.readouterr().out


@pytest.fixture(scope="module")
def mixed_rate_dataset(tmp_path_factory):
    """A dataset synthesized from 3 s sources at 8, 16 and 44.1 kHz."""
    root = tmp_path_factory.mktemp("mixed_rate")
    clean_dir = root / "speech"
    clean_dir.mkdir()
    for fs in (8000, 16000, 44100):
        write_wav(clean_dir / f"utt_{fs}.wav", synth_speech_like(3.0, fs, seed=fs))
    synth_dataset(clean_dir, root / "ds", SynthSettings(seed=8))
    return root / "ds"


def test_eval_scores_every_rate_of_a_mixed_rate_dataset(mixed_rate_dataset, tmp_path):
    # the geometry follows each input's rate: no row is refused for its rate
    pipelines = [("id", "none"), ("wiener", "none"), ("cmpdr", "none"), ("cmpdr", "oracle-irm")]
    configs = [PipelineConfig(preproc=p, mask=m) for p, m in pipelines]
    records, skips = eval_dataset(mixed_rate_dataset, configs, out_dir=tmp_path, workers=2)
    assert skips == []
    assert (tmp_path / "skipped.log").read_text(encoding="utf-8") == ""
    expected = sorted((f"utt_{fs}", p, m) for fs in (8000, 16000, 44100) for p, m in pipelines)
    assert [(r.file, r.preproc, r.mask) for r in records] == expected
    assert all(np.isfinite(r.si_sdr_db) and np.isfinite(r.stoi) for r in records)
    with open(tmp_path / "metrics.csv", encoding="utf-8", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == len(expected)


def test_forced_shift_above_one_input_nyquist_skips_that_file_only(
    mixed_rate_dataset, tmp_path, capsys
):
    # 5 kHz is at or above the Nyquist frequency of the 8 kHz file only
    argv = ["eval", "--dataset-dir", str(mixed_rate_dataset), "--out-dir", str(tmp_path)]
    assert cli_main(argv + ["--pipeline", "cmpdr:none", "--modset", "0,5000"]) == 1
    assert "(1 skipped)" in capsys.readouterr().out
    with open(tmp_path / "metrics.csv", encoding="utf-8", newline="") as fh:
        assert [r["file"] for r in csv.DictReader(fh)] == ["utt_16000", "utt_44100"]
    (skip,) = (tmp_path / "skipped.log").read_text(encoding="utf-8").splitlines()
    assert skip.startswith("utt_8000 [cmpdr+none]: [enhance] forced_modset: shift 5000.0 Hz")


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


# A value other than the default for every PipelineConfig field; a field
# missing here fails the flag test below.
NON_DEFAULT = {
    "preproc": "wiener",
    "mask": "oracle-irm",
    "forced_modset": (0.0, 97.31234567, 194.6246913),
}


def _flag(name):
    return "--modset" if name == "forced_modset" else "--" + name.replace("_", "-")


@pytest.mark.parametrize("field", fields(PipelineConfig), ids=lambda f: f.name)
def test_every_config_field_has_a_flag_parsed_like_the_config_file(field):
    value = NON_DEFAULT[field.name]
    text = str(PipelineConfig(**{field.name: value}).as_mapping()[field.name])
    args = build_parser().parse_args(["enhance", "in.wav", "out.wav", _flag(field.name), text])
    from_flag = _build_config(args)
    assert from_flag == PipelineConfig.from_mapping({field.name: text})
    assert from_flag == PipelineConfig(**{field.name: value})


# (flag text, value) other than the default for every SynthSettings field
SYNTH_NON_DEFAULT = {
    "seed": ("11", 11),
    "snr_range": ("-15,-5", (-15.0, -5.0)),
    "f0_range": ("80,120.5", (80.0, 120.5)),
    "num_harmonics": ("6", 6),
    "correlation": ("0.5", 0.5),
    "envelope_rate": ("3", 3.0),
    "amplitude_decay": ("1.25", 1.25),
    "encoding": ("pcm16", "pcm16"),
}


@pytest.mark.parametrize("field", fields(SynthSettings), ids=lambda f: f.name)
def test_every_synth_setting_has_a_flag(field):
    text, value = SYNTH_NON_DEFAULT[field.name]
    argv = ["synth", "--clean-dir", "c", "--out-dir", "o", f"{_flag(field.name)}={text}"]
    settings = SynthSettings(**_given(SynthSettings, build_parser().parse_args(argv)))
    assert settings == SynthSettings(**{field.name: value})


def test_flags_override_the_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "preproc=wiener\nmask=oracle-irm\nforced_modset=0,100\n", encoding="utf-8"
    )
    argv = ["enhance", "in.wav", "out.wav", "--config", str(path), "--mask", "none", "--modset", ""]
    config = _build_config(build_parser().parse_args(argv))
    assert config == PipelineConfig(preproc="wiener", mask="none", forced_modset=None)


# The settings flags of each subcommand: the fields it honours, no others
SETTINGS_FLAGS = {
    "enhance": {"--preproc", "--mask", "--modset"},
    "eval": {"--preproc", "--mask", "--modset"},
    "modset": {"--modset"},
    "synth": {
        "--seed", "--snr-range", "--f0-range", "--num-harmonics",
        "--correlation", "--envelope-rate", "--amplitude-decay", "--encoding",
    },
}
OWN_FLAGS = {
    "enhance": {"--reference", "--log", "--config"},
    "eval": {"--dataset-dir", "--out-dir", "--pipeline", "--workers", "--config"},
    "modset": {"--config"},
    "synth": {"--clean-dir", "--out-dir"},
}


def test_each_subcommand_offers_the_settings_flags_it_honours():
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert set(commands) == set(SETTINGS_FLAGS)
    for name, sub in commands.items():
        offered = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert offered == SETTINGS_FLAGS[name] | OWN_FLAGS[name], name


def test_eval_short_clip_scores_id_and_skips_cmpdr_with_stage(tmp_path):
    clean_dir = make_clean_dir(tmp_path, count=1, duration=1.5)
    ds = tmp_path / "ds"
    synth_dataset(clean_dir, ds, SynthSettings(seed=6))
    configs = [PipelineConfig(preproc="id"), PipelineConfig(preproc="cmpdr")]
    records, skips = eval_dataset(ds, configs, out_dir=tmp_path / "res")
    assert [r.preproc for r in records] == ["id"]
    assert np.isfinite(records[0].si_sdr_db) and np.isfinite(records[0].stoi)
    log_text = (tmp_path / "res" / "skipped.log").read_text(encoding="utf-8")
    assert log_text == skips[0] + "\n"
    assert "[cmpdr+none]" in log_text and "[enhance]" in log_text
    assert "shorter than" in log_text


# Values outside the range each field admits, one entry per field of
# PipelineConfig and of SynthSettings: ends of open intervals, NaN, bools,
# unknown choices, non-integers for integer fields, shift sets that are no
# set, and ranges that are no (low, high) pair. A shift at or above an
# input's Nyquist frequency is refused per input, not here.
OUT_OF_RANGE = {
    "preproc": ("dnn",),
    "mask": ("learned",),
    "forced_modset": ((100.0,), (0.0, 50.0, 50.0), (0.0, float("nan"))),
    "seed": (-1, 2.5, True),
    "snr_range": ((float("nan"), 0.0), (0.0, -10.0), (-20.0, -10.0, 0.0), (False, True)),
    "f0_range": ((0.0, 100.0), (150.0, 60.0), (60.0, float("inf"))),
    "num_harmonics": (0, 2.5, True),
    "correlation": (-0.1, 1.2, float("nan"), True),
    "envelope_rate": (0.0, float("inf"), True),
    "amplitude_decay": (float("nan"), float("inf"), True),
    "encoding": ("pcm24",),
}


def _flag_text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize(
    "cls, field",
    [pytest.param(cls, f, id=f.name) for cls in (PipelineConfig, SynthSettings) for f in fields(cls)],
)
def test_out_of_range_value_refused_by_constructor_and_flag(cls, field, tmp_path, capsys):
    name = field.name
    out = tmp_path / "ds"
    if cls is PipelineConfig:
        argv = ["enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav")]
    else:
        clean_dir = make_clean_dir(tmp_path, count=1, duration=1.0)
        argv = ["synth", "--clean-dir", str(clean_dir), "--out-dir", str(out)]
    for value in OUT_OF_RANGE[name]:
        with pytest.raises(ValueError, match=name):
            cls(**{name: value})
        text = _flag_text(value)
        flag = f"{_flag(name)}={text}"
        try:
            field_parser(cls, name)(text)
        except ValueError:
            # the flag's parser refuses the text itself, through argparse
            with pytest.raises(SystemExit) as exc:
                cli_main(argv + [flag])
            assert exc.value.code == 2
            assert _flag(name) in capsys.readouterr().err
        else:
            assert cli_main(argv + [flag]) == 2
            assert name in capsys.readouterr().err
        assert not out.exists()
        if cls is SynthSettings:
            continue
        config = tmp_path / "bad.cfg"
        config.write_text(f"{name}={text}\n")
        assert cli_main(["modset", str(tmp_path / "in.wav"), "--config", str(config)]) == 2
        assert name in capsys.readouterr().err


@pytest.mark.parametrize("field", fields(PipelineConfig), ids=lambda f: f.name)
def test_every_accepted_value_reads_back_from_its_run_log(field, tmp_path):
    # what the constructor accepts, --config reads back from the run.log it
    # writes; what it refuses, it refuses by name
    log = tmp_path / "run.log"
    name = field.name
    for value in (NON_DEFAULT[name], True, False, "1e-6", *OUT_OF_RANGE[name]):
        try:
            config = PipelineConfig(**{name: value})
        except ValueError as exc:
            assert name in str(exc)
            continue
        _log_config(config, log, echo=False)
        assert PipelineConfig.from_file(log) == config


def test_modset_output_pastes_back_into_the_flag(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    write_wav(wav, synth_speech_like(1.0, FS, seed=54))
    shifts = NON_DEFAULT["forced_modset"]
    rc = cli_main(["modset", str(wav), "--modset", ",".join(map(str, shifts))])
    assert rc == 0
    printed = capsys.readouterr().out.split("modulation set [Hz]: ")[1].strip()
    args = build_parser().parse_args(["modset", str(wav), "--modset", printed])
    assert _build_config(args).forced_modset == shifts
