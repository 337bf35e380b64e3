import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import cyclospeech
from cyclospeech import (
    AudioBuffer,
    HarmonicNoiseParams,
    build_augmented,
    cmpdr_process,
    MixSpec,
    ModulationSet,
    PipelineConfig,
    PipelineError,
    StftConfig,
    enhance_buffer,
    istft,
    min_stats_noise_psd,
    mix_at_snr,
    read_wav,
    run_pipeline,
    si_sdr,
    stft,
    synth_harmonic_cs_noise,
    synth_speech_like,
    trim_edges,
    wiener_gain,
    write_wav,
)
from cyclospeech.cli import main as cli_main

FS = 16000
RATES = (8000, 11025, 16000, 22050, 44100, 48000)


def test_config_defaults_are_valid():
    config = PipelineConfig()
    assert config.stft_config().frame_len == 512
    assert config.label() == "cmpdr+none"


def test_config_validation():
    with pytest.raises(ValueError, match="preproc"):
        PipelineConfig(preproc="dnn")
    with pytest.raises(ValueError, match="mask"):
        PipelineConfig(mask="learned")
    # the rate is the audio's, not a setting
    with pytest.raises(TypeError, match="sample_rate"):
        PipelineConfig(sample_rate=16000)
    with pytest.raises(ValueError, match="first shift"):
        PipelineConfig(forced_modset=(100.0, 0.0))


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# pipeline settings\n"
        "preproc=wiener\n"
        "mask=oracle-irm\n"
        "forced_modset=0,110,220\n",
        encoding="utf-8",
    )
    config = PipelineConfig.from_file(path)
    assert config.preproc == "wiener"
    assert config.mask == "oracle-irm"
    assert config.forced_modset == (0.0, 110.0, 220.0)
    # mapping round trip preserves everything
    back = PipelineConfig.from_mapping(
        {k: str(v) for k, v in config.as_mapping().items()}
    )
    assert back == config


@pytest.mark.parametrize("fs", [8000, 11025, 16000, 22050, 44100, 48000])
def test_config_geometry_follows_sample_rate(fs, tmp_path):
    # run_pipeline trims one frame of the input's own geometry per edge
    cfg = StftConfig(fs)
    assert cfg.hop == round(0.008 * fs)
    speech = synth_speech_like(2.0, fs, seed=36)
    noisy = AudioBuffer(speech.samples + 0.1 * np.sin(np.arange(len(speech))), fs)
    write_wav(tmp_path / "in.wav", noisy)
    write_wav(tmp_path / "ref.wav", speech)
    enhanced, record = run_pipeline(
        tmp_path / "in.wav", PipelineConfig(preproc="id"), reference_wav=tmp_path / "ref.wav"
    )
    est, ref = trim_edges(enhanced, cfg), trim_edges(read_wav(tmp_path / "ref.wav"), cfg)
    assert len(est) == len(noisy) - 2 * cfg.frame_len
    assert record.si_sdr_db == si_sdr(est, ref)


def test_config_refuses_a_rate_without_a_hop(tmp_path, capsys):
    # below 63 Hz the 8 ms hop rounds to no sample: StftConfig refuses such
    # a rate, and enhance does so for a WAV at it
    StftConfig(63)
    for rate in (1, 50, 62):
        with pytest.raises(ValueError, match=rf"^rate {rate} Hz is below 63 Hz"):
            StftConfig(rate)
    wav = tmp_path / "in.wav"
    write_wav(wav, AudioBuffer(np.ones(200), 50))
    assert cli_main(["enhance", str(wav), str(tmp_path / "out.wav"), "--preproc", "id"]) == 2
    assert "[enhance] rate 50 Hz is below 63 Hz" in capsys.readouterr().err


@pytest.mark.parametrize("fs", [8000, 11025, 22050, 44100, 48000])
@pytest.mark.parametrize(
    "config",
    [
        PipelineConfig(preproc="id"),
        PipelineConfig(preproc="wiener"),
        PipelineConfig(preproc="cmpdr", forced_modset=(0.0, 100.0, 200.0)),
    ],
    ids=["id", "wiener", "cmpdr"],
)
def test_enhance_off_16k_is_finite_and_length_preserving(fs, config):
    speech = synth_speech_like(2.0, fs, seed=51)
    noise = synth_harmonic_cs_noise(2.0, fs, HarmonicNoiseParams(f0=100.0, seed=52))
    mix, _ = mix_at_snr(speech, noise, MixSpec(snr_db=-5.0))
    result = enhance_buffer(mix, config)
    assert len(result.enhanced) == len(mix)
    assert result.enhanced.sample_rate == fs
    assert np.all(np.isfinite(result.enhanced.samples))


def test_config_unknown_key_rejected(tmp_path):
    # ms_alpha, beta_x, max_shifts: the Wiener settings, the beamformer's
    # smoothing and the estimator's settings are constants, not keys; the
    # sample rate is each input's own
    path = tmp_path / "bad.cfg"
    lines = ("learning_rate=0.1", "ms_alpha=0.85", "beta_x=0.95", "max_shifts=5", "sample_rate=16000")
    for line in lines:
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown config key"):
            PipelineConfig.from_file(path)


def test_identity_pipeline_is_metric_neutral(cfg16k, speech_4s):
    config = PipelineConfig(preproc="id", mask="none")
    result = enhance_buffer(speech_4s, config)
    err = np.linalg.norm(result.enhanced.samples - speech_4s.samples)
    assert err <= 1e-6 * np.linalg.norm(speech_4s.samples)


def trivial_stage(signal, cfg):
    """The cmpdr stage's output spectrogram under the trivial set {0}."""
    return cmpdr_process(build_augmented(signal, ModulationSet((0.0,)), cfg)).data


def test_cmpdr_trivial_modset_equals_identity_spectrogram(cfg16k, speech_4s):
    ident = enhance_buffer(speech_4s, PipelineConfig(preproc="id"))
    trivial = enhance_buffer(
        speech_4s, PipelineConfig(preproc="cmpdr", forced_modset=(0.0,))
    )
    assert np.array_equal(trivial_stage(speech_4s, cfg16k), stft(speech_4s, cfg16k).data)
    assert np.array_equal(ident.enhanced.samples, trivial.enhanced.samples)


@settings(max_examples=30, deadline=None)
@given(
    fs=st.sampled_from(RATES),
    length=st.integers(1, 2 * 48000),
    seed=st.integers(0, 2**32 - 1),
)
def test_trivial_modset_is_the_identity_at_every_rate(fs, length, seed):
    noisy = AudioBuffer(np.random.default_rng(seed).standard_normal(length), fs)
    ident = enhance_buffer(noisy, PipelineConfig(preproc="id"))
    trivial = enhance_buffer(noisy, PipelineConfig(preproc="cmpdr", forced_modset=(0.0,)))
    cfg = StftConfig(fs)
    assert np.array_equal(trivial_stage(noisy, cfg), stft(noisy, cfg).data)
    assert np.array_equal(ident.enhanced.samples, trivial.enhanced.samples)


def test_unmasked_run_builds_no_clean_companion(speech_4s, monkeypatch):
    noisy = AudioBuffer(
        speech_4s.samples + np.random.default_rng(9).standard_normal(len(speech_4s)),
        FS,
    )
    config = PipelineConfig(forced_modset=(0.0, 100.0, 200.0))
    builds = []
    real_build = cyclospeech.pipeline.build_augmented
    monkeypatch.setattr(
        cyclospeech.pipeline,
        "build_augmented",
        lambda *args, **kwargs: builds.append(args) or real_build(*args, **kwargs),
    )
    with_clean = enhance_buffer(noisy, config, clean=speech_4s)
    assert len(builds) == 1
    without = enhance_buffer(noisy, config)
    assert np.array_equal(with_clean.enhanced.samples, without.enhanced.samples)


def _mixture(seconds, seed):
    speech = synth_speech_like(seconds, FS, seed=seed)
    noise = synth_harmonic_cs_noise(seconds, FS, HarmonicNoiseParams(f0=97.0, seed=seed + 1))
    mix, _ = mix_at_snr(speech, noise, MixSpec(snr_db=-10.0))
    return mix, speech


FIVE_SHIFTS = PipelineConfig(mask="oracle-irm", forced_modset=tuple(97.0 * p for p in range(5)))


@pytest.mark.parametrize(
    "config",
    [
        PipelineConfig(preproc="id"),
        PipelineConfig(preproc="wiener"),
        replace(FIVE_SHIFTS, mask="none"),
        FIVE_SHIFTS,
    ],
    ids=lambda c: c.label(),
)
def test_output_does_not_depend_on_the_block_length(config, monkeypatch):
    # 628 frames: two default blocks, and the Wiener window (188 frames)
    # spans several 64-frame blocks; the helper thread builds the noisy
    # stacks, on one block and on several
    mix, speech = _mixture(5.0, seed=70)
    ref = enhance_buffer(mix, config, clean=speech).enhanced.samples
    for frames in (64, 100, 512, 10**6):
        monkeypatch.setattr(cyclospeech.pipeline, "_STREAM_FRAMES", frames)
        out = enhance_buffer(mix, config, clean=speech).enhanced.samples
        assert np.array_equal(out, ref), frames


@pytest.mark.parametrize("budget", (1, 2))
def test_a_failing_stack_build_is_raised_and_leaves_no_thread(budget, monkeypatch):
    # 628 frames: the second block's noisy stack fails, on the helper
    # thread at every budget
    mix, _ = _mixture(5.0, seed=73)
    monkeypatch.setattr(cyclospeech.modset, "_thread_budget", budget)
    real_build = cyclospeech.pipeline.build_augmented
    failure = RuntimeError("stack build failed")
    build_threads = []

    def build(signal, modset, cfg, frames, out):
        build_threads.append(threading.current_thread())
        if frames[0] > 0:
            raise failure
        return real_build(signal, modset, cfg, frames=frames, out=out)

    monkeypatch.setattr(cyclospeech.pipeline, "build_augmented", build)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        enhance_buffer(mix, replace(FIVE_SHIFTS, mask="none"))
    assert raised.value is failure
    assert threading.active_count() == before
    assert len(build_threads) == 2
    assert build_threads[-1] is not threading.main_thread()


def test_id_and_wiener_equal_their_whole_signal_references():
    # 628 frames, so two blocks, against state-free whole-signal calls
    mix, _ = _mixture(5.0, seed=72)
    x = stft(mix, StftConfig(FS))
    assert x.num_frames == 628
    noise_psd, smoothed = min_stats_noise_psd(x)
    gain = wiener_gain(smoothed, noise_psd)
    wiener, identity = np.zeros(len(mix)), np.zeros(len(mix))
    istft(replace(x, data=gain * x.data), wiener)
    istft(x, identity)
    got = enhance_buffer(mix, PipelineConfig(preproc="wiener")).enhanced
    assert np.array_equal(got.samples, wiener)
    got = enhance_buffer(mix, PipelineConfig(preproc="id")).enhanced
    assert np.array_equal(got.samples, identity)


def test_enhance_peak_memory_does_not_grow_with_input_length():
    # the blocks bound what the stages hold; only the audio arrays (a few MB
    # here) grow with the input, where whole-input stacks grew by ~12 MB/s
    peaks = []
    for seconds in (8.0, 32.0):
        mix, speech = _mixture(seconds, seed=71)
        enhance_buffer(mix, FIVE_SHIFTS, clean=speech)  # first-call setup stays out
        tracemalloc.start()
        try:
            enhance_buffer(mix, FIVE_SHIFTS, clean=speech)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 50 * 2**20, [p / 2**20 for p in peaks]


def test_enhance_working_set_is_under_one_and_a_half_blocks_of_stacks():
    # one block's noisy and clean stacks: 2 x 5 shifts x 512 frames x 512
    # bins of complex128; a block's spectrograms kept alive through the next
    # block's clean stack and beamformer call held 1.74 of them
    stacks = 2 * 5 * 512 * 512 * 16
    mix, speech = _mixture(32.0, seed=74)
    enhance_buffer(mix, FIVE_SHIFTS, clean=speech)  # first-call setup stays out
    tracemalloc.start()
    try:
        out = enhance_buffer(mix, FIVE_SHIFTS, clean=speech).enhanced
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.samples.nbytes <= 1.55 * stacks, (peak - out.samples.nbytes) / stacks


def test_oracle_mask_requires_reference(speech_4s):
    with pytest.raises(ValueError, match="reference"):
        enhance_buffer(speech_4s, PipelineConfig(preproc="id", mask="oracle-irm"))


@pytest.mark.parametrize("preproc", ["id", "wiener", "cmpdr"])
def test_enhance_refuses_an_empty_input_by_name(preproc, speech_4s):
    config = PipelineConfig(preproc=preproc)
    empty = AudioBuffer(np.empty(0), FS)
    with pytest.raises(ValueError, match="^noisy input is empty$"):
        enhance_buffer(empty, config)
    with pytest.raises(ValueError, match="^clean reference is empty$"):
        enhance_buffer(speech_4s, config, clean=empty)


def test_forced_shift_is_checked_against_each_input_rate():
    # 5 kHz is below the Nyquist frequency of a 16 or 44.1 kHz input, not of
    # an 8 kHz one
    config = PipelineConfig(preproc="cmpdr", forced_modset=(0.0, 5000.0))
    for fs in (16000, 44100):
        noisy = synth_speech_like(1.0, fs, seed=37)
        assert len(enhance_buffer(noisy, config).enhanced) == len(noisy)
    with pytest.raises(ValueError, match="^forced_modset: shift 5000.0 Hz"):
        enhance_buffer(synth_speech_like(1.0, 8000, seed=37), config)


def test_oracle_irm_pipeline_improves_low_snr_mixture(cfg16k):
    speech = synth_speech_like(4.0, FS, seed=31)
    noise = synth_harmonic_cs_noise(4.0, FS, HarmonicNoiseParams(f0=120.0, seed=32))
    mix, _ = mix_at_snr(speech, noise, MixSpec(snr_db=-10.0))
    config = PipelineConfig(preproc="cmpdr", mask="oracle-irm", forced_modset=(0.0, 120.0, 240.0))
    result = enhance_buffer(mix, config, clean=speech)
    ref = trim_edges(speech, cfg16k)
    gained = si_sdr(trim_edges(result.enhanced, cfg16k), ref)
    baseline = si_sdr(trim_edges(mix, cfg16k), ref)
    assert gained > baseline + 3.0


def test_run_pipeline_writes_output_and_record(tmp_path, cfg16k):
    speech = synth_speech_like(3.0, FS, seed=33)
    noise = synth_harmonic_cs_noise(3.0, FS, HarmonicNoiseParams(f0=90.0, seed=34))
    mix, _ = mix_at_snr(speech, noise, MixSpec(snr_db=-5.0))
    in_path = tmp_path / "in.wav"
    ref_path = tmp_path / "ref.wav"
    out_path = tmp_path / "out.wav"
    write_wav(in_path, mix)
    write_wav(ref_path, speech)
    config = PipelineConfig(preproc="id", mask="none")
    enhanced, record = run_pipeline(
        in_path, config, output_wav=out_path, reference_wav=ref_path,
        file_label="demo", input_snr_db=-5.0,
    )
    assert out_path.exists()
    assert record.file == "demo"
    assert record.preproc == "id"
    assert 0.0 <= record.stoi <= 1.0
    written = read_wav(out_path)
    assert len(written) == len(mix)
    # identity pipeline: output scores like the input
    ref = trim_edges(speech, cfg16k)
    assert abs(record.si_sdr_db - si_sdr(trim_edges(mix, cfg16k), ref)) <= 0.01


def test_run_pipeline_tags_stage_errors(tmp_path):
    config = PipelineConfig(preproc="id")
    with pytest.raises(PipelineError, match=r"\[read\]"):
        run_pipeline(tmp_path / "missing.wav", config)
    # unreadable output directory -> write stage
    speech = synth_speech_like(3.0, FS, seed=35)
    in_path = tmp_path / "ok.wav"
    write_wav(in_path, speech)
    with pytest.raises(PipelineError, match=r"\[write\]"):
        run_pipeline(in_path, config, output_wav=tmp_path / "no_dir" / "x" / "out.wav")


def test_trim_edges_requires_margin(cfg16k):
    with pytest.raises(ValueError, match="short"):
        trim_edges(AudioBuffer(np.ones(600), FS), cfg16k)


def _with_bad_sample(buffer, index, value):
    samples = buffer.samples.copy()
    samples[index] = value
    return AudioBuffer(samples, buffer.sample_rate)


@pytest.mark.parametrize("preproc", ["id", "wiener", "cmpdr"])
def test_enhance_rejects_non_finite_input(preproc):
    speech = synth_speech_like(4.0, FS, seed=41)
    noise = synth_harmonic_cs_noise(4.0, FS, HarmonicNoiseParams(f0=110.0, seed=42))
    mix, _ = mix_at_snr(speech, noise, MixSpec(snr_db=-10.0))
    config = PipelineConfig(preproc=preproc)
    with pytest.raises(ValueError, match=r"noisy input .* at index 1000"):
        enhance_buffer(_with_bad_sample(mix, 1000, np.nan), config)
    with pytest.raises(ValueError, match=r"clean reference .* at index 7"):
        enhance_buffer(mix, config, clean=_with_bad_sample(speech, 7, np.inf))


def test_run_pipeline_tags_non_finite_input_as_enhance(tmp_path):
    samples = synth_speech_like(3.0, FS, seed=43).samples.astype(np.float32)
    samples[1000] = np.nan
    path = tmp_path / "nan.wav"
    wavfile.write(path, FS, samples)
    with pytest.raises(PipelineError, match=r"\[enhance\] noisy input .* index 1000"):
        run_pipeline(path, PipelineConfig(preproc="id"))


def test_import_leaves_scipy_signal_unloaded():
    # no scipy module at all: numpy is the only runtime dependency
    src = Path(cyclospeech.__file__).resolve().parents[1]
    code = "import sys, cyclospeech; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
