import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cyclospeech import (
    AudioBuffer,
    MetricRecord,
    MixSpec,
    aggregate,
    curve_points,
    mix_at_snr,
    si_sdr,
    stoi,
    synth_speech_like,
)
from cyclospeech import metrics
from cyclospeech.stft import periodic_hann
from cyclospeech.metrics import write_records_csv, write_table_csv

FS = 16000


def test_si_sdr_identity_hits_cap():
    rng = np.random.default_rng(0)
    x = AudioBuffer(rng.standard_normal(8000), FS)
    assert si_sdr(x, x) == 100.0


def test_si_sdr_scale_invariant():
    rng = np.random.default_rng(1)
    ref = AudioBuffer(rng.standard_normal(8000), FS)
    est = AudioBuffer(ref.samples + 0.1 * rng.standard_normal(8000), FS)
    base = si_sdr(est, ref)
    for c in (2.0, 0.01, 317.0):
        scaled = AudioBuffer(c * est.samples, FS)
        assert abs(si_sdr(scaled, ref) - base) <= 1e-9
    doubled_ref = AudioBuffer(2.0 * ref.samples, FS)
    assert si_sdr(doubled_ref, ref) == 100.0


def test_si_sdr_orthogonal_noise_exact_ten_db():
    # Gram-Schmidt an exactly orthogonal perturbation with 1/10 the energy
    rng = np.random.default_rng(2)
    r = rng.standard_normal(4096)
    raw = rng.standard_normal(4096)
    n = raw - (np.dot(raw, r) / np.dot(r, r)) * r
    n *= np.sqrt(np.dot(r, r) / 10.0) / np.linalg.norm(n)
    value = si_sdr(AudioBuffer(r + n, FS), AudioBuffer(r, FS))
    assert abs(value - 10.0) <= 1e-6


def test_si_sdr_matches_lstsq_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = rng.standard_normal(512)
        e = rng.standard_normal(512)
        a = np.linalg.lstsq(r[:, None], e, rcond=None)[0][0]
        target = a * r
        expected = 10 * np.log10(np.dot(target, target) / np.sum((e - target) ** 2))
        got = si_sdr(AudioBuffer(e, FS), AudioBuffer(r, FS))
        assert abs(got - expected) <= 1e-9


@pytest.mark.parametrize("metric", [si_sdr, stoi])
@pytest.mark.parametrize("k_est, k_ref", [(-600, -600), (900, 900), (-600, 900), (900, -600)])
def test_metrics_exact_at_extreme_power_of_two_scales(speech_4s, metric, k_est, k_ref):
    # a reference scaled by 2^-600 once had "zero energy", one scaled by
    # 2^900 overflowed; a power of two scales every sample exactly
    noise = AudioBuffer(np.random.default_rng(8).standard_normal(len(speech_4s)), FS)
    mixture, _ = mix_at_snr(speech_4s, noise, MixSpec(snr_db=-5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = metric(mixture, speech_4s)
        scaled = metric(
            AudioBuffer(np.ldexp(mixture.samples, k_est), FS),
            AudioBuffer(np.ldexp(speech_4s.samples, k_ref), FS),
        )
    assert scaled == base


def test_si_sdr_rejects_degenerate():
    x = AudioBuffer(np.ones(100), FS)
    with pytest.raises(ValueError, match="zero energy"):
        si_sdr(x, AudioBuffer(np.zeros(100), FS))
    with pytest.raises(ValueError, match="length"):
        si_sdr(x, AudioBuffer(np.ones(99), FS))


@pytest.mark.parametrize("metric", [si_sdr, stoi])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["estimate", "reference"])
def test_metrics_refuse_non_finite_samples(speech_4s, metric, bad, which):
    samples = speech_4s.samples.copy()
    samples[5000] = bad
    pair = {"estimate": speech_4s, "reference": speech_4s, which: AudioBuffer(samples, FS)}
    with pytest.raises(ValueError, match=f"{which} has a non-finite sample .* at index 5000"):
        metric(pair["estimate"], pair["reference"])


def test_stoi_rejects_degenerate(speech_4s):
    with pytest.raises(ValueError, match="zero energy"):
        stoi(speech_4s, AudioBuffer(np.zeros(len(speech_4s)), FS))
    with pytest.raises(ValueError, match="length"):
        stoi(speech_4s, AudioBuffer(speech_4s.samples[:-1], FS))
    with pytest.raises(ValueError, match="sample-rate mismatch"):
        stoi(speech_4s, AudioBuffer(speech_4s.samples, 2 * FS))


def _loop_stoi(estimate, reference):
    """Reference STOI: overlap-add and segment scoring one frame and one
    segment at a time. Returns the score and the number of frames the
    silent-frame removal dropped."""
    e, r = np.real(estimate.samples), np.real(reference.samples)
    fs = reference.sample_rate
    if fs != metrics._STOI_FS:
        from scipy.signal import resample_poly

        g = math.gcd(fs, metrics._STOI_FS)
        e = resample_poly(e, metrics._STOI_FS // g, fs // g)
        r = resample_poly(r, metrics._STOI_FS // g, fs // g)
    hop = metrics._STOI_HOP
    window = periodic_hann(metrics._STOI_FRAME)
    xf, yf = metrics._frame(r, window, hop), metrics._frame(e, window, hop)
    energies = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + np.finfo(float).eps)
    keep = energies > energies.max() - metrics._STOI_VAD_RANGE_DB
    xf, yf = xf[keep], yf[keep]
    r = np.zeros((len(xf) - 1) * hop + len(window))
    e = np.zeros_like(r)
    for i in range(len(xf)):
        r[i * hop : i * hop + len(window)] += xf[i]
        e[i * hop : i * hop + len(window)] += yf[i]

    nfft = metrics._STOI_NFFT
    rf = np.fft.rfft(metrics._frame(r, window, hop), n=nfft, axis=1)
    ef = np.fft.rfft(metrics._frame(e, window, hop), n=nfft, axis=1)
    bands = metrics._third_octave_bands(nfft, metrics._STOI_FS).astype(float)
    x_env = np.sqrt(bands @ (np.abs(rf.T) ** 2))
    y_env = np.sqrt(bands @ (np.abs(ef.T) ** 2))
    n = metrics._STOI_SEG_FRAMES
    clip_factor = 1.0 + 10.0 ** (-metrics._STOI_CLIP_DB / 20.0)
    eps = np.finfo(float).eps
    scores = []
    for m in range(n, x_env.shape[1] + 1):
        x_seg = x_env[:, m - n : m]
        y_seg = y_env[:, m - n : m]
        alpha = np.linalg.norm(x_seg, axis=1, keepdims=True) / (
            np.linalg.norm(y_seg, axis=1, keepdims=True) + eps
        )
        y_seg = np.minimum(alpha * y_seg, clip_factor * x_seg)
        xc = x_seg - x_seg.mean(axis=1, keepdims=True)
        yc = y_seg - y_seg.mean(axis=1, keepdims=True)
        denom = np.linalg.norm(xc, axis=1) * np.linalg.norm(yc, axis=1) + eps
        scores.append(np.sum(xc * yc, axis=1) / denom)
    return float(np.mean(scores)), int(np.count_nonzero(~keep))


@pytest.mark.parametrize("fs", [8000, 16000, 22050, 44100])
def test_stoi_matches_per_frame_and_per_segment_loops(fs):
    clean = synth_speech_like(3.0, fs, seed=fs)
    # a 0.6 s pause in the reference makes the 40 dB VAD drop frames
    samples = clean.samples.copy()
    samples[fs : fs + 3 * fs // 5] *= 1e-4
    clean = AudioBuffer(samples, fs)
    noise = AudioBuffer(np.random.default_rng(fs).standard_normal(len(clean)), fs)
    for snr_db in (-10.0, 5.0):
        mixture, _ = mix_at_snr(clean, noise, MixSpec(snr_db=snr_db))
        expected, dropped = _loop_stoi(mixture, clean)
        assert dropped > 0
        assert stoi(mixture, clean) == expected


def test_stoi_working_memory_is_bounded():
    # segments scored all at once held 81.6 MiB here, one at a time 47.5 MiB
    clean = synth_speech_like(60.0, FS, seed=9)
    noise = AudioBuffer(np.random.default_rng(9).standard_normal(len(clean)), FS)
    mixture, _ = mix_at_snr(clean, noise, MixSpec(snr_db=0.0))
    stoi(AudioBuffer(mixture.samples[: 4 * FS], FS), AudioBuffer(clean.samples[: 4 * FS], FS))
    tracemalloc.start()
    try:
        stoi(mixture, clean)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50 * 2**20, peak / 2**20


def test_stoi_self_scores_near_one(speech_4s):
    assert stoi(speech_4s, speech_4s) >= 0.999


def test_stoi_white_noise_low(speech_4s):
    rng = np.random.default_rng(4)
    scores = []
    for seed in range(10):
        noise = AudioBuffer(
            np.random.default_rng(seed).standard_normal(len(speech_4s)) * 0.1, FS
        )
        scores.append(stoi(noise, speech_4s))
    assert np.mean(scores) <= 0.25


def test_stoi_monotonic_in_snr(speech_4s):
    rng = np.random.default_rng(5)
    noise = AudioBuffer(rng.standard_normal(len(speech_4s)), FS)
    values = []
    for snr in (-10.0, 0.0, 10.0):
        mixture, _ = mix_at_snr(speech_4s, noise, MixSpec(snr_db=snr))
        values.append(stoi(mixture, speech_4s))
    assert values[0] < values[1] < values[2]


def test_stoi_gain_invariant(speech_4s):
    rng = np.random.default_rng(6)
    noise = AudioBuffer(rng.standard_normal(len(speech_4s)), FS)
    mixture, _ = mix_at_snr(speech_4s, noise, MixSpec(snr_db=0.0))
    base = stoi(mixture, speech_4s)
    scaled = AudioBuffer(7.3 * mixture.samples, FS)
    assert abs(stoi(scaled, speech_4s) - base) <= 1e-6


def test_stoi_too_short_rejected():
    x = AudioBuffer(np.random.default_rng(7).standard_normal(3000), FS)
    with pytest.raises(ValueError, match="ms"):
        stoi(x, x)


def make_record(file, snr, preproc="id", mask="none", sdr=5.0, st=0.8):
    return MetricRecord(file, snr, preproc, mask, sdr, st)


def test_metric_record_clamps_stoi():
    assert make_record("a", 0.0, st=-0.2).stoi == 0.0
    assert make_record("a", 0.0, st=1.3).stoi == 1.0


def test_aggregate_default_buckets():
    records = [
        make_record("a", -15.0, sdr=1.0, st=0.3),
        make_record("b", -5.0, sdr=5.0, st=0.6),
        make_record("c", 0.0, sdr=9.0, st=0.9),  # upper edge stays in [-10,0]
    ]
    rows = aggregate(records)
    assert [r["snr_bucket"] for r in rows] == ["[-20,-10)", "[-10,0]"]
    assert rows[0]["si_sdr_db"] == 1.0
    assert rows[1]["count"] == 2
    assert rows[1]["si_sdr_db"] == 7.0


def test_aggregate_duplicates_mean_idempotent():
    records = [make_record("a", -15.0, sdr=2.0)] * 3
    rows = aggregate(records)
    assert rows[0]["si_sdr_db"] == 2.0
    assert rows[0]["count"] == 3


def test_aggregate_out_of_bucket_goes_to_other():
    records = [make_record("a", -15.0), make_record("b", 12.0)]
    rows = aggregate(records)
    labels = [r["snr_bucket"] for r in rows]
    assert "other" in labels
    assert sum(r["count"] for r in rows) == 2


def test_aggregate_reserves_external_metric_columns():
    rows = aggregate([make_record("a", -15.0)])
    assert rows[0]["dnsmos"] == ""
    assert rows[0]["pesq"] == ""


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError, match="no records"):
        aggregate([])


def test_curve_points_binning():
    records = [
        make_record("a", -17.0, sdr=1.0),
        make_record("b", -16.0, sdr=3.0),
        make_record("c", -3.0, sdr=8.0),
    ]
    rows = curve_points(records)
    assert len(rows) == 2
    assert rows[0]["snr_bin_db"] == -17.5
    assert rows[0]["si_sdr_db"] == 2.0
    assert rows[1]["snr_bin_db"] == -2.5


def test_csv_schemas(tmp_path):
    records = [make_record("a", -15.0, sdr=1.23456789, st=0.5)]
    path = tmp_path / "metrics.csv"
    write_records_csv(path, records)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == "file,input_snr_db,preproc,mask,si_sdr_db,stoi"
    assert lines[1] == "a,-15.000000,id,none,1.234568,0.500000"
    assert "\r" not in text

    table = tmp_path / "aggregate.csv"
    write_table_csv(table, aggregate(records))
    header = table.read_text(encoding="utf-8").split("\n")[0]
    assert header == "snr_bucket,preproc,mask,count,si_sdr_db,stoi,dnsmos,pesq"


def test_i0_equals_scipy_special_on_the_kaiser_range():
    from scipy.special import i0

    rng = np.random.default_rng(9)
    x = np.concatenate([np.linspace(0.0, 8.0, 100_001), rng.uniform(0.0, 8.0, 100_000)])
    assert np.array_equal(metrics._i0(x), i0(x))
