"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values (run pytest with -s to stream them).
"""

import time

import numpy as np

from cyclospeech import (
    AudioBuffer,
    HarmonicNoiseParams,
    MixSpec,
    ModulationSet,
    PipelineConfig,
    StftConfig,
    build_augmented,
    cmpdr_process,
    enhance_buffer,
    estimate_modulation_set_detailed,
    eval_dataset,
    mix_at_snr,
    si_sdr,
    stft,
    istft,
    synth_dataset,
    synth_harmonic_cs_noise,
    synth_speech_like,
    trim_edges,
    write_wav,
)
from cyclospeech.dataset import SynthSettings

FS = 16000
CFG = StftConfig(FS)
WELCH_RES = FS / 4096


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def make_mixture(seed: int, snr_db: float, duration: float):
    rng = np.random.default_rng(seed)
    f0 = float(rng.uniform(60.0, 150.0))
    speech = synth_speech_like(duration, FS, seed=seed * 7 + 1)
    noise = synth_harmonic_cs_noise(
        duration, FS, HarmonicNoiseParams(f0=f0, seed=seed * 7 + 2)
    )
    mixture, _ = mix_at_snr(speech, noise, MixSpec(snr_db=snr_db))
    return mixture, speech, f0


def gain_over_noisy(mixture, speech, config, clean=None):
    result = enhance_buffer(mixture, config, clean=clean)
    ref = trim_edges(speech, CFG)
    out_sdr = si_sdr(trim_edges(result.enhanced, CFG), ref)
    in_sdr = si_sdr(trim_edges(mixture, CFG), ref)
    return out_sdr - in_sdr, out_sdr


def test_a1_solver_matches_brute_force(anchor_weights):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_rel = 0.0
    worst_constraint = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 7))
        m = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
        cov = m @ m.conj().T + 0.1 * np.eye(c)
        w, fallback = anchor_weights(cov, diag_load=1e-12)
        assert not fallback
        kkt = np.zeros((c + 1, c + 1), dtype=complex)
        kkt[:c, :c] = cov
        kkt[:c, c] = -np.eye(c)[:, 0]
        kkt[c, :c] = np.eye(c)[0]
        rhs = np.zeros(c + 1, dtype=complex)
        rhs[c] = 1.0
        oracle = np.linalg.solve(kkt, rhs)[:c]
        worst_rel = max(
            worst_rel, np.linalg.norm(w - oracle) / np.linalg.norm(oracle)
        )
        worst_constraint = max(worst_constraint, abs(np.conj(w[0]) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-8 and worst_constraint <= 1e-10 and elapsed < 5.0
    report(
        "A1",
        ok,
        f"1000 solves: max rel dev {worst_rel:.2e} (<=1e-8), "
        f"max constraint err {worst_constraint:.2e} (<=1e-10), {elapsed:.2f} s (<5 s)",
    )


def test_a2_distortionless_and_power_minimization(realized_weights):
    mixture, _, f0 = make_mixture(seed=201, snr_db=-10.0, duration=10.0)
    modset = ModulationSet((0.0, f0, 2 * f0))
    aug = build_augmented(mixture, modset, CFG)
    _, _, weights = realized_weights(aug)  # (L, K, C)

    chans = aug.channels
    n_ch, n_frames, n_bins = chans.shape
    warm = min(10, n_frames)
    delta = 1e-3 * np.mean(np.abs(chans[0, :warm]) ** 2, axis=0)
    cov = delta[:, None, None] * np.eye(n_ch, dtype=complex)[None]
    beta = 0.95
    constraint_violations = 0
    power_violations = 0
    for l in range(n_frames):
        x = chans[:, l].T
        cov = beta * cov + (1.0 - beta) * (x[:, :, None] * np.conj(x[:, None, :]))
        w = weights[l].astype(np.complex128)
        constraint_violations += int(np.sum(np.abs(np.conj(w[:, 0]) - 1.0) > 1e-10))
        out_power = np.einsum("kc,kcd,kd->k", np.conj(w), cov, w).real
        ref_power = cov[:, 0, 0].real
        trace = np.einsum("kcc->k", cov).real
        power_violations += int(np.sum(out_power > ref_power + 1e-9 * trace))
    total = n_bins * n_frames
    ok = constraint_violations == 0 and power_violations == 0
    report(
        "A2",
        ok,
        f"{total} bin/frame checks over {n_frames} frames: "
        f"{constraint_violations} constraint violations, "
        f"{power_violations} power violations (0 required)",
    )


def test_a3_synthetic_suppression():
    start = time.perf_counter()
    oracle_gains = []
    estimated_gains = []
    for seed in range(1, 21):
        mixture, speech, f0 = make_mixture(seed=300 + seed, snr_db=-10.0, duration=6.0)
        oracle_cfg = PipelineConfig(
            preproc="cmpdr", mask="none", forced_modset=(0.0, f0, 2 * f0)
        )
        g, _ = gain_over_noisy(mixture, speech, oracle_cfg)
        oracle_gains.append(g)
        est_cfg = PipelineConfig(preproc="cmpdr", mask="none")
        g, _ = gain_over_noisy(mixture, speech, est_cfg)
        estimated_gains.append(g)
    elapsed = time.perf_counter() - start
    mean_oracle = float(np.mean(oracle_gains))
    mean_est = float(np.mean(estimated_gains))
    ok = mean_oracle >= 3.0 and mean_est >= 1.5 and elapsed < 120.0
    report(
        "A3",
        ok,
        f"20 mixtures at -10 dB: oracle-set gain {mean_oracle:+.2f} dB (>=+3), "
        f"estimated-set gain {mean_est:+.2f} dB (>=+1.5), {elapsed:.1f} s (<120 s)",
    )


def test_a4_low_snr_trend():
    mean_gain = {}
    for snr in (-20.0, 0.0):
        diffs = []
        for seed in range(1, 21):
            mixture, speech, _ = make_mixture(
                seed=400 + seed, snr_db=snr, duration=4.0
            )
            scores = {}
            for preproc in ("id", "cmpdr"):
                config = PipelineConfig(preproc=preproc, mask="oracle-irm")
                _, out_sdr = gain_over_noisy(mixture, speech, config, clean=speech)
                scores[preproc] = out_sdr
            diffs.append(scores["cmpdr"] - scores["id"])
        mean_gain[snr] = float(np.mean(diffs))
    ok = mean_gain[-20.0] > mean_gain[0.0]
    report(
        "A4",
        ok,
        f"oracle-IRM stage, 20 seeds: cMPDR-over-Id gain {mean_gain[-20.0]:+.2f} dB "
        f"at -20 dB vs {mean_gain[0.0]:+.2f} dB at 0 dB (strictly larger required)",
    )


def test_a5_modulation_set_recovery():
    hits = 0
    for seed in range(1, 51):
        rng = np.random.default_rng(500 + seed)
        f0 = float(rng.uniform(60.0, 150.0))
        noise = synth_harmonic_cs_noise(
            10.0, FS, HarmonicNoiseParams(f0=f0, seed=700 + seed)
        )
        modset = estimate_modulation_set_detailed(noise, CFG)[0]
        nonzero = [s for s in modset.shifts if s != 0.0]
        if nonzero and min(abs(s - f0) for s in nonzero) <= WELCH_RES:
            hits += 1
    trivial = 0
    for seed in range(1, 51):
        rng = np.random.default_rng(900 + seed)
        white = AudioBuffer(rng.standard_normal(10 * FS), FS)
        if estimate_modulation_set_detailed(white, CFG)[0].shifts == (0.0,):
            trivial += 1
    ok = hits >= 40 and trivial >= 48
    report(
        "A5",
        ok,
        f"f0 within one periodogram bin in {hits}/50 runs (>=40); "
        f"white noise trivial set in {trivial}/50 runs (>=48)",
    )


def test_a6_reduction_identities():
    speech = synth_speech_like(4.0, FS, seed=601)

    ident = enhance_buffer(speech, PipelineConfig(preproc="id", mask="none"))
    trivial = enhance_buffer(
        speech, PipelineConfig(preproc="cmpdr", mask="none", forced_modset=(0.0,))
    )
    stage = cmpdr_process(build_augmented(speech, ModulationSet((0.0,)), CFG)).data
    bit_exact = np.array_equal(stage, stft(speech, CFG).data) and np.array_equal(
        ident.enhanced.samples, trivial.enhanced.samples
    )

    rng = np.random.default_rng(602)
    x = rng.standard_normal(12 * CFG.frame_len)
    out = np.zeros(len(x))
    istft(stft(AudioBuffer(x, FS), CFG), out)
    inner = slice(CFG.frame_len, -CFG.frame_len)
    rt_err = float(
        np.linalg.norm(out[inner] - x[inner]) / np.linalg.norm(x[inner])
    )

    r = rng.standard_normal(4096)
    raw = rng.standard_normal(4096)
    n = raw - (np.dot(raw, r) / np.dot(r, r)) * r
    n *= np.sqrt(np.dot(r, r) / 10.0) / np.linalg.norm(n)
    sdr_err = abs(si_sdr(AudioBuffer(r + n, FS), AudioBuffer(r, FS)) - 10.0)

    ok = bit_exact and rt_err <= 1e-6 and sdr_err <= 1e-6
    report(
        "A6",
        ok,
        f"trivial-modset bit-exact: {bit_exact}; STFT round-trip rel err "
        f"{rt_err:.2e} (<=1e-6); SI-SDR construction off by {sdr_err:.2e} dB (<=1e-6)",
    )


def test_a7_wiener_baseline_ordering():
    wiener_cfg = PipelineConfig(preproc="wiener", mask="none")
    positive = 0
    for seed in range(1, 21):
        speech = synth_speech_like(5.0, FS, seed=700 + seed)
        rng = np.random.default_rng(760 + seed)
        white = AudioBuffer(rng.standard_normal(len(speech)), FS)
        mixture, _ = mix_at_snr(speech, white, MixSpec(snr_db=0.0))
        g, _ = gain_over_noisy(mixture, speech, wiener_cfg)
        positive += int(g > 0.0)

    wiener_gains, cmpdr_gains = [], []
    for seed in range(1, 11):
        mixture, speech, _ = make_mixture(seed=800 + seed, snr_db=-10.0, duration=5.0)
        g, _ = gain_over_noisy(mixture, speech, wiener_cfg)
        wiener_gains.append(g)
        g, _ = gain_over_noisy(
            mixture, speech, PipelineConfig(preproc="cmpdr", mask="none")
        )
        cmpdr_gains.append(g)
    mean_wiener = float(np.mean(wiener_gains))
    mean_cmpdr = float(np.mean(cmpdr_gains))
    ok = positive >= 18 and mean_cmpdr > mean_wiener
    report(
        "A7",
        ok,
        f"Wiener gain positive on {positive}/20 white-noise mixtures (>=18); "
        f"harmonic -10 dB mean gain: cMPDR {mean_cmpdr:+.2f} dB > "
        f"Wiener {mean_wiener:+.2f} dB",
    )


def test_a8_end_to_end_determinism(tmp_path):
    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    for i in range(2):
        write_wav(
            clean_dir / f"utt{i}.wav", synth_speech_like(3.5, FS, seed=810 + i)
        )
    configs = [
        PipelineConfig(preproc="id", mask="none"),
        PipelineConfig(preproc="cmpdr", mask="oracle-irm"),
    ]
    outputs = []
    for run in ("one", "two"):
        ds = tmp_path / f"ds_{run}"
        res = tmp_path / f"res_{run}"
        synth_dataset(clean_dir, ds, SynthSettings(seed=99))
        eval_dataset(ds, configs, out_dir=res)
        outputs.append(
            tuple(
                (res / name).read_bytes()
                for name in ("metrics.csv", "aggregate.csv", "curves.csv")
            )
        )
    identical = outputs[0] == outputs[1]
    report(
        "A8",
        identical,
        "two synth+eval runs with identical seeds produced byte-identical CSVs"
        if identical
        else "CSV outputs differ between identically seeded runs",
    )
