import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclospeech import (
    AudioBuffer,
    HarmonicNoiseParams,
    MixSpec,
    ModulationSet,
    StftConfig,
    build_augmented,
    cmpdr_process,
    mix_at_snr,
    stft,
    synth_harmonic_cs_noise,
    synth_speech_like,
)
from cyclospeech import beamformer
from cyclospeech.modulation import AugmentedSpectrogram

FS = 16000


def random_hpd(rng, c):
    m = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
    return m @ m.conj().T + 0.1 * np.eye(c)


def kkt_oracle(cov):
    """Brute-force constrained minimizer: solve the full KKT system
    [[S, -e1], [e1^H, 0]] [w; mu] = [0; 1] with a generic dense solver."""
    c = cov.shape[0]
    kkt = np.zeros((c + 1, c + 1), dtype=complex)
    kkt[:c, :c] = cov
    kkt[:c, c] = -np.eye(c)[:, 0]
    kkt[c, :c] = np.eye(c)[0]
    rhs = np.zeros(c + 1, dtype=complex)
    rhs[c] = 1.0
    return np.linalg.solve(kkt, rhs)[:c]


def test_identity_covariance_passthrough_weights(anchor_weights):
    for c in (1, 2, 5):
        w, fallback = anchor_weights(np.eye(c, dtype=complex))
        assert not fallback
        assert np.allclose(w, np.eye(c)[0], atol=1e-9)


def test_known_two_by_two_solution(anchor_weights):
    cov = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    w, fallback = anchor_weights(cov)
    assert not fallback
    assert np.allclose(w, [1.0, -0.5], atol=1e-4)
    out_power = (w.conj() @ cov @ w).real
    assert abs(out_power - 1.5) <= 1e-3
    assert out_power < 2.0  # beats the pass-through power e1^H S e1


def test_weights_match_kkt_oracle(anchor_weights):
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = int(rng.integers(2, 7))
        cov = random_hpd(rng, c)
        w, fallback = anchor_weights(cov, diag_load=1e-12)
        assert not fallback
        oracle = kkt_oracle(cov)
        assert np.linalg.norm(w - oracle) <= 1e-8 * np.linalg.norm(oracle)
        assert abs(np.conj(w[0]) - 1.0) <= 1e-10  # w^H e1 = 1


def test_singular_matrix_falls_back(anchor_weights):
    w, fallback = anchor_weights(np.zeros((3, 3), dtype=complex))
    # the loading floor keeps the solve alive and returns pass-through
    assert np.allclose(w, [1.0, 0.0, 0.0], atol=1e-12)
    assert not fallback


def small_config():
    return StftConfig(2000)  # 64-sample frames, 16-sample hop, 64 bins


def test_trivial_modset_is_bit_exact_identity(cfg16k):
    sig = synth_speech_like(2.0, FS, seed=21)
    aug = build_augmented(sig, ModulationSet((0.0,)), cfg16k)
    out = cmpdr_process(aug)
    assert np.array_equal(out.data, aug.channels[0])


@pytest.mark.parametrize("shifts", [(0.0,), (0.0, 110.0, 220.0)])
def test_spectrograms_are_stored_frames_first(cfg16k, shifts):
    # every stage returns C-contiguous frames x bins arrays, not views
    sig = AudioBuffer(np.random.default_rng(26).standard_normal(FS), FS)
    frames, bins = cfg16k.num_frames(len(sig)), cfg16k.fft_size
    aug = build_augmented(sig, ModulationSet(shifts), cfg16k)
    y, y_comp = cmpdr_process(aug, companion=aug)
    for array, shape in (
        (stft(sig, cfg16k).data, (frames, bins)),
        (aug.channels, (len(shifts), frames, bins)),
        (cmpdr_process(aug).data, (frames, bins)),
        (y.data, (frames, bins)),
        (y_comp.data, (frames, bins)),
    ):
        assert array.shape == shape
        assert array.flags.c_contiguous


def test_uncorrelated_channels_output_near_channel_zero():
    # independent channels: estimated cross-terms are pure noise, so the
    # optimal combination stays close to the unshifted channel
    rng = np.random.default_rng(4)
    cfg = small_config()
    shape = (3, 500, 64)
    channels = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    aug = AugmentedSpectrogram(
        channels=channels, modset=ModulationSet((0.0, 50.0, 100.0)), config=cfg
    )
    out = cmpdr_process(aug).data
    ref = channels[0]
    settle = 100  # skip covariance warm-up
    err = np.linalg.norm(out[settle:] - ref[settle:]) / np.linalg.norm(ref[settle:])
    assert err <= 0.35


def test_correlated_interferer_is_suppressed():
    # channel 1 carries a fully coherent copy of the interference in
    # channel 0; output power must drop well below the input power
    rng = np.random.default_rng(5)
    cfg = small_config()
    frames = 400
    interference = rng.standard_normal((frames, 64)) + 1j * rng.standard_normal(
        (frames, 64)
    )
    target = 0.1 * (rng.standard_normal((frames, 64)) + 1j * rng.standard_normal((frames, 64)))
    channels = np.stack([interference + target, interference])
    aug = AugmentedSpectrogram(
        channels=channels, modset=ModulationSet((0.0, 50.0)), config=cfg
    )
    out = cmpdr_process(aug).data
    settle = 100
    out_power = np.mean(np.abs(out[settle:]) ** 2)
    in_power = np.mean(np.abs(channels[0, settle:]) ** 2)
    assert out_power < 0.1 * in_power


def test_process_deterministic(cfg16k):
    noise = synth_harmonic_cs_noise(2.0, FS, HarmonicNoiseParams(f0=110.0, seed=6))
    aug = build_augmented(noise, ModulationSet((0.0, 110.0)), cfg16k)
    a = cmpdr_process(aug).data
    b = cmpdr_process(aug).data
    assert np.array_equal(a, b)


def test_companion_cofiltering_is_linear(cfg16k):
    # filtering (speech + noise) equals filtering speech and noise separately
    # with the same weights, so companion output = main - other companion
    speech = synth_speech_like(2.0, FS, seed=24)
    noise = synth_harmonic_cs_noise(2.0, FS, HarmonicNoiseParams(f0=131.0, seed=9))
    mix, scaled = mix_at_snr(speech, noise, MixSpec(snr_db=0.0))
    modset = ModulationSet((0.0, 131.0))
    aug_mix = build_augmented(mix, modset, cfg16k)
    aug_speech = build_augmented(speech, modset, cfg16k)
    aug_noise = build_augmented(scaled, modset, cfg16k)
    y, y_speech = cmpdr_process(aug_mix, companion=aug_speech)
    _, y_noise = cmpdr_process(aug_mix, companion=aug_noise)
    assert np.abs(y.data - (y_speech.data + y_noise.data)).max() <= 1e-9 * np.abs(
        y.data
    ).max()


# --- the tracked inverse, driven through process ---------------------------


def stack(channels):
    """Wrap a (C, L, K) array as an augmented stack with K-point frames."""
    c, _, k = channels.shape
    cfg = StftConfig(125 * k // 4)  # a hop of k / 4 samples
    shifts = ModulationSet(tuple(50.0 * i for i in range(c)))
    return AugmentedSpectrogram(channels=channels, modset=shifts, config=cfg)


def covariance_trajectory(chans, beta_x=0.95):
    """Yield (x (K, C), S (K, C, C)) per frame of the documented recursion."""
    c, l, _ = chans.shape
    warm = min(10, l)
    delta = 1e-3 * np.mean(np.abs(chans[0, :warm]) ** 2, axis=0)
    cov = delta[:, None, None] * np.eye(c, dtype=complex)
    for frame in range(l):
        x = chans[:, frame].T
        cov = beta_x * cov + (1.0 - beta_x) * (x[:, :, None] * np.conj(x[:, None, :]))
        yield x, cov


def anchored_solve_reference(chans, companion=None, beta_x=0.95, diag_load=1e-6):
    """The documented weights by a direct solve on every frame: at each anchor
    the loading is lambda_a = diag_load * tr(S) / C, and it decays by beta_x
    per frame until the next, so frame t solves (S_t + lambda_a beta_x^(t-a) I)
    w = mu e1. Returns the outputs (L, K) for ``chans`` and ``companion``."""
    c, l, k = chans.shape
    out = np.empty((l, k), dtype=complex)
    out_comp = np.empty((l, k), dtype=complex)
    e1 = np.zeros((k, c, 1), dtype=complex)
    e1[:, 0] = 1.0
    for frame, (x, cov) in enumerate(covariance_trajectory(chans, beta_x)):
        if frame % beamformer._REANCHOR_FRAMES == 0:
            anchor = frame
            lam_a = np.maximum(diag_load * np.einsum("kcc->k", cov).real / c, 1e-30)
        lam = lam_a * beta_x ** (frame - anchor)
        a = np.linalg.solve(cov + lam[:, None, None] * np.eye(c), e1)[:, :, 0]
        w = a / a[:, :1]
        out[frame] = np.sum(np.conj(w) * x, axis=1)
        if companion is not None:
            out_comp[frame] = np.sum(np.conj(w) * companion[:, frame].T, axis=1)
    return out, out_comp


def assert_power_bound(chans, weights):
    """A2's bound on every frame: w^H S w <= S00 + 1e-9 tr S."""
    for frame, (_, cov) in enumerate(covariance_trajectory(chans)):
        w = weights[frame].astype(complex)
        out_power = np.einsum("kc,kcd,kd->k", np.conj(w), cov, w).real
        trace = np.einsum("kcc->k", cov).real
        assert np.all(out_power <= cov[:, 0, 0].real + 1e-9 * trace), frame


def random_channels(c, k, l, seed):
    """(C, L, K) complex Gaussian channels, partly coherent with channel 0,
    with per-bin levels spread over six decades."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((c, l, k)) + 1j * rng.standard_normal((c, l, k))
    z[1:] += rng.uniform(0.0, 2.0, size=(c - 1, 1, 1)) * z[0]
    return z * 10.0 ** rng.uniform(-3.0, 3.0, size=(1, 1, k))


random_stacks = st.builds(
    random_channels,
    c=st.integers(2, 6),
    k=st.sampled_from([4, 8, 16]),
    l=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)


def test_covariance_converges_to_outer_product(realized_weights):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    _, cov, _ = realized_weights(stack(np.repeat(x[:, None, :], 200, axis=1)))
    target = x.T[:, :, None] * np.conj(x.T[:, None, :])
    assert np.linalg.norm(cov - target) <= 1e-4 * np.linalg.norm(target)


def test_zero_frame_scales_previous_covariance(realized_weights):
    rng = np.random.default_rng(1)
    chans = rng.standard_normal((3, 40, 8)) + 1j * rng.standard_normal((3, 40, 8))
    _, prev, prev_weights = realized_weights(stack(chans))
    padded = np.concatenate([chans, np.zeros((3, 1, 8))], axis=1)
    _, cov, weights = realized_weights(stack(padded))
    # within complex64 rounding on each side
    assert np.allclose(cov, 0.95 * prev, rtol=3e-7, atol=0.0)
    # a zero frame only rescales P, so the weights carry over
    assert np.allclose(weights[40], prev_weights[39], rtol=3e-7, atol=0.0)


def test_covariance_stays_hermitian_psd(realized_weights):
    rng = np.random.default_rng(2)
    chans = rng.standard_normal((5, 50, 8)) + 1j * rng.standard_normal((5, 50, 8))
    for frames in (1, 2, 5, 33, 50):
        _, cov, _ = realized_weights(stack(chans[:, :frames]))
        scale = np.abs(cov).max()
        assert np.abs(cov - np.conj(np.transpose(cov, (0, 2, 1)))).max() <= 1e-7 * scale
        eigs = np.linalg.eigvalsh(cov.astype(complex))
        trace = np.einsum("kcc->k", cov).real
        assert np.all(eigs.min(axis=1) >= -1e-6 * trace)


def test_process_validates_inputs():
    aug = stack(np.ones((2, 5, 8), dtype=complex))
    with pytest.raises(ValueError, match="match"):
        cmpdr_process(aug, companion=stack(np.ones((2, 6, 8), dtype=complex)))


@settings(max_examples=25, deadline=None)
@given(chans=random_stacks)
def test_anchor_every_frame_matches_loaded_solve(chans):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beamformer, "_REANCHOR_FRAMES", 1)
        out = cmpdr_process(stack(chans)).data
        ref, _ = anchored_solve_reference(chans)  # a fresh loading every frame
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=25, deadline=None)
@given(chans=random_stacks, seed=st.integers(0, 2**32 - 1))
def test_default_anchoring_matches_direct_solve(chans, seed):
    rng = np.random.default_rng(seed)
    comp = rng.standard_normal(chans.shape) + 1j * rng.standard_normal(chans.shape)
    ref, ref_comp = anchored_solve_reference(chans, comp)
    out = cmpdr_process(stack(chans)).data
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)
    out, out_comp = cmpdr_process(stack(chans), companion=stack(comp))
    assert np.linalg.norm(out.data - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.linalg.norm(out_comp.data - ref_comp) <= 1e-10 * np.linalg.norm(ref_comp)


@settings(max_examples=25, deadline=None)
@given(chans=random_stacks)
def test_tracked_weights_distortionless_and_power_bounded(realized_weights, chans):
    _, _, weights = realized_weights(stack(chans))
    assert np.all(weights[:, :, 0] == 1)
    assert_power_bound(chans, weights)


@settings(max_examples=15, deadline=None)
@given(chans=random_stacks, seed=st.integers(0, 2**32 - 1))
def test_companion_cofiltering_is_linear_for_any_stack(chans, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2,) + chans.shape) + 1j * rng.standard_normal(
        (2,) + chans.shape
    )
    aug = stack(chans)
    y, y_self = cmpdr_process(aug, companion=aug)
    assert np.array_equal(y.data, y_self.data)
    _, y_a = cmpdr_process(aug, companion=stack(a))
    _, y_b = cmpdr_process(aug, companion=stack(b))
    _, y_ab = cmpdr_process(aug, companion=stack(a + b))
    err = np.abs(y_ab.data - (y_a.data + y_b.data)).max()
    assert err <= 1e-9 * max(np.abs(y_ab.data).max(), 1e-300)


def bins_major(chans):
    """The values of a (C, L, K) stack in the transposed view of a (C, K, L)
    array, so that each bin's frames are contiguous."""
    c, l, k = chans.shape
    view = np.empty((c, k, l), dtype=chans.dtype).transpose(0, 2, 1)
    view[...] = chans
    return view


@settings(max_examples=25, deadline=None)
@given(chans=random_stacks, seed=st.integers(0, 2**32 - 1))
def test_output_does_not_depend_on_stack_layout(chans, seed):
    rng = np.random.default_rng(seed)
    comp = rng.standard_normal(chans.shape) + 1j * rng.standard_normal(chans.shape)
    c_ordered, b_major = stack(np.ascontiguousarray(chans)), stack(bins_major(chans))
    assert b_major.channels.strides[1] == b_major.channels.itemsize  # frames contiguous
    assert np.array_equal(cmpdr_process(c_ordered).data, cmpdr_process(b_major).data)
    y_c, comp_c = cmpdr_process(c_ordered, companion=stack(np.ascontiguousarray(comp)))
    y_b, comp_b = cmpdr_process(b_major, companion=stack(bins_major(comp)))
    assert np.array_equal(y_c.data, y_b.data)
    assert np.array_equal(comp_c.data, comp_b.data)


def test_all_zero_stack_passes_through(realized_weights):
    out, cov, weights = realized_weights(stack(np.zeros((3, 100, 16), dtype=complex)))
    assert np.all(out.data == 0)
    assert np.all(cov == 0)
    assert np.all(weights == np.array([1.0, 0.0, 0.0], dtype=np.complex64))


def test_loud_onset_after_silence_stays_finite(realized_weights):
    chans = np.zeros((4, 200, 16), dtype=complex)
    chans[:, 100:] = 1e6 * random_channels(4, 16, 100, seed=11)
    out, _, weights = realized_weights(stack(chans))
    assert np.isfinite(out.data).all()
    assert np.isfinite(weights).all()
    assert_power_bound(chans, weights)


def test_non_finite_bin_is_contained(realized_weights):
    chans = random_channels(3, 16, 150, seed=12)
    ref = cmpdr_process(stack(chans)).data
    chans[1, 70, 5] = np.nan
    out, _, weights = realized_weights(stack(chans))
    out = out.data
    others = np.arange(16) != 5
    assert np.array_equal(out[:, others], ref[:, others])
    finite = np.isfinite(out)
    assert not finite[70, 5]  # the frame whose input is NaN
    finite[70, 5] = True
    assert finite.all()
    assert np.isfinite(weights).all()


@settings(max_examples=40, deadline=None)
@given(
    c=st.integers(1, 5),
    k=st.sampled_from([4, 8, 16]),
    l=st.integers(beamformer._WARM_FRAMES + 1, 300),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_blocks_with_a_carried_state_equal_one_call(c, k, l, seed, data):
    # silence, then a loud onset that forces bad-bin re-anchors, and a NaN
    # bin: both read the frames since the last anchor, across block edges
    chans = random_channels(c, k, l, seed)
    onset = data.draw(st.integers(0, l - 1), label="onset")
    chans[:, :onset] = 0.0
    chans[:, onset:] *= 1e6
    chans[c - 1, data.draw(st.integers(0, l - 1)), data.draw(st.integers(0, k - 1))] = np.nan
    comp = random_channels(c, k, l, seed + 1)
    # the first block holds the warm-start frames; later edges fall anywhere
    cuts = data.draw(
        st.lists(st.integers(beamformer._WARM_FRAMES, l - 1), unique=True, max_size=8),
        label="cuts",
    )
    edges = [0, *sorted(cuts), l]
    whole, whole_comp = cmpdr_process(stack(chans), companion=stack(comp))
    state = beamformer.CmpdrState()
    parts = [
        cmpdr_process(stack(chans[:, a:b]), companion=stack(comp[:, a:b]), state=state)
        for a, b in zip(edges, edges[1:])
    ]
    assert np.array_equal(
        np.concatenate([p.data for p, _ in parts]), whole.data, equal_nan=True
    )
    assert np.array_equal(
        np.concatenate([q.data for _, q in parts]), whole_comp.data, equal_nan=True
    )


def test_state_rejects_a_block_of_another_shape():
    state = beamformer.CmpdrState()
    cmpdr_process(stack(random_channels(3, 8, 20, seed=1)), state=state)
    for c, k in ((4, 8), (3, 16)):
        with pytest.raises(ValueError, match="does not continue"):
            cmpdr_process(stack(random_channels(c, k, 20, seed=3)), state=state)
