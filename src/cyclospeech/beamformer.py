"""Cyclic MPDR spectral beamformer.

Per frequency bin, a C x C spectral covariance of the augmented
(frequency-shifted) observation vector is tracked by recursive averaging,

    S <- beta_x * S + (1 - beta_x) * x x^H,

and the minimum-power weights with unit gain on the unshifted channel are

    w = S^-1 e1 / (e1^H S^-1 e1),      y = w^H x.

The inverse P = S^-1 is tracked alongside S with the exponentially weighted
RLS form of the matrix-inversion lemma (Haykin, *Adaptive Filter Theory*),

    u = P x,   d = 1 + g x^H u,   P <- (P - (g / d) u u^H) / beta_x,

with g = (1 - beta_x) / beta_x, so each frame costs O(C^2) per bin instead
of a C x C solve. Every ``_REANCHOR_FRAMES`` frames, and at once in any bin
whose d or e1^H P e1 is not positive and finite, P is re-anchored by a
linear solve of (S + lambda I) P = I with trace-relative diagonal loading
lambda; a bin whose solve fails falls back to P = I, i.e. w = e1. Between
anchors the loading decays by beta_x per frame, because the recursion
carries it along with S.

Diagnostic sidecar layout (binary, little-endian):
    bytes 0..7    magic b"CYCBFDG1"
    3 x uint32    K (bins), C (channels), L (frames)
    complex64     final covariance, K*C*C values, row-major (K, C, C)
    complex64     weight trajectories, K*L*C values, row-major (K, L, C)
"""

from __future__ import annotations

import numpy as np

from .modulation import AugmentedSpectrogram
from .stft import ComplexSpectrogram

__all__ = [
    "solve_weights",
    "process",
    "read_diagnostics",
]

DIAGNOSTICS_MAGIC = b"CYCBFDG1"

# Floor applied to the diagonal loading so an all-zero covariance still
# yields the pass-through weights e1 instead of a singular solve.
_ABS_LOAD_FLOOR = 1e-30

# Frames between loaded re-solves of the tracked inverse, which bound the
# rounding drift of the rank-1 updates and restore the loading.
_REANCHOR_FRAMES = 32

# Frames per block: the outputs y = w^H x of a block of frames are formed at
# once.
_BLOCK_FRAMES = 64


def _loaded_solve(
    cov: np.ndarray, diag_load: float, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (S + lambda I) X = rhs for a (K, C, C) covariance batch.

    ``rhs`` is (C, M) with e1 as its first column; lambda is ``diag_load``
    times the mean diagonal, floored at _ABS_LOAD_FLOOR. Returns
    (X (K, C, M), fallback mask (K,)); fallback bins get X = rhs.
    """
    k, c, _ = cov.shape
    trace = np.einsum("kcc->k", cov).real
    lam = np.maximum(diag_load * trace / c, _ABS_LOAD_FLOOR)
    loaded = cov + lam[:, None, None] * np.eye(c)
    fallback = np.zeros(k, dtype=bool)
    try:
        a = np.linalg.solve(loaded, np.broadcast_to(rhs, (k,) + rhs.shape))
    except np.linalg.LinAlgError:
        a = np.empty((k,) + rhs.shape, dtype=np.complex128)
        for i in range(k):
            try:
                a[i] = np.linalg.solve(loaded[i], rhs)
            except np.linalg.LinAlgError:
                a[i] = rhs
                fallback[i] = True
    bad = ~np.isfinite(a).all(axis=(1, 2)) | (np.abs(a[:, 0, 0]) < _ABS_LOAD_FLOOR)
    if np.any(bad):
        fallback |= bad
        a[fallback] = rhs
    return a, fallback


def _loaded_inverse(cov: np.ndarray, diag_load: float) -> np.ndarray:
    """Loaded inverses of a bins-innermost (C, C, K) stack; fallback bins get I."""
    c = cov.shape[0]
    inv, _ = _loaded_solve(
        cov.transpose(2, 0, 1), diag_load, np.eye(c, dtype=np.complex128)
    )
    return inv.transpose(1, 2, 0)


def solve_weights(
    cov: np.ndarray, diag_load: float = 1e-6
) -> tuple[np.ndarray, bool]:
    """Closed-form minimum-power weights with w^H e1 = 1.

    ``cov`` is a C x C Hermitian matrix; the solve uses a diagonally loaded
    copy. Returns (w, fallback); a numerically singular matrix falls back to
    the pass-through weights e1 with the flag set.
    """
    cov = np.asarray(cov, dtype=np.complex128)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be a square matrix")
    e1 = np.eye(cov.shape[0], 1, dtype=np.complex128)
    a, fb = _loaded_solve(cov[None, :, :], diag_load, e1)
    return a[0, :, 0] / a[0, 0, 0], bool(fb[0])


def process(
    aug: AugmentedSpectrogram,
    beta_x: float = 0.95,
    diag_load: float = 1e-6,
    companion: AugmentedSpectrogram | None = None,
    diagnostics_path=None,
):
    """Run the per-bin covariance recursion and beamform every frame.

    ``companion`` co-filters a second augmented spectrogram with the weights
    computed from ``aug`` (the filter is linear given its weights), which is
    how a known clean signal is passed through the identical preprocessor.
    Returns the beamformed spectrogram, or a (main, companion) pair when a
    companion is given.
    """
    if not 0.0 < beta_x < 1.0:
        raise ValueError("beta_x must lie strictly between 0 and 1")
    if companion is not None and companion.channels.shape != aug.channels.shape:
        raise ValueError("companion must match the main spectrogram's shape")

    chans = aug.channels  # (C, K, L)
    c, k, l = chans.shape
    if c == 1:
        main = ComplexSpectrogram(
            data=chans[0].copy(), config=aug.config, num_samples=aug.num_samples
        )
        if diagnostics_path is not None:
            ones = np.ones((k, l, 1), dtype=np.complex64)
            final_cov = np.zeros((k, 1, 1), dtype=np.complex64)
            _write_diagnostics(diagnostics_path, final_cov, ones)
        if companion is None:
            return main
        comp = ComplexSpectrogram(
            data=companion.channels[0].copy(),
            config=companion.config,
            num_samples=companion.num_samples,
        )
        return main, comp

    # (C, L, K) views: on build_augmented's frame-major stacks each frame of
    # each channel is a contiguous run of K values. Every sum below runs over
    # a buffer of fixed layout, so the output does not depend on the stack's.
    frames = chans.transpose(0, 2, 1)
    frames_comp = companion.channels.transpose(0, 2, 1) if companion is not None else None

    # S and P are (C, C, K), bins innermost, so each per-frame step is a few
    # whole-array operations over contiguous runs of K values. S is
    # warm-started at a small multiple of the early per-bin input power.
    warm = min(10, l)
    cov = np.zeros((c, c, k), dtype=np.complex128)
    cov[np.arange(c), np.arange(c)] = 1e-3 * np.mean(
        np.abs(np.ascontiguousarray(frames[0, :warm])) ** 2, axis=0
    )
    inv = np.empty_like(cov)
    outer = np.empty_like(cov)
    g = (1.0 - beta_x) / beta_x

    out = np.empty((k, l), dtype=np.complex128)
    out_comp = np.empty((k, l), dtype=np.complex128) if companion is not None else None
    weights_log = (
        np.empty((k, l, c), dtype=np.complex64) if diagnostics_path is not None else None
    )
    w_buf = np.empty((c, _BLOCK_FRAMES, k), dtype=np.complex128)
    prod_buf = np.empty_like(w_buf)
    for start in range(0, l, _BLOCK_FRAMES):
        stop = min(start + _BLOCK_FRAMES, l)
        x_blk = frames[:, start:stop]  # (C, B, K)
        w_blk, prod = w_buf[:, : stop - start], prod_buf[:, : stop - start]
        for i, frame in enumerate(range(start, stop)):
            x = x_blk[:, i]  # (C, K)
            xh = np.conj(x)
            np.multiply(((1.0 - beta_x) * x)[:, None, :], xh[None, :, :], out=outer)
            cov *= beta_x
            cov += outer
            if frame % _REANCHOR_FRAMES == 0:
                inv[...] = _loaded_inverse(cov, diag_load)
            else:
                np.multiply(inv, x[None, :, :], out=outer)
                u = outer.sum(axis=1)
                d = 1.0 + g * np.sum(xh * u, axis=0).real
                np.multiply(
                    u[:, None, :], ((g / (beta_x * d)) * np.conj(u))[None, :, :], out=outer
                )
                inv *= 1.0 / beta_x
                inv -= outer
                p00 = inv[0, 0].real
                bad = ~(np.isfinite(d) & (d > 0.0) & np.isfinite(p00) & (p00 > 0.0))
                if np.any(bad):
                    inv[:, :, bad] = _loaded_inverse(cov[:, :, bad], diag_load)
            np.divide(inv[:, 0], inv[0, 0], out=w_blk[:, i])
            w_blk[0, i] = 1.0  # the distortionless constraint, without rounding
        # y = w^H x for the whole block at once, main and companion alike
        wh_blk = np.conj(w_blk)
        out[:, start:stop] = np.multiply(wh_blk, x_blk, out=prod).sum(axis=0).T
        if companion is not None:
            xc_blk = frames_comp[:, start:stop]
            out_comp[:, start:stop] = np.multiply(wh_blk, xc_blk, out=prod).sum(axis=0).T
        if weights_log is not None:
            weights_log[:, start:stop, :] = w_blk.transpose(2, 1, 0)

    if diagnostics_path is not None:
        _write_diagnostics(
            diagnostics_path, cov.transpose(2, 0, 1).astype(np.complex64), weights_log
        )

    main = ComplexSpectrogram(data=out, config=aug.config, num_samples=aug.num_samples)
    if companion is None:
        return main
    comp = ComplexSpectrogram(
        data=out_comp, config=companion.config, num_samples=companion.num_samples
    )
    return main, comp


def _write_diagnostics(path, final_cov: np.ndarray, weights: np.ndarray) -> None:
    k, l, c = weights.shape
    with open(path, "wb") as fh:
        fh.write(DIAGNOSTICS_MAGIC)
        np.array([k, c, l], dtype=np.uint32).tofile(fh)
        np.ascontiguousarray(final_cov, dtype=np.complex64).tofile(fh)
        np.ascontiguousarray(weights, dtype=np.complex64).tofile(fh)


def read_diagnostics(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a diagnostic sidecar; returns (final covariance (K,C,C), weights (K,L,C))."""
    with open(path, "rb") as fh:
        magic = fh.read(len(DIAGNOSTICS_MAGIC))
        if magic != DIAGNOSTICS_MAGIC:
            raise ValueError(f"not a beamformer diagnostics file: {path}")
        k, c, l = (int(v) for v in np.fromfile(fh, dtype=np.uint32, count=3))
        final_cov = np.fromfile(fh, dtype=np.complex64, count=k * c * c).reshape(k, c, c)
        weights = np.fromfile(fh, dtype=np.complex64, count=k * l * c).reshape(k, l, c)
    return final_cov, weights
