"""Cyclic MPDR spectral beamformer, run as a generalized sidelobe canceller.

Per frequency bin, the C x C spectral covariance of the augmented
(frequency-shifted) observation vector x = [x0; xr] follows the recursive
average

    S <- beta_x * S + (1 - beta_x) * x x^H,      beta_x = 0.95,

and the minimum-power weights with unit gain on the unshifted channel x0 are
w = [1; -z] with

    z = (S_rr + lambda I)^-1 s_r0,      y = w^H x = x0 - z^H xr,

where S_rr is the block of the C - 1 shifted channels, s_r0 their cross
covariance with x0 and lambda a trace-relative diagonal loading. This is the
generalized sidelobe canceller (Griffiths & Jim, 1982) with the shifted
copies as its blocking branch, i.e. Gardner's FRESH filter: they cancel the
harmonic noise in x0.

Every ``_REANCHOR_FRAMES`` frames (the anchors) S is formed, lambda is set to
diag_load * tr(S) / C with diag_load = 1e-6, and P_r = (S_rr + lambda I)^-1
and z are re-solved; between anchors both follow the exponentially weighted
RLS recursion over the C - 1 shifted channels (Haykin, *Adaptive Filter
Theory*), with g = (1 - beta_x) / beta_x:

    u = P_r xr,  d = 1 + g xr^H u,  e = x0 - z^H xr,  k = (g / d) u,
    z <- z + k e*,  P_r <- (P_r - k u^H) / beta_x,  y = x0 - z^H xr = e / d.

This is the loaded solve in exact arithmetic, with the loading decaying by
beta_x per frame, at O((C-1)^2) per bin and frame; no C x C covariance or
inverse is updated per frame. S is formed only where it is read, each time
from the frames since the last anchor in one block product: at anchors, and
in a bin whose update fails, which is re-anchored at that frame. An update
fails where e is not finite or d is not positive and below 1/eps (beyond
that, the update cancels every digit of P_r along xr). A bin whose solve is
not finite falls back to z = 0, P_r = I, i.e. w = e1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modulation import AugmentedSpectrogram
from .stft import ComplexSpectrogram

__all__ = ["CmpdrState", "process"]

# The paper's one smoothing factor beta_x and trace-relative loading
# diag_load; neither is a setting.
_BETA_X = 0.95
_DIAG_LOAD = 1e-6

# Floor applied to the diagonal loading so an all-zero covariance still
# yields the pass-through weights e1 instead of a singular solve.
_ABS_LOAD_FLOOR = 1e-30

# Frames between loaded re-solves of the tracked inverse, which bound the
# rounding drift of the rank-1 updates and restore the loading.
_REANCHOR_FRAMES = 32

# Frames per chunk: the weights of a chunk's frames are gathered into one
# buffer and its outputs formed at once. The pipeline passes the beamformer
# this many frames per call.
_BLOCK_FRAMES = 64

# Leading frames whose mean channel-0 power sets the warm start of S.
_WARM_FRAMES = 10


def _loaded_solve(
    cov: np.ndarray, diag_load: float = _DIAG_LOAD
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve (S_rr + lambda I) [z, P_r] = [s_r0, I] for a bins-innermost
    (C, C, K) covariance stack.

    lambda is ``diag_load`` times the mean diagonal of S, floored at
    _ABS_LOAD_FLOOR. The loaded matrix is Hermitian positive definite, so
    Gauss-Jordan elimination needs no pivoting; it runs over all K bins at
    once. Returns (z (C-1, K), P_r (C-1, C-1, K), fallback mask (K,));
    fallback bins, whose solve is not finite, get z = 0 and P_r = I.
    """
    c, _, k = cov.shape
    r = c - 1
    diag = np.arange(r)
    lam = np.maximum(diag_load * np.einsum("cck->k", cov).real / c, _ABS_LOAD_FLOOR)
    # [S_rr + lambda I | s_r0 | I], reduced in place to [I | z | P_r]
    a = np.zeros((r, 2 * r + 1, k), dtype=np.complex128)
    a[:, :r] = cov[1:, 1:]
    a[diag, diag] += lam
    a[:, r] = cov[1:, 0]
    a[diag, r + 1 + diag] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(r):
            a[j, j + 1 :] /= a[j, j]
            factor = a[:, j].copy()
            factor[j] = 0.0
            a[:, j + 1 :] -= factor[:, None] * a[j, j + 1 :]
    z, inv = a[:, r], a[:, r + 1 :]
    fallback = ~np.isfinite(a[:, r:]).all(axis=(0, 1))
    z[:, fallback] = 0.0
    inv[:, :, fallback] = np.eye(r)[:, :, None]
    return z, inv, fallback


def _covariance(cov: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S (C, C, K') after the frames ``x`` (C, n, K'), given S = ``cov`` before
    them, as one block product over the frames."""
    x = np.ascontiguousarray(x)  # a fixed layout fixes the order of the sums
    c, n, _ = x.shape
    weights = ((1.0 - _BETA_X) * _BETA_X ** np.arange(n - 1, -1, -1.0))[:, None]
    s = _BETA_X**n * cov
    for a in range(c):
        s[a:, a] += (x[a:] * (np.conj(x[a]) * weights)).sum(axis=1)
        s[a, a + 1 :] = np.conj(s[a + 1 :, a])
    return s


@dataclass
class CmpdrState:
    """What the recursion carries from one block of frames to the next.

    ``process(block, state=state)`` over consecutive frame blocks of one
    stack, in order, gives the whole stack's output bit for bit, provided the
    first block holds at least ``_WARM_FRAMES`` frames (the warm start reads
    them). A fresh state starts at frame 0.
    """

    shape: tuple[int, int] | None = None  # (C, K), fixed by the first block
    frame: int = 0  # stack index of the next frame
    anchor: int = -1  # stack index of the last anchor; -1 is the warm start
    cov: np.ndarray | None = None  # S at the anchor, (C, C, K)
    since: np.ndarray | None = None  # the frames after the anchor, (C, m, K)
    zc: np.ndarray | None = None  # z^*, (C - 1, K)
    q_inv: np.ndarray | None = None  # Q = beta_x^m P_r, (C - 1, C - 1, K)


def process(
    aug: AugmentedSpectrogram,
    companion: AugmentedSpectrogram | None = None,
    state: CmpdrState | None = None,
):
    """Run the per-bin recursion and beamform every frame, at the fixed
    beta_x = 0.95 and diag_load = 1e-6 of the module docstring.

    ``companion`` co-filters a second augmented spectrogram with the weights
    computed from ``aug`` (the filter is linear given its weights), which is
    how a known clean signal is passed through the identical preprocessor.
    Returns the beamformed spectrogram, or a (main, companion) pair when a
    companion is given.

    With ``state``, ``aug`` is the next block of frames of a longer stack and
    the recursion continues from ``state``, which it advances; without, the
    stack is one block run from a fresh state.
    """
    if companion is not None and companion.channels.shape != aug.channels.shape:
        raise ValueError("companion must match the main spectrogram's shape")
    state = CmpdrState() if state is None else state
    frames = aug.channels
    c, l, k = frames.shape
    if state.shape is None:
        state.shape = (c, k)
    elif state.shape != (c, k):
        raise ValueError(
            f"block of {c} channels x {k} bins does not continue a state of "
            f"{state.shape[0]} channels x {state.shape[1]} bins"
        )

    frames_comp = companion.channels if companion is not None else None
    if c == 1:
        out = frames[0].copy()
        out_comp = frames_comp[0].copy() if companion is not None else None
        state.frame += l
    else:
        out, out_comp = _recursion(state, frames, frames_comp)

    main = ComplexSpectrogram(data=out, config=aug.config)
    if companion is None:
        return main
    return main, ComplexSpectrogram(data=out_comp, config=companion.config)


def _recursion(state, frames, frames_comp):
    """Beamform the frames (C, L, K) of one block, C > 1, continuing and
    advancing ``state``; returns the (L, K) outputs for the block and its
    companion (None without one)."""
    c, l, k = frames.shape
    f0 = state.frame  # stack index of the block's first frame
    if f0 == 0:
        # S is warm-started at frame -1 at a small multiple of the early
        # per-bin input power
        state.cov = np.zeros((c, c, k), dtype=np.complex128)
        state.cov[np.arange(c), np.arange(c)] = 1e-3 * np.mean(
            np.abs(np.ascontiguousarray(frames[0, :_WARM_FRAMES])) ** 2, axis=0
        )
        state.since = np.zeros((c, 0, k), dtype=np.complex128)

    def since(stop, bins=slice(None)):
        """The frames after the anchor up to block frame ``stop`` (exclusive)."""
        lo = state.anchor + 1 - f0
        if lo >= 0:
            return frames[:, lo:stop, bins]
        return np.concatenate([state.since[:, :, bins], frames[:, :stop, bins]], axis=1)

    # Every sum below runs on a fresh temporary or a buffer of its own, in
    # C order whatever the stack's layout, so the output does not depend on
    # it. S is kept at the last anchor only. S, P_r and z^* are bins innermost,
    # so each per-frame step is a few whole-array operations over contiguous
    # runs of K values. P_r is held as Q = beta_x^m P_r, m frames after its
    # anchor, which folds the per-frame 1 / beta_x into scalars.
    r = c - 1
    g = (1.0 - _BETA_X) / _BETA_X
    tmp = np.empty((r, r, k), dtype=np.complex128)
    out = np.empty((l, k), dtype=np.complex128)
    out_comp = np.empty((l, k), dtype=np.complex128) if frames_comp is not None else None
    zc_buf = np.empty((r, _BLOCK_FRAMES, k), dtype=np.complex128)
    max_d = 1.0 / np.finfo(np.float64).eps
    zc, q_inv = state.zc, state.q_inv
    for start in range(0, l, _BLOCK_FRAMES):
        stop = min(start + _BLOCK_FRAMES, l)
        for i, j in enumerate(range(start, stop)):
            frame = f0 + j
            x0, xr = frames[0, j], frames[1:, j]
            if frame % _REANCHOR_FRAMES == 0:
                state.cov = _covariance(state.cov, since(j + 1))
                state.anchor = frame
                z, p, _ = _loaded_solve(state.cov)
                zc, q_inv = np.conj(z), p.copy()  # zc = z^*: e = x0 - sum(zc xr)
            else:
                # m updates after the anchor, Q = beta_x^m P_r, so u = s q
                # with q = Q xr and s = beta_x^-m, k^* = (g s / d) q^*, and
                # the update of P_r is Q <- Q - q k^H
                gs = g * _BETA_X ** (state.anchor - frame + 1)
                np.multiply(q_inv, xr, out=tmp)
                q = tmp.sum(axis=1)
                qc = np.conj(q)
                d = 1.0 + gs * (xr * qc).sum(axis=0).real
                e = x0 - (zc * xr).sum(axis=0)
                gain_c = (gs / d) * qc
                zc += gain_c * e
                np.multiply(q[:, None], gain_c[None], out=tmp)
                q_inv -= tmp
                ok = (d > 0.0) & (d < max_d) & np.isfinite(e)
                if not ok.all():
                    bad = ~ok
                    s = _covariance(state.cov[:, :, bad], since(j + 1, bad))
                    z, p, _ = _loaded_solve(s)
                    zc[:, bad] = np.conj(z)
                    q_inv[:, :, bad] = _BETA_X ** (frame - state.anchor) * p
            zc_buf[:, i] = zc
        # y = w^H x = x0 - z^H xr for the whole chunk at once (equal to e / d
        # in exact arithmetic), main and companion alike
        zc_blk = zc_buf[:, : stop - start]
        x_blk = frames[:, start:stop]
        out[start:stop] = x_blk[0] - (zc_blk * x_blk[1:]).sum(axis=0)
        if frames_comp is not None:
            xc_blk = frames_comp[:, start:stop]
            out_comp[start:stop] = xc_blk[0] - (zc_blk * xc_blk[1:]).sum(axis=0)
    state.zc, state.q_inv = zc, q_inv
    state.since = np.array(since(l))  # a copy: the block's stack is not kept
    state.frame = f0 + l
    return out, out_comp

