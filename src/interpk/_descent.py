"""Seeded descent over additive decompositions x = a + b.

This is the generic minimizer behind the oracle evaluation of

    K(x, t) = inf { norm0(a) + t * norm1(b) : a + b = x }.

It combines three ingredients, all deterministic under a seed:

* two one-parameter "clip" families, one per orientation: the part assigned
  to one side is the coordinatewise clip sign(x) * min(|x|, lam / scale),
  the remainder goes to the other side.  The clip level lam is optimized by
  golden-section search.  For the couples (l1, linf), (linf(w0), linf(w1))
  and (l1, lp) with p > 1 the optimal decomposition lies on one of these
  families, so the search is exact there up to the line-search tolerance;
* coordinate descent with per-coordinate golden-section over
  a_i in [-2|x_i|, 2|x_i|], run from the canonical starts a = 0, a = x,
  a = best clip, plus ``budget`` seeded random starts;
* the trivial decompositions a = x and a = 0.

The returned value is the best candidate seen, hence always an upper bound
on the true infimum.  All operations are batched: ``X`` holds one vector per
row and the norm callables map an (m, d) array to m values.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0  # golden ratio conjugate

# golden-section iterations per coordinate and per clip-level line search
COORD_ITERS = 40
LINE_ITERS = 56

BatchNorm = Callable[[np.ndarray], np.ndarray]


def _golden_min(objective: Callable[[np.ndarray], np.ndarray],
                lo: np.ndarray, hi: np.ndarray, iters: int):
    """Rowwise golden-section minimization of ``objective`` on [lo, hi].

    Assumes rowwise unimodality; returns (argmin, min).  One objective
    evaluation per iteration after the two initial probes.
    """
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    c1 = hi - _INV_PHI * (hi - lo)
    c2 = lo + _INV_PHI * (hi - lo)
    f1 = objective(c1)
    f2 = objective(c2)
    for _ in range(iters):
        left = f1 < f2
        hi = np.where(left, c2, hi)
        lo = np.where(left, lo, c1)
        c_old_1, c_old_f1 = c1, f1
        c1 = np.where(left, hi - _INV_PHI * (hi - lo), c2)
        c2 = np.where(left, c_old_1, lo + _INV_PHI * (hi - lo))
        probe = np.where(left, c1, c2)
        fp = objective(probe)
        f1 = np.where(left, fp, f2)
        f2 = np.where(left, c_old_f1, fp)
    mid = 0.5 * (lo + hi)
    fm = objective(mid)
    best = np.minimum(np.minimum(f1, f2), fm)
    arg = np.where(fm <= np.minimum(f1, f2), mid, np.where(f1 < f2, c1, c2))
    return arg, best


def probe_scales(norm: BatchNorm, dim: int) -> np.ndarray:
    """Per-coordinate amplitude scales norm(e_j), j = 0..dim-1."""
    return np.asarray(norm(np.eye(dim)), dtype=float)


def _clip_search(X, T, pay_clip, pay_rest, scale, iters):
    """Best decomposition with the clipped part paying ``pay_clip``.

    Splits x = clip + rest with clip = sign(x) * min(|x|, lam / scale) and
    minimizes pay_rest(rest) + pay_clip(clip) over lam >= 0 rowwise.
    """
    absx = np.abs(X)
    hi = np.max(scale * absx, axis=1)
    lo = np.zeros_like(hi)

    def objective(lam):
        clip = np.sign(X) * np.minimum(absx, lam[:, None] / scale)
        return pay_rest(X - clip) + pay_clip(clip)

    lam, val = _golden_min(objective, lo, hi, iters)
    clip = np.sign(X) * np.minimum(absx, lam[:, None] / scale)
    return clip, val


def decomposition_infimum(
    X: np.ndarray,
    T,
    norm0: BatchNorm,
    norm1: BatchNorm,
    *,
    budget: int = 8,
    seed: int = 0,
    scale0: np.ndarray | None = None,
    scale1: np.ndarray | None = None,
    sweeps: int = 2,
):
    """Upper approximation of inf{norm0(a) + t*norm1(x-a)} for each row of X.

    ``T`` may be a scalar or one t per row.  ``scale0``/``scale1`` are the
    per-coordinate amplitude scales of the two norms used by the clip
    families; they default to probing the norms on basis vectors.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, d = X.shape
    T = np.broadcast_to(np.asarray(T, dtype=float), (m,)).copy()
    if d == 0:
        return np.zeros(m)
    if scale0 is None:
        scale0 = probe_scales(norm0, d)
    if scale1 is None:
        scale1 = probe_scales(norm1, d)
    scale0 = np.where(scale0 > 0, scale0, 1.0)
    scale1 = np.where(scale1 > 0, scale1, 1.0)

    def objective(A):
        return norm0(A) + T * norm1(X - A)

    best = np.minimum(norm0(X), T * norm1(X))

    # Clip families in both orientations; keep the better split as a start.
    clip1, val1 = _clip_search(
        X, T, lambda b: T * norm1(b), lambda a: norm0(a), scale1, LINE_ITERS)
    clip0, val0 = _clip_search(
        X, T, lambda a: norm0(a), lambda b: T * norm1(b), scale0, LINE_ITERS)
    best = np.minimum(best, np.minimum(val0, val1))
    clip_start = np.where((val0 < val1)[:, None], clip0, X - clip1)

    rng = np.random.default_rng(seed)
    starts = [np.zeros_like(X), X.copy(), clip_start]
    for _ in range(max(0, int(budget))):
        u = rng.uniform(-0.5, 1.5, size=X.shape)
        starts.append(u * X)

    absx = np.abs(X)
    for start in starts:
        A = start.copy()
        for _ in range(sweeps):
            for j in range(d):
                span = absx[:, j]
                if not np.any(span > 0):
                    continue

                def coord_obj(c, j=j, A=A):
                    A[:, j] = c
                    return objective(A)

                cj, _ = _golden_min(coord_obj, -2.0 * span, 2.0 * span,
                                    COORD_ITERS)
                # endpoints of the natural segment; exact for concave costs
                cand = np.stack([cj, np.zeros_like(cj), X[:, j]])
                vals = np.stack([coord_obj(c) for c in cand])
                pick = np.argmin(vals, axis=0)
                A[:, j] = cand[pick, np.arange(m)]
        best = np.minimum(best, objective(A))

    return best
