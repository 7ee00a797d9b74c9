"""Seeded descent over additive decompositions x = a + b.

This is the generic minimizer behind the oracle evaluation of

    K(x, t) = inf { norm0(a) + t * norm1(b) : a + b = x }.

It combines three ingredients, all deterministic under a seed:

* two one-parameter "clip" families, one per orientation: the part assigned
  to one side is the coordinatewise clip sign(x) * min(|x|, lam / scale),
  the remainder goes to the other side.  The clip level lam is optimized by
  golden-section search.  For the couples (l1, linf), (linf(w0), linf(w1))
  and the unweighted (l1, lp) with p > 1 the optimal decomposition lies on
  one of these families, so the search is exact there up to the line-search
  tolerance.  For (l1(w0), lp(w1)) with weights it is not: the optimal lp
  side is min(|x_i|, lam * g_i) with g_i = (w0_i / w1_i^p)^{1/(p-1)}, not
  lam / w1_i, and the descent overshot the exact K
  (``couples._l1_lp_batch``) by up to 3e-3 relative on the 41-point
  profiles of mixed reiteration (weights 2^{-n/4}, 2^{-3n/4});
* coordinate descent with per-coordinate golden-section over
  a_i in [-2|x_i|, 2|x_i|], run from the canonical starts a = 0, a = x,
  a = best clip, plus ``budget`` seeded random starts;
* the trivial decompositions a = x and a = 0.

The returned value is the best candidate seen, hence always an upper bound
on the true infimum.

All work is done in one stacked array.  ``X`` holds m vectors and ``T`` one
t per row, or k values of t per row (a grid); every (row, t) pair becomes a
row of an (m*k, d) array, on which both clip line searches run once.  The
3 + ``budget`` starts then stack into S blocks of those m*k rows, and each
coordinate's golden-section search runs once over all S*m*k rows, so the
number of norm calls does not grow with m, k or the budget.  The norm
callables map an (n, d) array to n values for any n and must treat rows
independently: row r of what they see belongs to X row ``(r % (m*k)) // k``.

Layout contract: every array a norm callable receives is column-major
(Fortran order).  d is a window or a profile length, a few to a few dozen,
while n runs to thousands of stacked rows, so a reduction along a row of a
C-ordered array makes numpy run one short inner loop per row.
Column-major, the same ``max``/``sum`` over axis 1 runs along the long axis
in a few vectorized passes (at n = 700, d = 4 on a 2-vCPU host: ``max``
50 -> 4.5 us, ``sum`` 21 -> 3.7 us), and the coordinate writes ``A[:, j]`` of
the descent are contiguous.  Norm callables must keep the layout: a
reshape that needs C order copies on every call.  A sum over fewer than 8
terms adds sequentially in either layout, so results are bit for bit those
of the C-ordered engine for d <= 7; from 8 terms numpy sums a contiguous C
row pairwise and a column-major one sequentially, which moves results in
the last bits.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0  # golden ratio conjugate

# golden-section iterations per coordinate and per clip-level line search
COORD_ITERS = 40
LINE_ITERS = 56
# coordinate-descent passes over every coordinate, per start
SWEEPS = 2

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
        # the one new probe: left keeps c1 as the new c2, right keeps c2 as
        # the new c1
        step = _INV_PHI * (hi - lo)
        probe = np.where(left, hi - step, lo + step)
        fp = objective(probe)
        c1, c2 = np.where(left, probe, c2), np.where(left, c1, probe)
        f1, f2 = np.where(left, fp, f2), np.where(left, f1, fp)
    mid = 0.5 * (lo + hi)
    fm = objective(mid)
    best = np.minimum(np.minimum(f1, f2), fm)
    arg = np.where(fm <= np.minimum(f1, f2), mid, np.where(f1 < f2, c1, c2))
    return arg, best


def _t_matrix(T, m: int) -> tuple[np.ndarray, bool]:
    """T as an (m, k) matrix, and whether it was given as one t per row.

    Scalars and 1-d arrays hold one t per row (k = 1); a 2-d array holds k
    values of t per row, or one (1, k) grid shared by every row.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim < 2:
        return np.broadcast_to(T.reshape(-1, 1), (m, 1)), True
    return np.broadcast_to(T, (m, T.shape[1])), False


def probe_scales(norm: BatchNorm, dim: int) -> np.ndarray:
    """Per-coordinate amplitude scales norm(e_j), j = 0..dim-1."""
    return np.asarray(norm(np.eye(dim, order="F")), dtype=float)


def _repeat_rows(V: np.ndarray, m: int, k: int) -> np.ndarray:
    """Each row of the (m, d) array V, or of a shared (d,) row, repeated k
    times in place: an (m*k, d) column-major array."""
    V = np.broadcast_to(V, (m, V.shape[-1]))
    return np.repeat(V.T, k, axis=1).T


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
):
    """Upper approximation of inf{norm0(a) + t*norm1(x-a)} for each row of X.

    ``T`` follows ``_t_matrix``: a scalar or a 1-d array gives one t per row
    and an (m,) result; an (m, k) array, or a (1, k) grid shared by every
    row, gives an (m, k) result.  ``scale0``/``scale1`` are the
    per-coordinate amplitude scales of the two norms used by the clip
    families, shared (d,) or per row (m, d); they default to probing the
    norms on basis vectors.

    The norms see stacked rows: row r belongs to X row ``(r % (m*k)) // k``
    and to its t number ``r % k``, and each block of m*k rows is one start.
    They must treat rows independently and accept any row count, and they
    receive column-major arrays (the module docstring says why).  The seeded
    random starts are drawn at X's (m, d) shape and repeated over a row's k
    values of t, so one (m, k) call equals k per-t calls with the same seed
    bit for bit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, d = X.shape
    T, per_row = _t_matrix(T, m)
    k = T.shape[1]
    if d == 0:
        out = np.zeros((m, k))
        return out[:, 0] if per_row else out
    if scale0 is None:
        scale0 = probe_scales(norm0, d)
    if scale1 is None:
        scale1 = probe_scales(norm1, d)

    # one row per (X row, t); per-row scales follow their row to each of
    # its k values of t
    scale0, scale1 = (_repeat_rows(np.where(s > 0, s, 1.0), m, k)
                      for s in (scale0, scale1))
    X = _repeat_rows(X, m, k)
    T = T.reshape(-1)

    best = np.minimum(norm0(X), T * norm1(X))

    # Clip families in both orientations; keep the better split as a start.
    clip1, val1 = _clip_search(
        X, T, lambda b: T * norm1(b), lambda a: norm0(a), scale1, LINE_ITERS)
    clip0, val0 = _clip_search(
        X, T, lambda a: norm0(a), lambda b: T * norm1(b), scale0, LINE_ITERS)
    best = np.minimum(best, np.minimum(val0, val1))
    clip_start = np.where((val0 < val1)[:, None], clip0, X - clip1)

    rng = np.random.default_rng(seed)
    starts = [np.zeros_like(X), X, clip_start]
    for _ in range(max(0, int(budget))):
        u = rng.uniform(-0.5, 1.5, size=(m, d))
        starts.append(_repeat_rows(u, m, k) * X)

    # every start's descent at once: one block of m*k rows per start; the
    # blocks are column-major, and so is their concatenation
    A = np.concatenate(starts)
    XS = np.concatenate([X] * len(starts))
    TS = np.tile(T, len(starts))
    absx = np.abs(XS)
    rows = np.arange(len(A))

    def objective(A):
        return norm0(A) + TS * norm1(XS - A)

    for _ in range(SWEEPS):
        for j in range(d):
            span = absx[:, j]
            if not np.any(span > 0):
                continue

            def coord_obj(c, j=j):
                A[:, j] = c
                return objective(A)

            cj, _ = _golden_min(coord_obj, -2.0 * span, 2.0 * span,
                                COORD_ITERS)
            # endpoints of the natural segment; exact for concave costs
            cand = np.stack([cj, np.zeros_like(cj), XS[:, j]])
            vals = np.stack([coord_obj(c) for c in cand])
            pick = np.argmin(vals, axis=0)
            A[:, j] = cand[pick, rows]
    # the min over starts, in start order
    for val in objective(A).reshape(len(starts), -1):
        best = np.minimum(best, val)

    return best if per_row else best.reshape(m, k)
