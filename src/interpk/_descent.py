"""Seeded descent over additive decompositions x = a + b.

This is the generic minimizer behind the oracle evaluation of

    K(x, t) = inf { norm0(a) + t * norm1(b) : a + b = x }.

It combines three ingredients, all deterministic under a seed:

* two one-parameter "clip" families, one per orientation: the part assigned
  to one side is the coordinatewise clip sign(x) * min(|x|, lam / scale),
  with scale that side's norm of e_j, and the remainder goes to the other
  side.  The clip level lam is optimized by
  one golden-section search over both families at once.  For the couples
  (l1, linf), (linf(w0), linf(w1)) and the unweighted (l1, lp) with p > 1
  the optimal decomposition lies on one of these families, so the search is
  exact there up to the line-search tolerance.  For (l1(w0), lp(w1)) with
  weights it is not: the optimal lp side is min(|x_i|, lam * g_i) with
  g_i = (w0_i / w1_i^p)^{1/(p-1)}, not lam / w1_i, and the descent
  overshot the exact K (``couples._l1_lp_batch``) by up to 3e-3 relative
  on the 41-point profiles of mixed reiteration (weights 2^{-n/4},
  2^{-3n/4});
* coordinate descent with per-coordinate golden-section over
  a_i in [-2|x_i|, 2|x_i|], run from the canonical starts a = 0, a = x,
  a = best clip, plus ``budget`` seeded random starts; each step keeps the
  best of the golden minimum and the segment ends a_i = 0 and a_i = x_i;
* the trivial decompositions a = x and a = 0.

Every candidate is a split a, and a split bounds K at every s, not only at
the t it was found for: K(x, s) <= norm0(a) + s * norm1(x - a).  So each
(row, t) keeps the line (U, V) = (norm0(a), norm1(x - a)) of its best
candidate, and the value at each t of a row is the lowest of that row's
lines there.  With one t per row that is the best candidate's value, bit
for bit; on a grid a value is at most that of a per-t call, and the
profile is the lower envelope of lines with U, V >= 0: nondecreasing in t
with K/t nonincreasing, by construction.  Every value is realised by a
split, hence an upper bound on the true infimum.

All work is done in one stacked array.  ``X`` holds m vectors and ``T`` one
t per row, or k values of t per row (a grid); every (row, t) pair becomes a
row of an (m*k, d) array.  The clip line search runs once over two blocks
of those rows, one per family.  The 3 + ``budget`` starts then stack into S
blocks of m*k rows, and each coordinate's golden-section search runs once
over all S*m*k rows, so the number of norm calls does not grow with m, k
or the budget: it is 8 + 2 (LINE_ITERS + 3) + 2 SWEEPS d (COORD_ITERS + 5),
846 at d = 4: both norms at a = x, the probe of each norm for its clip
scales, the clip search and one call per clip piece at the level it found,
the coordinate steps, and both norms of the starts' final splits.  A coordinate
step evaluates only its two segment ends besides its golden search, whose
value at its minimum ``_golden_min`` returns.  The norm callables map an
(n, d) array to n values for any n and must treat rows independently: row
r of what they see belongs to X row ``(r % (m*k)) // k``.

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

import functools
from typing import Callable

import numpy as np

from .errors import DomainError, InvariantError

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

    Assumes rowwise unimodality; returns (argmin, min, value at argmin).
    The min is taken over the last three probes and is NaN where one of
    them is; the value at argmin is that of the probe returned, so a caller
    that compares it with other candidates needs no call to re-evaluate it.
    One objective evaluation per iteration after the two initial probes.
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
    f12 = np.minimum(f1, f2)
    at_mid, left = fm <= f12, f1 < f2
    arg = np.where(at_mid, mid, np.where(left, c1, c2))
    f_arg = np.where(at_mid, fm, np.where(left, f1, f2))
    return arg, np.minimum(f12, fm), f_arg


def _t_grid(T) -> tuple[np.ndarray, bool]:
    """T as a 2-d array, unbroadcast, and whether it was given as one t per
    row; DomainError unless every t lies in [2^-1023, 2^1023], so t <= 0,
    NaN and inf are refused too.  That range holds every ``_n_window`` grid
    and is closed under t -> 1/t, so a mirrored route never reads an
    infinite 1/t, and a line's t * 0 is never NaN.

    A scalar is a (1, 1) grid shared by every row and a 1-d array an
    (m, 1) column; a 2-d array is one (1, k) grid shared by every row or k
    values of t per row.  The exact K kernels of ``couples`` do their per-t
    arithmetic on this array, so a shared grid is worked once, not once per
    row; the descent, which stacks one row per (row, t), broadcasts it.
    Every K kernel and the descent read their t through here (``k_kernel``),
    so this is the one place that checks it.
    """
    T = np.asarray(T, dtype=float)
    if not np.all((2.0 ** -1023 <= T) & (T <= 2.0 ** 1023)):
        raise DomainError("t must be positive, in [2^-1023, 2^1023]")
    if T.ndim < 2:
        return T.reshape(-1, 1), True
    return T, False


def k_kernel(core):
    """The K call contract around ``core(X, T, *args, **kwargs)``.

    The adapted kernel takes X as an (m, d) array or one (d,) row, and T as
    a scalar, one t per row, or an (m, k)/(1, k) grid.  It turns X into a
    2-d float array, reads T through ``_t_grid`` (so a bad t is refused at
    d = 0 too), refuses a T with neither 1 nor m rows (InvariantError
    naming both counts), answers d = 0 with zeros without calling ``core``,
    and returns an (m,) result for one t per row and (m, k) for a grid.  So
    ``core`` sees a 2-d X with d >= 1 and the unbroadcast 2-d T of
    ``_t_grid``, and returns (m, k).
    """
    @functools.wraps(core)
    def kernel(X, T, *args, **kwargs):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        T, per_row = _t_grid(T)
        if len(T) not in (1, len(X)):
            raise InvariantError(f"{len(T)} rows of t for {len(X)} rows "
                                 f"of X")
        out = (core(X, T, *args, **kwargs) if X.shape[1]
               else np.zeros((len(X), T.shape[1])))
        return out[:, 0] if per_row else out
    return kernel


def probe_scales(norm: BatchNorm, n: int, d: int) -> np.ndarray:
    """The amplitude scales norm(e_j) of n stacked rows, an (n, d) array.

    The norm sees d blocks of the n rows, block j holding e_j in every row,
    so row r of each block is laid out as stacked row r and a norm with a
    weight row per X row returns that row's weights (a weighted lp norm
    returns its weights, bit for bit); one norm call.
    """
    probe = _repeat_rows(np.eye(d), d, n)
    return np.asarray(norm(probe), dtype=float).reshape(d, n).T


def _repeat_rows(V: np.ndarray, m: int, k: int) -> np.ndarray:
    """Each row of the (m, d) array V, or of a shared (d,) row, repeated k
    times in place: an (m*k, d) column-major array."""
    V = np.broadcast_to(V, (m, V.shape[-1]))
    return np.repeat(V.T, k, axis=1).T


def _clip_search(X, T, norm0, norm1):
    """The better start of the two clip families, and its line, per row.

    Each norm's clip scales are its probe on e_j (``probe_scales``), 1
    where that is 0.  One golden search runs over two stacked blocks of
    X's rows: rows [0, n) clip the A1 side, sign(x) * min(|x|, lam /
    scale1), and rows [n, 2n) clip the A0 side at scale0; the remainder
    goes to the other side.  Returns the A0 part of the better split, the
    A1 clip's on a tie, and that split's line (norm0 of its A0 piece,
    norm1 of its A1 piece), read from the two pieces at the level found:
    two norm calls.
    """
    n, d = X.shape
    scale0, scale1 = (probe_scales(norm, n, d) for norm in (norm0, norm1))
    scale = np.concatenate([scale1, scale0])
    scale = np.where(scale > 0, scale, 1.0)
    XX, TT = np.concatenate([X, X]), np.concatenate([T, T])
    absx, sgn = np.abs(XX), np.sign(XX)
    clips_a1 = (np.arange(2 * n) < n)[:, None]

    def pieces(lam):
        c = sgn * np.minimum(absx, lam[:, None] / scale)
        rest = XX - c
        return np.where(clips_a1, rest, c), np.where(clips_a1, c, rest)

    def objective(lam):
        a, b = pieces(lam)
        return norm0(a) + TT * norm1(b)

    hi = np.max(scale * absx, axis=1)
    lam, _, _ = _golden_min(objective, np.zeros_like(hi), hi, LINE_ITERS)
    a, b = pieces(lam)
    U, V = norm0(a), norm1(b)
    a0_wins = U[n:] + T * V[n:] < U[:n] + T * V[:n]
    return (np.where(a0_wins[:, None], a[n:], a[:n]),
            np.where(a0_wins, U[n:], U[:n]), np.where(a0_wins, V[n:], V[:n]))


@k_kernel
@np.errstate(over="ignore")    # an inf t * norm loses the min to a = x
def decomposition_infimum(
    X: np.ndarray,
    T,
    norm0: BatchNorm,
    norm1: BatchNorm,
    *,
    budget: int = 8,
    seed: int = 0,
):
    """Upper approximation of inf{norm0(a) + t*norm1(x-a)} for each row of X.

    ``X`` and ``T`` follow ``k_kernel``: a scalar or a 1-d T gives one t per
    row and an (m,) result; an (m, k) array, or a (1, k) grid shared by every
    row, gives an (m, k) result.  The clip families' amplitude scales are
    the norms' own values on e_j, probed once per norm on every stacked row
    (``probe_scales``), so a norm with a weight row per X row gets clip
    scales per row.

    The engine has no size guard of its own: its one caller in the library
    is ``couples.descent_route``, whose kernel refuses rows wider than
    ``couples.ORACLE_MAX_DIM`` and stacked problems larger than
    ``couples.DESCENT_MAX_CELLS``.

    One golden search over two stacked blocks of the (row, t) rows finds
    the best split on both clip families; each coordinate step then
    compares its golden minimum with the two segment ends a_i = 0 and
    a_i = x_i, two objective calls (the module docstring counts them).
    Each (row, t) keeps the line (norm0(a), norm1(x - a)) of its best split
    a, the first candidate on a tie, and each t of a row reads the lowest
    of the row's lines, one line at a time, so memory stays O(m*k).

    The norms see stacked rows: row r belongs to X row ``(r % (m*k)) // k``
    and to its t number ``r % k``; each block of m*k rows is one start, or
    in the clip search one family.  They must treat rows independently and
    accept any row count, and they receive column-major arrays (the module
    docstring says why).  The seeded random starts are drawn at X's (m, d)
    shape and repeated over a row's k values of t, so in one (m, k) call
    each t's best split is that of its per-t call with the same seed: a
    per-t call is unchanged, and a grid value is at most the per-t value.
    """
    m, d = X.shape
    k = T.shape[1]
    # one row per (X row, t)
    X = _repeat_rows(X, m, k)
    grid, T = T, np.broadcast_to(T, (m, k)).reshape(-1)

    # the lines (U, V) = (norm0(a), norm1(x - a)) of the splits a = x and
    # a = 0, of the better clip and of each start's descent
    lines = [(norm0(X), 0.0), (0.0, norm1(X))]
    # Clip families in both orientations; keep the better split as a start.
    clip_start, *clip_line = _clip_search(X, T, norm0, norm1)
    lines.append(clip_line)

    rng = np.random.default_rng(seed)
    starts = [np.zeros_like(X), X, clip_start]
    for _ in range(max(0, int(budget))):
        u = rng.uniform(-0.5, 1.5, size=(m, d))
        starts.append(_repeat_rows(u, m, k) * X)

    # every start's descent at once: one block of m*k rows per start; the
    # blocks are column-major, and so is their concatenation
    S = len(starts)
    A = np.concatenate(starts)
    XS = np.concatenate([X] * S)
    TS = np.tile(T, S)
    absx = np.abs(XS)
    rows = np.arange(len(A))

    def objective(A):
        return norm0(A) + TS * norm1(XS - A)

    for _ in range(SWEEPS):
        for j in range(d):
            span = absx[:, j]
            if not np.any(span > 0):
                continue
            col = A[:, j]

            def coord_obj(c, col=col):
                col[...] = c
                return objective(A)

            cj, _, fj = _golden_min(coord_obj, -2.0 * span, 2.0 * span,
                                    COORD_ITERS)
            # endpoints of the natural segment; exact for concave costs
            cand = np.stack([cj, np.zeros_like(cj), XS[:, j]])
            vals = np.stack([fj, coord_obj(cand[1]), coord_obj(cand[2])])
            pick = np.argmin(vals, axis=0)
            col[...] = cand[pick, rows]
    lines += zip(norm0(A).reshape(S, -1), norm1(XS - A).reshape(S, -1))

    # each (row, t) keeps the line of its best split, the first on a tie
    U, V = lines[0]
    for u, v in lines[1:]:
        better = u + T * v < U + T * V
        U, V = np.where(better, u, U), np.where(better, v, V)
    # each t of a row: the lowest of the row's k lines there, one line at a
    # time, so memory stays O(m*k); U[j::k] is column j of the (m, k) rows
    return functools.reduce(np.minimum, (U[j::k, None] + grid * V[j::k, None]
                                         for j in range(k)),
                            np.full((m, k), np.inf))
