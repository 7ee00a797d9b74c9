"""The stacked descent against its per-start, per-t loop form, and the
column-major descent against the C-ordered one it replaced."""

import numpy as np
import pytest

from interpk import _descent
from interpk._descent import (COORD_ITERS, LINE_ITERS, SWEEPS, _golden_min,
                              _t_grid, decomposition_infimum, probe_scales)
from interpk.couples import (ORACLE, Couple, WeightedNorm, _l1_linf_batch,
                             _weighted_sup_batch, validate_profiles)
from interpk.interp import sequence_couple_k
from interpk.snum import k_operator_diag_batch


# ---------------------------------------------------------------------------
# the previous engine, kept as an oracle: one t per row, one start at a time
# ---------------------------------------------------------------------------

def lower_envelope(U, V, T):
    """Each t of a row: the lowest of that row's lines (U, V) there; U and V
    hold one line per column, T is (m, k) or (1, k)."""
    with np.errstate(over="ignore"):
        return np.min(U[:, None, :] + T[:, :, None] * V[:, None, :], axis=2)


def keep_line(best, U, V, val, u, v):
    """The running min of the candidate values and the line (U, V) of the
    first candidate that attains it."""
    better = val < best
    return (np.minimum(best, val), np.where(better, u, U),
            np.where(better, v, V))


def loop_oracle_descent(X, T, norm0, norm1, *, budget=8, seed=0,
                        scale0=None, scale1=None, sweeps=2):
    """The descent as it ran before stacking: starts run one after another.

    ``T`` is a scalar or one t per row; an (m, k) or (1, k) grid is run as k
    separate calls with the same seed, as the callers did, and each t of a
    row then reads the lowest of the row's k winning lines.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.asarray(T, dtype=float)
    kw = dict(budget=budget, seed=seed, scale0=scale0, scale1=scale1,
              sweeps=sweeps)
    if T.ndim == 2:
        T = np.broadcast_to(T, (len(X), T.shape[1]))
        lines = [_loop_lines(X, T[:, j], norm0, norm1, **kw)[1:]
                 for j in range(T.shape[1])]
        return lower_envelope(*(np.stack(side, axis=1)
                                for side in zip(*lines)), T)
    return _loop_lines(X, T, norm0, norm1, **kw)[0]


def _loop_lines(X, T, norm0, norm1, *, budget, seed, scale0, scale1,
                sweeps):
    """One t per row: the best value, and the line (U, V) of its split."""
    m, d = X.shape
    T = np.broadcast_to(T, (m,)).copy()
    if d == 0:
        return np.zeros(m), np.zeros(m), np.zeros(m)
    if scale0 is None:
        scale0 = probe_scales(norm0, m, d)
    if scale1 is None:
        scale1 = probe_scales(norm1, m, d)
    scale0 = np.where(scale0 > 0, scale0, 1.0)
    scale1 = np.where(scale1 > 0, scale1, 1.0)

    def objective(A):
        return norm0(A) + T * norm1(X - A)

    zero = np.zeros(m)
    best = U = norm0(X)
    V = zero
    best, U, V = keep_line(best, U, V, T * norm1(X), zero, norm1(X))
    clip1, val1 = _reference_clip_search(
        X, T, lambda b: T * norm1(b), lambda a: norm0(a), scale1, LINE_ITERS)
    clip0, val0 = _reference_clip_search(
        X, T, lambda a: norm0(a), lambda b: T * norm1(b), scale0, LINE_ITERS)
    a0_wins = (val0 < val1)[:, None]
    clip_start = np.where(a0_wins, clip0, X - clip1)
    best, U, V = keep_line(best, U, V, np.minimum(val0, val1),
                           norm0(clip_start),
                           norm1(np.where(a0_wins, X - clip0, clip1)))

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

                cj, _ = _reference_golden_min(
                    coord_obj, -2.0 * span, 2.0 * span, COORD_ITERS)
                cand = np.stack([cj, np.zeros_like(cj), X[:, j]])
                vals = np.stack([coord_obj(c) for c in cand])
                pick = np.argmin(vals, axis=0)
                A[:, j] = cand[pick, np.arange(m)]
        best, U, V = keep_line(best, U, V, objective(A), norm0(A),
                               norm1(X - A))
    return best, U, V


def _norms(p0, p1, d, rng):
    n0 = WeightedNorm(p0, 0, 2.0 ** rng.uniform(-1, 1, d))
    n1 = WeightedNorm(p1, 0, 2.0 ** rng.uniform(-1, 1, d))
    return n0, n1


def _row_weight_norm(W, p, k=1):
    """lp norm with one weight row per X row, laid out as the descent
    stacks rows: each weight row repeated over its k values of t, and that
    block tiled over the starts."""
    W = np.repeat(W, k, axis=0)

    def norm(A):
        Wt = np.tile(W, (len(A) // len(W), 1))
        return np.sum((Wt * np.abs(A)) ** p, axis=1) ** (1.0 / p)
    return norm


GRID = 2.0 ** np.arange(-4, 5).astype(float)


class TestAgainstLoopOracle:
    @pytest.mark.parametrize("budget", [0, 1, 4])
    @pytest.mark.parametrize("sweeps", [0, 1, 2])
    def test_budget_and_sweeps(self, budget, sweeps, monkeypatch):
        rng = np.random.default_rng([11, budget, sweeps])
        n0, n1 = _norms(1.5, 3.0, 4, rng)
        X = rng.standard_normal((6, 4))
        T = 2.0 ** rng.uniform(-3, 3, 6)
        kw = dict(budget=budget, seed=5)
        monkeypatch.setattr(_descent, "SWEEPS", sweeps)
        got = decomposition_infimum(X, T, n0.dense, n1.dense, **kw)
        want = loop_oracle_descent(X, T, n0.dense, n1.dense, sweeps=sweeps,
                                   **kw)
        assert got.shape == (6,)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("T", [0.7, "per_row", "grid", "row_grid"])
    def test_t_conventions(self, T):
        rng = np.random.default_rng(12)
        n0, n1 = _norms(1.0, 2.0, 3, rng)
        X = rng.standard_normal((5, 3))
        if T == "per_row":
            T = 2.0 ** rng.uniform(-3, 3, 5)
        elif T == "grid":
            T = GRID[None, :]
        elif T == "row_grid":
            T = 2.0 ** rng.uniform(-3, 3, (5, 4))
        # the engine's probe gives the weights the loop form is handed
        got = decomposition_infimum(X, T, n0.dense, n1.dense, budget=2,
                                    seed=3)
        want = loop_oracle_descent(X, T, n0.dense, n1.dense, budget=2,
                                   seed=3, scale0=n0.weights,
                                   scale1=n1.weights)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_grid_at_most_per_t_calls(self):
        # each grid value is the lowest of its row's lines, its own t's
        # winner among them, so it is at most that t's per-t value, and
        # the profile is monotone on the dyadic grid
        rng = np.random.default_rng(13)
        n0, n1 = _norms(0.5, 2.0, 3, rng)
        X = rng.standard_normal((4, 3))
        got = decomposition_infimum(X, GRID[None, :], n0.dense, n1.dense,
                                    budget=3, seed=9)
        want = np.stack([decomposition_infimum(X, t, n0.dense, n1.dense,
                                               budget=3, seed=9)
                         for t in GRID], axis=1)
        assert np.all(got <= want)
        validate_profiles(got, GRID, rel_tol=0.0)

    @pytest.mark.parametrize("T", ["per_row", "grid"])
    def test_per_row_scales(self, T):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((6, 3))
        W0 = 2.0 ** rng.uniform(-3, 3, (6, 3))
        W1 = 2.0 ** rng.uniform(-3, 3, (6, 3))
        T = 2.0 ** rng.uniform(-3, 3, 6) if T == "per_row" else GRID[None, :]
        k = np.shape(T)[-1] if np.ndim(T) == 2 else 1
        # the engine probes the weight rows the loop form is handed
        got = decomposition_infimum(
            X, T, _row_weight_norm(W0, 2.0, k), _row_weight_norm(W1, 1.0, k),
            budget=2, seed=4)
        # the loop form sees m rows per call, one t at a time
        want = loop_oracle_descent(
            X, T, _row_weight_norm(W0, 2.0), _row_weight_norm(W1, 1.0),
            budget=2, seed=4, scale0=W0, scale1=W1)
        assert np.array_equal(got, want)

    def test_all_zero_column(self):
        rng = np.random.default_rng(15)
        n0, n1 = _norms(1.0, 4.0, 4, rng)
        X = rng.standard_normal((5, 4))
        X[:, 2] = 0.0
        X[3] = 0.0
        for T in (0.5, GRID[None, :]):
            got = decomposition_infimum(X, T, n0.dense, n1.dense, budget=2,
                                        seed=1)
            want = loop_oracle_descent(X, T, n0.dense, n1.dense, budget=2,
                                       seed=1)
            assert np.array_equal(got, want)
        assert np.all(got[3] == 0.0)

    def test_one_coordinate(self):
        rng = np.random.default_rng(16)
        n0, n1 = _norms(3.0, 1.0, 1, rng)
        X = rng.standard_normal((7, 1))
        for T in (2.0 ** rng.uniform(-3, 3, 7), GRID[None, :]):
            got = decomposition_infimum(X, T, n0.dense, n1.dense, budget=4,
                                        seed=2)
            want = loop_oracle_descent(X, T, n0.dense, n1.dense, budget=4,
                                       seed=2)
            assert np.array_equal(got, want)

    def test_empty_window(self):
        X = np.zeros((3, 0))
        norm = lambda A: np.zeros(len(A))
        assert decomposition_infimum(X, 1.0, norm, norm).shape == (3,)
        assert decomposition_infimum(X, GRID[None, :], norm,
                                     norm).shape == (3, len(GRID))


class TestGridCallers:
    """One grid call against the stacked per-t calls the callers made: the
    same bits on an exact route, at most the per-t values on a descent."""

    def test_sequence_couple_k_mixed_exponents(self):
        rng = np.random.default_rng(21)
        V = np.abs(rng.standard_normal((5, 6)))
        w0 = 2.0 ** rng.uniform(-2, 2, 6)
        w1 = 2.0 ** rng.uniform(-2, 2, 6)
        got = sequence_couple_k(V, GRID[None, :], 1.0, w0, 2.0, w1, seed=7)
        want = np.stack([sequence_couple_k(V, t, 1.0, w0, 2.0, w1, seed=7)
                         for t in GRID], axis=1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("p0, p1", [(1.0, 2.0), (2.0, 1.0), (1.5, 3.0)])
    def test_k_operator_diag_batch(self, p0, p1):
        rng = np.random.default_rng(22)
        S = -np.sort(-np.abs(rng.standard_normal((4, 5))), axis=1)
        got = k_operator_diag_batch(S, GRID[None, :], p0, p1, budget=2,
                                    seed=3)
        want = np.stack([k_operator_diag_batch(S, t, p0, p1, budget=2,
                                               seed=3)
                         for t in GRID], axis=1)
        if 1.0 in (p0, p1):
            assert np.array_equal(got, want)
        else:
            assert np.all(got <= want)


class TestProbedScales:
    """The engine's probe of a weighted lp norm on e_j is its weights, on
    every stacked row, so no caller passes clip scales."""

    @staticmethod
    def wide_weights(rng, d):
        return np.append(2.0 ** rng.uniform(-1000, 1000, d - 1), 5e-324)

    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0,
                                   np.inf])
    def test_probe_is_the_weights(self, p):
        rng = np.random.default_rng(41)
        for d in (1, 2, 7, 16, 21):
            w = self.wide_weights(rng, d)
            got = probe_scales(WeightedNorm(p, 0, w).dense, 3, d)
            assert got.tobytes() == np.tile(w, (3, 1)).tobytes(), (p, d)

    @pytest.mark.parametrize("p0, p1", [(2.0, 3.0), (0.5, 2.0), (0.5, 0.5)])
    def test_oracle_profile_equals_the_weighted_scales(self, p0, p1):
        rng = np.random.default_rng(42)
        w0, w1 = self.wide_weights(rng, 6), self.wide_weights(rng, 6)
        couple = Couple(WeightedNorm(p0, 0, w0), WeightedNorm(p1, 0, w1),
                        ORACLE)
        assert couple.route.name == "descent"
        X = rng.standard_normal((3, 6))
        got = couple.profile_batch(X, GRID)
        # the C-ordered engine, bit for bit below 8 coordinates, handed the
        # weights as its scales
        with np.errstate(over="ignore"):
            want = reference_descent(X, GRID[None, :], couple.norm0.dense,
                                     couple.norm1.dense, budget=8, seed=0,
                                     scale0=w0, scale1=w1)
        assert got.tobytes() == want.tobytes()


class TestNormCalls:
    """The norm calls of one descent: both norms at a = x, one probe of
    each norm for its clip scales, one golden search over both clip
    families and one call per clip piece at the level found, two endpoint
    candidates per coordinate step besides the coordinate's golden search,
    and both norms of each final split."""

    @pytest.mark.parametrize("d", [1, 4, 7])
    @pytest.mark.parametrize("T", ["per_row", "grid"])
    def test_calls_per_descent(self, d, T):
        rng = np.random.default_rng([17, d])
        n0, n1 = _norms(1.5, np.inf, d, rng)
        X = rng.standard_normal((5, d))
        k = 1 if T == "per_row" else len(GRID)
        T = 2.0 ** rng.uniform(-3, 3, 5) if k == 1 else GRID[None, :]
        seen = []

        def counted(norm):
            def call(A):
                seen.append(len(A))
                return norm(A)
            return call

        decomposition_infimum(X, T, counted(n0.dense), counted(n1.dense),
                              budget=3, seed=0)
        calls = 8 + 2 * (LINE_ITERS + 3) + 2 * SWEEPS * d * (COORD_ITERS + 5)
        assert len(seen) == calls
        assert d != 4 or calls == 846       # oracle_agreement's max_dim
        # after both norms at a = x, each probe hands its norm d blocks of
        # the 5 * k stacked rows
        assert seen[:4] == [5 * k, 5 * k, d * 5 * k, d * 5 * k]
        # the clip search sees both families' rows in one call, and reads
        # the line of the level it found from one call per piece
        assert seen.count(2 * 5 * k) == 2 * (LINE_ITERS + 3) + 2


# ---------------------------------------------------------------------------
# the C-ordered engine, kept verbatim as an oracle for the column-major one
# ---------------------------------------------------------------------------

def _reference_golden_min(objective, lo, hi, iters):
    """``_golden_min`` as it was before the single-probe rewrite."""
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    c1 = hi - _descent._INV_PHI * (hi - lo)
    c2 = lo + _descent._INV_PHI * (hi - lo)
    f1 = objective(c1)
    f2 = objective(c2)
    for _ in range(iters):
        left = f1 < f2
        hi = np.where(left, c2, hi)
        lo = np.where(left, lo, c1)
        c_old_1, c_old_f1 = c1, f1
        c1 = np.where(left, hi - _descent._INV_PHI * (hi - lo), c2)
        c2 = np.where(left, c_old_1, lo + _descent._INV_PHI * (hi - lo))
        probe = np.where(left, c1, c2)
        fp = objective(probe)
        f1 = np.where(left, fp, f2)
        f2 = np.where(left, c_old_f1, fp)
    mid = 0.5 * (lo + hi)
    fm = objective(mid)
    best = np.minimum(np.minimum(f1, f2), fm)
    arg = np.where(fm <= np.minimum(f1, f2), mid, np.where(f1 < f2, c1, c2))
    return arg, best


def _reference_clip_search(X, T, pay_clip, pay_rest, scale, iters):
    absx = np.abs(X)
    hi = np.max(scale * absx, axis=1)
    lo = np.zeros_like(hi)

    def objective(lam):
        clip = np.sign(X) * np.minimum(absx, lam[:, None] / scale)
        return pay_rest(X - clip) + pay_clip(clip)

    lam, val = _reference_golden_min(objective, lo, hi, iters)
    clip = np.sign(X) * np.minimum(absx, lam[:, None] / scale)
    return clip, val


def reference_descent(X, T, norm0, norm1, *, budget=8, seed=0, scale0=None,
                      scale1=None):
    """``decomposition_infimum`` as it was with C-ordered (rows, d) arrays."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, d = X.shape
    T, per_row = _t_grid(T)
    T = np.broadcast_to(T, (m, T.shape[1]))
    k = T.shape[1]
    if d == 0:
        out = np.zeros((m, k))
        return out[:, 0] if per_row else out
    if scale0 is None:
        scale0 = np.asarray(norm0(np.eye(d)), dtype=float)
    if scale1 is None:
        scale1 = np.asarray(norm1(np.eye(d)), dtype=float)

    def stacked(scale):
        scale = np.where(scale > 0, scale, 1.0)
        return np.repeat(scale, k, axis=0) if scale.ndim == 2 else scale

    scale0, scale1 = stacked(scale0), stacked(scale1)
    X = np.repeat(X, k, axis=0)
    grid, T = T, T.reshape(-1)

    zero = np.zeros(len(X))
    best = U = norm0(X)
    V = zero
    best, U, V = keep_line(best, U, V, T * norm1(X), zero, norm1(X))
    clip1, val1 = _reference_clip_search(
        X, T, lambda b: T * norm1(b), lambda a: norm0(a), scale1, LINE_ITERS)
    clip0, val0 = _reference_clip_search(
        X, T, lambda a: norm0(a), lambda b: T * norm1(b), scale0, LINE_ITERS)
    a0_wins = (val0 < val1)[:, None]
    clip_start = np.where(a0_wins, clip0, X - clip1)
    best, U, V = keep_line(best, U, V, np.minimum(val0, val1),
                           norm0(clip_start),
                           norm1(np.where(a0_wins, X - clip0, clip1)))

    rng = np.random.default_rng(seed)
    starts = [np.zeros_like(X), X, clip_start]
    for _ in range(max(0, int(budget))):
        u = rng.uniform(-0.5, 1.5, size=(m, d))
        starts.append(np.repeat(u, k, axis=0) * X)

    A = np.concatenate(starts)
    XS = np.tile(X, (len(starts), 1))
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

            cj, _ = _reference_golden_min(coord_obj, -2.0 * span, 2.0 * span,
                                          COORD_ITERS)
            cand = np.stack([cj, np.zeros_like(cj), XS[:, j]])
            vals = np.stack([coord_obj(c) for c in cand])
            pick = np.argmin(vals, axis=0)
            A[:, j] = cand[pick, rows]
    for val, u, v in zip(*(W.reshape(len(starts), -1) for W in (
            objective(A), norm0(A), norm1(XS - A)))):
        best, U, V = keep_line(best, U, V, val, u, v)

    if per_row:
        return best
    return lower_envelope(U.reshape(m, k), V.reshape(m, k), grid)


EXPONENTS = (0.5, 1.0, 1.5, 2.0, np.inf)


def _t_of_kind(kind, m, rng):
    if kind == "scalar":
        return float(2.0 ** rng.uniform(-3, 3))
    if kind == "per_row":
        return 2.0 ** rng.uniform(-3, 3, m)
    return GRID[None, ::2]


class TestAgainstCOrderedEngine:
    """Below 8 coordinates every row reduction adds sequentially in both
    layouts, so the column-major engine must agree bit for bit; from 8 on,
    numpy sums a contiguous C row pairwise, and only a tolerance holds."""

    def test_golden_min_single_probe_form(self):
        rng = np.random.default_rng(30)
        centre = rng.standard_normal(50)
        objective = lambda c: np.abs(c - centre) ** 1.5 + 0.1 * c
        lo, hi = -3.0 * np.ones(50), 3.0 * np.ones(50)
        for iters in (0, 1, 7, COORD_ITERS):
            arg, low, at_arg = _golden_min(objective, lo, hi, iters)
            want_arg, want_low = _reference_golden_min(objective, lo, hi,
                                                       iters)
            assert np.array_equal(arg, want_arg)
            assert np.array_equal(low, want_low)
            assert np.array_equal(at_arg, objective(arg))

    def test_golden_min_value_at_nan_probes(self):
        """The value at the argmin is the objective there, bit for bit,
        also on rows where a probe is NaN and so is the min."""
        rng = np.random.default_rng(37)
        centre = rng.standard_normal(50)
        poisoned = (np.arange(50) % 3 == 0)

        def objective(c):
            f = np.abs(c - centre) ** 1.5 + 0.1 * c
            # NaN near the minimum, where the search ends up
            return np.where(poisoned & (np.abs(c - centre) < 0.2), np.nan, f)

        lo, hi = -3.0 * np.ones(50), 3.0 * np.ones(50)
        for iters in (0, 1, 7, COORD_ITERS):
            arg, low, at_arg = _golden_min(objective, lo, hi, iters)
            want_arg, want_low = _reference_golden_min(objective, lo, hi,
                                                       iters)
            assert np.array_equal(arg, want_arg)
            assert np.array_equal(low, want_low, equal_nan=True)
            assert np.array_equal(at_arg, objective(arg), equal_nan=True)
            assert np.any(np.isnan(low) & ~np.isnan(at_arg)), iters

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("p0", EXPONENTS)
    def test_bitwise_below_eight_coordinates(self, p0, weighted):
        rng = np.random.default_rng([31, EXPONENTS.index(p0), weighted])
        for i, p1 in enumerate(EXPONENTS):
            # over the p0 cases: every d in 1..7, budget in 0..4, T kind
            case = 5 * EXPONENTS.index(p0) + i
            d, budget = 1 + case % 7, case % 5
            n0 = WeightedNorm(p0, 0, 2.0 ** rng.uniform(-2, 2, d)
                              if weighted else np.ones(d))
            n1 = WeightedNorm(p1, 0, 2.0 ** rng.uniform(-2, 2, d)
                              if weighted else np.ones(d))
            X = rng.standard_normal((4, d))
            T = _t_of_kind(("scalar", "per_row", "grid")[case % 3], 4, rng)
            # the engine probes its scales; the reference probes on even
            # cases and is handed the weights on odd ones
            kw = dict(budget=budget, seed=case)
            got = decomposition_infimum(X, T, n0.dense, n1.dense, **kw)
            if case % 2:
                kw.update(scale0=n0.weights, scale1=n1.weights)
            want = reference_descent(X, T, n0.dense, n1.dense, **kw)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (p1, budget, d)

    @np.errstate(over="ignore")
    def test_bitwise_with_per_row_scales(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((7, 7))
        # the l1.5 norm of the last two rows overflows to inf at a = x
        X[5:] *= [[1e250], [1e307]]
        W0 = 2.0 ** rng.uniform(-3, 3, (7, 7))
        W1 = 2.0 ** rng.uniform(-3, 3, (7, 7))
        assert np.all(np.isinf(_row_weight_norm(W0, 1.5)(X)[5:]))
        for T in (2.0 ** rng.uniform(-3, 3, 7), GRID[None, :3]):
            k = np.shape(T)[-1] if np.ndim(T) == 2 else 1
            n0 = _row_weight_norm(W0, 1.5, k)
            n1 = _row_weight_norm(W1, 1.0, k)
            assert np.array_equal(
                decomposition_infimum(X, T, n0, n1, budget=3, seed=6),
                reference_descent(X, T, n0, n1, budget=3, seed=6, scale0=W0,
                                  scale1=W1))

    @pytest.mark.parametrize("d", [8, 12, 20])
    def test_close_from_eight_coordinates(self, d):
        rng = np.random.default_rng([33, d])
        X = rng.standard_normal((6, d))
        T = 2.0 ** rng.uniform(-4, 4, 6)
        for p0, p1 in ((1.5, 3.0), (0.5, 2.0), (2.0, 1.0), (1.0, np.inf)):
            n0 = WeightedNorm(p0, 0, 2.0 ** rng.uniform(-2, 2, d))
            n1 = WeightedNorm(p1, 0, 2.0 ** rng.uniform(-2, 2, d))
            got = decomposition_infimum(X, T, n0.dense, n1.dense, budget=2,
                                        seed=d)
            want = reference_descent(X, T, n0.dense, n1.dense, budget=2,
                                     seed=d, scale0=n0.weights,
                                     scale1=n1.weights)
            assert np.max(np.abs(got - want) / want) <= 1e-8, (p0, p1)

    @pytest.mark.parametrize("d", [8, 12, 20])
    def test_never_below_an_exact_route(self, d):
        rng = np.random.default_rng([34, d])
        X = rng.standard_normal((8, d))
        T = 2.0 ** rng.uniform(-4, 4, 8)
        ones = np.ones(d)
        l1 = WeightedNorm(1.0, 0, ones)
        linf = WeightedNorm(np.inf, 0, ones)
        w0 = WeightedNorm(np.inf, 0, 2.0 ** rng.uniform(-3, 3, d))
        w1 = WeightedNorm(np.inf, 0, 2.0 ** rng.uniform(-3, 3, d))
        for n0, n1, exact in (
                (l1, linf, _l1_linf_batch(X, T)),
                (w0, w1, _weighted_sup_batch(X, T, w0.weights, w1.weights))):
            got = decomposition_infimum(X, T, n0.dense, n1.dense, budget=2,
                                        seed=1)
            assert np.all(got >= exact * (1.0 - 1e-12))
            assert np.max((got - exact) / exact) <= 1e-6

    @pytest.mark.parametrize("T", [0.5, "per_row", "grid"])
    def test_norms_see_column_major_arrays(self, T):
        rng = np.random.default_rng(35)
        n0, n1 = _norms(1.5, 3.0, 5, rng)
        X = rng.standard_normal((6, 5))
        if T == "per_row":
            T = 2.0 ** rng.uniform(-3, 3, 6)
        elif T == "grid":
            T = GRID[None, :4]
        seen = []

        def recording(norm):
            def call(A):
                seen.append(A.flags.f_contiguous)
                return norm(A)
            return call

        # the probe of the norms on e_j included
        decomposition_infimum(X, T, recording(n0.dense), recording(n1.dense),
                              budget=2, seed=0)
        assert len(seen) > 100 and all(seen)
