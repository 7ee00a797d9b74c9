"""The stacked descent against its per-start, per-t loop form, and the
column-major descent against the C-ordered one it replaced."""

import numpy as np
import pytest

from interpk import _descent
from interpk._descent import (COORD_ITERS, LINE_ITERS, SWEEPS, _clip_search,
                              _golden_min, _t_matrix, decomposition_infimum,
                              probe_scales)
from interpk.couples import WeightedNorm, _l1_linf_batch, _weighted_sup_batch
from interpk.interp import sequence_couple_k
from interpk.snum import k_operator_diag_batch


# ---------------------------------------------------------------------------
# the previous engine, kept as an oracle: one t per row, one start at a time
# ---------------------------------------------------------------------------

def loop_oracle_descent(X, T, norm0, norm1, *, budget=8, seed=0,
                        scale0=None, scale1=None, sweeps=2):
    """The descent as it ran before stacking: starts run one after another.

    ``T`` is a scalar or one t per row; an (m, k) or (1, k) grid is run as k
    separate calls with the same seed, as the callers did.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, d = X.shape
    T = np.asarray(T, dtype=float)
    if T.ndim == 2:
        T = np.broadcast_to(T, (m, T.shape[1]))
        return np.stack([loop_oracle_descent(
            X, T[:, j], norm0, norm1, budget=budget, seed=seed,
            scale0=scale0, scale1=scale1, sweeps=sweeps)
            for j in range(T.shape[1])], axis=1)
    T = np.broadcast_to(T, (m,)).copy()
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
                cand = np.stack([cj, np.zeros_like(cj), X[:, j]])
                vals = np.stack([coord_obj(c) for c in cand])
                pick = np.argmin(vals, axis=0)
                A[:, j] = cand[pick, np.arange(m)]
        best = np.minimum(best, objective(A))
    return best


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
        kw = dict(budget=2, seed=3, scale0=n0.weights, scale1=n1.weights)
        got = decomposition_infimum(X, T, n0.dense, n1.dense, **kw)
        want = loop_oracle_descent(X, T, n0.dense, n1.dense, **kw)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_grid_equals_per_t_calls(self):
        rng = np.random.default_rng(13)
        n0, n1 = _norms(0.5, 2.0, 3, rng)
        X = rng.standard_normal((4, 3))
        got = decomposition_infimum(X, GRID[None, :], n0.dense, n1.dense,
                                    budget=3, seed=9)
        want = np.stack([decomposition_infimum(X, t, n0.dense, n1.dense,
                                               budget=3, seed=9)
                         for t in GRID], axis=1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("T", ["per_row", "grid"])
    def test_per_row_scales(self, T):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((6, 3))
        W0 = 2.0 ** rng.uniform(-3, 3, (6, 3))
        W1 = 2.0 ** rng.uniform(-3, 3, (6, 3))
        T = 2.0 ** rng.uniform(-3, 3, 6) if T == "per_row" else GRID[None, :]
        k = np.shape(T)[-1] if np.ndim(T) == 2 else 1
        got = decomposition_infimum(
            X, T, _row_weight_norm(W0, 2.0, k), _row_weight_norm(W1, 1.0, k),
            budget=2, seed=4, scale0=W0, scale1=W1)
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
    """One grid call equals the stacked per-t calls the callers made."""

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
        assert np.array_equal(got, want)


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
    T, per_row = _t_matrix(T, m)
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
    T = T.reshape(-1)

    best = np.minimum(norm0(X), T * norm1(X))
    clip1, val1 = _reference_clip_search(
        X, T, lambda b: T * norm1(b), lambda a: norm0(a), scale1, LINE_ITERS)
    clip0, val0 = _reference_clip_search(
        X, T, lambda a: norm0(a), lambda b: T * norm1(b), scale0, LINE_ITERS)
    best = np.minimum(best, np.minimum(val0, val1))
    clip_start = np.where((val0 < val1)[:, None], clip0, X - clip1)

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
    for val in objective(A).reshape(len(starts), -1):
        best = np.minimum(best, val)

    return best if per_row else best.reshape(m, k)


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
            got = _golden_min(objective, lo, hi, iters)
            want = _reference_golden_min(objective, lo, hi, iters)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

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
            # probed scales on even cases, the weights on odd ones
            kw = dict(budget=budget, seed=case)
            if case % 2:
                kw.update(scale0=n0.weights, scale1=n1.weights)
            got = decomposition_infimum(X, T, n0.dense, n1.dense, **kw)
            want = reference_descent(X, T, n0.dense, n1.dense, **kw)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (p1, budget, d)

    def test_bitwise_with_per_row_scales(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((5, 7))
        W0 = 2.0 ** rng.uniform(-3, 3, (5, 7))
        W1 = 2.0 ** rng.uniform(-3, 3, (5, 7))
        for T in (2.0 ** rng.uniform(-3, 3, 5), GRID[None, :3]):
            k = np.shape(T)[-1] if np.ndim(T) == 2 else 1
            n0 = _row_weight_norm(W0, 1.5, k)
            n1 = _row_weight_norm(W1, 1.0, k)
            kw = dict(budget=3, seed=6, scale0=W0, scale1=W1)
            assert np.array_equal(
                decomposition_infimum(X, T, n0, n1, **kw),
                reference_descent(X, T, n0, n1, **kw))

    @pytest.mark.parametrize("d", [8, 12, 20])
    def test_close_from_eight_coordinates(self, d):
        rng = np.random.default_rng([33, d])
        X = rng.standard_normal((6, d))
        T = 2.0 ** rng.uniform(-4, 4, 6)
        for p0, p1 in ((1.5, 3.0), (0.5, 2.0), (2.0, 1.0), (1.0, np.inf)):
            n0 = WeightedNorm(p0, 0, 2.0 ** rng.uniform(-2, 2, d))
            n1 = WeightedNorm(p1, 0, 2.0 ** rng.uniform(-2, 2, d))
            kw = dict(budget=2, seed=d, scale0=n0.weights, scale1=n1.weights)
            got = decomposition_infimum(X, T, n0.dense, n1.dense, **kw)
            want = reference_descent(X, T, n0.dense, n1.dense, **kw)
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

        # without scales the descent also probes the norms on e_j
        for kw in ({}, dict(scale0=n0.weights, scale1=n1.weights)):
            decomposition_infimum(X, T, recording(n0.dense),
                                  recording(n1.dense), budget=2, seed=0, **kw)
        assert len(seen) > 100 and all(seen)
