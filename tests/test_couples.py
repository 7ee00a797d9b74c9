import decimal
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from interpk import (Couple, DomainError, InvariantError, SizeError,
                     WeightedNorm, WindowError, k_profile, k_sphere_sup,
                     l1_linf_couple, power_couple, weighted_sup_couple)
from interpk import couples
from interpk._descent import decomposition_infimum
from interpk.couples import (ORACLE, FiniteVector, KProfile, _l1_linf_batch,
                             _l1_lp_batch, _power_batch,
                             _weighted_sup_batch, descent_route, k_route,
                             stable_lp_sum, validate_profiles, vec)
from interpk.interp import derived_sum_int_couple, sequence_couple_k
from interpk.snum import k_operator_diag, k_operator_diag_batch

DYADIC = 2.0 ** np.arange(-20, 21).astype(float)   # the default profile grid


# ---------------------------------------------------------------------------
# independent oracles (kept deliberately different from the implementations)
# ---------------------------------------------------------------------------

def clip_oracle_l1_linf(x, t):
    """Exact K for (l1, linf): min over clip levels at the data kinks."""
    a = np.abs(np.asarray(x, dtype=float))
    levels = np.concatenate([[0.0], a])
    return min(float(np.sum(np.clip(a - lam, 0.0, None)) + t * lam)
               for lam in levels)


def breakpoint_oracle_weighted_sup(x, t, w0, w1):
    """Exact K for (linf(w0), linf(w1)) via the 1-variable reduction.

    f(l0) = l0 + t * max_i w1_i (|x_i| - l0/w0_i)_+ is piecewise linear and
    convex, so its minimum sits at a breakpoint: a kink w0_i |x_i| or a
    crossing of two of the max's lines.
    """
    a = np.abs(np.asarray(x, dtype=float))
    w0 = np.asarray(w0, dtype=float)
    w1 = np.asarray(w1, dtype=float)
    cands = [0.0] + list(w0 * a)
    d = len(a)
    for i in range(d):
        for j in range(i + 1, d):
            den = w1[i] / w0[i] - w1[j] / w0[j]
            if den != 0.0:
                lam = (w1[i] * a[i] - w1[j] * a[j]) / den
                if lam > 0:
                    cands.append(lam)

    def f(l0):
        return l0 + t * float(np.max(w1 * np.clip(a - l0 / w0, 0.0, None),
                                     initial=0.0))

    return min(f(l0) for l0 in cands)


def enumerator_oracle_weighted_sup(X, T, w0, w1):
    """Exact K for (linf(w0), linf(w1)) by LP vertex enumeration, rowwise.

    Solves min{l0 + t*l1 : l0/w0_i + l1/w1_i >= |x_i|, l0, l1 >= 0} by
    intersecting every pair of constraint lines and checking each vertex
    against every constraint: an (m, d(d-1)/2, d) tensor, so only for
    d <= 16.  Weights may be shared (d,) or per-row (m, d); T is one t per
    row.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, d = X.shape
    assert d <= 16, "the enumerator oracle is cubic in d"
    if d == 0:
        return np.zeros(m)
    T = np.broadcast_to(np.asarray(T, dtype=float), (m,))
    r = np.abs(X)
    W0 = np.broadcast_to(np.asarray(w0, dtype=float), (m, d))
    W1 = np.broadcast_to(np.asarray(w1, dtype=float), (m, d))
    # axis vertices (l0, 0) and (0, l1)
    best = np.minimum(np.max(W0 * r, axis=1), T * np.max(W1 * r, axis=1))
    if d == 1:
        return best
    c, e = 1.0 / W0, 1.0 / W1
    i_idx, j_idx = np.triu_indices(d, k=1)
    ci, cj, ei, ej = c[:, i_idx], c[:, j_idx], e[:, i_idx], e[:, j_idx]
    ri, rj = r[:, i_idx], r[:, j_idx]
    det = ci * ej - cj * ei
    with np.errstate(divide="ignore", invalid="ignore"):
        l0 = (ri * ej - rj * ei) / det
        l1 = (ci * rj - cj * ri) / det
    tol = 1e-12 * np.maximum(np.max(r, axis=1, keepdims=True), 1e-300)
    ok = np.isfinite(l0) & np.isfinite(l1) & (l0 >= -tol) & (l1 >= -tol)
    l0f, l1f = np.where(ok, l0, 0.0), np.where(ok, l1, 0.0)
    lhs = l0f[:, :, None] * c[:, None, :] + l1f[:, :, None] * e[:, None, :]
    ok &= np.all(lhs >= r[:, None, :] - tol[:, :, None], axis=2)
    obj = np.where(ok, np.maximum(l0, 0.0) + T[:, None] * np.maximum(l1, 0.0),
                   np.inf)
    return np.minimum(best, np.min(obj, axis=1))


def grid_oracle_power_single(x, t, p, w0, w1):
    """Dense-grid infimum for one coordinate of the power functional."""
    a = np.linspace(-2 * abs(x), 2 * abs(x), 40001)
    vals = (w0 * np.abs(a)) ** p + t ** p * (w1 * np.abs(x - a)) ** p
    return float(np.min(vals)) ** (1.0 / p)


def cell_oracle_power(X, T, p, w0, w1):
    """K_p as the lp sum of the amplitudes |x_i| f_i(t), with every
    (row, t, coordinate) cell raised to the power p: the power kernel's
    formula before it split the cells into row and factor tables.  Shared
    (d,) weights; T is a (1, k) or (m, k) grid."""
    u = np.asarray(w0, dtype=float)
    v = np.asarray(T, dtype=float)[:, :, None] * np.asarray(w1, dtype=float)
    if p <= 1.0:
        f = np.minimum(u, v)
    else:
        s = p / (p - 1.0)
        f = np.exp(-np.logaddexp(-s * np.log(u), -s * np.log(v)) / s)
    return stable_lp_sum(np.abs(X)[:, None, :] * f, p)


def decimal_oracle_power(x, t, p, w0, w1):
    """K_p(x, t) at 50 significant digits, with the weight factor in its
    defining form f_i = (u^-s + v^-s)^(-1/s), u = w0_i, v = t w1_i and
    s = p/(p-1), for p > 1.  Every float converts to decimal exactly; the
    exponent range is unbounded, so u^-s neither overflows nor underflows."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        P = D(p)
        s = P / (P - 1)
        total = sum(((abs(D(xi)) * (D(a) ** -s + (D(t) * D(b)) ** -s)
                      ** (-1 / s)) ** P for xi, a, b in zip(x, w0, w1)),
                    D(0))
        return total ** (1 / P)


def prefix_oracle_l1_linf(x, t):
    """Exact K for (l1, linf) read off the sorted prefix sums one by one:
    the floor(t) largest |x_i| plus the fraction of t times the next."""
    star = sorted((abs(float(v)) for v in x), reverse=True)
    whole = math.floor(t)
    if whole >= len(star):
        return sum(star)
    return sum(star[:whole]) + (t - whole) * star[whole]


def scan_oracle_l1_lp(x, t, p, w0, w1, reverse=False, n=20001):
    """K for (l1(w0), lp(w1)), or for (lp(w0), l1(w1)) with ``reverse``, by
    scanning the clip level: the lp side is min(|x_i|, lam g_i) with
    g_i = (w_l1_i / w_lp_i^p)^{1/(p-1)}, over a log-spaced lam grid plus 0
    and every kink; an upper bound that converges to K."""
    a = np.abs(np.asarray(x, dtype=float))
    w_l1, w_lp = (w1, w0) if reverse else (w0, w1)
    g = (w_l1 / w_lp ** p) ** (1.0 / (p - 1.0))
    kinks = a / g
    top = float(np.max(kinks))
    lams = np.concatenate([[0.0], kinks,
                           np.geomspace(top * 1e-12, top, n)]) if top else [0.0]
    lp_part = np.minimum(a[None, :], np.asarray(lams)[:, None] * g[None, :])
    l1 = np.sum(w_l1 * (a - lp_part), axis=1)
    lp = np.sum((w_lp * lp_part) ** p, axis=1) ** (1.0 / p)
    return float(np.min(lp + t * l1 if reverse else l1 + t * lp))

def random_vector(rng, dim, offset=0):
    return FiniteVector(offset, rng.standard_normal(dim))


def descend(x, t, c, budget=8, seed=0):
    """K(x, t) on the couple's norms by the descent route."""
    route = descent_route(c.norm0.dense, c.norm1.dense, budget=budget,
                          seed=seed)
    return float(route.kernel(c.embed(x)[None, :], t)[0])


# ---------------------------------------------------------------------------
# the weighted quasi-norm
# ---------------------------------------------------------------------------

class TestQuasiNorm:
    def test_zero_vector(self):
        n = WeightedNorm(2.0, 0, [1.0, 1.0, 1.0])
        assert n(vec([0, 0, 0])) == 0.0

    def test_euclidean_345(self):
        assert WeightedNorm(2.0, 0, [1, 1])(vec([3, 4])) == pytest.approx(5.0)

    def test_half_exponent(self):
        # (|1|^{1/2} + |1|^{1/2})^2 = 4
        assert WeightedNorm(0.5, 0, [1, 1])(vec([1, 1])) == pytest.approx(4.0)

    def test_sup_norm(self):
        n = WeightedNorm(math.inf, 0, [1.0, 2.0])
        assert n(vec([3, -2])) == pytest.approx(4.0)

    def test_window_mismatch(self):
        n = WeightedNorm(1.0, 0, [1.0, 1.0])
        with pytest.raises(WindowError):
            n(vec([1, 2, 3]))
        with pytest.raises(WindowError):
            n(vec([1], offset=-1))

    def test_nonpositive_weight(self):
        with pytest.raises(InvariantError):
            WeightedNorm(1.0, 0, [1.0, 0.0])
        with pytest.raises(InvariantError):
            WeightedNorm(1.0, 0, [1.0, -2.0])

    def test_weighted_offset_window(self):
        n = WeightedNorm(1.0, -2, [1.0, 2.0, 3.0])
        assert n(vec([5.0], offset=-1)) == pytest.approx(10.0)

    @given(st.floats(min_value=0.25, max_value=4.0),
           st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=6))
    def test_homogeneous(self, lam, entries):
        n = WeightedNorm(1.5, 0, np.ones(len(entries)))
        x = vec(entries)
        assert n(x.scaled(lam)) == pytest.approx(lam * n(x), rel=1e-12,
                                                  abs=1e-12)


# ---------------------------------------------------------------------------
# exact strategies vs their oracles
# ---------------------------------------------------------------------------

class TestExactL1Linf:
    def test_spec_values(self):
        c, x = l1_linf_couple(3), vec([3, 1, 2])
        assert c.k(x, 1.0) == pytest.approx(clip_oracle_l1_linf([3, 1, 2], 1.0))
        assert c.k(x, 1.0) == pytest.approx(3.0)
        assert c.k(x, 2.0) == pytest.approx(5.0)

    def test_single_coordinate_small_t(self):
        assert l1_linf_couple(1).k(vec([7.0]), 0.5) == pytest.approx(3.5)

    def test_saturates_at_l1(self):
        c = l1_linf_couple(3)
        assert c.k(vec([3, 1, 2]), 4.0) == pytest.approx(6.0)
        assert c.k(vec([3, 1, 2]), 100.0) == pytest.approx(6.0)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(DomainError):
            l1_linf_couple(1).k(vec([1.0]), 0.0)

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=7),
           st.floats(min_value=0.05, max_value=20.0))
    def test_matches_clip_oracle(self, entries, t):
        got = l1_linf_couple(len(entries)).k(vec(entries), t)
        want = clip_oracle_l1_linf(entries, t)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 4, 9, 33])
    def test_shared_grid_per_row_grid_and_scalars_agree(self, d):
        # a (1, k) grid is worked once per t and gathered by column; the
        # same grid given per row, and each t alone, give the same bytes,
        # and each value is the sorted-prefix sum
        rng = np.random.default_rng(22)
        X = rng.standard_normal((6, d)) * 2.0 ** rng.uniform(-8, 8, (6, d))
        X[1] = 0.0
        X[2, ::2] = 1.5
        grid = np.concatenate([DYADIC, [0.7, 1.0, 2.5, d - 0.5, d, d + 0.25,
                                        3.0 * d]])
        shared = _l1_linf_batch(X, grid[None, :])
        per_row = _l1_linf_batch(X, np.tile(grid, (len(X), 1)))
        alone = np.stack([_l1_linf_batch(X, t) for t in grid], axis=1)
        assert shared.shape == (len(X), len(grid))
        # C order, so a reduction along a row adds as for any kernel output
        assert shared.flags["C_CONTIGUOUS"]
        assert per_row.tobytes() == shared.tobytes()
        assert alone.tobytes() == shared.tobytes()
        want = [[prefix_oracle_l1_linf(x, t) for t in grid] for x in X]
        assert np.array_equal(shared, want)


class TestWeightedSup:
    def test_spec_vertex_values(self):
        c = weighted_sup_couple([1, 1], [1, 2])
        assert c.k(vec([1, 1]), 1.0) == pytest.approx(1.0)
        assert c.k(vec([0, 1]), 0.25) == pytest.approx(0.5)

    def test_zero_vector(self):
        c = weighted_sup_couple([1, 1], [1, 1])
        assert c.k(vec([0.0, 0.0]), 3.0) == 0.0

    def test_rejects_bad_weights(self):
        with pytest.raises(InvariantError):
            weighted_sup_couple([0.0], [1.0])

    @given(st.lists(st.floats(min_value=-8, max_value=8), min_size=1, max_size=6),
           st.floats(min_value=0.1, max_value=10.0),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_matches_breakpoint_oracle(self, entries, t, wseed):
        rng = np.random.default_rng(wseed)
        d = len(entries)
        w0 = 2.0 ** rng.uniform(-2, 2, d)
        w1 = 2.0 ** rng.uniform(-2, 2, d)
        got = weighted_sup_couple(w0, w1).k(vec(entries), t)
        want = breakpoint_oracle_weighted_sup(entries, t, w0, w1)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@st.composite
def sup_cases(draw):
    """Rows and weights for (linf(w0), linf(w1)), d <= 8, with the edge
    cases mixed in: zero entries, repeated |x_i|, d = 1, weights shared or
    per row, w1 proportional to w0, and small integer weights whose slopes
    w1/w0 tie exactly."""
    d = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=3))
    # magnitudes below 1e-150 become 0: the oracles' products of weights
    # and entries underflow there
    entry = st.one_of(st.just(0.0), st.sampled_from([1.0, -1.0, 2.5]),
                      st.floats(min_value=-8, max_value=8).map(
                          lambda v: v if abs(v) >= 1e-150 else 0.0))
    X = np.asarray(draw(st.lists(entry, min_size=m * d, max_size=m * d)),
                   dtype=float).reshape(m, d)
    mode = draw(st.sampled_from(["shared", "per_row", "proportional",
                                 "integer"]))
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    shape = (d,) if mode in ("shared", "proportional") else (m, d)
    if mode == "integer":
        w0 = rng.choice([1.0, 2.0, 4.0], size=shape)
        w1 = rng.choice([1.0, 2.0, 4.0], size=shape)
    else:
        w0 = 2.0 ** rng.uniform(-3, 3, shape)
        w1 = (w0 * 2.0 ** rng.uniform(-2, 2) if mode == "proportional"
              else 2.0 ** rng.uniform(-3, 3, shape))
    return X, w0, w1


def enumerated_profile(X, w0, w1):
    return np.stack([enumerator_oracle_weighted_sup(X, t, w0, w1)
                     for t in DYADIC], axis=1)


class TestWeightedSupEnvelope:
    """The vertex-chain kernel against both independent oracles."""

    @given(sup_cases())
    def test_profile_matches_enumerator(self, case):
        X, w0, w1 = case
        want = enumerated_profile(X, w0, w1)
        got = _weighted_sup_batch(X, DYADIC[None, :], w0, w1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        per_t = np.stack([_weighted_sup_batch(X, np.full(len(X), t), w0, w1)
                          for t in DYADIC], axis=1)
        np.testing.assert_allclose(per_t, want, rtol=1e-12, atol=0)
        if w0.ndim == 1:
            c = weighted_sup_couple(w0, w1)
            np.testing.assert_allclose(c.profile_batch(X, DYADIC), want,
                                       rtol=1e-12, atol=0)
            for j in (0, 20, 40):
                np.testing.assert_allclose(c.k_batch(X, DYADIC[j]),
                                           want[:, j], rtol=1e-12, atol=0)

    @given(sup_cases())
    def test_profile_matches_breakpoint_oracle(self, case):
        X, w0, w1 = case
        W0 = np.broadcast_to(w0, X.shape)
        W1 = np.broadcast_to(w1, X.shape)
        got = _weighted_sup_batch(X, DYADIC[None, :], w0, w1)
        want = np.array([[breakpoint_oracle_weighted_sup(x, t, a, b)
                          for t in DYADIC] for x, a, b in zip(X, W0, W1)])
        # the oracle rounds |x_i| - l0/w0_i to an ulp of |x_i|, which its
        # factor t*w1_i magnifies: its own relative error grows like t*w1/w0
        ratio = np.max(W1 / W0, axis=1, keepdims=True)
        slack = 1e-12 + 4 * np.finfo(float).eps * DYADIC * ratio
        assert np.all(np.abs(got - want) <= slack * want)

    def test_zero_rows_give_zero(self):
        X = np.zeros((3, 5))
        X[1, 2] = 4.0
        got = _weighted_sup_batch(X, DYADIC[None, :], np.ones(5),
                                  np.full(5, 2.0))
        assert np.all(got[[0, 2]] == 0.0)
        np.testing.assert_allclose(got[1], np.minimum(4.0, 8.0 * DYADIC))

    def test_proportional_weights_reduce_to_one_coordinate(self):
        # w1 = 3 w0: every constraint line has the same slope, so the
        # largest w0_i |x_i| alone sets K = min(1, 3t) max_i w0_i |x_i|
        w0 = np.array([1.0, 0.5, 2.0, 0.25])
        x = np.array([1.0, -4.0, 0.5, 3.0])
        got = weighted_sup_couple(w0, 3.0 * w0).profile_batch(x, DYADIC)[0]
        np.testing.assert_allclose(got, np.minimum(1.0, 3.0 * DYADIC) * 2.0,
                                   rtol=1e-15)

    def test_empty_rows_and_window(self):
        assert _weighted_sup_batch(np.zeros((0, 3)), 1.0, np.ones(3),
                                   np.ones(3)).shape == (0,)
        got = _weighted_sup_batch(np.zeros((2, 0)), DYADIC[None, :],
                                  np.ones(0), np.ones(0))
        assert got.shape == (2, len(DYADIC)) and np.all(got == 0.0)

    def test_d1024_profile_fits_in_memory(self):
        rng = np.random.default_rng(1024)
        d = 1024
        w0, w1 = 2.0 ** rng.uniform(-2, 2, d), 2.0 ** rng.uniform(-2, 2, d)
        x = random_vector(rng, d)
        tracemalloc.start()
        try:
            prof = k_profile(x, weighted_sup_couple(w0, w1), -20, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        prof.validate(rel_tol=1e-9)
        assert peak < 100 * 2 ** 20
        bound = np.minimum(np.max(w0 * np.abs(x.entries)),
                           DYADIC * np.max(w1 * np.abs(x.entries)))
        assert np.all(prof.values <= bound * (1 + 1e-12))


def majorant_oracle(x, t, w0, w1):
    """Exact K for (linf(w0), linf(w1)) from its dual form, in rationals:
    the least concave nondecreasing majorant at t of (0, 0) and the points
    (w0_i / w1_i, w0_i |x_i|), the best of every point at or left of t and
    of every chord across t.  Quadratic in d."""
    points = [(Fraction(0), Fraction(0))] + [
        (Fraction(a) / Fraction(b), Fraction(a) * abs(Fraction(v)))
        for v, a, b in zip(x, w0, w1)]
    t = Fraction(t)
    best = Fraction(0)
    for sa, ha in points:
        if sa <= t:
            best = max(best, ha)
            for sb, hb in points:
                if sb > t:
                    best = max(best, ha + (hb - ha) * (t - sa) / (sb - sa))
    return best


def majorant_rows(rng, count):
    """Seeded (X, w0, w1) for the weighted_sup kernel, d <= 12 and m <= 4:
    repeated and zero entries, small integer weights whose knots w0/w1 tie,
    and weights shared (d,) or per row (m, d)."""
    cases = []
    for i in range(count):
        m, d = int(rng.integers(1, 5)), int(rng.integers(1, 13))
        X = rng.choice([0.0, 1.0, -1.0, 2.5, 0.5], size=(m, d))
        if i % 2:
            X *= rng.standard_normal((m, d))
        shape = (d,) if i % 3 else (m, d)
        if i % 4 < 2:
            w0 = rng.choice([1.0, 2.0, 3.0, 4.0], size=shape)
            w1 = rng.choice([1.0, 2.0, 3.0, 4.0], size=shape)
        else:
            w0 = 2.0 ** rng.uniform(-3, 3, shape)
            w1 = 2.0 ** rng.uniform(-3, 3, shape)
        cases.append((X, w0, w1))
    return cases


class TestWeightedSupMajorant:
    """K of (linf(w0), linf(w1)) is the least concave nondecreasing
    majorant of (0, 0) and the points (w0_i / w1_i, w0_i |x_i|)."""

    def test_joint_permutation_keeps_every_bit(self):
        rng = np.random.default_rng(36)
        for X, w0, w1 in majorant_rows(rng, 300):
            m, d = X.shape
            perm = rng.permuted(np.tile(np.arange(d), (m, 1)), axis=1)
            if w0.ndim == 1:
                perm[:] = perm[0]
                pw0, pw1 = w0[perm[0]], w1[perm[0]]
            else:
                pw0 = np.take_along_axis(w0, perm, axis=1)
                pw1 = np.take_along_axis(w1, perm, axis=1)
            pX = np.take_along_axis(X, perm, axis=1)
            T = 2.0 ** rng.uniform(-6, 6, m)
            for t in (DYADIC[None, :], T):
                assert np.array_equal(_weighted_sup_batch(pX, t, pw0, pw1),
                                      _weighted_sup_batch(X, t, w0, w1))

    def test_every_point_lies_under_k(self):
        rng = np.random.default_rng(37)
        for X, w0, w1 in majorant_rows(rng, 300):
            W0 = np.broadcast_to(w0, X.shape)
            knots = W0 / np.broadcast_to(w1, X.shape)
            got = _weighted_sup_batch(X, knots, w0, w1)
            assert np.all(got >= W0 * np.abs(X) * (1 - 1e-15))

    def test_far_pieces_keep_their_digits(self):
        # the majorant of these four points has a piece far to the right
        # whose line starts just above 0; read as the least of every
        # piece's line, K(x, 1) came out 0.5, half the true value
        x = np.array([float.fromhex(v) for v in (
            "0x1.0p+0", "0x1.c2beb2e77ea39p+28", "0x1.0p+53",
            "0x1.8a2d16bd5f9e3p+54")])
        w1 = np.array([float.fromhex(v) for v in (
            "0x1.0p+0", "0x1.22ca2ccf3f2f2p-30", "0x1.0p-54",
            "0x1.4c857acd4bc52p-56")])
        T = np.array([2.0 ** -30, 0.25, 1.0, 4.0, 2.0 ** 60])
        got = _weighted_sup_batch(x, T[None, :], np.ones(4), w1)[0]
        for t, value in zip(T, got):
            want = majorant_oracle(x, t, np.ones(4), w1)
            assert abs(Fraction(value) - want) <= want * Fraction(1, 2 ** 51)

    @pytest.mark.parametrize("x, w0, w1", [
        ([1.0], [1e-200], [1e200]),           # the knot underflows to 0
        ([1.0], [1e200], [1e-200]),           # the knot overflows
        ([1.0, 1.0], [1e200, 1.0], [1e-200, 1.0]),
        ([1e10, 1.0], [1e300, 1.0], [1e-10, 1.0]),
    ])
    def test_knots_outside_the_float_range(self, x, w0, w1):
        T = np.array([2.0 ** -1023, 1e-100, 1.0, 1e100, 2.0 ** 1023])
        got = _weighted_sup_batch(np.array(x), T[None, :], np.array(w0),
                                  np.array(w1))[0]
        for t, value in zip(T, got):
            want = float(majorant_oracle(x, t, w0, w1))
            assert value == pytest.approx(want, rel=1e-15, abs=0)


class TestProfileBatch:
    """One profile call per vector gives what one k_batch call per t gave."""

    @staticmethod
    def exact_couples(rng, d):
        w = lambda: 2.0 ** rng.uniform(-2, 2, d)
        return {
            "l1_linf": l1_linf_couple(d),
            "l1_linf.reversed": l1_linf_couple(d).reversed(),
            "weighted_sup": weighted_sup_couple(w(), w()),
            **{f"power.p{p}": power_couple(p, w(), w())
               for p in (0.5, 1.0, 2.0, 3.0)},
        }

    def test_matches_per_t_k_batch(self):
        rng = np.random.default_rng(21)
        for d in (1, 3, 8, 33):
            X = rng.standard_normal((5, d))
            X[1] = 0.0
            X[2, ::2] = 1.5
            for name, c in self.exact_couples(rng, d).items():
                got = c.profile_batch(X, DYADIC)
                want = np.stack([c.k_batch(X, t) for t in DYADIC], axis=1)
                if name == "weighted_sup":
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
                else:
                    assert np.array_equal(got, want), (name, d)
                if not c.is_exact():
                    continue
                derived = derived_sum_int_couple(c)
                got = derived.profile_batch(X, DYADIC)
                want = np.stack([derived.k_batch(X, t) for t in DYADIC],
                                axis=1)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_oracle_profile_is_one_descent_call_over_all_t(self):
        rng = np.random.default_rng(8)
        c = Couple(WeightedNorm(1.5, 0, 2.0 ** rng.uniform(-1, 1, 4)),
                   WeightedNorm(3.0, 0, 2.0 ** rng.uniform(-1, 1, 4)), ORACLE)
        x = vec(rng.standard_normal(4))
        grid = 2.0 ** np.arange(-3, 4).astype(float)
        got = c.profile_batch(c.embed(x), grid)[0]
        assert got.tolist() == [c.k(x, t) for t in grid]

    @pytest.mark.parametrize("p0, p1", [(0.5, 0.5), (1.0, 0.5), (2.0, 3.0)])
    def test_oracle_profile_equals_its_per_t_k(self, p0, p1):
        # a descending profile draws its random starts once per vector, as
        # a single t does, so each profile value is that t's K bit for bit
        rng = np.random.default_rng(65)
        d = 5
        c = Couple(WeightedNorm(p0, 0, 2.0 ** rng.uniform(-2, 2, d)),
                   WeightedNorm(p1, 0, 2.0 ** rng.uniform(-2, 2, d)), ORACLE)
        assert c.route.name == "descent"
        grid = 2.0 ** np.arange(-4, 5).astype(float)
        for _ in range(2):
            x = vec(rng.standard_normal(d))
            got = c.profile_batch(c.embed(x), grid)[0]
            assert got.tolist() == [c.k(x, t) for t in grid]

    def test_rejects_nonpositive_t(self):
        with pytest.raises(DomainError):
            l1_linf_couple(2).profile_batch(np.ones(2), [1.0, 0.0])


def _mirror(kernel):
    return lambda X, T, w0, w1: T * kernel(X, 1.0 / T, w1, w0)


# one case per row of the route table: (p0, p1), the route's name, whether
# it is exact, the strategy names that select it, and the kernel called
# directly; the (l1, linf) row needs unit weights
ROUTE_TABLE = {
    "l1_linf": ((1.0, math.inf), "l1_linf", True, ("exact_l1_linf",),
                lambda X, T, w0, w1: _l1_linf_batch(X, T)),
    "linf_l1": ((math.inf, 1.0), "l1_linf", True, ("exact_l1_linf",),
                _mirror(lambda X, T, w0, w1: _l1_linf_batch(X, T))),
    "weighted_sup": ((math.inf, math.inf), "weighted_sup", True,
                     ("weighted_sup_lp",), _weighted_sup_batch),
    "l1_lp": ((1.0, 2.5), "l1_lp", True, (),
              lambda X, T, w0, w1: _l1_lp_batch(X, T, 2.5, w0, w1)),
    "lp_l1": ((2.5, 1.0), "l1_lp", True, (),
              _mirror(lambda X, T, w0, w1: _l1_lp_batch(X, T, 2.5, w0, w1))),
    "power.p1": ((1.0, 1.0), "power", True, ("power_coordinatewise",),
                 lambda X, T, w0, w1: _power_batch(X, T, 1.0, w0, w1)),
    "power.p0.5": ((0.5, 0.5), "power", False, ("power_coordinatewise",),
                   lambda X, T, w0, w1: _power_batch(X, T, 0.5, w0, w1)),
    "power.p2": ((2.0, 2.0), "power", False, ("power_coordinatewise",),
                 lambda X, T, w0, w1: _power_batch(X, T, 2.0, w0, w1)),
}


class TestKRoute:
    """Every caller answers K through ``k_route``: each route gives what its
    kernel gives when called directly, bit for bit."""

    @pytest.mark.parametrize("case", sorted(ROUTE_TABLE))
    def test_callers_equal_the_direct_kernel(self, case):
        (p0, p1), name, exact, strategies, direct = ROUTE_TABLE[case]
        rng = np.random.default_rng(61)
        d = 9
        V = np.abs(rng.standard_normal((6, d))) * 2.0 ** rng.uniform(-4, 4,
                                                                      (6, d))
        V[1] = 0.0
        grid = DYADIC[None, :]
        weightings = [(np.ones(d), np.ones(d))]
        if name != "l1_linf":
            weightings.append((2.0 ** rng.uniform(-3, 3, d),
                               2.0 ** rng.uniform(-3, 3, d)))
        for w0, w1 in weightings:
            n0, n1 = WeightedNorm(p0, 0, w0), WeightedNorm(p1, 0, w1)
            route = k_route(n0, n1)
            assert (route.name, route.exact) == (name, exact)
            # K_p / K lies in [1, 2^{1/p-1}] for p < 1, [2^{-(1-1/p)}, 1]
            # for p > 1
            bands = {0.5: (1.0, 2.0), 2.0: (2.0 ** -0.5, 1.0)}
            assert route.band == ((1.0, 1.0) if exact else bands[p0])
            want = direct(V, grid, w0, w1)
            assert np.all(np.isfinite(want))
            for strategy in strategies + ((ORACLE,) if exact else ()):
                got = Couple(n0, n1, strategy).profile_batch(V, grid[0])
                assert np.array_equal(got, want), (case, strategy)
            got = sequence_couple_k(V, grid, p0, w0, p1, w1)
            assert np.array_equal(got, want), case
            if np.all(w0 == 1.0) and np.all(w1 == 1.0):
                got = k_operator_diag_batch(V, grid, p0, p1)
                assert np.array_equal(got, want), case

    @pytest.mark.parametrize("case", sorted(ROUTE_TABLE))
    def test_scalar_t_is_a_shared_grid(self, case):
        # k_batch hands a scalar t to the kernel as a (1, 1) grid and a
        # per-row T as an (m, 1) column; both give the same bytes
        (p0, p1), name, exact, strategies, direct = ROUTE_TABLE[case]
        rng = np.random.default_rng(64)
        m, d = 7, 9
        X = rng.standard_normal((m, d)) * 2.0 ** rng.uniform(-4, 4, (m, d))
        X[1] = 0.0
        w0, w1 = ((np.ones(d), np.ones(d)) if name == "l1_linf" else
                  (2.0 ** rng.uniform(-3, 3, d), 2.0 ** rng.uniform(-3, 3, d)))
        c = Couple(WeightedNorm(p0, 0, w0), WeightedNorm(p1, 0, w1),
                   (strategies or (ORACLE,))[0])
        assert c.route.name == name
        seen = []

        def kernel(X, T, route=c.route):
            seen.append(np.shape(T))
            return route.kernel(X, T)

        object.__setattr__(c, "route", c.route._replace(kernel=kernel))
        for t in (2.0 ** -7, 0.3, 1.0, 5.0, 2.0 ** 9):
            got = c.k_batch(X, t)
            want = c.k_batch(X, np.full(m, t))
            assert got.shape == (m,)
            assert got.tobytes() == want.tobytes(), (case, t)
            assert got.tobytes() == direct(X, np.full((m, 1), t), w0,
                                           w1)[:, 0].tobytes()
        assert seen == [(1, 1), (m, 1)] * 5
        if exact:
            derived = derived_sum_int_couple(c)
            for t in (0.3, 1.0, 5.0):
                got = derived.k_batch(X, t)
                want = derived.k_batch(X, np.full(m, t))
                assert got.tobytes() == want.tobytes(), (case, t)

    @pytest.mark.parametrize("p0, p1, weighted", [
        (1.0, math.inf, True), (math.inf, 1.0, True), (1.0, 0.5, False),
        (0.5, 1.0, False), (2.0, 3.0, False), (math.inf, 2.0, False),
        (0.5, math.inf, False)])
    def test_pairs_without_route_descend(self, p0, p1, weighted):
        rng = np.random.default_rng(62)
        w0, w1 = ((2.0 ** rng.uniform(-2, 2, 3), 2.0 ** rng.uniform(-2, 2, 3))
                  if weighted else (np.ones(3), np.ones(3)))
        n0, n1 = WeightedNorm(p0, 0, w0), WeightedNorm(p1, 0, w1)
        assert k_route(n0, n1) is None
        c = Couple(n0, n1, ORACLE)
        assert (c.route.name, c.route.band) == ("descent", (1.0, 1.0))
        assert not c.is_exact()
        V = np.abs(rng.standard_normal((2, 3)))
        grid = DYADIC[None, 15:26]
        got = c.route.kernel(V, grid)
        want = decomposition_infimum(V, grid, n0.dense, n1.dense, budget=8,
                                     seed=0)
        assert np.array_equal(got, want)
        assert np.array_equal(c.profile_batch(V, grid[0]), want)
        got = sequence_couple_k(V, 0.5, p0, w0, p1, w1, budget=2, seed=4)
        want = decomposition_infimum(V, 0.5, n0.dense, n1.dense, budget=2,
                                     seed=4)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("p", [1.25, 2.0, 3.0])
    def test_oracle_couple_over_l1_lp_is_closed_form(self, p):
        rng = np.random.default_rng(63)
        for trial in range(6):
            d = int(rng.integers(1, 9))
            w0 = 2.0 ** rng.uniform(-2, 2, d)
            w1 = 2.0 ** rng.uniform(-2, 2, d)
            c = Couple(WeightedNorm(1.0, 0, w0), WeightedNorm(p, 0, w1),
                       ORACLE)
            assert c.is_exact()
            X = rng.standard_normal((3, d))
            got = c.profile_batch(X, DYADIC)
            assert np.array_equal(got, _l1_lp_batch(X, DYADIC[None, :], p,
                                                    w0, w1))
            x = FiniteVector(0, X[0])
            for t in (2.0 ** -3, 0.7, 1.0, 5.0):
                descent = descend(x, t, c, budget=4, seed=trial)
                assert c.k(x, t) <= descent * (1 + 1e-12)


# t <= 0 and NaN, then t outside [2^-1023, 2^1023]: inf, a subnormal whose
# 1/t is inf, and the first float past each end
BAD_T = [0.0, -1.0, math.nan, math.inf, 1e-310,
         float(np.nextafter(2.0 ** -1023, 0.0)),
         float(np.nextafter(2.0 ** 1023, math.inf))]
T_ENDS = [2.0 ** -1023, 2.0 ** 1023]

# pairs that no route answers: sequence_couple_k descends on them
DESCENT_PAIRS = [(1.0, 0.5), (2.0, 3.0), (math.inf, 2.0)]


def refuses_t(call):
    """``call()`` raises the one t refusal, before any RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="t must be positive"):
            call()


def t_forms(bad):
    """A bad t as a scalar, inside a per-row vector of two rows, and inside
    a (1, k) grid."""
    return [bad, np.array([1.0, bad]), np.array([[0.5, bad, 2.0]])]


class TestTRule:
    """Every K entry point refuses a t outside [2^-1023, 2^1023], NaN
    included, with DomainError, whatever the route, as a scalar or anywhere
    in a vector or grid of t."""

    @pytest.mark.parametrize("case", sorted(ROUTE_TABLE) + ["descent"])
    def test_both_orders_refuse_outside_and_answer_at_the_ends(self, case):
        (p0, p1), name, _, strategies, _ = ROUTE_TABLE.get(
            case, ((1.0, 0.5), None, None, (), None))
        rng = np.random.default_rng(65)
        w0, w1 = ((np.ones(3), np.ones(3)) if name == "l1_linf" else
                  (2.0 ** rng.uniform(-3, 3, 3), 2.0 ** rng.uniform(-3, 3, 3)))
        c = Couple(WeightedNorm(p0, 0, w0), WeightedNorm(p1, 0, w1),
                   (strategies or (ORACLE,))[0])
        X = rng.standard_normal((2, 3))
        for couple in (c, c.reversed()):
            for bad in BAD_T[3:]:
                refuses_t(lambda: couple.k_batch(X, bad))
                refuses_t(lambda: couple.profile_batch(X, [1.0, bad]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ends = np.stack([couple.k_batch(X, t) for t in T_ENDS],
                                axis=1)
                grid = couple.profile_batch(X, T_ENDS)
            assert np.all(np.isfinite(ends)) and np.all(ends > 0), case
            assert np.all(grid <= ends), case

    @pytest.mark.parametrize("bad", BAD_T)
    @pytest.mark.parametrize("case", sorted(ROUTE_TABLE) + ["descent"])
    def test_couple_entry_points(self, case, bad):
        (p0, p1), _, _, strategies, _ = ROUTE_TABLE.get(
            case, ((1.0, 0.5), None, None, (), None))
        c = Couple(WeightedNorm(p0, 0, np.ones(3)),
                   WeightedNorm(p1, 0, np.ones(3)),
                   (strategies or (ORACLE,))[0])
        X = np.ones((2, 3))
        refuses_t(lambda: c.k_batch(X, bad))
        refuses_t(lambda: c.k_batch(X, [1.0, bad]))
        refuses_t(lambda: c.profile_batch(X, [0.5, bad, 2.0]))
        refuses_t(lambda: k_sphere_sup(c, bad))

    @pytest.mark.parametrize("bad", BAD_T)
    @pytest.mark.parametrize("family", ["l1_linf", "l1_geometric"])
    def test_derived_couple(self, family, bad):
        from interpk.verify import couple_family
        derived = derived_sum_int_couple(couple_family(family, 3))
        X = np.ones((2, 3))
        refuses_t(lambda: derived.k_batch(X, bad))
        refuses_t(lambda: derived.k_batch(X, [1.0, bad]))
        refuses_t(lambda: derived.profile_batch(X, [0.5, bad, 2.0]))
        for T in t_forms(bad):
            refuses_t(lambda: derived.k_oracle_batch(X, T))

    @pytest.mark.parametrize("bad", BAD_T)
    @pytest.mark.parametrize("pair", [ROUTE_TABLE[case][0]
                                      for case in sorted(ROUTE_TABLE)]
                             + DESCENT_PAIRS)
    def test_sequence_couple_k_and_diagonal_operators(self, pair, bad):
        from interpk.snum import k_operator_diag
        p0, p1 = pair
        # unit weights keep the (l1, linf) rows on their route
        w1 = np.ones(3) if {p0, p1} == {1.0, math.inf} else np.full(3, 2.0)
        n0, n1 = WeightedNorm(p0, 0, np.ones(3)), WeightedNorm(p1, 0, w1)
        assert (k_route(n0, n1) is None) == (pair in DESCENT_PAIRS)
        V = np.ones((2, 3))
        for T in t_forms(bad):
            refuses_t(lambda: sequence_couple_k(V, T, p0, np.ones(3), p1,
                                                w1))
            refuses_t(lambda: k_operator_diag_batch(V, T, p0, p1))
        refuses_t(lambda: k_operator_diag([1.0, 0.5], bad, p0, p1))
        refuses_t(lambda: k_operator_diag([], bad, p0, p1))


# every route-table row through the kernel ``k_route`` builds, so the
# mirrored rows go through ``_mirrored``; the descent through
# ``descent_route`` on a pair without a route, and the engine itself
CONTRACT_CASES = sorted(ROUTE_TABLE) + ["descent_route", "descent_engine"]


def contract_kernel(case):
    """The K kernel of a ``CONTRACT_CASES`` case on three coordinates."""
    if case == "descent_engine":
        norm = lambda A: np.sum(np.abs(A), axis=1)
        return lambda X, T: decomposition_infimum(X, T, norm, norm, budget=2)
    p0, p1 = ROUTE_TABLE[case][0] if case in ROUTE_TABLE else (2.0, 3.0)
    n0, n1 = WeightedNorm(p0, 0, np.ones(3)), WeightedNorm(p1, 0, np.ones(3))
    route = k_route(n0, n1) or descent_route(n0.dense, n1.dense, budget=2,
                                             seed=0)
    return route.kernel


class TestCallContract:
    """The one call contract of every K kernel (``_descent.k_kernel``)."""

    @pytest.mark.parametrize("case", CONTRACT_CASES)
    def test_empty_window_gives_zeros_of_the_t_shape(self, case):
        kernel = contract_kernel(case)
        m, k = 3, len(DYADIC)
        X = np.zeros((m, 0))
        for T, shape in ((0.5, (m,)), (np.full(m, 0.5), (m,)),
                         (DYADIC[None, :], (m, k)),
                         (np.tile(DYADIC, (m, 1)), (m, k))):
            got = kernel(X, T)
            assert got.shape == shape and np.all(got == 0.0), (case, shape)

    @pytest.mark.parametrize("case", CONTRACT_CASES)
    def test_empty_grid_gives_no_columns(self, case):
        kernel = contract_kernel(case)
        X = np.array([[1.5, -0.25, 3.0], [0.0, 2.0, -1.0]])
        for T in (np.zeros((1, 0)), np.zeros((2, 0))):
            assert kernel(X, T).shape == (2, 0), case

    @pytest.mark.parametrize("bad", [0.0, math.nan])
    @pytest.mark.parametrize("case", CONTRACT_CASES)
    def test_empty_window_still_refuses_a_bad_t(self, case, bad):
        kernel = contract_kernel(case)
        for T in t_forms(bad):
            refuses_t(lambda: kernel(np.zeros((2, 0)), T))

    @pytest.mark.parametrize("case", CONTRACT_CASES)
    def test_one_row_is_its_one_row_matrix(self, case):
        kernel = contract_kernel(case)
        for row in (np.zeros(0), np.array([1.5, -0.25, 3.0])):
            for T in (0.5, DYADIC[None, 15:26]):
                got, want = kernel(row, T), kernel(row[None, :], T)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (case, len(row))


class TestTRowCount:
    """A T of neither 1 nor m rows is refused with InvariantError naming
    both counts, by the kernels (``k_kernel``) and by ``k_batch``, where
    numpy's broadcasting error used to escape."""

    @pytest.mark.parametrize("case", CONTRACT_CASES)
    def test_kernels(self, case):
        kernel = contract_kernel(case)
        for d in (0, 3):
            X = np.ones((2, d))
            for T in ([1.0, 2.0, 4.0], np.ones((3, 2))):
                with pytest.raises(InvariantError,
                                   match="3 rows of t for 2 rows of X"):
                    kernel(X, T)
            assert kernel(X, [2.0]).shape == (2,)
            assert kernel(X, np.ones((1, 4))).shape == (2, 4)

    @pytest.mark.parametrize("case", sorted(ROUTE_TABLE) + ["descent"])
    def test_k_batch(self, case):
        (p0, p1), _, _, strategies, _ = ROUTE_TABLE.get(
            case, ((1.0, 0.5), None, None, (), None))
        c = Couple(WeightedNorm(p0, 0, np.ones(3)),
                   WeightedNorm(p1, 0, np.ones(3)),
                   (strategies or (ORACLE,))[0])
        X = np.ones((2, 3))
        with pytest.raises(InvariantError, match="3 rows of t for 2 rows"):
            c.k_batch(X, [1.0, 2.0, 3.0])
        with pytest.raises(InvariantError,
                           match=r"t of shape \(2, 2\) for 2 rows"):
            c.k_batch(X, np.ones((2, 2)))
        assert c.k_batch(X, [2.0]).tobytes() == c.k_batch(X, 2.0).tobytes()

    @pytest.mark.parametrize("family", ["l1_linf", "l1_geometric"])
    def test_derived_k_batch(self, family):
        from interpk.verify import couple_family
        derived = derived_sum_int_couple(couple_family(family, 3))
        X = np.ones((2, 3))
        with pytest.raises(InvariantError, match="3 rows of t for 2 rows"):
            derived.k_batch(X, [1.0, 2.0, 3.0])
        with pytest.raises(InvariantError,
                           match=r"t of shape \(2, 2\) for 2 rows"):
            derived.k_batch(X, np.ones((2, 2)))

    def test_sequence_couple_k(self):
        for p0, p1 in [ROUTE_TABLE[case][0] for case in sorted(ROUTE_TABLE)]:
            with pytest.raises(InvariantError, match="3 rows of t for 2"):
                sequence_couple_k(np.ones((2, 3)), [1.0, 2.0, 3.0], p0,
                                  np.ones(3), p1, np.ones(3))


class TestEmptySequences:
    """``sequence_couple_k`` and ``k_operator_diag_batch`` on rows of no
    entries follow the kernels' d = 0 rule: zeros of the t shape, with a
    bad t refused first (they raised "weights must be a nonempty 1-d
    array" before)."""

    PAIRS = [ROUTE_TABLE[case][0] for case in sorted(ROUTE_TABLE)
             ] + DESCENT_PAIRS

    @pytest.mark.parametrize("p0, p1", PAIRS)
    def test_zeros_of_the_t_shape(self, p0, p1):
        m, k = 2, len(DYADIC)
        X = np.zeros((m, 0))
        for T, shape in ((0.5, (m,)), (np.full(m, 0.5), (m,)),
                         (DYADIC[None, :], (m, k)),
                         (np.tile(DYADIC, (m, 1)), (m, k))):
            for got in (k_operator_diag_batch(X, T, p0, p1),
                        sequence_couple_k(X, T, p0, [], p1, [])):
                assert got.shape == shape and np.all(got == 0.0)
        assert k_operator_diag([], 0.5, p0, p1) == 0.0

    @pytest.mark.parametrize("bad", BAD_T)
    @pytest.mark.parametrize("p0, p1", PAIRS)
    def test_bad_t_is_refused_first(self, p0, p1, bad):
        X = np.zeros((2, 0))
        for T in t_forms(bad):
            refuses_t(lambda: k_operator_diag_batch(X, T, p0, p1))
            refuses_t(lambda: sequence_couple_k(X, T, p0, [], p1, []))

    def test_weights_still_span_the_rows(self):
        from interpk.errors import WindowError
        with pytest.raises(WindowError):
            sequence_couple_k(np.zeros((2, 0)), 0.5, 1.0, [1.0], 2.0, [1.0])


class TestDescentSizeGuard:
    """``descent_route`` refuses rows wider than ``ORACLE_MAX_DIM`` before
    the engine runs, whichever K entry point descends."""

    @staticmethod
    def entry_points(p0, p1, d):
        ones = np.ones(d)
        c = Couple(WeightedNorm(p0, 0, ones), WeightedNorm(p1, 0, 2.0 * ones),
                   ORACLE)
        assert c.route.name == "descent"
        ks = np.arange(d) - d // 2
        geometric = derived_sum_int_couple(
            power_couple(1.0, 2.0 ** ks, 2.0 ** -ks))
        X = np.ones((1, d))
        return [
            lambda: c.k_batch(X, 0.5),
            lambda: c.profile_batch(X, [0.5, 2.0]),
            lambda: sequence_couple_k(X, 0.5, p0, ones, p1, 2.0 * ones,
                                      budget=0),
            lambda: k_operator_diag_batch(X, 0.5, p0, p1, budget=0),
            lambda: k_operator_diag(ones, 0.5, p0, p1, budget=0),
            lambda: geometric.k_oracle_batch(X, 0.5, budget=0),
        ]

    @pytest.mark.parametrize("p0, p1", [(2.0, 3.0), (1.0, 0.5)])
    def test_every_entry_point_reaches_the_guard(self, p0, p1, monkeypatch):
        engine = couples.decomposition_infimum

        def refused(*args, **kwargs):
            raise AssertionError("the engine ran past the size guard")

        monkeypatch.setattr(couples, "decomposition_infimum", refused)
        for call in self.entry_points(p0, p1, couples.ORACLE_MAX_DIM + 1):
            with pytest.raises(SizeError,
                               match="oracle limited to dimension 16"):
                call()
        widths = []

        def recorded(X, *args, **kwargs):
            widths.append(np.shape(X)[-1])
            return engine(X, *args, **kwargs)

        monkeypatch.setattr(couples, "decomposition_infimum", recorded)
        for call in self.entry_points(p0, p1, couples.ORACLE_MAX_DIM):
            assert np.all(np.isfinite(call()))
        assert widths == [couples.ORACLE_MAX_DIM] * 6

    def test_cells_above_the_cap_refused(self, monkeypatch):
        # S * m * k * d cells: 3 + budget starts, m rows, k values of t per
        # row and d coordinates; the cap is checked before the engine runs
        cap = couples.DESCENT_MAX_CELLS
        n = WeightedNorm(0.5, 0, np.ones(4))
        route = descent_route(n.dense, n.dense, budget=5, seed=0)
        sizes = []
        monkeypatch.setattr(couples, "decomposition_infimum",
                            lambda X, T, *args, **kw: sizes.append(
                                (np.shape(X), np.shape(T))))
        pairs = cap // (8 * 4)                  # (row, t) pairs that fit
        for X, T in ((np.ones((pairs, 4)), 0.5),
                     (np.ones((1, 4)), np.ones((1, pairs))),
                     (np.ones(4), np.ones((1, pairs))),
                     (np.ones((2, 4)), np.ones((2, pairs // 2)))):
            route.kernel(X, T)
        assert len(sizes) == 4
        for X, T in ((np.ones((pairs + 1, 4)), 0.5),
                     (np.ones((1, 4)), np.ones((1, pairs + 1))),
                     (np.ones(4), np.ones((1, pairs + 1))),
                     (np.ones((2, 4)), np.ones((2, pairs // 2 + 1)))):
            with pytest.raises(SizeError, match=f"exceeds the cap {cap}"):
                route.kernel(X, T)
        # a negative budget runs the three canonical starts only
        route = descent_route(n.dense, n.dense, budget=-2, seed=0)
        route.kernel(np.ones((cap // 12, 4)), 0.5)
        with pytest.raises(SizeError, match=f"{3 * (cap // 12 + 1) * 4} "):
            route.kernel(np.ones((cap // 12 + 1, 4)), 0.5)
        # an oracle couple descends at budget 8: 11 starts
        c = Couple(WeightedNorm(0.5, 0, np.ones(16)),
                   WeightedNorm(0.9, 0, np.ones(16)), ORACLE)
        grid = 2.0 ** np.linspace(-8, 8, cap // (11 * 16) + 1)
        with pytest.raises(SizeError, match="exceeds the cap"):
            c.profile_batch(np.ones((1, 16)), grid)
        assert len(sizes) == 5

    def test_envelope_above_the_cap_refused(self, monkeypatch):
        # a grid's lower envelope reads each t of a row from all k of the
        # row's lines, m * k^2 reads, checked before the engine runs (one
        # row at d = 1 on 2^14 values of t took 0.4 to 0.5 s)
        cap = couples.DESCENT_MAX_ENVELOPE
        k = math.isqrt(cap)
        n0, n1 = WeightedNorm(1.0, 0, [1.0]), WeightedNorm("inf", 0, [2.0])
        route = descent_route(n0.dense, n1.dense, budget=0, seed=0)

        def grid(k):
            return 2.0 ** np.linspace(-8, 8, k)[None, :]

        def refused(*args, **kwargs):
            raise AssertionError("the engine ran past the size guard")

        monkeypatch.setattr(couples, "decomposition_infimum", refused)
        for X, T in ((np.ones((1, 1)), grid(k + 1)),
                     (np.ones(1), grid(k + 1)),
                     (np.ones((4, 1)), grid(k // 2 + 1)),
                     (np.ones((4, 1)), np.ones((4, k // 2 + 1)))):
            m = len(np.atleast_2d(X))
            with pytest.raises(SizeError, match=f"descent envelope of "
                               f"{m * T.shape[1] ** 2} .* exceeds the cap "
                               f"{cap}"):
                route.kernel(X, T)
        # the cap itself, and CI's widest oracle profile (2,046 values of t
        # at d = 8, budget 8), reach the engine
        shapes = []
        monkeypatch.setattr(couples, "decomposition_infimum",
                            lambda X, T, *args, **kw: shapes.append(T.shape))
        route.kernel(np.ones((1, 1)), grid(k))
        route.kernel(np.ones((4, 1)), grid(k // 2))
        n = WeightedNorm(0.5, 0, np.ones(8))
        descent_route(n.dense, n.dense, budget=8, seed=0).kernel(
            np.ones((1, 8)), grid(2046))
        assert shapes == [(1, k), (1, k // 2), (1, 2046)]

    def test_a_descent_just_under_the_cap_keeps_its_memory(self):
        # d = 1 costs the most bytes per cell: the line searches' per-row
        # vectors outweigh the rows.  A child process reports its peak RSS
        # (kB) before and after one descent of just under the cap, which
        # must stay within the 300 bytes per cell the cap was set from
        script = (
            "import resource\n"
            "import numpy as np\n"
            "from interpk.couples import (DESCENT_MAX_CELLS, WeightedNorm,\n"
            "                             descent_route)\n"
            "n0 = WeightedNorm(1.0, 0, [1.0])\n"
            "n1 = WeightedNorm('inf', 0, [2.0])\n"
            "X = np.random.default_rng(0).standard_normal(\n"
            "    (DESCENT_MAX_CELLS // 3, 1))\n"
            "route = descent_route(n0.dense, n1.dense, budget=0, seed=0)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "K = route.kernel(X, 0.5)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(before, after, K.shape[0])\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        before, after, rows = map(int, proc.stdout.split())
        cap, cells = couples.DESCENT_MAX_CELLS, 3 * rows
        assert cap - 3 < cells <= cap
        assert (after - before) * 1024 <= 300 * cells, (after - before) / 1024


class TestRowWidth:
    """K refuses rows that do not span the window with WindowError, on
    every route, where it used to answer over the wrong entries or fail
    inside numpy."""

    @pytest.mark.parametrize("width", [2, 5])
    @pytest.mark.parametrize("case", sorted(ROUTE_TABLE) + ["descent"])
    def test_couple_rows(self, case, width):
        (p0, p1), _, _, strategies, _ = ROUTE_TABLE.get(
            case, ((1.0, 0.5), None, None, (), None))
        c = Couple(WeightedNorm(p0, 0, np.ones(3)),
                   WeightedNorm(p1, 0, np.ones(3)),
                   (strategies or (ORACLE,))[0])
        X = np.ones((2, width))
        for call in (lambda: c.k_batch(X, 4.0),
                     lambda: c.profile_batch(X, [0.5, 4.0]),
                     lambda: c.k_batch(X[0], 4.0)):
            with pytest.raises(WindowError, match=f"rows of {width} entries"):
                call()

    @pytest.mark.parametrize("family", ["l1_linf", "l1_geometric"])
    def test_derived_couple_rows(self, family):
        from interpk.verify import couple_family
        derived = derived_sum_int_couple(couple_family(family, 3))
        X = np.ones((1, 5))
        for call in (lambda: derived.k_batch(X, 0.25),
                     lambda: derived.profile_batch(X, [0.25, 1.0]),
                     lambda: derived.k_oracle_batch(X, 0.25)):
            with pytest.raises(WindowError):
                call()

    @pytest.mark.parametrize("widths", [(3, 4, 4), (4, 3, 4), (4, 4, 3)])
    @pytest.mark.parametrize("pair", [ROUTE_TABLE[case][0]
                                      for case in sorted(ROUTE_TABLE)]
                             + DESCENT_PAIRS)
    def test_sequence_rows(self, pair, widths):
        n, n0, n1 = widths
        with pytest.raises(WindowError, match="sequences of length"):
            sequence_couple_k(np.ones((2, n)), 4.0, pair[0], np.ones(n0),
                              pair[1], np.ones(n1))


class TestL1LpKernel:
    """The closed form for (l1(w0), lp(w1)), 1 < p < inf."""

    def test_matches_lambda_scan(self):
        rng = np.random.default_rng(40)
        for p in (1.25, 1.5, 2.0, 3.0, 8.0):
            for _ in range(8):
                d = int(rng.integers(1, 13))
                w0 = 2.0 ** rng.uniform(-2, 2, d)
                w1 = 2.0 ** rng.uniform(-2, 2, d)
                x = rng.standard_normal(d)
                t = float(2.0 ** rng.uniform(-4, 4))
                got = _l1_lp_batch(x[None, :], t, p, w0, w1)[0]
                want = scan_oracle_l1_lp(x, t, p, w0, w1)
                assert got <= want * (1 + 1e-12)
                assert got == pytest.approx(want, rel=1e-6), (p, d, t)

    @pytest.mark.parametrize("p", [1.01, 1.25, 1.5, 2.0, 3.0, 8.0])
    def test_never_above_descent(self, p):
        rng = np.random.default_rng(int(100 * p))
        grid = 2.0 ** np.arange(-6, 7, 2).astype(float)[None, :]
        for d in (1, 2, 3, 5, 8):
            w0 = 2.0 ** rng.uniform(-6, 6, d)
            w1 = 2.0 ** rng.uniform(-6, 6, d)
            X = rng.standard_normal((6, d))
            n0, n1 = WeightedNorm(1.0, 0, w0), WeightedNorm(p, 0, w1)
            got = _l1_lp_batch(X, grid, p, w0, w1)
            ref = decomposition_infimum(X, grid, n0.dense, n1.dense,
                                        budget=16, seed=d)
            assert np.all(got <= ref * (1 + 1e-12)), (p, d)
            assert np.all(got >= 0.0)

    def test_grid_equals_per_t(self):
        rng = np.random.default_rng(41)
        X = rng.standard_normal((5, 7))
        X[1] = 0.0
        X[2, ::3] = 0.0
        for p, W in ((2.0, 2.0 ** rng.uniform(-3, 3, 7)),
                     (1.01, 2.0 ** rng.uniform(-3, 3, (5, 7)))):
            got = _l1_lp_batch(X, DYADIC[None, :], p, W, 1.0 / W)
            want = np.stack([_l1_lp_batch(X, t, p, W, 1.0 / W)
                             for t in DYADIC], axis=1)
            assert np.array_equal(got, want), p
            T = np.broadcast_to(DYADIC, (5, len(DYADIC)))
            assert np.array_equal(_l1_lp_batch(X, T, p, W, 1.0 / W), want)

    def test_reversed_orientation(self):
        # K(x, t; lp(w0), l1(w1)) = t K(x, 1/t; l1(w1), lp(w0)), checked
        # against descent on the (lp, l1) norms themselves
        rng = np.random.default_rng(42)
        w0 = 2.0 ** rng.uniform(-3, 3, 6)
        w1 = 2.0 ** rng.uniform(-3, 3, 6)
        V = np.abs(rng.standard_normal((8, 6)))
        grid = 2.0 ** np.arange(-5, 6).astype(float)[None, :]
        got = sequence_couple_k(V, grid, 2.5, w0, 1.0, w1)
        assert np.array_equal(
            got, grid * sequence_couple_k(V, 1.0 / grid, 1.0, w1, 2.5, w0))
        n0, n1 = WeightedNorm(2.5, 0, w0), WeightedNorm(1.0, 0, w1)
        ref = decomposition_infimum(V, grid, n0.dense, n1.dense, budget=16,
                                    seed=1)
        assert np.all(got <= ref * (1 + 1e-12))
        for i, v in enumerate(V):
            for j, t in enumerate(grid[0]):
                want = scan_oracle_l1_lp(v, t, 2.5, w0, w1, reverse=True)
                assert got[i, j] <= want * (1 + 1e-12)
                assert got[i, j] == pytest.approx(want, rel=1e-6)

    def test_zero_entries_and_rows(self):
        rng = np.random.default_rng(43)
        w0 = 2.0 ** rng.uniform(-2, 2, 6)
        w1 = 2.0 ** rng.uniform(-2, 2, 6)
        x = rng.standard_normal(6)
        x[[1, 4]] = 0.0
        keep = x != 0.0
        for p in (1.5, 3.0):
            got = _l1_lp_batch(np.stack([x, np.zeros(6)]), DYADIC[None, :],
                               p, w0, w1)
            want = _l1_lp_batch(x[keep][None, :], DYADIC[None, :], p,
                                w0[keep], w1[keep])
            np.testing.assert_allclose(got[0], want[0], rtol=1e-15, atol=0)
            assert np.array_equal(got[1], np.zeros(len(DYADIC)))
        assert _l1_lp_batch(np.zeros((3, 0)), 1.0, 2.0, [], []).shape == (3,)

    def test_one_coordinate(self):
        # both norms are multiples of |x|: K = min(w0, t w1) |x|
        for p in (1.01, 2.0, 8.0):
            for t in DYADIC:
                got = _l1_lp_batch(np.array([[-3.0]]), t, p, [0.5], [2.0])[0]
                assert got == pytest.approx(3.0 * min(0.5, 2.0 * t),
                                            rel=1e-15)

    def test_homogeneity(self):
        rng = np.random.default_rng(44)
        X = rng.standard_normal((4, 9))
        w0 = 2.0 ** rng.uniform(-3, 3, 9)
        w1 = 2.0 ** rng.uniform(-3, 3, 9)
        K = _l1_lp_batch(X, DYADIC[None, :], 2.0, w0, w1)
        # the row scale is a power of two, so powers of two scale exactly
        assert np.array_equal(
            _l1_lp_batch(-2.0 ** 40 * X, DYADIC[None, :], 2.0, w0, w1),
            2.0 ** 40 * K)
        np.testing.assert_allclose(
            _l1_lp_batch(3.7 * X, DYADIC[None, :], 2.0, w0, w1), 3.7 * K,
            rtol=1e-14)

    @pytest.mark.parametrize("p", [1.001, 1.01])
    def test_extreme_t_near_one(self, p):
        # t^{p'} overflows (p' = 1001 or 101): the result stays finite and
        # reaches both trivial decompositions at the ends of the grid
        rng = np.random.default_rng(45)
        X = rng.standard_normal((4, 7))
        w0 = 2.0 ** rng.uniform(-1, 1, 7)
        w1 = 2.0 ** rng.uniform(-1, 1, 7)
        got = _l1_lp_batch(X, DYADIC[None, :], p, w0, w1)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got[:, -1], np.sum(w0 * np.abs(X), axis=1),
                                   rtol=1e-14)
        lp = np.sum((w1 * np.abs(X)) ** p, axis=1) ** (1.0 / p)
        np.testing.assert_allclose(got[:, 0], DYADIC[0] * lp, rtol=1e-14)
        assert np.all(np.diff(got, axis=1) >= 0.0)


class TestPowerCoordinatewise:
    def test_p1_is_exact_min(self):
        got = power_couple(1.0, [1, 1], [1, 1]).k(vec([1, 1]), 0.5)
        assert got == pytest.approx(1.0)

    def test_endpoint_optimum_small_p(self):
        got = power_couple(0.5, [1], [1]).k(vec([4.0]), 4.0)
        assert got == pytest.approx(4.0)

    def test_p2_closed_form(self):
        c = power_couple(2.0, [1], [1])
        assert c.k(vec([1.0]), 1.0) == pytest.approx(1.0 / math.sqrt(2.0))
        # K_2 = |x| t / sqrt(1 + t^2)
        for t in (0.3, 1.7, 5.0):
            got = c.k(vec([2.0]), t)
            assert got == pytest.approx(2.0 * t / math.sqrt(1 + t * t), rel=1e-12)

    def test_rejects_inf_p(self):
        with pytest.raises(DomainError):
            power_couple(math.inf, [1], [1])
        with pytest.raises(DomainError):
            power_couple(-1.0, [1], [1])

    def test_no_overflow_at_large_exponent_and_scale(self):
        # |x|^p would overflow naively for p = 64 at this magnitude
        c = power_couple(64.0, [1.0, 1.0], [1.0, 1.0])
        x = vec([2.7e9, 1.3e9])
        got = c.k(x, 0.5)
        assert np.isfinite(got)
        assert got <= c.norm0(x) * (1 + 1e-9)
        tiny = vec([1.1e-9, 0.7e-9])
        got = c.k(tiny, 2.0)
        assert np.isfinite(got) and got > 0

    @given(st.floats(min_value=-6, max_value=6).filter(lambda v: abs(v) > 1e-3),
           st.floats(min_value=0.1, max_value=8.0),
           st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_single_coordinate_vs_grid(self, x, t, p, wseed):
        rng = np.random.default_rng(wseed)
        w0, w1 = 2.0 ** rng.uniform(-1.5, 1.5, 2)
        got = power_couple(p, [w0], [w1]).k(vec([x]), t)
        want = grid_oracle_power_single(x, t, p, w0, w1)
        assert got == pytest.approx(want, rel=2e-4)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("T", ["scalar", "per_row", "row_grid", "grid"])
    def test_shared_factor_is_bit_identical(self, p, T):
        # shared weights and t: the weight factor is computed for one row;
        # weights tiled to (m, d) take the per-row path
        rng = np.random.default_rng(37)
        m, d = 7, 9
        X = rng.standard_normal((m, d)) * 2.0 ** rng.uniform(-8, 8, (m, d))
        w0 = 2.0 ** rng.uniform(-4, 4, d)
        w1 = 2.0 ** rng.uniform(-4, 4, d)
        T = {"scalar": 0.3, "per_row": 2.0 ** rng.uniform(-6, 6, m),
             "row_grid": 2.0 ** rng.uniform(-6, 6, (m, 5)),
             "grid": DYADIC[None, :]}[T]
        got = _power_batch(X, T, p, w0, w1)
        want = _power_batch(X, T, p, np.tile(w0, (m, 1)), np.tile(w1, (m, 1)))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("m, d", [(4, 8), (1, 1024), (160, 41), (20, 1000)])
    def test_grid_blocks_are_bit_identical(self, p, m, d):
        # m*k*d below 2^14 (one block), above it (blocks of 16 and 2 t
        # values), and m*d alone above it (one t per block)
        rng = np.random.default_rng(38)
        X = rng.standard_normal((m, d)) * 2.0 ** rng.uniform(-8, 8, (m, d))
        w0 = 2.0 ** rng.uniform(-4, 4, d)
        w1 = 2.0 ** rng.uniform(-4, 4, d)
        got = _power_batch(X, DYADIC[None, :], p, w0, w1)
        want = np.stack([_power_batch(X, t, p, w0, w1) for t in DYADIC],
                        axis=1)
        assert got.tobytes() == want.tobytes()
        T = 2.0 ** rng.uniform(-6, 6, (m, 5))
        got = _power_batch(X, T, p, w0, w1)
        want = np.stack([_power_batch(X, T[:, j], p, w0, w1)
                         for j in range(5)], axis=1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("weights", ["shared", "per_row"])
    @pytest.mark.parametrize("T", ["grid", "row_grid", "per_row"])
    def test_factor_paths_are_bit_identical(self, p, weights, T,
                                            monkeypatch):
        # at its value the grid's weight factor fits one block and is built
        # once; at 1 every block is one column, and at k*d - 1 the factor
        # no longer fits and is built per block of several columns
        rng = np.random.default_rng(40)
        m, d = 6, 9
        X = rng.standard_normal((m, d)) * 2.0 ** rng.uniform(-8, 8, (m, d))
        w0 = 2.0 ** rng.uniform(-4, 4, d if weights == "shared" else (m, d))
        w1 = 2.0 ** rng.uniform(-4, 4, d if weights == "shared" else (m, d))
        T = {"grid": DYADIC[None, :],
             "row_grid": 2.0 ** rng.uniform(-6, 6, (m, len(DYADIC))),
             "per_row": 2.0 ** rng.uniform(-6, 6, m)}[T]
        k = 1 if T.ndim == 1 else T.shape[1]
        assert k * d <= couples._POWER_CHUNK_CELLS
        want = _power_batch(X, T, p, w0, w1)
        if T.ndim == 2:
            alone = np.stack([_power_batch(X, T[:, j] if len(T) == m
                                           else T[0, j], p, w0, w1)
                              for j in range(k)], axis=1)
            assert alone.tobytes() == want.tobytes()
        for cells in (1, k * d - 1):
            monkeypatch.setattr(couples, "_POWER_CHUNK_CELLS", cells)
            assert _power_batch(X, T, p, w0, w1).tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0, 3.0, 20.0, 60.0])
    def test_tables_match_the_cell_oracle(self, p, monkeypatch):
        # entries over 2^+-60 and weights over 2^+-30, so that at large p
        # the tables underflow.  In the last two rows the largest entry
        # meets a factor 2^-60 below the largest, and the entry 2^-40 or
        # 2^-60 meets the largest factor, so S underflows from p = 24 and
        # p = 16 on and stable_lp_sum recomputes those cells
        rng = np.random.default_rng(42)
        m, d = 14, 9
        X = rng.standard_normal((m, d)) * 2.0 ** rng.uniform(-60, 60, (m, d))
        X[3] = 0.0
        w0 = 2.0 ** rng.uniform(-30, 30, d)
        w1 = 2.0 ** rng.uniform(-30, 30, d)
        w0[:2] = w1[:2] = 2.0 ** -30, 2.0 ** 30
        X[-2:] = 0.0
        X[-2:, 0] = 1.0
        X[-2:, 1] = 2.0 ** -40, 2.0 ** -60
        fallback = []

        def stable(terms, p):
            fallback.append(np.count_nonzero(terms.any(axis=1)))
            return stable_lp_sum(terms, p)

        monkeypatch.setattr(couples, "stable_lp_sum", stable)
        for T in (DYADIC[None, :], 2.0 ** rng.uniform(-20, 20, (m, 5))):
            got = _power_batch(X, T, p, w0, w1)
            want = cell_oracle_power(X, T, p, w0, w1)
            assert np.all(want[3] == 0.0) and np.all(got[3] == 0.0)
            assert np.all(want[np.arange(m) != 3] > 0)
            gap = np.abs(got - want) / np.where(want > 0, want, 1.0)
            assert gap.max() <= 1e-13, (p, gap.max())
        # cells of nonzero rows recomputed
        assert (sum(fallback) > 0) == (p >= 16.0)

    @pytest.mark.parametrize("p", [1.0001, 1.2, 1.5, 2.0, 3.0, 7.0])
    def test_matches_the_decimal_reference_across_wide_scales(self, p):
        # weights and t across 2^+-1000, with each v = t w1_i a normal
        # float too, so u/v spans 2^+-2000
        rng = np.random.default_rng(46)
        for _ in range(8):
            d = int(rng.integers(1, 7))
            n = rng.uniform(-1000, 1000)
            t = 2.0 ** n
            w0 = 2.0 ** rng.uniform(-1000, 1000, d)
            w1 = 2.0 ** rng.uniform(max(-1000, -1000 - n),
                                    min(1000, 1000 - n), d)
            X = rng.uniform(-4, 4, (2, d))
            got = _power_batch(X, t, p, w0, w1)
            for x, k in zip(X, got):
                want = decimal_oracle_power(x, t, p, w0, w1)
                gap = abs(decimal.Decimal(float(k)) - want) / want
                assert gap <= decimal.Decimal("1e-15"), (p, d, float(gap))

    @staticmethod
    def decimal_k(x, t, p, w0, w1):
        """K_p at 60 digits with the factor of each p: min(u, v) for
        p <= 1, ``decimal_oracle_power``'s otherwise."""
        if p > 1.0:
            return decimal_oracle_power(x, t, p, w0, w1)
        D = decimal.Decimal
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
            return sum((abs(D(xi)) * min(D(a), D(t) * D(b))) ** D(p)
                       for xi, a, b in zip(x, w0, w1)) ** (1 / D(p))

    @classmethod
    def assert_within_4_ulp(cls, got, x, t, p, w0, w1):
        want = cls.decimal_k(x, t, p, w0, w1)
        gap = abs(decimal.Decimal(float(got)) - want)
        assert gap <= 4 * decimal.Decimal(math.ulp(float(want))), (
            p, t, float(gap / want))

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_subnormal_t_w1_keeps_its_digits(self, p):
        # t w1_i near 2^-1062 is subnormal, with 12 of its 53 bits: the
        # kernel read 7.6e-5 relative error here before it scaled t and
        # the weights by a power of two
        x = np.array([2.0 ** 100, 1.5 * 2.0 ** 100])
        w0, w1 = np.ones(2), np.array([1.3 * 2.0 ** -40, 1.7 * 2.0 ** -41])
        t = 2.0 ** -1022
        got = _power_batch(x, t, p, w0, w1)[0]
        self.assert_within_4_ulp(got, x, t, p, w0, w1)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("weights", ["shared", "per_row"])
    def test_only_cells_with_a_subnormal_factor_move(self, p, weights):
        # t w1_i spans 2^-1066..2^-1058 at t = 2^-1022 and is normal at
        # t = 2^-900: a cell of the second kind keeps the bits it has in a
        # call of its own, which takes no scaled path; one of the first
        # kind lies within 4 ulp of decimal
        rng = np.random.default_rng(48)
        m, d = 6, 5
        X = rng.standard_normal((m, d)) * 2.0 ** 100
        shape = d if weights == "shared" else (m, d)
        w0 = 2.0 ** rng.uniform(-4, 4, shape)
        w1 = 2.0 ** rng.uniform(-44, -36, shape)
        E = rng.choice([-1022.0, -900.0], (m, 4))
        E[0] = [-1022.0, -900.0, -1022.0, -900.0]
        T = 2.0 ** E
        got = _power_batch(X, T, p, w0, w1)
        for r in range(m):
            rw0, rw1 = (w0, w1) if weights == "shared" else (w0[r], w1[r])
            for j, t in enumerate(T[r]):
                if t == 2.0 ** -900:
                    alone = _power_batch(X[r], t, p, rw0, rw1)
                    assert alone.tobytes() == got[r, j:j + 1].tobytes()
                else:
                    self.assert_within_4_ulp(got[r, j], X[r], t, p, rw0,
                                             rw1)

    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0, 60.0])
    @pytest.mark.parametrize("weights", ["shared", "per_row"])
    def test_row_alone_is_bit_identical_to_its_batch_row(self, p, weights):
        rng = np.random.default_rng(43)
        m, d = 10, 13
        X = rng.standard_normal((m, d)) * 2.0 ** rng.uniform(-60, 60, (m, d))
        X[2] = 0.0
        shape = d if weights == "shared" else (m, d)
        w0 = 2.0 ** rng.uniform(-30, 30, shape)
        w1 = 2.0 ** rng.uniform(-30, 30, shape)
        for T in (DYADIC[None, :], 0.7, 2.0 ** rng.uniform(-20, 20, m),
                  2.0 ** rng.uniform(-20, 20, (m, 5))):
            got = _power_batch(X, T, p, w0, w1)
            for r in range(m):
                own = np.ndim(T) and len(T) == m
                alone = _power_batch(X[r:r + 1], T[r:r + 1] if own else T, p,
                                     w0 if weights == "shared"
                                     else w0[r:r + 1],
                                     w1 if weights == "shared"
                                     else w1[r:r + 1])
                assert alone.tobytes() == got[r:r + 1].tobytes(), (r, T)

    def test_grid_memory_stays_flat(self):
        # the reiteration shape: 160 profiles of 41 values on a 41-point grid
        rng = np.random.default_rng(39)
        X = rng.standard_normal((160, 41))
        w0, w1 = 2.0 ** rng.uniform(-4, 4, (2, 41))

        def peak(T):
            tracemalloc.start()
            _power_batch(X, T, 2.0, w0, w1)
            out = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return out

        # the grid holds (160, 41) tables and results and a (1, 41, 41)
        # factor table, about 2.5 times one t's peak; a (160, 41, 41)
        # array of cells would peak at about 30 times
        assert peak(DYADIC[None, :]) <= 4 * peak(1.0)


# ---------------------------------------------------------------------------
# oracle strategy
# ---------------------------------------------------------------------------

class TestOracle:
    def test_zero_vector(self):
        c = l1_linf_couple(4)
        assert descend(vec([0, 0, 0, 0]), 1.0, c) == 0.0

    def test_single_coordinate_endpoint(self):
        # p0 = p1 = 1, unit weights: K = min(1, t)|c|
        c = power_couple(1.0, [1.0], [1.0])
        for t in (0.25, 1.0, 3.0):
            assert descend(vec([5.0]), t, c) == pytest.approx(min(1, t) * 5.0, rel=1e-9)

    def test_agreement_with_exact_strategies(self):
        # module-level contract: relative 1e-6 on dimensions <= 8
        rng = np.random.default_rng(42)
        for trial in range(40):
            d = int(rng.integers(1, 9))
            t = float(2.0 ** rng.uniform(-4, 4))
            x = random_vector(rng, d)
            if trial % 2 == 0:
                c = l1_linf_couple(d)
            else:
                c = weighted_sup_couple(2.0 ** rng.uniform(-2, 2, d),
                                        2.0 ** rng.uniform(-2, 2, d))
            exact = c.k(x, t)
            got = descend(x, t, c, budget=4, seed=trial)
            assert abs(got - exact) <= 1e-6 * max(exact, 1e-12)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(3)
        c = power_couple(2.0, 2.0 ** rng.uniform(-1, 1, 5), np.ones(5))
        x = random_vector(rng, 5)
        a = descend(x, 0.7, c, budget=6, seed=11)
        b = descend(x, 0.7, c, budget=6, seed=11)
        assert a == b


# ---------------------------------------------------------------------------
# profiles, endpoints, sphere sup
# ---------------------------------------------------------------------------

class TestKProfile:
    def test_spec_profile(self):
        prof = k_profile(vec([3, 1, 2]), l1_linf_couple(3), 0, 2)
        np.testing.assert_allclose(prof.values, [3.0, 5.0, 6.0])

    def test_zero_profile(self):
        prof = k_profile(vec([0, 0]), l1_linf_couple(2), -3, 3)
        assert np.all(prof.values == 0.0)

    def test_single_coordinate_sup_couple(self):
        c = weighted_sup_couple([1.0], [1.0])
        prof = k_profile(vec([2.0]), c, -3, 3)
        want = np.minimum(1.0, 2.0 ** np.arange(-3, 4)) * 2.0
        np.testing.assert_allclose(prof.values, want)

    def test_bad_window(self):
        with pytest.raises(DomainError):
            k_profile(vec([1.0]), l1_linf_couple(1), 2, 1)

    def test_window_t_is_exactly_two_to_the_n(self):
        # the widest window: its ends are the least and largest normal
        # powers of two
        n, t = couples._n_window(-1022, 1023)
        assert n.tolist() == list(range(-1022, 1024))
        assert t.tobytes() == (2.0 ** n.astype(float)).tobytes()
        assert t.tolist() == [math.ldexp(1.0, k) for k in range(-1022, 1024)]

    def test_concavity_in_t_exact_strategies(self):
        rng = np.random.default_rng(9)
        for trial in range(25):
            d = int(rng.integers(1, 7))
            x = random_vector(rng, d)
            c = (l1_linf_couple(d) if trial % 2 == 0 else
                 weighted_sup_couple(2.0 ** rng.uniform(-2, 2, d),
                                     2.0 ** rng.uniform(-2, 2, d)))
            t1, t2 = sorted(2.0 ** rng.uniform(-5, 5, 2))
            mid = 0.5 * (t1 + t2)
            lhs = c.k(x, mid)
            rhs = 0.5 * (c.k(x, t1) + c.k(x, t2))
            assert lhs >= rhs * (1 - 1e-9)

    def test_k_homogeneity_exact_strategies(self):
        rng = np.random.default_rng(13)
        for trial in range(25):
            d = int(rng.integers(1, 7))
            x = random_vector(rng, d)
            lam = float(2.0 ** rng.uniform(-3, 3))
            c = (l1_linf_couple(d) if trial % 2 == 0 else
                 weighted_sup_couple(2.0 ** rng.uniform(-2, 2, d),
                                     2.0 ** rng.uniform(-2, 2, d)))
            t = float(2.0 ** rng.uniform(-4, 4))
            assert c.k(x.scaled(lam), t) == pytest.approx(lam * c.k(x, t),
                                                          rel=1e-12)

    def test_symmetry_identity(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            d = int(rng.integers(1, 7))
            x = random_vector(rng, d)
            c = (l1_linf_couple(d) if trial % 3 else
                 power_couple(2.0, 2.0 ** rng.uniform(-1, 1, d),
                              2.0 ** rng.uniform(-1, 1, d)))
            t = float(2.0 ** rng.uniform(-4, 4))
            assert c.k(x, t) == pytest.approx(t * c.reversed().k(x, 1.0 / t),
                                              rel=1e-12)

    def test_quasi_triangle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = int(rng.integers(1, 7))
            c = power_couple(0.5, np.ones(d), 2.0 ** rng.uniform(-1, 1, d))
            x, y = random_vector(rng, d), random_vector(rng, d)
            t = float(2.0 ** rng.uniform(-3, 3))
            # the quasi-triangle constant of l_p, p = 0.5
            m = max(1.0, 2.0 ** (1.0 / 0.5 - 1.0))
            xy = FiniteVector(0, x.entries + y.entries)
            assert c.k(xy, t) <= m * (c.k(x, t) + c.k(y, t)) * (1 + 1e-12)

    def test_surrogate_band_against_oracle(self):
        rng = np.random.default_rng(8)
        for p in (0.5, 1.0, 2.0, 3.0):
            band = 2.0 ** (1.0 / min(p, 1.0))
            for trial in range(10):
                d = int(rng.integers(1, 8))
                c = power_couple(p, 2.0 ** rng.uniform(-1, 1, d),
                                 2.0 ** rng.uniform(-1, 1, d))
                x = random_vector(rng, d)
                t = float(2.0 ** rng.uniform(-3, 3))
                ratio = c.k(x, t) / descend(x, t, c, budget=4, seed=trial)
                assert 1.0 / band <= ratio <= band



def _half_half_oracle(seed):
    """A seeded (l0.5(w0), l0.5(w1)) oracle couple, a vector and the raw
    descent profile on t = 2^-8 .. 2^8."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    c = Couple(WeightedNorm(0.5, 0, 2.0 ** rng.uniform(-2, 2, d)),
               WeightedNorm(0.5, 0, 2.0 ** rng.uniform(-2, 2, d)), ORACLE)
    x = vec(rng.standard_normal(d))
    raw = c.profile_batch(c.embed(x), 2.0 ** np.arange(-8, 9).astype(float))
    return c, x, raw[0]


class TestValidateProfiles:
    T = 2.0 ** np.arange(-2, 3).astype(float)

    @pytest.mark.parametrize("bad, message", [
        ([1e-6, 2e-6, 3e-6, -1e-12, 4e-6], "nonnegative"),
        ([1e-6, 2e-6, 2e-6 - 1e-12, 3e-6, 4e-6], "nondecreasing"),
        ([1e-6, 2e-6, 4e-6, 8e-6 + 1e-12, 16e-6], "nonincreasing")])
    def test_each_row_has_its_own_slack(self, bad, message):
        # each violation is within 1e-9 of the large row's scale, so a
        # shared slack would let it pass
        large = np.minimum(self.T, 1.0) * 1e6
        validate_profiles(np.array([large]), self.T)
        with pytest.raises(InvariantError, match=message):
            validate_profiles(np.array([large, bad]), self.T)
        with pytest.raises(InvariantError, match=message):
            KProfile(-2, 2, np.array(bad)).validate()


def _subset_k(x, t, norm0, norm1):
    """Exact K of (lp0(w0), lp1(w1)) with p0, p1 <= 1 at each t of ``t``:
    both norms are concave on each segment a_i in [0, x_i], and leaving it
    raises both, so an optimal split gives each coordinate wholly to one
    side; min over the 2^d subsets."""
    d = len(x)
    A = ((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1) * x
    return np.min(norm0.dense(A)[:, None] + t * norm1.dense(x - A)[:, None],
                  axis=0)


class TestDescentLines:
    """A descent answers each t with the line U + tV, U = norm0(a) and
    V = norm1(x - a), of its best split a there; a grid value is the lowest
    of its row's lines, so a profile is monotone with no repair pass."""

    # the per-t values at seed 2 decrease in t, and at seed 22 their K/t
    # grows: both fail ``validate``
    @pytest.mark.parametrize("seed", [2, 22])
    def test_grid_profile_validates_without_repair(self, seed):
        c, x, raw = _half_half_oracle(seed)
        assert c.route.name == "descent"
        t = 2.0 ** np.arange(-8, 9).astype(float)
        per_t = np.array([c.k(x, s) for s in t])
        with pytest.raises(InvariantError):
            KProfile(-8, 8, per_t).validate(rel_tol=1e-9)
        KProfile(-8, 8, raw).validate(rel_tol=0.0)
        assert k_profile(x, c, -8, 8).values.tobytes() == raw.tobytes()
        assert np.all(raw <= per_t)

    @pytest.mark.parametrize("p0, p1", [(0.5, 0.5), (0.3, 0.9), (1.0, 0.5)])
    def test_grid_between_exact_k_and_per_t_values(self, p0, p1):
        rng = np.random.default_rng(66)
        d = 8
        c = Couple(WeightedNorm(p0, 0, 2.0 ** rng.uniform(-3, 3, d)),
                   WeightedNorm(p1, 0, 2.0 ** rng.uniform(-3, 3, d)), ORACLE)
        assert c.route.name == "descent"
        X = rng.standard_normal((6, d))
        t = 2.0 ** np.arange(-6, 7).astype(float)
        grid = c.profile_batch(X, t)
        per_t = np.stack([c.k_batch(X, s) for s in t], axis=1)
        exact = np.stack([_subset_k(x, t, c.norm0, c.norm1) for x in X])
        assert np.all(grid >= exact * (1.0 - 1e-12))
        assert np.all(grid <= per_t)
        validate_profiles(grid, t, rel_tol=0.0)


class TestEndpoints:
    """The sum norm K(x, 1) and the intersection norm max(|x|_A0, |x|_A1)."""

    def test_spec_values(self):
        c, x = l1_linf_couple(3), vec([3, 1, 2])
        assert c.k(x, 1.0) == pytest.approx(3.0)
        assert max(c.norm0(x), c.norm1(x)) == pytest.approx(6.0)

    def test_zero(self):
        c, x = l1_linf_couple(2), vec([0, 0])
        assert (c.k(x, 1.0), max(c.norm0(x), c.norm1(x))) == (0.0, 0.0)

    def test_ordered_couple_intersection_is_larger_norm(self):
        # norm1 >= norm0 pointwise: intersection norm equals norm1
        rng = np.random.default_rng(2)
        c = weighted_sup_couple(np.ones(4), np.full(4, 3.0))
        x = random_vector(rng, 4)
        assert max(c.norm0(x), c.norm1(x)) == pytest.approx(c.norm1(x))


class TestWindowEnds:
    """At the ends of the admitted t window every route answers with a
    trivial split, K = ||x||_A0 for n in [1000, 1023] and t ||x||_A1 for n
    in [-1022, -1000], and no RuntimeWarning is raised where t times a
    weight or a norm overflows to inf."""

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    @pytest.mark.parametrize("case", sorted(ROUTE_TABLE) + ["descent"])
    def test_profiles_reach_the_trivial_splits(self, case, order):
        if case == "descent":
            (p0, p1), name, strategies = DESCENT_PAIRS[1], "descent", ()
        else:
            (p0, p1), name, _, strategies, _ = ROUTE_TABLE[case]
        w1 = 1.0 if name == "l1_linf" else 4.0
        c = Couple(WeightedNorm(p0, 0, np.ones(4)),
                   WeightedNorm(p1, 0, np.full(4, w1)),
                   (strategies + (ORACLE,))[0])
        if order == "reversed":
            c = c.reversed()
        assert c.route.name == name
        x = vec([3.0, -1.0, 2.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = k_profile(x, c, 1000, 1023).values
            bottom = k_profile(x, c, -1022, -1000).values
        t = 2.0 ** np.arange(-1022, -999).astype(float)
        assert len(top) == 24 and len(bottom) == len(t)
        np.testing.assert_allclose(top, c.norm0(x), rtol=1e-12, atol=0)
        np.testing.assert_allclose(bottom, t * c.norm1(x), rtol=1e-12,
                                   atol=0)


class TestSphereSup:
    def test_normalization_at_t_one(self):
        c = l1_linf_couple(5)
        assert k_sphere_sup(c, 1.0) == pytest.approx(1.0)

    def test_nonordered_family_stays_near_one(self):
        ks = np.arange(-8, 9, dtype=float)
        c = power_couple(1.0, 2.0 ** ks, 2.0 ** (-ks), offset=-8)
        assert k_sphere_sup(c, 0.25) >= 0.99

    def test_ordered_family_bounded_by_t(self):
        c = l1_linf_couple(6)
        t = 0.25
        val = k_sphere_sup(c, t)
        assert val <= t * (1 + 1e-12)

    def test_bounded_by_max_one_t(self):
        rng = np.random.default_rng(7)
        for t in (0.1, 1.0, 7.0):
            c = weighted_sup_couple(2.0 ** rng.uniform(-2, 2, 5),
                                    2.0 ** rng.uniform(-2, 2, 5))
            assert k_sphere_sup(c, t) <= max(1.0, t) * (1 + 1e-12)

    @pytest.mark.parametrize("t", [2.0 ** -6, 0.25, 1.0, 3.0, 2.0 ** 6])
    def test_geometric_family_is_its_best_spike(self, t):
        # at p = 1 a spike's K is its weight factor min(w0_k, t w1_k)
        for dim in range(1, 34, 2):
            half = (dim - 1) // 2
            ks = range(-half, half + 1)
            w0 = [2.0 ** k for k in ks]
            w1 = [2.0 ** -k for k in ks]
            c = power_couple(1.0, w0, w1, offset=-half)
            assert k_sphere_sup(c, t) == max(
                min(a, t * b) / min(a, b) for a, b in zip(w0, w1))

    @pytest.mark.parametrize("t", [2.0 ** -5, 0.3, 1.0])
    def test_l1_linf_ratio_is_t(self, t):
        for dim in (1, 4, 9):
            assert k_sphere_sup(l1_linf_couple(dim), t) == t

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_power_directions_stay_below_the_spikes(self, p):
        # K_p(x, t)^p / K_p(x, 1)^p is a weighted mean of the spikes'
        # ratios, so no direction beats the best spike beyond rounding
        rng = np.random.default_rng(22)
        for t in 2.0 ** np.arange(-5, 6):
            d = int(rng.integers(2, 10))
            c = power_couple(p, 2.0 ** rng.uniform(-3, 3, d),
                             2.0 ** rng.uniform(-3, 3, d))
            X = rng.standard_normal((500, d)) * 2.0 ** rng.uniform(
                -4, 4, (500, d))
            ratios = c.k_batch(X, t) / c.k_batch(X, 1.0)
            top = k_sphere_sup(c, t)
            assert np.max(ratios) <= top * (1 + 2e-15)


# ---------------------------------------------------------------------------
# construction and serialization
# ---------------------------------------------------------------------------

class TestCoupleValidation:
    def test_window_mismatch(self):
        with pytest.raises(WindowError):
            Couple(WeightedNorm(1.0, 0, [1, 1]),
                   WeightedNorm(math.inf, 1, [1, 1]), "exact_l1_linf")

    def test_l1_linf_requires_unit_weights(self):
        with pytest.raises(InvariantError):
            Couple(WeightedNorm(1.0, 0, [1, 2]),
                   WeightedNorm(math.inf, 0, [1, 1]), "exact_l1_linf")

    def test_power_requires_shared_exponent(self):
        with pytest.raises(InvariantError):
            Couple(WeightedNorm(1.0, 0, [1, 1]),
                   WeightedNorm(2.0, 0, [1, 1]), "power_coordinatewise")

    @pytest.mark.parametrize("p0, p1, strategy, error", [
        (1.0, math.inf, "weighted_sup_lp", InvariantError),
        (math.inf, math.inf, "exact_l1_linf", InvariantError),
        (1.0, 2.0, "exact_l1_linf", InvariantError),
        (1.0, math.inf, "power_coordinatewise", DomainError),
        (math.inf, math.inf, "power_coordinatewise", DomainError),
        (0.5, 2.0, "power_coordinatewise", InvariantError),
        (1.0, 1.0, "no_such_strategy", InvariantError),
    ])
    def test_strategy_must_name_the_route(self, p0, p1, strategy, error):
        with pytest.raises(error):
            Couple(WeightedNorm(p0, 0, [1, 1]), WeightedNorm(p1, 0, [1, 1]),
                   strategy)

    def test_oracle_takes_exact_routes_only(self):
        ones = np.ones(3)
        for (p0, p1), name in (((1.0, math.inf), "l1_linf"),
                               ((math.inf, math.inf), "weighted_sup"),
                               ((3.0, 1.0), "l1_lp"), ((1.0, 1.0), "power")):
            c = Couple(WeightedNorm(p0, 0, ones), WeightedNorm(p1, 0, ones),
                       ORACLE)
            assert c.route.name == name and c.is_exact()
            prof = k_profile(vec([3.0, -1.0, 2.0]), c, -6, 6)   # validated
            assert np.all(prof.values > 0)
        c = Couple(WeightedNorm(2.0, 0, ones), WeightedNorm(2.0, 0, ones),
                   ORACLE)
        assert c.route.name == "descent" and not c.is_exact()
        assert (c.equiv_lo, c.equiv_hi) == (1.0, 1.0)

    def test_band_is_the_routes_and_read_only(self):
        w = [1.0, 2.0]
        for p, band in ((0.5, (1.0, 2.0)), (0.25, (1.0, 8.0)),
                        (1.0, (1.0, 1.0)), (2.0, (2.0 ** -0.5, 1.0)),
                        (3.0, (2.0 ** -(1.0 - 1.0 / 3.0), 1.0))):
            c = power_couple(p, w, w)
            assert (c.equiv_lo, c.equiv_hi) == band
        c = weighted_sup_couple(w, w)
        assert (c.equiv_lo, c.equiv_hi) == (1.0, 1.0)
        with pytest.raises(AttributeError):
            c.equiv_lo = 2.0
        with pytest.raises(TypeError):
            Couple(c.norm0, c.norm1, "weighted_sup_lp", equiv_lo=1.0)

    def test_reversed_l1_linf_evaluates_via_symmetry(self):
        c = l1_linf_couple(3).reversed()
        x = vec([3, 1, 2])
        # K(x, t; linf, l1) = t K(x, 1/t; l1, linf)
        assert c.k(x, 0.5) == pytest.approx(0.5 * l1_linf_couple(3).k(x, 2.0))


class TestConstructorRefusals:
    @pytest.mark.parametrize("shape, axis, want", [
        ((3, 0), -1, (3,)), ((0, 4), 0, (4,)), ((0,), 0, ())])
    def test_lp_sum_over_an_empty_axis_is_zero(self, shape, axis, want):
        for p in (0.5, 1.0, 2.0, math.inf):
            out = stable_lp_sum(np.ones(shape), p, axis=axis)
            assert out.shape == want and np.all(out == 0.0)

    def test_vector_entries_must_be_one_dimensional(self):
        with pytest.raises(InvariantError,
                           match="entries must be one-dimensional"):
            FiniteVector(0, [[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_vector_entries_must_be_finite(self, bad):
        with pytest.raises(InvariantError, match="entries must be finite"):
            FiniteVector(0, [1.0, bad])

    @pytest.mark.parametrize("weights", [[], [[1.0, 2.0]]])
    def test_weights_must_be_a_nonempty_row(self, weights):
        with pytest.raises(InvariantError,
                           match="weights must be a nonempty 1-d array"):
            WeightedNorm(1.0, 0, weights)

    def test_profile_length_must_match_its_window(self):
        with pytest.raises(InvariantError,
                           match="profile length must match the n-window"):
            KProfile(0, 2, [1.0, 2.0])

    @pytest.mark.parametrize("n_min, n_max, key", [
        (0.0, 2, "n_min"), (0, 2.0, "n_max"), (-1.5, 1.5, "n_min"),
        (True, 2, "n_min"), (0, "2", "n_max"), (None, 2, "n_min")])
    def test_window_ends_must_be_integers(self, n_min, n_max, key):
        # k_profile echoed "n_min": 0.0, and -1.5..1.5 ran at t = 2^-1.5, ...
        with pytest.raises(DomainError, match=f"{key} must be an integer"):
            k_profile(vec([3.0, 1.0, 2.0]), l1_linf_couple(3), n_min, n_max)
        with pytest.raises(DomainError, match=f"{key} must be an integer"):
            KProfile(n_min, n_max, [1.0, 2.0, 3.0])

    def test_window_ends_take_numpy_integers(self):
        x, c = vec([3.0, 1.0, 2.0]), l1_linf_couple(3)
        prof = k_profile(x, c, np.int64(-2), np.int64(2))
        assert type(prof.n_min) is int and type(prof.n_max) is int
        assert (json.dumps(prof.to_json())
                == json.dumps(k_profile(x, c, -2, 2).to_json()))

    @pytest.mark.parametrize("build", [
        lambda offset: FiniteVector(offset, [1.0]),
        lambda offset: vec([1.0], offset),
        lambda offset: WeightedNorm(1, offset, [1.0]),
        lambda offset: power_couple(1.0, [1.0], [1.0], offset=offset),
    ], ids=["vector", "vec", "norm", "couple"])
    @pytest.mark.parametrize("offset", [0.5, 1.9, -20.5, 2.0, "3", True,
                                        None, np.float64(1.0)])
    def test_offset_must_be_an_integer(self, build, offset):
        # int() read 0.5 as 0, 1.9 as 1, "3" as 3 and True as 1
        with pytest.raises(DomainError,
                           match=f"offset must be an integer, got "
                                 f"{re.escape(repr(offset))}"):
            build(offset)

    @pytest.mark.parametrize("offset", [3, -2, np.int64(3), np.int32(-2),
                                        np.uint8(7)])
    def test_integer_offsets_are_ints(self, offset):
        for built in (FiniteVector(offset, [1.0]),
                      WeightedNorm(1, offset, [1.0])):
            assert built.offset == int(offset)
            assert type(built.offset) is int

    def test_sphere_sup_is_zero_where_every_spike_vanishes(self):
        # K(e_k, 1) = min(w0_k, w1_k) = 1e-310, below the 1e-300 floor
        c = power_couple(1.0, [1e-310, 1e-310], [1e-310, 1e-310])
        for t in (0.25, 1.0, 4.0):
            assert k_sphere_sup(c, t) == 0.0


class TestStableLpSum:
    def test_row_with_an_infinite_term_sums_to_inf(self):
        # 4 * 1e308 overflows to inf; the row was divided by its inf peak,
        # and inf / inf gave NaN
        with np.errstate(over="ignore"):
            got = WeightedNorm(2.0, 0, [4.0, 1.0]).dense([[1e308, 1.0],
                                                          [3.0, 4.0]])
        assert got.tolist() == [math.inf, stable_lp_sum([12.0, 4.0], 2.0)]

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 7.5])
    def test_finite_rows_keep_their_bits(self, p):
        rng = np.random.default_rng(3)
        T = (np.abs(rng.standard_normal((50, 6)))
             * 2.0 ** rng.integers(-1000, 1000, (50, 1)))
        T[::7] = 0.0
        peak = np.max(T, axis=1, keepdims=True)
        want = peak[:, 0] * np.sum((T / np.where(peak > 0, peak, 1.0)) ** p,
                                   axis=1) ** (1.0 / p)
        got = stable_lp_sum(np.vstack([T, [[math.inf, 1.0, 0, 0, 0, 0]]]), p)
        assert got[:-1].tobytes() == want.tobytes() and got[-1] == math.inf
