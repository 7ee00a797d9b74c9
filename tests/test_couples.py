import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from interpk import (Couple, DomainError, InvariantError, WeightedNorm,
                     WindowError, k_profile, k_sphere_sup, l1_linf_couple,
                     power_couple, weighted_sup_couple)
from interpk._descent import decomposition_infimum
from interpk.couples import (ORACLE, FiniteVector, _l1_linf_batch,
                             _l1_lp_batch, _power_batch, _weighted_sup_batch,
                             descent_route, k_route, vec)
from interpk.interp import derived_sum_int_couple, sequence_couple_k
from interpk.snum import k_operator_diag_batch

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
                          seed=seed, scale0=c.norm0.weights,
                          scale1=c.norm1.weights)
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
            r = 2.0 ** (1.0 / min(p0, 1.0))
            assert route.band == ((1.0, 1.0) if exact else (1.0 / r, r))
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
                                     seed=0, scale0=w0, scale1=w1)
        assert np.array_equal(got, want)
        assert np.array_equal(c.profile_batch(V, grid[0]), want)
        got = sequence_couple_k(V, 0.5, p0, w0, p1, w1, budget=2, seed=4)
        want = decomposition_infimum(V, 0.5, n0.dense, n1.dense, budget=2,
                                     seed=4, scale0=w0, scale1=w1)
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
                                        budget=16, seed=d, scale0=w0,
                                        scale1=w1)
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
                                    seed=1, scale0=w0, scale1=w1)
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

        # blocks of two t values peak at about twice one t's peak; one
        # (160, 41, 41) block peaks at about 30 times
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
            m = c.quasi_constant
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


class TestSphereSup:
    def test_normalization_at_t_one(self):
        c = l1_linf_couple(5)
        assert k_sphere_sup(c, 1.0, samples=8, seed=0) == pytest.approx(1.0)

    def test_nonordered_family_stays_near_one(self):
        ks = np.arange(-8, 9, dtype=float)
        c = power_couple(1.0, 2.0 ** ks, 2.0 ** (-ks), offset=-8)
        assert k_sphere_sup(c, 0.25, samples=16, seed=3) >= 0.99

    def test_ordered_family_bounded_by_t(self):
        c = l1_linf_couple(6)
        t = 0.25
        val = k_sphere_sup(c, t, samples=16, seed=3)
        assert val <= t * (1 + 1e-12)

    def test_bounded_by_max_one_t(self):
        rng = np.random.default_rng(7)
        for t in (0.1, 1.0, 7.0):
            c = weighted_sup_couple(2.0 ** rng.uniform(-2, 2, 5),
                                    2.0 ** rng.uniform(-2, 2, 5))
            assert k_sphere_sup(c, t, samples=8, seed=1) <= max(1.0, t) * (1 + 1e-12)


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
        for p, band in ((0.5, 4.0), (1.0, 1.0), (2.0, 2.0), (3.0, 2.0)):
            c = power_couple(p, w, w)
            assert (c.equiv_lo, c.equiv_hi) == (1.0 / band, band)
            data = c.to_json()
            assert (data["equiv_lo"], data["equiv_hi"]) == (1.0 / band, band)
            data.update(equiv_lo=0.01, equiv_hi=100.0)     # ignored
            c2 = Couple.from_json(data)
            assert (c2.equiv_lo, c2.equiv_hi) == (1.0 / band, band)
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

    def test_json_round_trip(self):
        c = weighted_sup_couple([1.0, 2.0], [2.0, 1.0], offset=-1)
        c2 = Couple.from_json(c.to_json())
        assert c2.strategy == c.strategy
        assert c2.offset == -1
        np.testing.assert_allclose(c2.norm0.weights, c.norm0.weights)
        x = vec([1.0, -2.0], offset=-1)
        assert c2.k(x, 0.7) == pytest.approx(c.k(x, 0.7))

    def test_vector_json_round_trip(self):
        x = vec([1.5, -2.0], offset=-3)
        x2 = FiniteVector.from_json(x.to_json())
        assert x2.offset == -3
        np.testing.assert_allclose(x2.entries, x.entries)

    def test_inf_p_serialization(self):
        n = WeightedNorm(math.inf, 0, [1.0])
        assert n.to_json()["p"] == "inf"
        assert WeightedNorm.from_json(n.to_json()).p == math.inf
