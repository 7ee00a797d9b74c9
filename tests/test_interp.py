import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from interpk import (DomainError, InterpParams, InvariantError, LatticeParam,
                     ParamError, ParamSpace, derived_sum_int_couple,
                     endpoint_space, interp_norm, l1_linf_couple,
                     lattice_norm, parameter_conditions, power_couple,
                     split_norm, weighted_sup_couple)
from interpk.couples import (Couple, FiniteVector, k_profile, stable_lp_sum,
                             vec)
from interpk.interp import (DEFAULT_N_MAX, DEFAULT_N_MIN, ConditionEstimate,
                            dyadic_norm, dyadic_weights,
                            interp_norm_from_profile, sequence_couple_k,
                            truncation_terms)
from interpk.verify import couple_family


def unit_coordinate_couple():
    """Single coordinate with K(e, t) = min(1, t) exactly."""
    return power_couple(1.0, [1.0], [1.0])


def geometric_interp_sum(theta, q, n_min, n_max):
    """Independent evaluation of (sum_n (2^{-theta n} min(1, 2^n))^q)^{1/q}."""
    n = np.arange(n_min, n_max + 1, dtype=float)
    terms = (2.0 ** (-theta * n)) * np.minimum(1.0, 2.0 ** n)
    if math.isinf(q):
        return float(np.max(terms))
    return float(np.sum(terms ** q) ** (1.0 / q))


class TestInterpNorm:
    def test_sqrt3_example(self):
        v = interp_norm(vec([1.0]), unit_coordinate_couple(), InterpParams(0.5, 2.0))
        want = geometric_interp_sum(0.5, 2.0, DEFAULT_N_MIN, DEFAULT_N_MAX)
        assert v == pytest.approx(want, rel=1e-12)
        assert v == pytest.approx(math.sqrt(3.0), abs=1e-5)

    def test_zero(self):
        assert interp_norm(vec([0.0]), unit_coordinate_couple(),
                           InterpParams(0.5, 2.0)) == 0.0

    def test_sup_variant(self):
        v = interp_norm(vec([1.0]), unit_coordinate_couple(),
                        InterpParams(0.5, math.inf))
        assert v == pytest.approx(1.0, rel=1e-12)

    def test_rejects_theta_outside(self):
        with pytest.raises(ParamError):
            InterpParams(0.0, 1.0)
        with pytest.raises(ParamError):
            InterpParams(1.0, 1.0)
        with pytest.raises(DomainError):
            InterpParams(0.5, 0.0)

    @given(st.floats(min_value=0.1, max_value=0.9),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_q_monotone_embedding(self, theta, seed):
        # l^{q1} into l^{q2} with constant 1: norm at q2 <= norm at q1
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        x = FiniteVector(0, rng.standard_normal(d))
        c = l1_linf_couple(d)
        prof = k_profile(x, c, -10, 10)
        q1, q2 = sorted(rng.uniform(0.5, 4.0, 2))
        v1 = interp_norm_from_profile(prof, InterpParams(theta, q1))
        v2 = interp_norm_from_profile(prof, InterpParams(theta, q2))
        assert v2 <= v1 * (1 + 1e-12)

    def test_truncation_report(self):
        prof = k_profile(vec([1.0]), unit_coordinate_couple(), -5, 5)
        rep = truncation_terms(prof, InterpParams(0.5, 1.0))
        assert rep["first_term"] == pytest.approx(2.0 ** (-2.5))
        assert rep["last_term"] == pytest.approx(2.0 ** (-2.5))


class TestLatticeNorm:
    def test_definitional_reduction(self):
        grid = np.arange(DEFAULT_N_MIN, DEFAULT_N_MAX + 1, dtype=float)
        theta, q = 0.4, 1.5
        E = LatticeParam(q, DEFAULT_N_MIN, 2.0 ** (-theta * grid))
        c = unit_coordinate_couple()
        x = vec([1.3])
        want = interp_norm(x, c, InterpParams(theta, q))
        assert lattice_norm(x, c, E) == pytest.approx(want, rel=1e-12)

    def test_linf_lattice_saturates_at_a0_norm(self):
        # ordered couple A1 -> A0: sup_n K(x, 2^n) = ||x||_{A0}
        c = weighted_sup_couple(np.ones(3), np.full(3, 4.0))
        x = vec([1.0, -2.0, 0.5])
        E = LatticeParam(math.inf, -10, np.ones(21))
        assert lattice_norm(x, c, E) == pytest.approx(c.norm0(x), rel=1e-9)

    def test_zero(self):
        E = LatticeParam(2.0, -5, np.ones(11))
        assert lattice_norm(vec([0.0]), unit_coordinate_couple(), E) == 0.0

    def test_infinite_weights_rejected(self):
        # JSON 1e400 reads as inf; the norm came out nan
        with pytest.raises(InvariantError,
                           match="lattice weights must be finite"):
            LatticeParam(2.0, -2, [1.0, math.inf, 1.0])

    def test_k_nontriviality_rejected(self):
        # weights growing like 2^{-2n} blow up the min(1, 2^n) norm
        grid = np.arange(-8, 9, dtype=float)
        E = LatticeParam(1.0, -8, 2.0 ** (-2.0 * grid))
        with pytest.raises(ParamError):
            lattice_norm(vec([1.0]), unit_coordinate_couple(), E)

    def test_sandwich_with_computed_constants(self):
        # C1 ||x||_sum <= ||x||_{E:K} <= C2 ||x||_int, C1 = ||beta||_E,
        # C2 = ||min(1, 2^n)||_E on the window
        rng = np.random.default_rng(4)
        grid = np.arange(-10, 11, dtype=float)
        E = LatticeParam(2.0, -10, 2.0 ** (-0.5 * grid))
        beta = (grid >= 0).astype(float)
        c1 = E.norm_of(beta)
        c2 = E.norm_of(np.minimum(1.0, 2.0 ** grid))
        for trial in range(20):
            d = int(rng.integers(1, 6))
            c = l1_linf_couple(d)
            x = FiniteVector(0, rng.standard_normal(d))
            val = lattice_norm(x, c, E)
            sum_norm = c.k(x, 1.0)
            int_norm = max(c.norm0(x), c.norm1(x))
            assert c1 * sum_norm <= val * (1 + 1e-9)
            assert val <= c2 * int_norm * (1 + 1e-9)


class TestSplitNorm:
    def test_sqrt3_split(self):
        low, high = split_norm(vec([1.0]), unit_coordinate_couple(),
                               InterpParams(0.5, 2.0))
        low_want = geometric_interp_sum(0.5, 2.0, DEFAULT_N_MIN, 0)
        high_want = geometric_interp_sum(0.5, 2.0, 1, DEFAULT_N_MAX)
        assert low == pytest.approx(low_want, rel=1e-12)
        assert high == pytest.approx(high_want, rel=1e-12)
        assert low * low == pytest.approx(2.0, abs=1e-5)
        assert high * high == pytest.approx(1.0, abs=1e-5)

    def test_zero(self):
        assert split_norm(vec([0.0]), unit_coordinate_couple(),
                          InterpParams(0.3, 1.0)) == (0.0, 0.0)

    def test_exact_partition_of_q_power(self):
        # the two halves partition the summands: low^q + high^q = full^q
        rng = np.random.default_rng(14)
        for q in (0.5, 1.0, 2.0):
            d = int(rng.integers(1, 6))
            c = l1_linf_couple(d)
            x = FiniteVector(0, rng.standard_normal(d))
            params = InterpParams(0.35, q)
            low, high = split_norm(x, c, params)
            full = interp_norm(x, c, params)
            assert low ** q + high ** q == pytest.approx(full ** q, rel=1e-12)

    def test_quasi_equivalence_with_full_norm(self):
        rng = np.random.default_rng(6)
        for q in (0.5, 1.0, 2.0, math.inf):
            mq = max(1.0, 2.0 ** (1.0 / q - 1.0)) if not math.isinf(q) else 1.0
            for _ in range(10):
                d = int(rng.integers(1, 6))
                c = l1_linf_couple(d)
                x = FiniteVector(0, rng.standard_normal(d))
                params = InterpParams(0.4, q)
                low, high = split_norm(x, c, params)
                full = interp_norm(x, c, params)
                assert full <= 2.0 * mq * (low + high) * (1 + 1e-12)
                assert low + high <= 2.0 * mq * full * (1 + 1e-12)


class TestParameterConditions:
    def test_cond4_exactly_one_for_mirror_pair(self):
        rep = parameter_conditions(ParamSpace(0.3, 1.0), ParamSpace(0.7, 1.0),
                                   probes=30, seed=5)
        assert not rep.cond4.fail
        assert rep.cond4.constant == pytest.approx(1.0, rel=1e-12)
        assert rep.cond3.constant == pytest.approx(1.0, rel=1e-12)
        assert not rep.cond1.fail and rep.cond1.constant <= 1.0 + 1e-12

    def test_identical_spaces_all_one(self):
        rep = parameter_conditions(ParamSpace(0.5, 2.0), ParamSpace(0.5, 2.0),
                                   probes=30, seed=5)
        for name in ("cond1", "cond2", "cond3", "cond4"):
            est = getattr(rep, name)
            assert not est.fail
            assert est.constant == pytest.approx(1.0, rel=1e-9)

    def test_cond1_fails_for_reversed_mirror_pair(self):
        # weight t^{-0.7} vs t^{-0.3} on (0,1): spikes near t = 2^{-20}
        # drive the ratio beyond any bound
        rep = parameter_conditions(ParamSpace(0.7, 1.0), ParamSpace(0.3, 1.0),
                                   probes=30, seed=5)
        assert rep.cond1.fail
        assert rep.cond2.fail
        assert not rep.cond4.fail

    def test_json_shape(self):
        rep = parameter_conditions(ParamSpace(0.3, 1.0), ParamSpace(0.7, 1.0),
                                   probes=5, seed=0)
        data = rep.to_json()
        assert isinstance(data["cond4"], float)
        rep2 = parameter_conditions(ParamSpace(0.7, 1.0), ParamSpace(0.3, 1.0),
                                    probes=5, seed=0)
        assert rep2.to_json()["cond1"] == "fail"


class TestDerivedCouple:
    def test_zero(self):
        dc = derived_sum_int_couple(l1_linf_couple(3))
        assert dc.k_batch(np.zeros((1, 3)), 0.5)[0] == 0.0

    def test_single_coordinate_ratio_two(self):
        # base (linf, linf): sum = int = |x|, true K = min(1, t)|x|,
        # surrogate = 2t|x| for t < 1
        dc = derived_sum_int_couple(weighted_sup_couple([1.0], [1.0]))
        x = vec([2.0])
        X = dc.embed(x)[None, :]
        for t in (0.125, 0.5):
            oracle = float(dc.k_oracle_batch(X, t)[0])
            surrogate = float(dc.k_batch(X, t)[0])
            assert surrogate == pytest.approx(2.0 * t * 2.0)
            assert oracle == pytest.approx(min(1.0, t) * 2.0, rel=1e-9)
            assert surrogate / oracle == pytest.approx(2.0, rel=1e-9)

    def test_requires_exact_strategy(self):
        rng = np.random.default_rng(0)
        c = power_couple(2.0, np.ones(3), np.ones(3))
        with pytest.raises(InvariantError):
            derived_sum_int_couple(c)

    def test_surrogate_within_band_of_oracle(self):
        # empirical band certified on (l1, linf), dims <= 8, 200 seeded
        # samples, batched per dimension
        rng = np.random.default_rng(77)
        draws = [(int(rng.integers(1, 9)), rng.standard_normal(8),
                  float(2.0 ** rng.uniform(-6, 0))) for _ in range(200)]
        lo, hi = math.inf, 0.0
        for d in range(1, 9):
            group = [(x[:d], t) for (dd, x, t) in draws if dd == d]
            if not group:
                continue
            X = np.stack([g[0] for g in group])
            T = np.asarray([g[1] for g in group])
            dc = derived_sum_int_couple(l1_linf_couple(d))
            ratios = dc.k_oracle_batch(X, T, budget=2, seed=d) / dc.k_batch(X, T)
            lo, hi = min(lo, ratios.min()), max(hi, ratios.max())
        assert 1.0 / 8.0 <= lo <= hi <= 8.0

    def test_exact_route_matches_descent(self):
        # the derived couple of (l1, linf) is exactly (linf, l1)
        from interpk._descent import decomposition_infimum
        rng = np.random.default_rng(78)
        grid = 2.0 ** np.arange(-6, 1).astype(float)[None, :]
        for d in range(1, 9):
            X = rng.standard_normal((8, d))
            for base in (l1_linf_couple(d), l1_linf_couple(d).reversed()):
                dc = derived_sum_int_couple(base)
                got = dc.k_oracle_batch(X, grid, budget=2, seed=d)
                ref = decomposition_infimum(X, grid, dc.sum_dense,
                                            dc.int_dense, budget=2, seed=d)
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
                want = np.stack([dc.k_oracle_batch(X, t) for t in grid[0]],
                                axis=1)
                assert np.array_equal(got, want)

    def test_exact_route_has_no_size_guard(self):
        # ORACLE_MAX_DIM guards only the descent route
        from interpk.errors import SizeError
        X = np.random.default_rng(79).standard_normal((3, 40))
        got = derived_sum_int_couple(l1_linf_couple(40)).k_oracle_batch(X, 0.25)
        # K(x, t; linf, l1) = t K(x, 1/t; l1, linf): at t = 1/4, a quarter
        # of the four largest |x_i|
        top4 = -np.sort(-np.abs(X), axis=1)[:, :4]
        np.testing.assert_allclose(got, 0.25 * np.sum(top4, axis=1),
                                   rtol=1e-15)
        geometric = derived_sum_int_couple(
            power_couple(1.0, 2.0 ** np.arange(-8, 9.0),
                         2.0 ** -np.arange(-8, 9.0)))
        with pytest.raises(SizeError):
            geometric.k_oracle_batch(np.ones((1, 17)), 0.5)

    def test_sum_int_norms_for_l1_linf(self):
        # sum norm = max |x|, intersection norm = l1 norm
        dc = derived_sum_int_couple(l1_linf_couple(3))
        x = vec([3.0, -1.0, 2.0])
        X = dc.embed(x)[None, :]
        assert dc.sum_dense(X)[0] == pytest.approx(3.0)
        assert dc.int_dense(X)[0] == pytest.approx(6.0)

    def test_profile_valid_and_monotone(self):
        dc = derived_sum_int_couple(l1_linf_couple(4))
        prof = dc.profile(vec([1.0, -0.5, 2.0, 0.1]), -6, 6)
        prof.validate(rel_tol=1e-9)


# Reference implementations: the per-column derived profile, weights and lq
# sum that ``verify`` and ``interp`` wrote out before ``surrogate``,
# ``dyadic_weights`` and ``dyadic_norm`` replaced them, kept as written.

def reference_derived_profile(base_profile, grid):
    P = base_profile
    out = np.empty_like(P)
    zero = np.searchsorted(grid, 0)
    for j, n in enumerate(grid):
        if n <= 0:
            mirror = np.searchsorted(grid, -n)
            out[:, j] = P[:, j] + (2.0 ** float(n)) * P[:, mirror]
        else:
            out[:, j] = 2.0 * P[:, zero]
    return out


def reference_weights(params, grid):
    return 2.0 ** (-params.theta * grid.astype(float))


def reference_lq_combine(terms, q):
    return stable_lp_sum(np.asarray(terms, dtype=float), q)


FAMILY_DIMS = [("l1_linf", d) for d in range(1, 10)] + [
    ("l1_geometric", d) for d in range(1, 10, 2)]


class TestOneFormula:
    """``surrogate`` and ``dyadic_norm`` equal the references bit for bit."""

    @pytest.mark.parametrize("half", [4, 20])
    @pytest.mark.parametrize("family, dim", FAMILY_DIMS)
    def test_equal_to_reference(self, family, dim, half):
        grid = np.arange(-half, half + 1)
        t = 2.0 ** grid.astype(float)
        X = np.random.default_rng(dim * 100 + half).standard_normal((12, dim))
        derived = derived_sum_int_couple(couple_family(family, dim))
        P = derived.base.profile_batch(X, t)
        want = reference_derived_profile(P, grid)
        assert np.array_equal(derived.surrogate(P, t, t), want)
        assert np.array_equal(derived.profile_batch(X, t), want)
        low = grid <= 0
        for theta, q in ((0.3, 1.0), (0.5, 2.0), (0.7, 0.5), (0.4, math.inf)):
            params = InterpParams(theta, q)
            w = reference_weights(params, grid)
            assert np.array_equal(dyadic_weights(theta, grid), w)
            assert np.array_equal(
                dyadic_norm(want[:, low], grid[low], theta, q),
                reference_lq_combine((w * want)[:, low], q))
            assert np.array_equal(dyadic_norm(P, grid, theta, q),
                                  reference_lq_combine(w * P, q))

    def test_profile_batch_calls_the_base_once(self, monkeypatch):
        # an unsorted grid with t > 1: the surrogate there is 2 K(x, 1)
        derived = derived_sum_int_couple(l1_linf_couple(5))
        X = np.random.default_rng(3).standard_normal((4, 5))
        s = np.array([0.25, 1.0, 0.5, 1.0])
        want = (derived.base.profile_batch(X, s)
                + s * derived.base.profile_batch(X, 1.0 / s))
        calls = []
        base_profile_batch = Couple.profile_batch

        def counting(self, X, t_grid):
            calls.append(np.size(t_grid))
            return base_profile_batch(self, X, t_grid)

        monkeypatch.setattr(Couple, "profile_batch", counting)
        got = derived.profile_batch(X, [0.25, 3.0, 0.5, 1.0])
        assert calls == [8]
        assert np.array_equal(got, want)


class TestWindowRefusals:
    """Every dyadic window goes through ``couples._n_window``."""

    @pytest.mark.parametrize("n_min, n_max, key", [
        (-2000, 0, "n_min = -2000"), (3, 2, "need n_min <= n_max")])
    @pytest.mark.parametrize("build", [
        lambda n0, n1: derived_sum_int_couple(l1_linf_couple(3)).profile(
            vec([1.0, 2.0, 0.5]), n0, n1),
        lambda n0, n1: endpoint_space(l1_linf_couple(3),
                                      InterpParams(0.5, 2.0),
                                      n0, n1).dense(np.ones((1, 3))),
        lambda n0, n1: parameter_conditions(ParamSpace(0.3, 1.0),
                                            ParamSpace(0.7, 1.0), 3, 0,
                                            n0, n1),
    ], ids=["derived-profile", "endpoint-dense", "parameter-conditions"])
    def test_refused(self, build, n_min, n_max, key):
        with pytest.raises(DomainError, match=key):
            build(n_min, n_max)


class TestEndpointSpace:
    def test_definitional_equality(self):
        c = l1_linf_couple(4)
        params = InterpParams(0.4, 2.0)
        e = endpoint_space(c, params)
        x = vec([1.0, -2.0, 0.3, 0.7])
        assert e(x) == pytest.approx(interp_norm(x, c, params), rel=1e-12)

    def test_oracle_k_at_one_below_min_norm(self):
        # K(x, 1) <= min of the endpoint norms (trivial decompositions)
        from interpk._descent import decomposition_infimum
        c = l1_linf_couple(3)
        e0 = endpoint_space(c, InterpParams(0.3, 1.0), -8, 8)
        e1 = endpoint_space(c, InterpParams(0.7, 1.0), -8, 8)
        rng = np.random.default_rng(12)
        X = rng.standard_normal((5, 3))
        k1 = decomposition_infimum(X, 1.0, e0.dense, e1.dense, budget=2, seed=0)
        assert np.all(k1 <= np.minimum(e0.dense(X), e1.dense(X)) * (1 + 1e-9))


class TestSequenceCoupleK:
    def test_equal_exponents_match_power(self):
        vals = np.array([[1.0, 0.5, 0.25]])
        w0 = np.array([1.0, 1.0, 1.0])
        w1 = np.array([2.0, 1.0, 0.5])
        from interpk.couples import _power_batch
        got = sequence_couple_k(vals, 0.7, 2.0, w0, 2.0, w1)
        want = _power_batch(vals, 0.7, 2.0, w0, w1)
        np.testing.assert_allclose(got, want)

    def test_sup_pair_is_the_weighted_sup_kernel(self):
        # the power kernel's s = p/(p-1) is inf/inf = nan at p = inf
        from interpk.couples import _weighted_sup_batch
        rng = np.random.default_rng(14)
        vals = np.abs(rng.standard_normal((5, 7)))
        w0 = 2.0 ** rng.uniform(-3, 3, 7)
        w1 = 2.0 ** rng.uniform(-3, 3, 7)
        grid = 2.0 ** np.arange(-6, 7).astype(float)[None, :]
        for t in (0.3, grid):
            got = sequence_couple_k(vals, t, math.inf, w0, "inf", w1)
            want = _weighted_sup_batch(vals, t, w0, w1)
            assert np.all(np.isfinite(want))
            assert np.array_equal(got, want)

    def test_mixed_exponents_upper_bounds_trivial(self):
        vals = np.array([[1.0, 0.5, 0.25, 0.125]])
        ones = np.ones(4)
        got = sequence_couple_k(vals, 0.5, 1.0, ones, 2.0, ones)[0]
        triv = min(np.sum(vals), 0.5 * np.sqrt(np.sum(vals ** 2)))
        assert got <= triv * (1 + 1e-12)


class TestArgumentRules:
    """Each parameter class reads its exponents and window start through
    the one rule in ``couples`` that holds it."""

    @pytest.mark.parametrize("r, message", [
        (0.0, "r must be positive, got 0.0"),
        (-1, "r must be positive, got -1.0"),
        (True, 'r must be a number or "inf", got True'),
        ("2", "r must be a number or \"inf\", got '2'")])
    def test_lattice_exponent(self, r, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            LatticeParam(r, 0, [1.0])

    @pytest.mark.parametrize("r, want", [(2, 2.0), ("inf", math.inf),
                                         (np.float64(0.5), 0.5)])
    def test_lattice_exponent_accepted(self, r, want):
        E = LatticeParam(r, 0, [1.0])
        assert E.r == want and type(E.r) is float

    @pytest.mark.parametrize("weights", [[1.0, 0.0, 1.0], [1.0, -1.0], [],
                                         [[1.0]]])
    def test_lattice_weights_must_be_positive(self, weights):
        with pytest.raises(InvariantError,
                           match="lattice weights must be positive"):
            LatticeParam(2.0, 0, weights)

    @pytest.mark.parametrize("n_min", [-20.5, 1.0, "3", True, None])
    def test_lattice_start_must_be_an_integer(self, n_min):
        # int() read -20.5 as -20
        with pytest.raises(DomainError,
                           match=f"n_min must be an integer, got "
                                 f"{re.escape(repr(n_min))}"):
            LatticeParam(1.0, n_min, [1.0])

    @pytest.mark.parametrize("theta", ["0.5", None, [0.5], 0.5j])
    @pytest.mark.parametrize("build", [
        lambda theta: InterpParams(theta, 2),
        lambda theta: ParamSpace(theta, 2.0),
    ], ids=["interp", "space"])
    def test_theta_must_be_a_real_number(self, build, theta):
        # "0.5" raised TypeError from the comparison
        with pytest.raises(ParamError, match=re.escape(
                f"theta must lie in (0, 1), got {theta}")):
            build(theta)

    def test_lattice_start_takes_numpy_integers(self):
        E = LatticeParam(1.0, np.int64(-2), [1.0, 1.0])
        assert (E.n_min, E.n_max) == (-2, -1) and type(E.n_min) is int

    @pytest.mark.parametrize("n_min", [-3, 0, 5])
    def test_one_weight_is_k_nontrivial(self, n_min):
        # no edge to grow toward
        assert LatticeParam(1.0, n_min, [1e6]).k_nontrivial()

    @pytest.mark.parametrize("q, message", [
        (0, "q must be positive, got 0.0"),
        (-2.0, "q must be positive, got -2.0"),
        (math.nan, "q must be positive, got nan"),
        (True, 'q must be a number or "inf", got True'),
        ("2", "q must be a number or \"inf\", got '2'")])
    def test_interp_exponent(self, q, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            InterpParams(0.5, q)

    @pytest.mark.parametrize("theta", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_parameter_space_theta(self, theta):
        with pytest.raises(ParamError,
                           match=re.escape(f"theta must lie in (0, 1), got "
                                           f"{theta}")):
            ParamSpace(theta, 1.0)

    @pytest.mark.parametrize("p", [0.0, -1.0, math.inf, math.nan, True,
                                   "inf", "2"])
    def test_parameter_space_exponent(self, p):
        with pytest.raises(DomainError,
                           match=re.escape(f"p must lie in (0, inf), got {p}")):
            ParamSpace(0.5, p)

    def test_parameter_space_exponent_is_a_float(self):
        space = ParamSpace(0.5, 2)
        assert space.p == 2.0 and type(space.p) is float

    @pytest.mark.parametrize("probes", [0, -3])
    def test_conditions_need_a_probe(self, probes):
        with pytest.raises(DomainError, match="probes must be >= 1"):
            parameter_conditions(ParamSpace(0.3, 1.0), ParamSpace(0.7, 1.0),
                                 probes=probes, seed=0)

    def test_conditions_on_a_window_without_negative_n(self):
        # no t < 1 sample: the t < 1 sides are empty sums, which give no
        # ratio, and the condition reads 1.0
        rep = parameter_conditions(ParamSpace(0.3, 1.0), ParamSpace(0.7, 1.0),
                                   probes=4, seed=0, n_min=1, n_max=8)
        for name in ("cond1", "cond3", "cond4"):
            assert getattr(rep, name) == ConditionEstimate(1.0, False)
        assert rep.to_json()["cond1"] == 1.0
