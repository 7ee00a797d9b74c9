import math

import numpy as np
import pytest

from interpk import (EmptyReportError, InterpParams, check_konig,
                     check_mainlema, check_reiteration,
                     check_sum_intersection, dichotomy_sweep,
                     distinctness_demo, equivalence_report, l1_linf_couple,
                     oracle_agreement)
from interpk.couples import WeightedNorm, vec
from interpk.verify import (_nonincreasing_rows, _sample_rows, _sample_sweep,
                            couple_family, sample_dense,
                            sample_nonincreasing, vector_sampler)


def frozen_sample_dense(dim, index, seed):
    """The standard mix as drawn one (index, dim) pair per generator; the
    sweep sampler must reproduce this stream bit for bit."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    if index == 0:
        return np.full(dim, 1.0 / dim)
    if index == 1:
        out = np.zeros(dim)
        out[0] = 1.0
        return out
    kind = index % 3
    if kind == 0:
        return rng.standard_normal(dim)
    if kind == 1:
        out = np.zeros(dim)
        support = rng.choice(dim, size=max(1, dim // 4), replace=False)
        out[support] = rng.standard_normal(len(support)) * (
            2.0 ** rng.uniform(-5.0, 5.0))
        return out
    scale = 2.0 ** rng.integers(-3, 4)
    if rng.integers(0, 2):
        return np.full(dim, scale / dim)
    return scale * 2.0 ** (-np.arange(dim, dtype=float) / 2.0)


def frozen_sample_nonincreasing(length, index, seed):
    """The nonincreasing mix, one (index, length) pair per generator."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    kind = index % 3
    if kind == 0:
        vals = np.sort(np.abs(rng.standard_normal(length)))[::-1]
    elif kind == 1:
        rate = rng.uniform(0.1, 1.5)
        vals = 2.0 ** (-rate * np.arange(length, dtype=float))
    else:
        n = np.arange(1, length + 1, dtype=float)
        vals = n ** (-rng.uniform(0.3, 2.0))
    return vals * 2.0 ** rng.integers(-2, 3)


# unsorted, with duplicates and dimension 1
SWEEP_SIZES = [(5,), (8, 1, 8, 3), (64, 4, 16, 4, 1, 32)]


class TestEquivalenceReport:
    def test_identical_norms(self):
        n = WeightedNorm(2.0, 0, np.ones(4))
        rep = equivalence_report(n, n, vector_sampler(4, seed=1), count=20)
        assert rep.min_ratio == pytest.approx(1.0)
        assert rep.max_ratio == pytest.approx(1.0)

    def test_scaled_norm(self):
        n = WeightedNorm(2.0, 0, np.ones(4))
        two_n = lambda x: 2.0 * n(x)
        rep = equivalence_report(two_n, n, vector_sampler(4, seed=1), count=20)
        assert rep.min_ratio == pytest.approx(2.0)
        assert rep.max_ratio == pytest.approx(2.0)

    def test_l1_vs_linf_classical_bound(self):
        l1 = WeightedNorm(1.0, 0, np.ones(4))
        linf = WeightedNorm(math.inf, 0, np.ones(4))
        rep = equivalence_report(l1, linf, vector_sampler(4, seed=3), count=50)
        assert rep.max_ratio <= 4.0 + 1e-12
        assert rep.min_ratio >= 1.0 - 1e-12

    def test_empty_report(self):
        n = WeightedNorm(1.0, 0, np.ones(2))
        zero_sampler = lambda i: vec([0.0, 0.0])
        with pytest.raises(EmptyReportError):
            equivalence_report(n, n, zero_sampler, count=5)

    def test_interval_monotone_in_count(self):
        # doubling the sample count can only widen [min, max]
        l1 = WeightedNorm(1.0, 0, np.ones(5))
        linf = WeightedNorm(math.inf, 0, np.ones(5))
        r1 = equivalence_report(l1, linf, vector_sampler(5, seed=9), count=25)
        r2 = equivalence_report(l1, linf, vector_sampler(5, seed=9), count=50)
        assert r2.min_ratio <= r1.min_ratio * (1 + 1e-15)
        assert r2.max_ratio >= r1.max_ratio * (1 - 1e-15)


class TestSamplers:
    def test_deterministic_per_index(self):
        a = sample_dense(6, 17, seed=4)
        b = sample_dense(6, 17, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_flat_and_spike_always_present(self):
        assert np.allclose(sample_dense(4, 0, seed=1), 0.25)
        spike = sample_dense(4, 1, seed=1)
        assert spike[0] == 1.0 and np.all(spike[1:] == 0.0)

    @pytest.mark.parametrize("count", [1, 2, 3, 160])
    @pytest.mark.parametrize("dims", SWEEP_SIZES)
    def test_dense_sweep_is_bit_identical(self, count, dims):
        got = _sample_sweep(_sample_rows, count, dims, seed=7)
        assert sorted(got) == sorted(set(dims))
        for d in dims:
            per_index = np.stack([sample_dense(d, i, 7) for i in range(count)])
            frozen = np.stack([frozen_sample_dense(d, i, 7)
                               for i in range(count)])
            assert got[d].shape == (count, d)
            assert got[d].tobytes() == per_index.tobytes()
            assert got[d].tobytes() == frozen.tobytes()

    @pytest.mark.parametrize("count", [1, 2, 3, 48])
    @pytest.mark.parametrize("lengths", SWEEP_SIZES)
    def test_nonincreasing_sweep_is_bit_identical(self, count, lengths):
        got = _sample_sweep(_nonincreasing_rows, count, lengths, seed=7)
        assert sorted(got) == sorted(set(lengths))
        for n in lengths:
            per_index = np.stack([sample_nonincreasing(n, i, 7)
                                  for i in range(count)])
            frozen = np.stack([frozen_sample_nonincreasing(n, i, 7)
                               for i in range(count)])
            assert got[n].tobytes() == per_index.tobytes()
            assert got[n].tobytes() == frozen.tobytes()


class TestCheckMainlema:
    def test_small_run_band_and_determinism(self):
        r1 = check_mainlema(dims=(2, 4), count=40, seed=5, budget=2)
        r2 = check_mainlema(dims=(2, 4), count=40, seed=5, budget=2)
        assert r1.passed
        assert 0.125 <= r1.min_ratio <= r1.max_ratio <= 8.0
        assert r1.to_json() == r2.to_json()

    def test_interval_monotone_in_count(self):
        r1 = check_mainlema(dims=(4,), count=30, seed=5, budget=2)
        r2 = check_mainlema(dims=(4,), count=60, seed=5, budget=2)
        assert r2.min_ratio <= r1.min_ratio * (1 + 1e-15)
        assert r2.max_ratio >= r1.max_ratio * (1 - 1e-15)


class TestCheckSumIntersection:
    def test_theta_half_branches_within_factor_two(self):
        # at theta = 1/2 both endpoint spaces coincide: max <= sum <= 2 max
        r = check_sum_intersection(0.5, 2.0, dims=(4, 8), count=40, seed=5)
        assert r.passed

    def test_small_sweep_passes(self):
        r = check_sum_intersection(0.3, 1.0, dims=(4, 8, 16), count=60, seed=5)
        assert r.passed
        assert r.min_ratio > 0

    def test_deterministic(self):
        a = check_sum_intersection(0.7, 1.0, dims=(4, 8), count=30, seed=2)
        b = check_sum_intersection(0.7, 1.0, dims=(4, 8), count=30, seed=2)
        assert a.to_json() == b.to_json()


class TestCheckReiteration:
    def test_equal_thetas_band_within_profile_exponent_gap(self):
        # theta0 = theta1 with shared exponents: the profile-couple K is
        # exactly proportional to the profile norm, so the band is a point
        r = check_reiteration(0.4, 0.4, 0.5, 2.0, dims=(4, 8), count=30, seed=3)
        assert r.max_ratio / r.min_ratio == pytest.approx(1.0, rel=1e-9)
        assert 0.1 < r.min_ratio < 10.0

    def test_sup_endpoints(self):
        # (theta0, inf) and (theta1, inf): the weighted sup route, not nan
        r = check_reiteration(0.25, 0.75, 0.5, 2.0, p=math.inf, q=math.inf,
                              dims=(4, 8), count=12, seed=3)
        assert r.sample_count == 24
        assert 0.0 < r.min_ratio <= r.max_ratio < math.inf

    def test_alpha_degenerate_rejected(self):
        from interpk.errors import DomainError
        with pytest.raises(DomainError):
            check_reiteration(0.25, 0.75, 0.0, 2.0, dims=(4,), count=10, seed=1)
        with pytest.raises(DomainError):
            check_reiteration(0.25, 0.75, 1.0, 2.0, dims=(4,), count=10, seed=1)

    def test_acceptance_config_small(self):
        r = check_reiteration(0.25, 0.75, 0.5, 2.0, dims=(4, 8, 16),
                              count=60, seed=3)
        assert r.passed

    def test_profile_route_vs_descent_route_small_dims(self, monkeypatch):
        # cross-validate the profile-level K against descent on the
        # materialized endpoint norms at dims <= 8
        from interpk import _descent
        from interpk._descent import decomposition_infimum
        from interpk.couples import _power_batch
        from interpk.interp import endpoint_space
        theta0, theta1, p = 0.25, 0.75, 2.0
        n_min, n_max = -8, 8
        grid = np.arange(n_min, n_max + 1)
        w0 = 2.0 ** (-theta0 * grid.astype(float))
        w1 = 2.0 ** (-theta1 * grid.astype(float))
        couple = l1_linf_couple(5)
        e0 = endpoint_space(couple, InterpParams(theta0, p), n_min, n_max)
        e1 = endpoint_space(couple, InterpParams(theta1, p), n_min, n_max)
        rng = np.random.default_rng(21)
        X = rng.standard_normal((2, 5))
        from interpk.verify import _profile_matrix
        P = _profile_matrix(couple, X, grid)
        monkeypatch.setattr(_descent, "SWEEPS", 1)
        for t in (0.25, 2.0):
            profile_k = _power_batch(P, t, p, w0, w1)
            descent_k = decomposition_infimum(X, t, e0.dense, e1.dense,
                                              budget=1, seed=1)
            ratio = profile_k / descent_k
            assert np.all(ratio > 0.2) and np.all(ratio < 5.0)


class TestCheckKonig:
    def test_small_run(self):
        r = check_konig(1.0, 2.0, 0.5, 1.0, lengths=(4, 8, 16), count=20,
                        seed=3, witness_length=2 ** 14)
        assert r.passed
        assert r.config["p"] == pytest.approx(4.0 / 3.0)
        assert r.config["witness_flags"] == ["diverging", "converging"]

    def test_spike_sequence_is_window_constant(self):
        # sigma = (1, 0, ...): K(sigma, t) = min(1, t) exactly, so the
        # interpolation side is the fixed window constant and the Lorentz
        # side is exactly 1
        from interpk.snum import k_operator_diag
        sigma = np.array([1.0, 0.0, 0.0, 0.0])
        for t in (0.25, 1.0, 8.0):
            assert k_operator_diag(sigma, t, 1.0, 2.0) == pytest.approx(
                min(1.0, t), rel=1e-9)

    def test_equal_outer_exponents_proportional(self):
        # p0 = p1: K(sigma, t) = min(1, t) ||sigma||_p, both sides
        # proportional, so the band collapses to a point per length
        r = check_konig(2.0, 2.0, 0.5, 2.0, lengths=(8,), count=20, seed=3,
                        witness_length=2 ** 14)
        d = r.per_dimension[8]
        assert d["max"] / d["min"] == pytest.approx(1.0, rel=1e-9)


class TestDichotomy:
    def test_nonordered_family(self):
        r = dichotomy_sweep("l1_geometric", 0.25, [9, 13, 17], seed=3)
        assert r.passed
        assert all(v >= 0.99 for v in r.values)

    def test_t_one_exact(self):
        r = dichotomy_sweep("l1_geometric", 1.0, [9], seed=3)
        assert r.values[0] == pytest.approx(1.0)

    def test_ordered_family_bounded(self):
        r = dichotomy_sweep("l1_linf", 0.25, [4, 8], seed=3)
        assert r.passed
        assert all(v <= 0.25 * (1 + 1e-9) for v in r.values)


class TestDistinctness:
    def test_flags_separate_pairs(self):
        r = distinctness_demo([4.0 / 3.0], [1.0, 2.0], 2 ** 14,
                              norm_lengths=(16, 64))
        assert r.passed
        flagged = {(tuple(e["pair_a"]), tuple(e["pair_b"])): e for e in r.pairs}
        same = flagged[((4.0 / 3.0, 1.0), (4.0 / 3.0, 1.0))]
        assert same["separated"] is False
        diff = flagged[((4.0 / 3.0, 1.0), (4.0 / 3.0, 2.0))]
        assert diff["separated"] is True
        assert diff["flag_fine"] == "diverging"

    def test_distinct_p_separates(self):
        r = distinctness_demo([1.0, 2.0], [1.5], 2 ** 14)
        entry = [e for e in r.pairs if e["pair_a"] != e["pair_b"]][0]
        assert entry["separated"] is True


class TestOracleAgreement:
    def test_tight_agreement(self):
        rep = oracle_agreement(count=60, max_dim=6, seed=13, budget=4)
        for kind, err in rep["worst_relative_error"].items():
            assert err <= 1e-6, f"{kind}: {err}"

    def test_one_descent_per_kind(self, monkeypatch):
        # rows of every dim, zero-padded to the largest, share one descent
        from interpk import verify
        shapes = []
        descent = verify.decomposition_infimum

        def counted(X, *args, **kwargs):
            shapes.append(X.shape)
            return descent(X, *args, **kwargs)

        monkeypatch.setattr(verify, "decomposition_infimum", counted)
        rep = oracle_agreement(200, 8, 101, 4)
        assert shapes == [(100, 8), (100, 8)]
        for kind, err in rep["worst_relative_error"].items():
            assert err <= 1e-6, f"{kind}: {err}"

    def test_needs_both_kinds(self):
        from interpk.errors import DomainError
        with pytest.raises(DomainError, match="count must be >= 2"):
            oracle_agreement(count=1)


class TestCoupleFamily:
    def test_unknown_family(self):
        from interpk.errors import DomainError
        with pytest.raises(DomainError):
            couple_family("nope", 4)

    def test_geometric_family_window(self):
        c = couple_family("l1_geometric", 9)
        assert c.offset == -4
        assert c.dim == 9

    @pytest.mark.parametrize("name, dim", [("l1_geometric", 4),
                                           ("l1_geometric", 0),
                                           ("l1_linf", 0),
                                           ("l1_linf", -1)])
    def test_refused_dimensions(self, name, dim):
        from interpk.errors import DomainError
        with pytest.raises(DomainError, match=f"got {dim}"):
            couple_family(name, dim)
