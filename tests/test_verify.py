import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from interpk import (DomainError, EmptyReportError, FiniteVector,
                     InterpParams, InvariantError, check_konig, check_mainlema,
                     check_reiteration, check_sum_intersection,
                     dichotomy_sweep, distinctness_demo, equivalence_report,
                     l1_linf_couple, oracle_agreement)
from interpk.couples import WeightedNorm, vec
from interpk.snum import (LorentzParams, diag_operator, ideal_norm,
                          lorentz_norm, witness_sequence)
from interpk import verify
from interpk._seeding import generator, pcg64_states
from interpk.verify import (EquivReport, _floyd_supports,
                            _nonincreasing_rows, _sample_rows, _sample_sweep,
                            couple_family)


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


def sweep_sampler(dim, seed, count=50):
    """index -> FiniteVector: sample ``index`` of one standard-mix sweep of
    ``count`` samples at ``dim`` (a row of a longer sweep is the same)."""
    X = _sample_sweep(_sample_rows, count, (dim,), seed)[dim]
    return lambda index: FiniteVector(0, X[index])


class TestEquivalenceReport:
    def test_identical_norms(self):
        n = WeightedNorm(2.0, 0, np.ones(4))
        rep = equivalence_report(n, n, sweep_sampler(4, seed=1), count=20)
        assert rep.min_ratio == pytest.approx(1.0)
        assert rep.max_ratio == pytest.approx(1.0)

    def test_scaled_norm(self):
        n = WeightedNorm(2.0, 0, np.ones(4))
        two_n = lambda x: 2.0 * n(x)
        rep = equivalence_report(two_n, n, sweep_sampler(4, seed=1), count=20)
        assert rep.min_ratio == pytest.approx(2.0)
        assert rep.max_ratio == pytest.approx(2.0)

    def test_l1_vs_linf_classical_bound(self):
        l1 = WeightedNorm(1.0, 0, np.ones(4))
        linf = WeightedNorm(math.inf, 0, np.ones(4))
        rep = equivalence_report(l1, linf, sweep_sampler(4, seed=3), count=50)
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
        r1 = equivalence_report(l1, linf, sweep_sampler(5, seed=9), count=25)
        r2 = equivalence_report(l1, linf, sweep_sampler(5, seed=9), count=50)
        assert r2.min_ratio <= r1.min_ratio * (1 + 1e-15)
        assert r2.max_ratio >= r1.max_ratio * (1 - 1e-15)

    @pytest.mark.parametrize("count", [0, -1])
    def test_needs_a_sample(self, count):
        n = WeightedNorm(1.0, 0, np.ones(2))
        with pytest.raises(DomainError, match="count must be >= 1"):
            equivalence_report(n, n, sweep_sampler(2, seed=0), count=count)

    def test_trace_rows(self):
        # one row per counted ratio, in sample order; the zero sample is
        # skipped
        l1 = WeightedNorm(1.0, 0, np.ones(3))
        linf = WeightedNorm(math.inf, 0, np.ones(3))
        samples = [vec([1.0, 1.0, 1.0]), vec([0.0, 0.0, 0.0]),
                   vec([2.0, 0.0, 0.0]), vec([1.0, -2.0])]
        rep = equivalence_report(l1, linf, samples.__getitem__, count=4,
                                 keep_trace=True)
        assert rep.trace == [{"index": 0, "dim": 3, "ratio": 3.0},
                             {"index": 2, "dim": 3, "ratio": 1.0},
                             {"index": 3, "dim": 2, "ratio": 1.5}]
        assert rep.sample_count == 3
        assert rep.per_dimension == {2: {"min": 1.5, "max": 1.5, "count": 1},
                                     3: {"min": 1.0, "max": 3.0, "count": 2}}
        assert equivalence_report(l1, linf, samples.__getitem__,
                                  count=4).trace is None

    @pytest.mark.parametrize("lo, hi", [(2.0, 1.0), (0.0, 1.0),
                                        (-1.0, 1.0)])
    def test_report_band_must_be_ordered_and_positive(self, lo, hi):
        with pytest.raises(InvariantError,
                           match="need 0 < min_ratio <= max_ratio"):
            EquivReport("check", 0, 1, lo, hi, {}, {})


class TestReportJson:
    """One ``to_json`` serves every report class."""

    @pytest.mark.parametrize("build", [
        lambda: check_mainlema(dims=(2,), count=4, t_grid=(0.5,),
                               keep_trace=True),
        lambda: dichotomy_sweep("l1_geometric", 0.25, [5]),
        lambda: distinctness_demo([2.0], [1.0, 2.0], N=2 ** 10),
    ], ids=["equiv", "dichotomy", "distinctness"])
    def test_keys_are_the_fields(self, build):
        rep = build()
        data = rep.to_json()
        names = {f.name for f in dataclasses.fields(rep)}
        assert set(data) == (names - {"passed", "trace"}) | {"pass"}
        assert data["pass"] is rep.passed

    def test_equiv_report_drops_its_trace(self):
        rep = check_mainlema(dims=(2, 4), count=4, t_grid=(0.5,),
                             keep_trace=True)
        assert rep.trace
        data = rep.to_json()
        assert "trace" not in data
        assert list(data["per_dimension"]) == ["2", "4"]
        assert list(data["per_dimension"].values()) == list(
            rep.per_dimension.values())


class TestSamplers:
    def test_deterministic_per_index(self):
        a = _sample_sweep(_sample_rows, 18, (6,), seed=4)[6][17]
        b = _sample_sweep(_sample_rows, 18, (6,), seed=4)[6][17]
        np.testing.assert_array_equal(a, b)

    def test_flat_and_spike_always_present(self):
        flat, spike = _sample_sweep(_sample_rows, 2, (4,), seed=1)[4]
        assert np.allclose(flat, 0.25)
        assert spike[0] == 1.0 and np.all(spike[1:] == 0.0)

    @pytest.mark.parametrize("count", [1, 2, 3, 160])
    @pytest.mark.parametrize("dims", SWEEP_SIZES)
    def test_dense_sweep_is_bit_identical(self, count, dims):
        got = _sample_sweep(_sample_rows, count, dims, seed=7)
        assert sorted(got) == sorted(set(dims))
        for d in dims:
            frozen = np.stack([frozen_sample_dense(d, i, 7)
                               for i in range(count)])
            assert got[d].shape == (count, d)
            assert got[d].tobytes() == frozen.tobytes()

    @pytest.mark.parametrize("count", [1, 2, 3, 48])
    @pytest.mark.parametrize("lengths", SWEEP_SIZES)
    def test_nonincreasing_sweep_is_bit_identical(self, count, lengths):
        got = _sample_sweep(_nonincreasing_rows, count, lengths, seed=7)
        assert sorted(got) == sorted(set(lengths))
        for n in lengths:
            frozen = np.stack([frozen_sample_nonincreasing(n, i, 7)
                               for i in range(count)])
            assert got[n].tobytes() == frozen.tobytes()

    def test_huge_sweep_refused_before_allocating(self):
        import tracemalloc
        from interpk.errors import SizeError
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match="count 1000000000000"):
                _sample_sweep(_sample_rows, 10 ** 12, (4,), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_sweep_cell_limit_is_inclusive(self, monkeypatch):
        from interpk import verify
        from interpk.errors import SizeError
        monkeypatch.setattr(verify, "_SWEEP_MAX_CELLS", 60)
        # dims 4 and 8 (a repeat counts once): 12 cells per sample
        got = _sample_sweep(_sample_rows, 5, (4, 8, 4), seed=0)
        assert got[8].shape == (5, 8)
        with pytest.raises(SizeError):
            _sample_sweep(_sample_rows, 6, (4, 8, 4), seed=0)


def choice_support(rng, state, dim):
    """The sparse kind's support at ``dim`` by numpy's own choice."""
    rng.bit_generator.state = state
    return rng.choice(dim, size=max(1, dim // 4), replace=False)


# the states of indices 0..299 at seed 7, taken 100 at a time
SUPPORT_STATES = list(pcg64_states(7, 300))
# each group is one padded pass, its dims descending
SUPPORT_DIM_GROUPS = ([tuple(range(hi, hi - 20, -1))
                       for hi in range(200, 20, -20)]
                      + [tuple(range(20, 1, -1)), (10000, 4096, 1000, 255)])


class TestFloydSupports:
    """``_floyd_supports`` against ``Generator.choice``.  d = 1 draws
    nothing and stays with choice; the sweep tests below cover it."""

    @pytest.mark.parametrize("dims", SUPPORT_DIM_GROUPS,
                             ids=lambda dims: f"{dims[-1]}-{dims[0]}")
    def test_supports_equal_choice(self, dims):
        rng = generator()
        top = max(1, dims[0] // 4)
        rejected_at = []
        for lo in range(0, len(SUPPORT_STATES), 100):
            states = SUPPORT_STATES[lo:lo + 100]
            words = []
            for state in states:
                rng.bit_generator.state = state
                words.append(rng.bit_generator.random_raw(top))
            got = _floyd_supports(np.array(words), list(dims))
            for d, (support, rejected) in zip(dims, got):
                assert support.shape == (len(states), max(1, d // 4))
                for s, state in enumerate(states):
                    want = choice_support(rng, state, d)
                    if rejected[s]:
                        rejected_at.append((lo + s, d))
                        # the first draw of a rejected row is not numpy's
                        assert not np.array_equal(support[s], want)
                    else:
                        assert np.array_equal(support[s], want)
        # numpy redraws in one row only: seed 7, index 232, d = 10000
        assert rejected_at == ([(232, 10000)] if 10000 in dims else [])

    @pytest.fixture
    def choice_calls(self, monkeypatch):
        """The dims at which ``_sample_rows`` calls choice, in order."""
        calls = []
        draw = verify._choice_draws

        def spy(rng, state, d, k):
            calls.append(d)
            return draw(rng, state, d, k)

        monkeypatch.setattr(verify, "_choice_draws", spy)
        return calls

    # by-cost: the pass covers no dim, so choice draws every row, as it did
    # for so few samples under the former cost model; pass-forced: the
    # pass as it runs now, on every sparse sample set
    @pytest.mark.parametrize("floyd_max", [1, verify._FLOYD_MAX_DIM],
                             ids=["by-cost", "pass-forced"])
    def test_sweep_equals_frozen_at_large_dims(self, monkeypatch,
                                               choice_calls, floyd_max):
        # sample 232 at seed 7 rejects a draw at d = 10000; d = 10001 is
        # numpy's tail shuffle and d = 1 draws nothing, so those rows stay
        # with choice, which draws them after the pass, dim by dim.  The
        # sweep runs from index 0 to 237, past the default cell cap.
        monkeypatch.setattr(verify, "_FLOYD_MAX_DIM", floyd_max)
        monkeypatch.setattr(verify, "_SWEEP_MAX_CELLS", 2 ** 23)
        dims = (1, 4, 64, 10000, 10001)
        got = _sample_sweep(_sample_rows, 238, dims, seed=7)
        for d in dims:
            frozen = np.stack([frozen_sample_dense(d, i, 7)
                               for i in range(232, 238)])
            assert got[d][232:].tobytes() == frozen.tobytes()
        # the sparse samples are 4, 7, ..., 235: 78 of them
        if floyd_max == 1:
            assert choice_calls == [d for d in dims for _ in range(78)]
        else:
            assert choice_calls == [1] * 78 + [10000] + [10001] * 78

    def test_rejected_row_is_drawn_by_choice(self, choice_calls):
        got = _sample_sweep(_sample_rows, 233, (10000,), seed=7)
        assert choice_calls == [10000]
        assert (got[10000][232].tobytes()
                == frozen_sample_dense(10000, 232, 7).tobytes())

    def test_pass_draws_every_dim_it_can(self, choice_calls):
        # the acceptance sum-intersection sweep (53 sparse samples at
        # d <= 64) and a sweep whose one sparse sample is index 4 both
        # take the pass only
        _sample_sweep(_sample_rows, 160, (4, 8, 16, 32, 64), seed=505)
        assert choice_calls == []
        got = _sample_sweep(_sample_rows, 5, (64,), seed=7)
        assert (got[64][4].tobytes()
                == frozen_sample_dense(64, 4, 7).tobytes())
        assert choice_calls == []


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
        P = couple.profile_batch(X, 2.0 ** grid.astype(float))
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

    @pytest.mark.parametrize("N", [2 ** 19, 2 ** 20, 2 ** 24])
    def test_long_witness_still_diverges(self, N):
        # the probe (p, q) adds 0.048 from N // 2 to N at 2^20 and 0.040
        # at 2^24, below a fixed 0.05: the threshold follows it there
        r = check_konig(1.0, 2.0, 0.5, 1.0, lengths=(4,), count=8, seed=0,
                        witness_length=N)
        assert r.passed
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
        r = dichotomy_sweep("l1_geometric", 0.25, [9, 13, 17])
        assert r.passed
        assert all(v >= 0.99 for v in r.values)

    def test_t_one_exact(self):
        r = dichotomy_sweep("l1_geometric", 1.0, [9])
        assert r.values[0] == pytest.approx(1.0)

    def test_ordered_family_bounded(self):
        r = dichotomy_sweep("l1_linf", 0.25, [4, 8])
        assert r.passed
        assert all(v <= 0.25 * (1 + 1e-9) for v in r.values)

    def test_geometric_family_stays_at_max_one_t(self):
        # sampled directions rounded this sweep to 3.0000000000000004,
        # above the proven bound max(1, t)
        assert dichotomy_sweep("l1_geometric", 3.0, [5]).values == [3.0]


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

    def test_norms_equal_the_diagonal_operator_route(self):
        # the witness is its diagonal operator's approximation numbers
        r = distinctness_demo([1.0, 4.0 / 3.0, 2.0, 3.0], [1.0, 2.5], 64,
                              norm_lengths=(4, 16, 33, 64))
        assert len(r.pairs) == 36
        for entry in r.pairs:
            eps, _ = witness_sequence(*entry["pair_a"], 64)
            for L, norms in entry["ideal_norms"].items():
                T = diag_operator(eps[:int(L)])
                assert norms == {
                    "fine": ideal_norm(T, LorentzParams(*entry["pair_a"])),
                    "coarse": ideal_norm(T, LorentzParams(*entry["pair_b"]))}

    def test_report_equals_one_pass_per_pair(self):
        # oracle: one witness pass per unordered pair, probing its fine and
        # coarse pairs, and one norm witness per pair
        p_list, q_list, N = [1.0, 4.0 / 3.0, 2.0], [0.5, 1.0, 2.0], 2 ** 12
        pairs_all = [(p, q) for p in p_list for q in q_list]
        results = []
        for i, a in enumerate(pairs_all):
            for b in pairs_all[i:]:
                fine, coarse = sorted((a, b))
                _, report = witness_sequence(fine[0], fine[1], N,
                                             probe_params=[fine, coarse])
                flag_fine, flag_coarse = (pr.flag for pr in report.probes)
                eps, _ = witness_sequence(fine[0], fine[1], 64)
                results.append({
                    "pair_a": list(fine), "pair_b": list(coarse),
                    "flag_fine": flag_fine, "flag_coarse": flag_coarse,
                    "separated": flag_fine != flag_coarse,
                    "ideal_norms": {str(L): {
                        "fine": lorentz_norm(eps[:L], LorentzParams(*fine)),
                        "coarse": lorentz_norm(eps[:L],
                                               LorentzParams(*coarse))}
                        for L in (16, 64)}})
        r = distinctness_demo(p_list, q_list, N)
        assert r.pairs == results
        assert len(results) == 45

    def test_flag_pass_stores_no_witness(self):
        # the length-N pass stored its 2^22 terms: 32.2 MiB
        tracemalloc.start()
        try:
            distinctness_demo([2.0], [1.0], 2 ** 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_distinct_p_separates(self):
        r = distinctness_demo([1.0, 2.0], [1.5], 2 ** 14)
        entry = [e for e in r.pairs if e["pair_a"] != e["pair_b"]][0]
        assert entry["separated"] is True


class TestOracleAgreement:
    def test_tight_agreement(self):
        rep = oracle_agreement(count=60, max_dim=6, seed=13, budget=4)
        for kind, err in rep["worst_relative_error"].items():
            assert err <= 1e-6, f"{kind}: {err}"

    def test_descent_size_guard_applies(self):
        # the reference descent runs through descent_route's kernel, so
        # rows wider than ORACLE_MAX_DIM are refused before it runs
        from interpk.couples import ORACLE_MAX_DIM
        from interpk.errors import SizeError
        with pytest.raises(SizeError, match="oracle limited to dimension"):
            oracle_agreement(count=40, max_dim=4 * ORACLE_MAX_DIM, seed=0)

    def test_one_descent_per_kind(self, monkeypatch):
        # rows of every dim, zero-padded to the largest, share one descent,
        # which runs through descent_route's kernel
        from interpk import couples
        shapes = []
        descent = couples.decomposition_infimum

        def counted(X, *args, **kwargs):
            shapes.append(X.shape)
            return descent(X, *args, **kwargs)

        monkeypatch.setattr(couples, "decomposition_infimum", counted)
        rep = oracle_agreement(200, 8, 101, 4)
        assert shapes == [(100, 8), (100, 8)]
        for kind, err in rep["worst_relative_error"].items():
            assert err <= 1e-6, f"{kind}: {err}"

    def test_block_weighted_sup(self):
        # against the C-order reshape form it replaced, on the column-major
        # stacked blocks the descent hands it
        from interpk.verify import _block_weighted_sup
        rng = np.random.default_rng(7)
        W = 2.0 ** rng.uniform(-3, 3, (5, 4))
        A = np.asfortranarray(rng.standard_normal((35, 4)))
        want = np.max(W * np.abs(A).reshape(-1, *W.shape), axis=2).reshape(-1)
        assert np.array_equal(_block_weighted_sup(A, W), want)
        assert np.array_equal(_block_weighted_sup(A[:5], W), want[:5])

    def test_specs_equal_a_generator_per_index(self, monkeypatch):
        # the rows, t's and weights handed to the descents are those a
        # fresh numpy generator per index draws; the weights are read back
        # as the engine reads its clip scales, by probing the norms on e_j
        from interpk import couples
        from interpk._descent import probe_scales
        calls = []
        descent = couples.decomposition_infimum

        def recorded(X, T, n0, n1, **kwargs):
            calls.append((X, T, probe_scales(n0, *X.shape),
                          probe_scales(n1, *X.shape)))
            return descent(X, T, n0, n1, **kwargs)

        monkeypatch.setattr(couples, "decomposition_infimum", recorded)
        count, max_dim, seed = 200, 8, 101
        oracle_agreement(count, max_dim, seed, 4)
        specs = {0: [], 1: []}
        for i in range(count):
            rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
            dim = int(rng.integers(1, max_dim + 1))
            t = float(2.0 ** rng.uniform(-6.0, 6.0))
            x = rng.standard_normal(dim)
            w0 = 2.0 ** rng.uniform(-3.0, 3.0, size=dim)
            w1 = 2.0 ** rng.uniform(-3.0, 3.0, size=dim)
            specs[i % 2].append((dim, t, x, w0, w1))
        for (X, T, W0, W1), items in zip(calls, specs.values()):
            n = max(item[0] for item in items)
            want_x, want_w0, want_w1 = (np.zeros((len(items), n)),
                                        np.ones((len(items), n)),
                                        np.ones((len(items), n)))
            for row, (dim, _, x, w0, w1) in enumerate(items):
                want_x[row, :dim] = x
                want_w0[row, :dim], want_w1[row, :dim] = w0, w1
            assert X.tobytes() == want_x.tobytes()
            assert T.tobytes() == np.array([it[1] for it in items]).tobytes()
            if items is specs[0]:               # (l1, linf): unit scales
                want_w0 = want_w1 = np.ones((len(items), n))
            assert W0.tobytes() == want_w0.tobytes()
            assert W1.tobytes() == want_w1.tobytes()
        assert len(calls) == 2

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
