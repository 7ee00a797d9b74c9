import itertools
import math
import tracemalloc

import numpy as np
import pytest

from interpk import (DomainError, InvariantError, LorentzParams,
                     MatrixOperator, SNumSeq, approx_numbers, diag_operator,
                     ideal_norm, k_operator_diag, lorentz_norm,
                     witness_sequence)
from interpk.errors import SizeError
from interpk.snum import (_WITNESS_BLOCK, CONVERGENCE_TAIL_RATIO, CONVERGING,
                          DIVERGENCE_INCREMENT, DIVERGING, INDETERMINATE,
                          k_operator_diag_batch, witness_samples,
                          witness_trace)


class TestApproxNumbers:
    def test_sorted_diagonal(self):
        a = approx_numbers(diag_operator([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(a.values, [3.0, 2.0, 1.0])

    def test_rank_one_ones_matrix(self):
        a = approx_numbers(MatrixOperator([[1.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(a.values, [2.0, 0.0], atol=1e-12)

    def test_identity(self):
        for n in (1, 3, 6):
            a = approx_numbers(MatrixOperator(np.eye(n)))
            np.testing.assert_allclose(a.values, np.ones(n))

    def test_rectangular_length(self):
        a = approx_numbers(MatrixOperator(np.ones((2, 5))))
        assert len(a) == 2

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            T = rng.standard_normal((d, d))
            u, _ = np.linalg.qr(rng.standard_normal((d, d)))
            v, _ = np.linalg.qr(rng.standard_normal((d, d)))
            a = approx_numbers(MatrixOperator(T)).values
            b = approx_numbers(MatrixOperator(u @ T @ v)).values
            np.testing.assert_allclose(a, b, atol=1e-9)


class TestSNumberAxioms:
    def test_axioms_on_random_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            d = int(rng.integers(1, 9))
            T = rng.standard_normal((d, d))
            S = rng.standard_normal((d, d))
            sT = np.linalg.svd(T, compute_uv=False)
            sS = np.linalg.svd(S, compute_uv=False)
            sTS = np.linalg.svd(T + S, compute_uv=False)
            sTmS = np.linalg.svd(T @ S, compute_uv=False)
            assert sT[0] == pytest.approx(np.linalg.norm(T, 2))
            for n in range(1, d + 1):
                for m in range(1, d + 2 - n):
                    k = n + m - 1
                    assert sTS[k - 1] <= sT[n - 1] + sS[m - 1] + 1e-9
                    assert sTmS[k - 1] <= sT[n - 1] * sS[m - 1] + 1e-9

    def test_rank_property(self):
        T = MatrixOperator([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        a = approx_numbers(T)
        assert a.values[1] == pytest.approx(0.0, abs=1e-12)


class TestLorentzNorm:
    def test_p_equals_q_reduces_to_lp(self):
        s = SNumSeq(np.array([1.0, 0.5, 0.25]))
        for p in (0.5, 1.0, 2.0):
            want = float(np.sum(s.values ** p) ** (1.0 / p))
            assert lorentz_norm(s, LorentzParams(p, p)) == pytest.approx(want)

    def test_single_spike_is_one_for_all_params(self):
        s = SNumSeq(np.array([1.0, 0.0, 0.0, 0.0]))
        for p in (0.5, 1.0, 3.0):
            for q in (0.5, 1.0, 2.0):
                assert lorentz_norm(s, LorentzParams(p, q)) == pytest.approx(1.0)

    def test_derived_value(self):
        s = SNumSeq(np.array([1.0, 0.25]))
        want = 1.0 + 0.25 / math.sqrt(2.0)
        assert lorentz_norm(s, LorentzParams(2.0, 1.0)) == pytest.approx(want)

    def test_increasing_sequence_rejected(self):
        with pytest.raises(InvariantError):
            lorentz_norm([0.5, 1.0], LorentzParams(1.0, 1.0))

    def test_q_monotonicity_with_envelope_constant(self):
        # lorentz(s; p, q2) <= 2^{1/q1} lorentz(s; p, q1) for q1 <= q2
        rng = np.random.default_rng(32)
        observed = 0.0
        for _ in range(100):
            length = int(rng.integers(2, 40))
            s = SNumSeq(np.sort(np.abs(rng.standard_normal(length)))[::-1])
            p = float(rng.uniform(0.5, 3.0))
            q1, q2 = sorted(rng.uniform(0.5, 4.0, 2))
            v1 = lorentz_norm(s, LorentzParams(p, q1))
            v2 = lorentz_norm(s, LorentzParams(p, q2))
            observed = max(observed, v2 / v1)
            assert v2 <= 2.0 ** (1.0 / q1) * v1 * (1 + 1e-12)
        assert observed >= 0.0

    def test_tail_decay_bound(self):
        # N^{1/p} s_N <= lorentz(s; p, p)
        rng = np.random.default_rng(33)
        for _ in range(50):
            length = int(rng.integers(2, 60))
            s = SNumSeq(np.sort(np.abs(rng.standard_normal(length)))[::-1])
            for p in (0.5, 1.0, 2.0):
                bound = lorentz_norm(s, LorentzParams(p, p))
                assert length ** (1.0 / p) * s.values[-1] <= bound * (1 + 1e-12)


class TestIdealNorm:
    def test_geometric_diagonal(self):
        T = diag_operator([1.0, 0.5, 0.25])
        assert ideal_norm(T, LorentzParams(1.0, 1.0)) == pytest.approx(1.75)

    def test_zero_matrix(self):
        T = MatrixOperator(np.zeros((3, 3)))
        assert ideal_norm(T, LorentzParams(2.0, 1.0)) == 0.0

    def test_rank_one(self):
        T = MatrixOperator([[1.0, 1.0], [1.0, 1.0]])
        for p, q in ((0.5, 1.0), (2.0, 3.0)):
            assert ideal_norm(T, LorentzParams(p, q)) == pytest.approx(2.0)


class TestDiagOperator:
    def test_round_trip(self):
        sigma = [1.0, 0.5]
        np.testing.assert_allclose(
            approx_numbers(diag_operator(sigma)).values, sigma)

    def test_witness_round_trip(self):
        eps, _ = witness_sequence(2.0, 1.0, 64)
        np.testing.assert_allclose(
            approx_numbers(diag_operator(eps)).values, eps, rtol=1e-12)

    def test_zero(self):
        T = diag_operator([0.0])
        assert T.operator_norm() == 0.0

    def test_unsorted_rejected(self):
        with pytest.raises(InvariantError):
            diag_operator([0.5, 1.0])


class TestWitnessSequence:
    def test_diverging_at_own_parameters(self):
        # summand n^{-1}(1 + ln n)^{-1}: partial sums grow like ln ln N
        _, rep = witness_sequence(2.0, 1.0, 2 ** 16, probe_params=[(2.0, 1.0)])
        assert rep.probes[0].flag == DIVERGING

    def test_converging_at_doubled_q(self):
        _, rep = witness_sequence(2.0, 1.0, 2 ** 16, probe_params=[(2.0, 2.0)])
        assert rep.probes[0].flag == CONVERGING

    def test_converging_at_larger_p(self):
        # q* must be large enough for the fixed-threshold indicator to
        # resolve at this length; very small q* converges too slowly
        for q_star in (1.0, 2.0, 3.0):
            _, rep = witness_sequence(2.0, 1.0, 2 ** 12,
                                      probe_params=[(3.0, q_star)])
            assert rep.probes[0].flag == CONVERGING

    def test_requires_min_length(self):
        with pytest.raises(DomainError):
            witness_sequence(1.0, 1.0, 3)

    @pytest.mark.parametrize("p_star, q_star, key", [
        (0.0, 1.0, "p_star"), (1.0, 0.0, "q_star"), (2.0, -1.0, "q_star"),
        (math.inf, 1.0, "p_star"), (1.0, math.nan, "q_star")])
    @pytest.mark.parametrize("build", [
        lambda ps, qs: witness_sequence(2.0, 1.0, 100, [(2.0, 1.0), (ps, qs)]),
        lambda ps, qs: witness_trace(2.0, 1.0, 100, ps, qs),
        lambda ps, qs: witness_samples(2.0, 1.0, 100, ps, qs, 7),
    ], ids=["sequence", "trace", "samples"])
    def test_probe_exponents_refused(self, build, p_star, q_star, key):
        with pytest.raises(DomainError, match=f"{key} must lie in"):
            build(p_star, q_star)

    def test_trace_matches_report(self):
        n, eps, summand, partial = witness_trace(2.0, 1.0, 256, 2.0, 1.0)
        _, rep = witness_sequence(2.0, 1.0, 256, probe_params=[(2.0, 1.0)])
        assert partial[-1] == pytest.approx(rep.probes[0].total_sum)
        assert n[0] == 1 and len(eps) == 256


def whole_witness(p, q, N, probe_params):
    """The witness from whole N-length arrays: eps and, per probe, the
    summands and their sequential cumsum."""
    n = np.arange(1, N + 1, dtype=float)
    eps = n ** (-1.0 / p) * (1.0 + np.log(n)) ** (-1.0 / q)
    sums = []
    for p_star, q_star in probe_params:
        summand = (n ** (1.0 / p_star - 1.0 / q_star) * eps) ** q_star
        sums.append((summand, np.cumsum(summand)))
    return eps, sums


def reference_flag(half, total):
    if total - half >= DIVERGENCE_INCREMENT:
        return DIVERGING
    if total - half <= CONVERGENCE_TAIL_RATIO * total:
        return CONVERGING
    return INDETERMINATE


B = _WITNESS_BLOCK
STREAM_LENGTHS = [4, 5, B - 1, B, B + 1, 3 * B + 7, 2 ** 16]


class TestStreamedWitness:
    @pytest.mark.parametrize("N", STREAM_LENGTHS)
    @pytest.mark.parametrize("probes", [
        (), ((2.0, 1.0),), ((4 / 3, 2.0), (4 / 3, 4.0))],
        ids=["no-probe", "one-probe", "two-probes"])
    def test_sequence_equals_whole_arrays(self, N, probes):
        eps, rep = witness_sequence(4 / 3, 2.0, N, probes)
        want, sums = whole_witness(4 / 3, 2.0, N, probes)
        assert eps.dtype == want.dtype and eps.tobytes() == want.tobytes()
        assert (rep.p, rep.q, rep.length) == (4 / 3, 2.0, N)
        assert len(rep.probes) == len(probes)
        for probe, (p_star, q_star), (_, csum) in zip(rep.probes, probes,
                                                      sums):
            half, total = float(csum[N // 2 - 1]), float(csum[-1])
            assert (probe.p, probe.q) == (p_star, q_star)
            assert (probe.half_sum, probe.total_sum) == (half, total)
            assert probe.flag == reference_flag(half, total)

    @pytest.mark.parametrize("N", STREAM_LENGTHS)
    def test_trace_equals_whole_arrays(self, N):
        n, eps, summand, partial = witness_trace(1.5, 0.7, N, 2.5, 1.3)
        want_eps, [(want_summand, want_partial)] = whole_witness(
            1.5, 0.7, N, [(2.5, 1.3)])
        want_n = np.arange(1, N + 1, dtype=float).astype(int)
        for got, want in ((n, want_n), (eps, want_eps),
                          (summand, want_summand), (partial, want_partial)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_memory_is_the_output(self):
        # eps alone is 0.5 MiB; whole-array temporaries took 3.0 MiB
        tracemalloc.start()
        try:
            witness_sequence(4 / 3, 2, 2 ** 16, [(4 / 3, 2), (4 / 3, 4)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20


class TestKOperatorDiag:
    def test_single_entry(self):
        for t in (0.25, 1.0, 4.0):
            assert k_operator_diag([5.0], t, 1.0, 1.0) == pytest.approx(
                min(1.0, t) * 5.0)

    def test_zero(self):
        assert k_operator_diag([0.0, 0.0], 1.0, 1.0, 2.0) == 0.0

    def test_sup_pair_is_the_weighted_sup_kernel(self):
        from interpk.couples import vec, weighted_sup_couple
        sigma = [4.0, 2.5, 1.0, 0.5]
        c = weighted_sup_couple(np.ones(4), np.ones(4))
        for t in (0.125, 0.7, 1.0, 3.0):
            want = c.k(vec(sigma), t)
            assert k_operator_diag(sigma, t, math.inf, math.inf) == want

    def test_matches_full_descent_on_l1_l2(self):
        from interpk._descent import decomposition_infimum
        from interpk.couples import WeightedNorm
        sigma = 2.0 ** (-np.arange(8, dtype=float))
        n0 = WeightedNorm(1.0, 0, np.ones(8))
        n1 = WeightedNorm(2.0, 0, np.ones(8))
        for t in (0.1, 0.7, 2.0):
            got = k_operator_diag(sigma, t, 1.0, 2.0)
            ref = decomposition_infimum(sigma[None, :], t, n0.dense, n1.dense,
                                        budget=16, seed=5)[0]
            assert abs(got - ref) <= 1e-6 * ref

    def test_clip_reduction_exact_against_kkt(self):
        # optimum of inf ||d0||_1 + t ||d1||_p has d1 = min(sigma, lam)
        rng = np.random.default_rng(34)
        for p1 in (1.5, 2.0, 4.0):
            sigma = np.sort(np.abs(rng.standard_normal(12)))[::-1]
            t = float(2.0 ** rng.uniform(-2, 2))
            got = k_operator_diag(sigma, t, 1.0, p1)
            lams = np.linspace(0.0, sigma[0], 20001)
            d1 = np.minimum(sigma[None, :], lams[:, None])
            vals = np.sum(sigma[None, :] - d1, axis=1) + t * np.sum(
                d1 ** p1, axis=1) ** (1.0 / p1)
            assert got == pytest.approx(float(np.min(vals)), rel=1e-6)

    @staticmethod
    def vertex_oracle(sigma, t, p0, p1):
        """Min over the splits d1_i in {0, sigma_i}: exact when p0 or p1 is
        below 1 and the other is 1, since the cost is then concave on the box
        0 <= d1 <= sigma, which holds the optimum."""
        best = math.inf
        for mask in itertools.product((0.0, 1.0), repeat=len(sigma)):
            d1 = sigma * np.array(mask)
            d0 = sigma - d1
            best = min(best, np.sum(d0 ** p0) ** (1.0 / p0)
                       + t * np.sum(d1 ** p1) ** (1.0 / p1))
        return best

    def test_exponent_below_one_reaches_full_descent(self):
        # the clip family is not optimal for (1, p) with p < 1: the clip
        # search alone gave 3.35 here
        sigma = np.array([1.0, 0.9, 0.8, 0.7])
        assert k_operator_diag(sigma, 0.5, 1.0, 0.5) == pytest.approx(
            self.vertex_oracle(sigma, 0.5, 1.0, 0.5), rel=1e-12)
        assert self.vertex_oracle(sigma, 0.5, 1.0, 0.5) == pytest.approx(2.9)
        rng = np.random.default_rng(37)
        for _ in range(24):
            d = int(rng.integers(1, 9))
            sigma = np.sort(np.abs(rng.standard_normal(d)))[::-1]
            t = float(2.0 ** rng.uniform(-4, 4))
            p = float(rng.choice([0.25, 0.5, 0.75]))
            for p0, p1 in ((1.0, p), (p, 1.0)):
                want = self.vertex_oracle(sigma, t, p0, p1)
                assert k_operator_diag(sigma, t, p0, p1) == pytest.approx(
                    want, rel=1e-12), (d, t, p0, p1)

    def test_reversed_orientation(self):
        rng = np.random.default_rng(35)
        sigma = np.sort(np.abs(rng.standard_normal(10)))[::-1]
        t = 0.6
        # K(x, t; lp, l1) = t K(x, 1/t; l1, lp)
        a = k_operator_diag(sigma, t, 2.0, 1.0)
        b = t * k_operator_diag(sigma, 1.0 / t, 1.0, 2.0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_length_guard(self):
        with pytest.raises(SizeError):
            k_operator_diag(np.ones(129), 1.0, 1.0, 2.0)

    def test_batch_matches_scalar(self, monkeypatch):
        rng = np.random.default_rng(36)
        S = np.stack([np.sort(np.abs(rng.standard_normal(6)))[::-1]
                      for _ in range(4)])
        batch = k_operator_diag_batch(S, 0.8, 1.0, 2.0)
        for i in range(4):
            assert batch[i] == pytest.approx(
                k_operator_diag(S[i], 0.8, 1.0, 2.0), rel=1e-12)
        # the dispatch: power functional for equal exponents, the (l1, lp)
        # closed form when one exponent is 1 and the other lies in (1, inf),
        # the (l1, linf) closed form for {1, inf}, full descent otherwise
        # (including (1, p) with p < 1)
        from interpk import _descent
        from interpk._descent import decomposition_infimum
        from interpk.couples import (WeightedNorm, _l1_linf_batch,
                                     _l1_lp_batch, _power_batch)
        ones = np.ones(S.shape[1])
        for p0, p1 in ((2.0, 2.0), (0.5, 0.5), (1.5, 3.0), (1.0, 2.0),
                       (3.0, 1.0), (1.0, 0.5), (1.0, math.inf),
                       (math.inf, 1.0)):
            n0, n1 = WeightedNorm(p0, 0, ones), WeightedNorm(p1, 0, ones)
            if p0 == p1:
                want = _power_batch(S, 0.8, p0, ones, ones)
            elif (p0, p1) == (1.0, math.inf):
                want = _l1_linf_batch(S, 0.8)
            elif (p0, p1) == (math.inf, 1.0):
                want = 0.8 * _l1_linf_batch(S, 1.0 / 0.8)
            elif p0 == 1.0 and p1 > 1.0:
                want = _l1_lp_batch(S, 0.8, p1, ones, ones)
            elif p1 == 1.0 and p0 > 1.0:
                want = 0.8 * _l1_lp_batch(S, 1.0 / 0.8, p0, ones, ones)
            else:
                want = decomposition_infimum(S, 0.8, n0.dense, n1.dense,
                                             budget=8, seed=0, scale0=ones,
                                             scale1=ones)
            got = k_operator_diag_batch(S, 0.8, p0, p1)
            assert np.array_equal(got, want), (p0, p1)
            if 1.0 in (p0, p1) and max(p0, p1) > 1.0:
                # the clip search alone, which the closed form replaced
                with monkeypatch.context() as mp:
                    mp.setattr(_descent, "SWEEPS", 0)
                    clip = decomposition_infimum(S, 0.8, n0.dense, n1.dense,
                                                 budget=0, seed=0,
                                                 scale0=ones, scale1=ones)
                np.testing.assert_allclose(got, clip, rtol=1e-12, atol=0)
