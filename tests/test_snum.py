import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from interpk import (DomainError, InvariantError, LorentzParams,
                     MatrixOperator, SNumSeq, approx_numbers, diag_operator,
                     ideal_norm, k_operator_diag, lorentz_norm,
                     witness_sequence)
from interpk.errors import SizeError
from interpk import snum
from interpk.snum import (_SUM_HEAD, _WITNESS_BLOCK, CONVERGENCE_TAIL_RATIO,
                          CONVERGING, DIVERGENCE_INCREMENT, DIVERGING,
                          INDETERMINATE,
                          WITNESS_MAX_N, k_operator_diag_batch,
                          witness_report, witness_samples, witness_trace)


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

    @pytest.mark.parametrize("N", [WITNESS_MAX_N + 1, 2 ** 40])
    @pytest.mark.parametrize("build", [
        lambda N: witness_sequence(2.0, 1.0, N, [(2.0, 1.0)]),
        lambda N: witness_trace(2.0, 1.0, N, 2.0, 1.0),
        lambda N: witness_samples(2.0, 1.0, N, 2.0, 1.0, 256),
    ], ids=["sequence", "trace", "samples"])
    def test_length_above_cap_refused_before_allocating(self, build, N):
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match=str(N)):
                build(N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_length_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(snum, "WITNESS_MAX_N", 64)
        eps, _ = witness_sequence(2.0, 1.0, 64)
        assert len(eps) == 64
        with pytest.raises(SizeError, match="65"):
            witness_sequence(2.0, 1.0, 65)

    @pytest.mark.parametrize("p_star, q_star, key", [
        (0.0, 1.0, "p_star"), (1.0, 0.0, "q_star"), (2.0, -1.0, "q_star"),
        (math.inf, 1.0, "p_star"), (1.0, math.nan, "q_star"),
        (True, 1.0, "p_star"), (2.0, "1", "q_star")])
    @pytest.mark.parametrize("build", [
        lambda ps, qs: witness_sequence(2.0, 1.0, 100, [(2.0, 1.0), (ps, qs)]),
        lambda ps, qs: witness_trace(2.0, 1.0, 100, ps, qs),
        lambda ps, qs: witness_samples(2.0, 1.0, 100, ps, qs, 7),
    ], ids=["sequence", "trace", "samples"])
    def test_probe_exponents_refused(self, build, p_star, q_star, key):
        with pytest.raises(DomainError, match=f"{key} must lie in"):
            build(p_star, q_star)

    @pytest.mark.parametrize("p, q, N, message", [
        (True, 1.0, 16, "p and q must be positive"),
        (2.0, True, 16, "p and q must be positive"),
        ("2", 1.0, 16, "p and q must be positive"),
        (2.0, None, 16, "p and q must be positive"),
        (2.0, 1.0, 16.0, "N must be an integer, got 16.0"),
        (2.0, 1.0, True, "N must be an integer, got True"),
        (2.0, 1.0, "16", "N must be an integer, got '16'")])
    @pytest.mark.parametrize("build", [
        lambda p, q, N: witness_sequence(p, q, N),
        lambda p, q, N: witness_report(p, q, N),
        lambda p, q, N: witness_trace(p, q, N, 2.0, 1.0),
        lambda p, q, N: witness_samples(p, q, N, 2.0, 1.0, 7),
    ], ids=["sequence", "report", "trace", "samples"])
    def test_witness_arguments_refused(self, build, p, q, N, message):
        # p = True ran as p = 1.0; "2" and None raised TypeError
        with pytest.raises(DomainError, match=re.escape(message)):
            build(p, q, N)

    def test_trace_matches_report(self):
        n, eps, summand, partial = witness_trace(2.0, 1.0, 256, 2.0, 1.0)
        _, rep = witness_sequence(2.0, 1.0, 256, probe_params=[(2.0, 1.0)])
        assert partial[-1] == pytest.approx(rep.probes[0].total_sum)
        assert n[0] == 1 and len(eps) == 256


def whole_witness(p, q, N, probe_params):
    """The witness from whole N-length arrays, by the earlier blocked rule
    that stays the reference for eps, the summands and the flags: eps and,
    per probe, the closed-form summands n^a (1 + ln n)^b with their sums at
    N // 2 and N (one np.add.reduce per run between block bounds and
    N // 2, added in order)."""
    n = np.arange(1, N + 1, dtype=float)
    G = 1.0 + np.log(n)
    eps = n ** (-1.0 / p) * G ** (-1.0 / q)
    cuts = sorted({*range(0, N, _WITNESS_BLOCK), N // 2, N})
    sums = []
    for p_star, q_star in probe_params:
        summand = (n ** (q_star * (1.0 / p_star - 1.0 / p) - 1.0)
                   * G ** (-q_star / q))
        running = {0: 0.0}
        for lo, hi in zip(cuts, cuts[1:]):
            running[hi] = running[lo] + float(np.add.reduce(summand[lo:hi]))
        sums.append((summand, running[N // 2], running[N]))
    return eps, sums


def fsum_prefixes(terms, idx):
    """math.fsum(terms[:i + 1]) at each index i of the sorted idx, in one
    pass: each finite term is an integer multiple of 2^-1074, the multiples
    are added exactly, and Python's int division rounds each prefix
    correctly, as math.fsum does."""
    mantissa, exponent = np.frexp(terms)
    # term = ints * 2^shift * 2^-1074, with ints below 2^53
    shift = exponent + 1021
    ints = np.ldexp(mantissa, 53 + np.minimum(shift, 0)).astype(np.int64)
    sums = list(itertools.accumulate(
        m << s for m, s in zip(ints.tolist(), np.maximum(shift, 0).tolist())))
    return np.array([sums[i] / (1 << 1074) for i in idx])


def assert_close(got, want, rtol):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= rtol * want), np.max(
        np.abs(got - want) / want)


def reference_flag(half, total):
    if total - half >= DIVERGENCE_INCREMENT:
        return DIVERGING
    if total - half <= CONVERGENCE_TAIL_RATIO * total:
        return CONVERGING
    return INDETERMINATE


B = _WITNESS_BLOCK
H = _SUM_HEAD
STREAM_LENGTHS = [4, 5, H - 1, H, H + 1, B - 1, B, B + 1, 3 * B + 7, 2 ** 16]


def test_fsum_prefixes_is_fsum():
    terms = np.array([1e16, 1.0, -1e16, 3.0, 1e-300, 0.1, 2.0 ** -1074,
                      0.0, 2.0 ** -1022 * 1.5, 1e308, -1e308, 7e-310])
    assert fsum_prefixes(terms, range(12)).tolist() == [
        math.fsum(terms[:i + 1].tolist()) for i in range(12)]


class TestStreamedWitness:
    @pytest.mark.parametrize("N", STREAM_LENGTHS)
    @pytest.mark.parametrize("probes", [
        (), ((2.0, 1.0),), ((4 / 3, 2.0), (4 / 3, 4.0))],
        ids=["no-probe", "one-probe", "two-probes"])
    def test_sequence_equals_whole_arrays(self, N, probes):
        # eps keeps the bits of the whole arrays and each flag that of the
        # blocked sums; the sums lie within 1e-14 of math.fsum
        eps, rep = witness_sequence(4 / 3, 2.0, N, probes)
        want, sums = whole_witness(4 / 3, 2.0, N, probes)
        assert eps.dtype == want.dtype and eps.tobytes() == want.tobytes()
        assert (rep.p, rep.q, rep.length) == (4 / 3, 2.0, N)
        assert len(rep.probes) == len(probes)
        for probe, (p_star, q_star), (summand, half, total) in zip(
                rep.probes, probes, sums):
            assert (probe.p, probe.q) == (p_star, q_star)
            assert_close([probe.half_sum, probe.total_sum],
                         [math.fsum(summand[:N // 2].tolist()),
                          math.fsum(summand.tolist())], 1e-14)
            assert probe.flag == reference_flag(half, total)

    @pytest.mark.parametrize("N", STREAM_LENGTHS)
    @pytest.mark.parametrize("probes", [
        (), ((2.0, 1.0),), ((4 / 3, 2.0), (4 / 3, 4.0))],
        ids=["no-probe", "one-probe", "two-probes"])
    def test_report_equals_the_sequence_report(self, N, probes):
        assert witness_report(4 / 3, 2.0, N, probes) == witness_sequence(
            4 / 3, 2.0, N, probes)[1]

    @pytest.mark.parametrize("N", STREAM_LENGTHS)
    def test_trace_equals_whole_arrays(self, N):
        n, eps, summand, partial = witness_trace(1.5, 0.7, N, 2.5, 1.3)
        want_eps, [(want_summand, _, _)] = whole_witness(
            1.5, 0.7, N, [(2.5, 1.3)])
        want_n = np.arange(1, N + 1, dtype=float).astype(int)
        for got, want in ((n, want_n), (eps, want_eps),
                          (summand, want_summand)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert_close(partial, fsum_prefixes(want_summand, range(N)), 1e-13)

    def test_memory_is_the_output(self):
        # eps alone is 0.5 MiB; whole-array temporaries took 3.0 MiB
        tracemalloc.start()
        try:
            witness_sequence(4 / 3, 2, 2 ** 16, [(4 / 3, 2), (4 / 3, 4)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20


def two_power_witness(p, q, N, probe_params):
    """The witness by the earlier rule: eps, and per probe the summands
    (n^{1/p* - 1/q*} eps_n)^{q*} with the flag of their sequential
    cumsum."""
    n = np.arange(1, N + 1, dtype=float)
    eps = n ** (-1.0 / p) * (1.0 + np.log(n)) ** (-1.0 / q)
    probes = []
    for p_star, q_star in probe_params:
        summand = (n ** (1.0 / p_star - 1.0 / q_star) * eps) ** q_star
        csum = np.cumsum(summand)
        probes.append((summand, reference_flag(float(csum[N // 2 - 1]),
                                               float(csum[-1]))))
    return eps, probes


def chunked_fsum(p, q, N, p_star, q_star, counts):
    """The sums of the closed-form summands up to each of the sorted
    counts: math.fsum of each run between counts, then of the runs so far,
    so each is within a rounding per count of the exact sum.  2^20
    summands are computed at a time."""
    a, b = q_star * (1.0 / p_star - 1.0 / p) - 1.0, -q_star / q

    def terms(lo, hi):
        n = np.arange(lo + 1, hi + 1, dtype=float)
        return (n ** a * (1.0 + np.log(n)) ** b).tolist()

    cuts = [0, *counts]
    runs = [math.fsum(itertools.chain.from_iterable(
                terms(c, min(c + 2 ** 20, hi)) for c in range(lo, hi, 2 ** 20)))
            for lo, hi in zip(cuts, cuts[1:])]
    return [math.fsum(runs[:i + 1]) for i in range(len(runs))]


class TestClosedFormSummand:
    """The closed-form summand n^a (1 + ln n)^b keeps every flag and eps of
    the two-power summand with one sequential cumsum, and its sums are
    within 1e-14 of math.fsum (the sampled partial sums within 1e-13)."""

    @pytest.mark.parametrize("N", [4, H - 1, H, H + 1, 4097, 2 ** 16])
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p", [0.5, 1.0, 4 / 3, 1.5, 2.0, 3.0])
    def test_against_the_two_power_rule(self, p, q, N):
        # (p, q), (p, 2q) and three probes with p* != p, so a != -1 (from
        # -5 to 7 over these p, q)
        probes = [(p, q), (p, 2 * q), (2 * p, q), (p / 2, 2 * q),
                  (1.5 * p, 3 * q)]
        eps, rep = witness_sequence(p, q, N, probes)
        old_eps, old = two_power_witness(p, q, N, probes)
        assert eps.tobytes() == old_eps.tobytes()
        assert witness_report(p, q, N, probes) == rep
        for probe, (summand, flag) in zip(rep.probes, old):
            assert probe.flag == flag
            terms = summand.tolist()
            assert_close([probe.half_sum, probe.total_sum],
                         [math.fsum(terms[:N // 2]), math.fsum(terms)],
                         1e-14)
        # the sampled rows of (p, 2q), where a = -1, and of (p / 2, 2q),
        # where a = 2q / p - 1 is the largest
        _, sums = whole_witness(p, q, N, probes)
        for i in (1, 3):
            summand = sums[i][0]
            prefixes = fsum_prefixes(summand, range(N))
            for stride in (1, 7, 256):
                rows, sample_rep = witness_samples(p, q, N, *probes[i], stride)
                idx = [n - 1 for n, _, _, _ in rows]
                assert [e for _, e, _, _ in rows] == old_eps[idx].tolist()
                assert [s for _, _, s, _ in rows] == summand[idx].tolist()
                assert_close([s for _, _, _, s in rows], prefixes[idx], 1e-13)
                assert sample_rep.probes[0] == rep.probes[i]

    @pytest.mark.parametrize("p, q", [(0.5, 2.0), (2.0, 1.0), (3.0, 0.5)])
    def test_long_sums_against_fsum(self, p, q):
        # N = 2^20 with the default probe (a = -1) and the probes with the
        # largest and the smallest a at these p, q
        N = 2 ** 20
        probes = [(p, q), (p / 2, 2 * q), (1.5 * p, 3 * q)]
        rep = witness_report(p, q, N, probes)
        for probe, (p_star, q_star) in zip(rep.probes, probes):
            want = chunked_fsum(p, q, N, p_star, q_star, [N // 2, N])
            assert_close([probe.half_sum, probe.total_sum], want, 1e-14)

    def test_sums_at_the_cap_against_fsum(self):
        # N = 2^24: the report of the default probe and of a = 7, and the
        # sampled partial sums of a = 7 at stride 2^18
        N = 2 ** 24
        probes = [(0.5, 2.0), (0.25, 4.0)]
        rep = witness_report(0.5, 2.0, N, probes)
        rows, sample_rep = witness_samples(0.5, 2.0, N, 0.25, 4.0, 2 ** 18)
        counts = [n for n, _, _, _ in rows]
        assert counts == [*range(1, N, 2 ** 18), N]
        at = sorted({*counts, N // 2})
        want = dict(zip(at, chunked_fsum(0.5, 2.0, N, 0.25, 4.0, at)))
        assert_close([s for _, _, _, s in rows], [want[n] for n in counts],
                     1e-13)
        assert_close([rep.probes[1].half_sum, rep.probes[1].total_sum],
                     [want[N // 2], want[N]], 1e-14)
        assert sample_rep.probes[0] == rep.probes[1]
        assert_close([rep.probes[0].half_sum, rep.probes[0].total_sum],
                     chunked_fsum(0.5, 2.0, N, 0.5, 2.0, [N // 2, N]), 1e-14)

    @pytest.mark.parametrize("N", STREAM_LENGTHS)
    def test_samples_at_stride_one_are_the_trace(self, N):
        rows, _ = witness_samples(1.5, 0.7, N, 2.5, 1.3, 1)
        trace = witness_trace(1.5, 0.7, N, 2.5, 1.3)
        assert rows == list(zip(*(col.tolist() for col in trace)))

    @pytest.mark.parametrize("N, flag", [
        (2 ** 16, INDETERMINATE), (2000, DIVERGING), (1025, DIVERGING)])
    def test_overflowing_probe_keeps_the_flag(self, N, flag):
        # a = 98.5: the summand overflows to inf past n = 1349, so a sum
        # past it is inf, and inf - inf reads as neither trend
        probes = [(2.0, 1.0), (0.01, 1.0)]
        with np.errstate(over="ignore"):
            _, sums = whole_witness(2.0, 1.0, N, probes)
            rep = witness_report(2.0, 1.0, N, probes)
            _, sample_rep = witness_samples(2.0, 1.0, N, 0.01, 1.0, 7)
        _, half, total = sums[1]
        assert rep.probes[1].flag == reference_flag(half, total) == flag
        assert sample_rep.probes[0] == rep.probes[1]
        assert math.isinf(rep.probes[1].total_sum) is (N > 1349)


class TestDivergenceThreshold:
    """The diverging threshold min(0.05, kappa l(N)) follows the slowest
    divergent summand n^-1 G^-1 past N of about 2^19, and is 0.05 below."""

    @staticmethod
    def ell(N):
        N = np.asarray(N)
        return np.log((1.0 + np.log(N)) / (1.0 + np.log(N // 2)))

    def test_threshold_is_the_fixed_one_up_to_2_19(self):
        N = np.arange(4, 2 ** 19 + 1)
        assert np.all(snum._DIVERGENCE_SHARE * self.ell(N)
                      >= DIVERGENCE_INCREMENT)
        assert snum._DIVERGENCE_SHARE * self.ell(2 ** 20) < 0.048

    @pytest.mark.parametrize("N", [4, 1025, 2 ** 16, 2 ** 19, 2 ** 19 + 1,
                                   546996, 2 ** 20, 2 ** 22 + 3,
                                   2 ** 24 - 1, 2 ** 24])
    def test_default_probe_diverges_at_every_length(self, N):
        # the probe (p, q) is the summand n^-1 G^-1 itself; its increment
        # stays within the Euler-Maclaurin gap, below 1 - kappa, of l(N)
        probe, = witness_report(2.0, 1.0, N, [(2.0, 1.0)]).probes
        increment = probe.total_sum - probe.half_sum
        assert probe.flag == DIVERGING
        assert 0.0 < 1.0 - increment / self.ell(N) < 1.0 / (N // 2)

    @pytest.mark.parametrize("N", [4, 5, 1000, 4097, 2 ** 16 + 1, 2 ** 19])
    def test_flags_keep_the_fixed_rule_up_to_2_19(self, N):
        probes = [(2.0, 1.0), (2.0, 1.04), (2.0, 1.2), (1.9, 1.0),
                  (2.1, 1.0), (2.0, 0.9), (3.0, 2.0)]
        for probe in witness_report(2.0, 1.0, N, probes).probes:
            assert probe.flag == reference_flag(probe.half_sum,
                                                probe.total_sum)

    @pytest.mark.parametrize("b, flag", [
        (-0.9, DIVERGING), (-1.0, DIVERGING), (-1.000005, DIVERGING),
        (-1.00001, INDETERMINATE), (-1.076, INDETERMINATE),
        (-1.078, CONVERGING), (-2.0, CONVERGING)])
    def test_band_it_cannot_separate_at_the_cap(self, b, flag):
        # a = -1 and q = 1, so the probe's q* is -b: the band of the
        # ``_membership`` docstring
        probe, = witness_report(2.0, 1.0, 2 ** 24, [(2.0, -b)]).probes
        assert probe.flag == flag


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
        # the one guard is the descent's: pairs that descend refuse more
        # than 16 entries, pairs with a route take any length
        for p0, p1 in ((1.0, 0.5), (1.5, 3.0)):
            k_operator_diag(np.ones(16), 1.0, p0, p1, budget=0)
            with pytest.raises(SizeError, match="16"):
                k_operator_diag(np.ones(17), 1.0, p0, p1)

    def test_long_sequence_on_an_exact_route(self):
        sigma = np.sort(np.random.default_rng(37).random(200))[::-1]
        for t in (0.25, 1.0, 4.0):
            got = k_operator_diag(sigma, t, 1.0, 2.0)
            assert got == k_operator_diag_batch(sigma[None, :], t, 1.0,
                                                2.0)[0]

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
                                             budget=8, seed=0)
            got = k_operator_diag_batch(S, 0.8, p0, p1)
            assert np.array_equal(got, want), (p0, p1)
            if 1.0 in (p0, p1) and max(p0, p1) > 1.0:
                # the clip search alone, which the closed form replaced
                with monkeypatch.context() as mp:
                    mp.setattr(_descent, "SWEEPS", 0)
                    clip = decomposition_infimum(S, 0.8, n0.dense, n1.dense,
                                                 budget=0, seed=0)
                np.testing.assert_allclose(got, clip, rtol=1e-12, atol=0)


class TestInputRefusals:
    @pytest.mark.parametrize("entries", [[1.0, 2.0], 3.0, np.ones((2, 2, 2))])
    def test_matrix_must_be_two_dimensional(self, entries):
        with pytest.raises(InvariantError,
                           match="matrix entries must be two-dimensional"):
            MatrixOperator(entries)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_matrix_must_be_finite(self, bad):
        with pytest.raises(InvariantError,
                           match="matrix entries must be finite"):
            MatrixOperator([[1.0, bad], [0.0, 1.0]])

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
    def test_empty_matrix(self, shape):
        T = MatrixOperator(np.zeros(shape))
        assert T.operator_norm() == 0.0
        a = approx_numbers(T)
        assert len(a) == 0 and a.values.shape == (0,)

    def test_one_by_zero_matrix_has_no_approximation_numbers(self):
        T = MatrixOperator([[]])
        assert (T.rows, T.cols) == (1, 0)
        assert approx_numbers(T).values.tolist() == []
        assert ideal_norm(T, LorentzParams(1.0, 1.0)) == 0.0

    def test_s_numbers_must_be_one_dimensional(self):
        with pytest.raises(InvariantError,
                           match="s-number sequence must be one-dimensional"):
            SNumSeq(np.ones((2, 2)))

    @pytest.mark.parametrize("values", [[1.0, -0.5], [-1.0]])
    def test_s_numbers_must_be_nonnegative(self, values):
        with pytest.raises(InvariantError,
                           match="s-numbers must be nonnegative"):
            SNumSeq(np.array(values))

    @pytest.mark.parametrize("key", ["p", "q"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, True,
                                     "2", "inf"])
    def test_lorentz_exponents_lie_in_zero_inf(self, key, bad):
        # float() took True as 1.0 and "2" as 2.0
        values = {"p": 2.0, "q": 1.0, key: bad}
        with pytest.raises(DomainError,
                           match=re.escape(f"{key} must lie in (0, inf), "
                                           f"got {bad}")):
            LorentzParams(**values)

    def test_lorentz_exponents_are_floats(self):
        params = LorentzParams(np.int64(2), 1)
        assert (params.p, params.q) == (2.0, 1.0)
        assert type(params.p) is float and type(params.q) is float
