import math
import tracemalloc

import numpy as np
import pytest

from interpk import couples, lethargy
from interpk import (ConstructionError, DecaySpec, DomainError, InterpParams,
                     InvariantError, SizeError, lift_sequence, slow_k_witness,
                     slow_snumber_witness, strictness_sweep,
                     strictness_witness)
from interpk.couples import FiniteVector, l1_linf_couple
from interpk.interp import interp_norm
from interpk.snum import approx_numbers


def random_spec(rng, max_len=48):
    n = int(rng.integers(2, max_len))
    eps = np.cumprod(rng.uniform(0.5, 1.0, n)) * rng.uniform(0.5, 2.0)
    idx = np.arange(1, n + 1)
    h = np.maximum.accumulate(idx + rng.integers(0, 5, n))
    h = np.maximum(h, idx)
    return DecaySpec(eps, h)


def orbit_oracle_lift(spec, N):
    """The lift straight from its definition, one h-orbit at a time, O(N^2).

    Orbit m, h(m), h(h(m)), ... contributes eps_m 2^{-k} on the index range
    (h^{k-1}(m), h^k(m)].
    """
    eps = spec.epsilon[:N]
    h = spec.h
    xi = eps.copy()
    for m in range(1, N + 1):
        cur, k = m, 0
        while cur < N:
            nxt = int(h[cur - 1])
            if nxt <= cur:
                break  # fixed point: larger indices unreachable from m
            k += 1
            contrib = eps[m - 1] * 2.0 ** (-k)
            np.maximum(xi[cur:min(nxt, N)], contrib, out=xi[cur:min(nxt, N)])
            cur = nxt
    return xi


def assert_lift_postconditions(spec, xi, N):
    eps = spec.epsilon[:N]
    h = spec.h
    assert np.all(eps <= xi), "eps <= xi must hold exactly"
    assert np.all(np.diff(xi) <= 0.0), "xi must be nonincreasing"
    for n in range(1, N + 1):
        hn = int(h[n - 1])
        if hn <= N:
            assert xi[n - 1] <= 2.0 * xi[hn - 1], f"xi_{n} > 2 xi_h({n})"


class TestLiftSequence:
    def test_worked_example(self):
        spec = DecaySpec(1.0 / np.arange(1, 9), 2 * np.arange(1, 9))
        xi = lift_sequence(spec, 4)
        np.testing.assert_allclose(xi, [1.0, 0.5, 1.0 / 3.0, 0.25])
        # the constraint xi_2 <= 2 xi_4 is tight
        assert xi[1] == pytest.approx(2.0 * xi[3])

    def test_constant_sequence(self):
        spec = DecaySpec(np.full(6, 0.7), np.arange(1, 7) + 1)
        np.testing.assert_allclose(lift_sequence(spec, 6), np.full(6, 0.7))

    def test_identity_h_returns_eps(self):
        eps = np.array([1.0, 0.4, 0.2, 0.05])
        spec = DecaySpec(eps, np.arange(1, 5))
        np.testing.assert_allclose(lift_sequence(spec, 4), eps)

    def test_postconditions_random_specs(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            spec = random_spec(rng)
            N = len(spec.epsilon)
            assert_lift_postconditions(spec, lift_sequence(spec, N), N)

    def test_matches_orbit_oracle_bit_for_bit(self):
        rng = np.random.default_rng(51)
        for trial in range(300):
            n = int(rng.integers(1, 120))
            eps = np.sort(2.0 ** rng.uniform(-30, 0, n))[::-1].copy()
            if trial % 3 == 0:
                eps = np.round(eps * 8.0) / 8.0 + 1.0    # ties in eps
            idx = np.arange(1, n + 1)
            steps = [idx + rng.integers(0, 5, n),                  # short
                     np.where(rng.random(n) < 0.3, idx, 2 * idx),  # stalls
                     idx,                                          # identity
                     idx + rng.integers(0, 3 * n, n)][trial % 4]   # long
            spec = DecaySpec(eps, np.maximum.accumulate(steps))
            N = int(rng.integers(1, n + 1))
            assert np.array_equal(lift_sequence(spec, N),
                                  orbit_oracle_lift(spec, N))

    def test_long_orbit_is_linear_time(self):
        # h(n) = n + 1 was quadratic in the orbit loop: ~20 s at N = 4000
        N = 4000
        spec = DecaySpec(1.0 / np.arange(1, N + 1), np.arange(2, N + 2))
        xi = lift_sequence(spec, N)
        assert_lift_postconditions(spec, xi, N)

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvariantError):
            DecaySpec([0.5, 1.0], [1, 2])      # increasing eps
        with pytest.raises(InvariantError):
            DecaySpec([1.0, 0.5], [0, 2])      # h(1) < 1
        with pytest.raises(InvariantError):
            DecaySpec([1.0, 0.5], [3, 2])      # decreasing h
        with pytest.raises(InvariantError):
            DecaySpec([1.0, -0.5], [1, 2])     # nonpositive eps

    def test_infinite_epsilon_rejected(self):
        # JSON 1e400 reads as inf; lift wrote inf rows from it
        with pytest.raises(InvariantError, match="epsilon must be finite"):
            DecaySpec([math.inf, 1.0], [1, 2])

    def test_bad_length(self):
        spec = DecaySpec([1.0, 0.5], [1, 2])
        with pytest.raises(DomainError):
            lift_sequence(spec, 3)


class TestSlowKWitness:
    def test_harmonic_certificate(self):
        eps = 1.0 / (np.arange(0, 17) + 1.0)
        x, prof = slow_k_witness(eps, 16)
        # K(x, 2^{-n}) >= eps_n, read off the profile at grid point -n
        for n in range(17):
            assert prof.values[16 - n] >= eps[n] * (1 - 1e-12)

    def test_zero_sequence(self):
        x, prof = slow_k_witness(np.zeros(5), 4)
        assert np.all(prof.values == 0.0)
        assert np.all(x.entries == 0.0)

    def test_slow_decay_profile(self):
        # eps_n = 2^{-n/2}: profile decays at rate 2^{-n/2} although t = 2^{-n}
        eps = 2.0 ** (-np.arange(0, 13) / 2.0)
        _, prof = slow_k_witness(eps, 12)
        for n in range(13):
            assert prof.values[12 - n] >= 2.0 ** (-n / 2.0) * (1 - 1e-12)

    def test_needs_enough_entries(self):
        with pytest.raises(InvariantError):
            slow_k_witness([1.0, 0.5], 2)

    def test_n_above_the_float_range_is_refused(self):
        # the weight 2^N overflows from N = 1024 on; the refusal names N and
        # comes before any RuntimeWarning, and N = 1023 still runs
        eps = 1.0 / np.arange(1, 1200)
        for N in (1024, 1100):
            with pytest.raises(DomainError, match=f"N = {N} exceeds 1023"):
                slow_k_witness(eps, N)
        x, prof = slow_k_witness(eps, 1023)
        assert len(x) == 1024
        assert np.all(prof.values[::-1] >= eps[:1024] * (1 - 1e-12))

    def test_failed_certificate_raises(self, monkeypatch):
        kernel = couples._weighted_sup_batch
        monkeypatch.setattr(couples, "_weighted_sup_batch",
                            lambda *args: 0.5 * kernel(*args))
        with pytest.raises(ConstructionError, match="n=0"):
            slow_k_witness(1.0 / (np.arange(0, 9) + 1.0), 8)


class TestSlowSNumberWitness:
    def test_harmonic_diagonal(self):
        eps = 1.0 / np.arange(1, 65)
        T = slow_snumber_witness(eps)
        np.testing.assert_allclose(approx_numbers(T).values, eps, rtol=1e-12)

    def test_composition_with_lift(self):
        spec = DecaySpec(1.0 / np.arange(1, 33), 2 * np.arange(1, 33))
        xi = lift_sequence(spec, 32)
        T = slow_snumber_witness(xi)
        a = approx_numbers(T).values
        for n in range(1, 17):
            assert a[n - 1] <= 2.0 * a[2 * n - 1] * (1 + 1e-12)

    def test_constant(self):
        T = slow_snumber_witness([0.3, 0.3, 0.3])
        assert T.operator_norm() == pytest.approx(0.3)


class TestStrictnessWitness:
    def test_n_one_endpoints(self):
        rep = strictness_witness(1, InterpParams(0.5, 1.0))
        assert rep.int_norm == pytest.approx(1.0)
        assert rep.sum_norm == pytest.approx(1.0)

    def test_endpoint_norms_exact(self):
        for N in (2, 8, 64):
            rep = strictness_witness(N, InterpParams(0.3, 2.0))
            assert rep.int_norm == pytest.approx(1.0)
            assert rep.sum_norm == pytest.approx(1.0 / N)

    def test_frozen_value_n4(self):
        rep = strictness_witness(4, InterpParams(0.5, 1.0))
        # independent dyadic series: sum_n 2^{-n/2} min(2^n, 4)/4
        n = np.arange(-40, 41, dtype=float)
        want = float(np.sum(2.0 ** (-0.5 * n) * np.minimum(2.0 ** n, 4.0) / 4.0))
        assert rep.interp_norm == pytest.approx(want, rel=1e-12)
        assert abs(rep.interp_norm - 2.914) <= 1e-3

    def test_decay_rate_bound(self):
        for theta in (0.3, 0.5, 0.7):
            params = InterpParams(theta, 1.0)
            reps = strictness_sweep([2, 4, 8, 16, 32, 64], params)
            bound = 2.0 ** (-min(theta, 1.0 - theta)) + 0.05
            for a, b in zip(reps, reps[1:]):
                assert b.interp_norm / a.interp_norm <= bound


def frozen_strictness_witness(N, params, n_min=-40, n_max=40):
    """The per-N strictness witness on the (l1, linf) kernel route: one
    couple, two norms, one K(y, 1) and one validated profile per N, whose
    sums add 1/N one term at a time."""
    if N < 1:
        raise DomainError("N must be >= 1")
    couple = l1_linf_couple(N)
    y = FiniteVector(0, np.full(N, 1.0 / N))
    int_norm = max(couple.norm0(y), couple.norm1(y))
    sum_norm = couple.k(y, 1.0)
    val = interp_norm(y, couple, params, n_min, n_max)
    return lethargy.StrictnessReport(N, float(int_norm), float(sum_norm),
                                     float(val))


def exact_interp_norm(N, theta, q, n_min=-40, n_max=40):
    """The (theta, q) norm of the exact profile min(2^n, N)/N, summed by
    ``math.fsum``."""
    terms = [2.0 ** (-theta * n) * min(2.0 ** n, N) / N
             for n in range(n_min, n_max + 1)]
    if q == math.inf:
        return max(terms)
    return math.fsum(v ** q for v in terms) ** (1.0 / q)


SWEEP_LISTS = [
    [2 ** k for k in range(1, 11)],
    [1],
    [7, 3, 7, 1, 1000, 49, 3, 2, 513],      # unsorted, with duplicates
    list(range(1, 40)),
    [4096, 1, 65536, 65537, 3, 100000],
]
# the closed form costs nothing N-sized, so the cap is pinned too
EXACT_LISTS = SWEEP_LISTS + [[2 ** 24 - 1, 2 ** 24]]


def assert_exact(reps, params, n_min=-40, n_max=40):
    for rep in reps:
        assert rep.int_norm == 1.0
        assert rep.sum_norm == 1.0 / rep.N
        want = exact_interp_norm(rep.N, params.theta, params.q, n_min, n_max)
        assert rep.interp_norm == pytest.approx(want, rel=1e-14, abs=0)


class TestStrictnessSweepBatched:
    # n_max None is the default window -40..40; at n_max = 1 no t reaches
    # most N, at 64 every t past 2^24 is in the window
    @pytest.mark.parametrize("n_max", [None, 64, 1])
    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, math.inf])
    def test_equals_per_n_reference_bit_for_bit(self, n_max, theta, q):
        # the sweep gives each N the bits of the sweep of N alone, with the
        # exact endpoint norms and the fsum norm of the exact profile
        params = InterpParams(theta, q)
        window = {} if n_max is None else {"n_max": n_max}
        for N_list in EXACT_LISTS:
            reps = strictness_sweep(N_list, params, **window)
            assert reps == [strictness_witness(N, params, **window)
                            for N in N_list]
            assert_exact(reps, params, **window)

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, math.inf])
    def test_kernel_route_agrees_within_its_drift(self, theta, q):
        # the kernel route sums 1/N one term at a time, so away from powers
        # of two it drifts from the closed form: its int_norm is
        # 0.9999999999999999 at N = 49, its interp_norm up to 1.9e-12 off
        # at N = 10^5; the powers of two keep every bit
        params = InterpParams(theta, q)
        for N_list in SWEEP_LISTS:
            for rep in strictness_sweep(N_list, params):
                old = frozen_strictness_witness(rep.N, params)
                if rep.N & (rep.N - 1) == 0:
                    assert rep == old
                assert rep.int_norm == pytest.approx(old.int_norm, rel=1e-11)
                assert rep.sum_norm == old.sum_norm
                assert rep.interp_norm == pytest.approx(old.interp_norm,
                                                        rel=1e-11)

    def test_other_window_bit_for_bit(self):
        params = InterpParams(0.4, 3.0)
        reps = strictness_sweep([5, 2], params, -6, 9)
        assert reps == [strictness_witness(N, params, -6, 9) for N in (5, 2)]
        assert_exact(reps, params, -6, 9)

    def test_report_order_follows_n_list(self):
        N_list = [9, 2, 100, 2, 1, 33, 9]
        reps = strictness_sweep(N_list, InterpParams(0.5, 1.0))
        assert [r.N for r in reps] == N_list
        assert all(type(r.N) is int for r in reps)

    def test_sweep_at_the_cap_allocates_nothing_n_sized(self):
        tracemalloc.start()
        try:
            rep, = strictness_sweep([2 ** 24], InterpParams(0.5, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert rep.sum_norm == 2.0 ** -24

    def test_witness_is_the_sweep_of_one(self):
        params = InterpParams(0.3, 2.0)
        assert strictness_witness(12, params) == strictness_sweep(
            [12], params)[0]

    def test_empty_list(self):
        assert strictness_sweep([], InterpParams(0.5, 1.0)) == []

    @pytest.mark.parametrize("N_list", [[0], [4, -1], [3, 0, 2]])
    def test_n_below_one_refused(self, N_list):
        with pytest.raises(DomainError, match="N must be >= 1"):
            strictness_sweep(N_list, InterpParams(0.5, 1.0))

    def test_witness_n_below_one_refused(self):
        with pytest.raises(DomainError, match="N must be >= 1"):
            strictness_witness(0, InterpParams(0.5, 1.0))

    @pytest.mark.parametrize("N", [lethargy.STRICTNESS_MAX_N + 1, 10 ** 12])
    def test_n_above_cap_refused_before_allocating(self, N):
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match=str(N)):
                strictness_sweep([2, N], InterpParams(0.5, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_non_integer_n_refused(self):
        # it raised a bare TypeError
        with pytest.raises(DomainError, match="N must be an integer"):
            strictness_sweep([2.5], InterpParams(0.5, 1.0))

    def test_boolean_n_refused(self):
        # True read as N = 1
        with pytest.raises(DomainError, match="N must be an integer"):
            strictness_sweep([True, 2], InterpParams(0.5, 1.0))


class TestLiftReadsOnlyItsPrefix:
    def test_h_beyond_n_is_not_read(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            spec = random_spec(rng, max_len=80)
            n = len(spec.epsilon)
            N = int(rng.integers(1, n + 1))
            xi = lift_sequence(spec, N)
            # any admissible tail: the largest h keeps h nondecreasing
            tail = np.maximum(spec.h[N:], 10 ** 9)
            other = DecaySpec(spec.epsilon,
                              np.concatenate([spec.h[:N], tail]))
            assert np.array_equal(lift_sequence(other, N), xi)
            # and the least admissible tail
            tail = np.maximum(np.arange(N + 1, n + 1), spec.h[N - 1])
            other = DecaySpec(spec.epsilon,
                              np.concatenate([spec.h[:N], tail]))
            assert np.array_equal(lift_sequence(other, N), xi)


class TestInputRefusals:
    @pytest.mark.parametrize("eps", [[], [[1.0, 0.5]]])
    def test_epsilon_must_be_a_nonempty_row(self, eps):
        with pytest.raises(InvariantError,
                           match="epsilon must be a nonempty 1-d array"):
            DecaySpec(eps, [2])

    @pytest.mark.parametrize("h", [[2], [2, 3, 4], [[2, 3]]])
    def test_h_must_match_epsilon(self, h):
        with pytest.raises(InvariantError,
                           match="h must have the same length as epsilon"):
            DecaySpec([1.0, 0.5], h)

    def test_strictness_window_ends_must_be_integers(self):
        # it ran at t = 2^-1.5, 2^-0.5, ...
        with pytest.raises(DomainError, match="n_min must be an integer"):
            strictness_sweep([2], InterpParams(0.5, 1), n_min=-1.5,
                             n_max=1.5)

    @pytest.mark.parametrize("N", [True, 1.5])
    def test_lift_n_must_be_an_integer(self, N):
        # True ran with N = 1, and 1.5 raised a bare TypeError from slicing
        spec = DecaySpec([1.0, 0.5], [2, 2])
        with pytest.raises(DomainError, match="N must be an integer"):
            lift_sequence(spec, N)

    @pytest.mark.parametrize("N", [True, 1.5])
    def test_slow_k_n_must_be_an_integer(self, N):
        # True ran with N = 1, and 1.5 raised a bare TypeError from slicing
        with pytest.raises(DomainError, match="N must be an integer"):
            slow_k_witness([1.0, 0.5, 0.25], N)

    @pytest.mark.parametrize("eps", [[0.5, 1.0, 0.25], [1.0, 0.5, -0.25]])
    def test_slow_k_epsilon_must_decrease_to_nonnegative(self, eps):
        with pytest.raises(InvariantError,
                           match="epsilon must be nonincreasing and "
                                 "nonnegative"):
            slow_k_witness(eps, 2)
