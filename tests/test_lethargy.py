import numpy as np
import pytest

from interpk import couples
from interpk import (ConstructionError, DecaySpec, DomainError, InterpParams,
                     InvariantError, lift_sequence, slow_k_witness,
                     slow_snumber_witness, strictness_sweep,
                     strictness_witness)
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
