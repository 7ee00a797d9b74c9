"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion asserts its stated tolerance and runtime budget.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from interpk import (DecaySpec, InterpParams, check_konig, check_mainlema,
                     check_reiteration, check_sum_intersection,
                     dichotomy_sweep, l1_linf_couple, lift_sequence,
                     oracle_agreement, power_couple, strictness_sweep,
                     strictness_witness, weighted_sup_couple)
from interpk._descent import decomposition_infimum
from interpk.couples import FiniteVector, _power_batch, k_profile


@contextmanager
def criterion(num, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {num} took {elapsed:.1f}s, budget {limit_seconds}s")
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s)")


def test_criterion_01_oracle_agreement():
    with criterion(1, "oracle agreement (closed forms vs descent)", 10.0):
        rep = oracle_agreement(count=200, max_dim=8, seed=101, budget=4)
        for kind, err in rep["worst_relative_error"].items():
            assert err <= 1e-6, f"{kind} relative error {err}"


def test_criterion_02_surrogate_band():
    with criterion(2, "power-functional surrogate band", 30.0):
        for p in (0.5, 1.0, 2.0, 3.0):
            band = 2.0 ** (1.0 / min(p, 1.0))
            draws = []
            for i in range(100):
                rng = np.random.default_rng([202, int(p * 10), i])
                d = int(rng.integers(1, 9))
                draws.append((d, float(2.0 ** rng.uniform(-4, 4)),
                              rng.standard_normal(8),
                              2.0 ** rng.uniform(-1.5, 1.5, 8),
                              2.0 ** rng.uniform(-1.5, 1.5, 8)))
            for d in range(1, 9):
                group = [g for g in draws if g[0] == d]
                if not group:
                    continue
                X = np.stack([g[2][:d] for g in group])
                T = np.asarray([g[1] for g in group])
                W0 = np.stack([g[3][:d] for g in group])
                W1 = np.stack([g[4][:d] for g in group])
                kp = _power_batch(X, T, p, W0, W1)

                def n0(A, W0=W0, p=p):
                    W = np.tile(W0, (len(A) // len(W0), 1))
                    return np.sum((W * np.abs(A)) ** p, axis=1) ** (1.0 / p)

                def n1(A, W1=W1, p=p):
                    W = np.tile(W1, (len(A) // len(W1), 1))
                    return np.sum((W * np.abs(A)) ** p, axis=1) ** (1.0 / p)

                oracle = decomposition_infimum(X, T, n0, n1, budget=4,
                                               seed=d, scale0=W0, scale1=W1)
                ratio = kp / oracle
                assert np.all(ratio >= 1.0 / band - 1e-12), (p, ratio.min())
                # for p >= 1, K_p <= K <= descent: the surrogate never
                # exceeds the descent
                upper = 1.0 if p >= 1.0 else band
                assert np.all(ratio <= upper + 1e-12), (p, ratio.max())


def test_criterion_03_profile_invariants():
    with criterion(3, "K-profile invariants on 500 profiles", 10.0):
        rng = np.random.default_rng(303)
        n_min, n_max = -8, 8
        for i in range(500):
            d = int(rng.integers(1, 9))
            kind = i % 4
            if kind == 0:
                c = l1_linf_couple(d)
            elif kind == 1:
                c = l1_linf_couple(d).reversed()
            elif kind == 2:
                c = weighted_sup_couple(2.0 ** rng.uniform(-2, 2, d),
                                        2.0 ** rng.uniform(-2, 2, d))
            else:
                c = power_couple(float(rng.choice([0.5, 1.0, 2.0])),
                                 2.0 ** rng.uniform(-1, 1, d),
                                 2.0 ** rng.uniform(-1, 1, d))
            x = FiniteVector(0, rng.standard_normal(d))
            prof = k_profile(x, c, n_min, n_max)
            prof.validate(rel_tol=1e-9)  # monotone in t, K/t antitone
            lam = float(2.0 ** rng.uniform(-2, 2))
            prof_scaled = k_profile(x.scaled(lam), c, n_min, n_max)
            np.testing.assert_allclose(prof_scaled.values, lam * prof.values,
                                       rtol=1e-9)  # homogeneity
            rev = k_profile(x, c.reversed(), -n_max, -n_min)
            # K(x, t; A0, A1) = t K(x, 1/t; A1, A0)
            np.testing.assert_allclose(
                prof.values, prof.t_values * rev.values[::-1], rtol=1e-9)


def test_criterion_04_mainlema_band():
    with criterion(4, "mainlema surrogate band on (l1, linf)", 60.0):
        rep = check_mainlema(family="l1_linf", seed=404)
        assert rep.passed
        assert 0.125 <= rep.min_ratio <= rep.max_ratio <= 8.0
        assert set(rep.per_dimension) == {2, 4, 8}


def test_criterion_05_sum_intersection_sweep():
    with criterion(5, "sum/intersection formula across dims 4..64", 300.0):
        for theta, p in ((0.3, 1.0), (0.7, 1.0), (0.5, 2.0), (0.3, 0.5)):
            rep = check_sum_intersection(theta, p, seed=505)
            assert rep.passed, (theta, p, rep.per_dimension)
            assert set(rep.per_dimension) == {4, 8, 16, 32, 64}


def test_criterion_06_reiteration_band():
    with criterion(6, "reiteration formula band across dims 4..32", 300.0):
        rep = check_reiteration(0.25, 0.75, 0.5, 2.0, seed=606)
        assert rep.passed, rep.per_dimension
        assert set(rep.per_dimension) == {4, 8, 16, 32}


def test_criterion_07_konig_identity():
    with criterion(7, "Lorentz-interpolation identity + witness flags", 120.0):
        for q in (1.0, 2.0):
            rep = check_konig(1.0, 2.0, 0.5, q, seed=707)
            assert rep.passed, (q, rep.per_dimension)
            assert rep.config["witness_flags"] == ["diverging", "converging"]
            assert max(rep.per_dimension) == 64
            assert rep.config["witness_length"] == 2 ** 16


def test_criterion_08_dichotomy_sweep():
    with criterion(8, "non-ordered dichotomy lower bound", 30.0):
        sizes = [2 * w + 1 for w in range(4, 9)]  # windows [-4,4] .. [-8,8]
        rep = dichotomy_sweep("l1_geometric", 0.25, sizes, seed=808)
        assert rep.passed
        assert all(v >= 0.99 for v in rep.values)


def test_criterion_09_lift_sequence():
    with criterion(9, "sequence lifting postconditions", 10.0):
        spec = DecaySpec(1.0 / np.arange(1, 9), 2 * np.arange(1, 9))
        np.testing.assert_allclose(lift_sequence(spec, 4),
                                   [1.0, 0.5, 1.0 / 3.0, 0.25])
        rng = np.random.default_rng(909)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            eps = np.cumprod(rng.uniform(0.5, 1.0, n)) * rng.uniform(0.5, 2.0)
            idx = np.arange(1, n + 1)
            h = np.maximum(np.maximum.accumulate(idx + rng.integers(0, 5, n)),
                           idx)
            spec = DecaySpec(eps, h)
            xi = lift_sequence(spec, n)
            assert np.all(eps <= xi)
            assert np.all(np.diff(xi) <= 0.0)
            reach = h[h <= n]
            for m, hm in enumerate(h, start=1):
                if hm <= n:
                    assert xi[m - 1] <= 2.0 * xi[hm - 1]


def test_criterion_10_strictness_decay():
    with criterion(10, "strictness witness decay rates", 30.0):
        rep4 = strictness_witness(4, InterpParams(0.5, 1.0))
        assert abs(rep4.interp_norm - 2.914) <= 1e-3
        for theta in (0.3, 0.5, 0.7):
            params = InterpParams(theta, 1.0)
            reps = strictness_sweep([2, 4, 8, 16, 32, 64], params)
            bound = 2.0 ** (-min(theta, 1.0 - theta)) + 0.05
            for a, b in zip(reps, reps[1:]):
                assert b.interp_norm / a.interp_norm <= bound, (theta, a.N)
            assert all(r.int_norm == pytest.approx(1.0) for r in reps)
            assert all(r.sum_norm == pytest.approx(1.0 / r.N) for r in reps)


def test_criterion_11_s_number_axioms():
    with criterion(11, "s-number axiom suite on 500 matrix pairs", 30.0):
        rng = np.random.default_rng(1111)
        for trial in range(500):
            d = int(rng.integers(1, 9))
            T = rng.standard_normal((d, d))
            S = rng.standard_normal((d, d))
            sT = np.linalg.svd(T, compute_uv=False)
            sS = np.linalg.svd(S, compute_uv=False)
            sSum = np.linalg.svd(T + S, compute_uv=False)
            sProd = np.linalg.svd(T @ S, compute_uv=False)
            assert abs(sT[0] - np.linalg.norm(T, 2)) <= 1e-9
            for n in range(1, d + 1):
                m_max = d + 1 - n
                for m in range(1, m_max + 1):
                    k = n + m - 1
                    assert sSum[k - 1] <= sT[n - 1] + sS[m - 1] + 1e-9
                    assert sProd[k - 1] <= sT[n - 1] * sS[m - 1] + 1e-9
            if trial % 25 == 0:
                ident = np.linalg.svd(np.eye(d), compute_uv=False)
                np.testing.assert_allclose(ident, np.ones(d), atol=1e-12)
                rank1 = np.outer(T[:, 0], S[0])
                s1 = np.linalg.svd(rank1, compute_uv=False)
                assert np.all(s1[1:] <= 1e-9 * max(s1[0], 1.0))


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "byte-identical reports under fixed seed", 60.0):
        rep_a = check_sum_intersection(0.3, 1.0, dims=(4, 8), count=40,
                                       seed=1212)
        rep_b = check_sum_intersection(0.3, 1.0, dims=(4, 8), count=40,
                                       seed=1212)
        assert json.dumps(rep_a.to_json(), sort_keys=True) == \
            json.dumps(rep_b.to_json(), sort_keys=True)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "l1_geometric", "t": 0.25,
                                   "sizes": [9, 11]}))
        blobs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "interpk.cli", "verify", "dichotomy",
                 "--config", str(cfg), "--seed", "12", "--out", str(out)],
                capture_output=True)
            assert proc.returncode == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
