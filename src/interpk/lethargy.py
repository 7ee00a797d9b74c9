"""Constructive slow-decay witnesses.

Three concrete constructions with exactly checkable certificates:

* ``lift_sequence`` turns a vanishing nonincreasing sequence eps and a rate
  map h (nondecreasing, h(n) >= n) into xi with eps_n <= xi_n, xi
  nonincreasing and xi_n <= 2 xi_{h(n)}.  The construction is the supremum

      xi_n = sup_m eps_m * 2^{-rho(m, n)},
      rho(m, n) = min{k >= 0 : h^k(m) >= n},

  with unreachable (m, n) pairs excluded; all three postconditions follow
  pointwise and are verified exactly, not approximately.

* ``slow_k_witness`` places eps on the diagonal of the couple
  (linf(1), linf(2^k)) where the exact LP strategy certifies the lower
  bound K(x, 2^{-n}) >= eps_n: the K-profile decays no faster than eps no
  matter how fast t does.

* ``strictness_witness`` evaluates the flat vectors y_N = (1/N, ..., 1/N)
  in (l1, linf), whose intersection norm stays 1 while the sum norm is 1/N;
  across a doubling sweep the (theta, q) norm decays like
  N^{-min(theta, 1-theta)}, strictly between the endpoints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .couples import (FiniteVector, KProfile, l1_linf_couple,
                      weighted_sup_couple)
from .errors import ConstructionError, DomainError, InvariantError
from .interp import InterpParams, interp_norm
from .snum import MatrixOperator, diag_operator

__all__ = [
    "DecaySpec", "StrictnessReport", "lift_sequence", "slow_k_witness",
    "slow_snumber_witness", "strictness_witness", "strictness_sweep",
]


@dataclass(frozen=True)
class DecaySpec:
    """A target decay rate eps and a lag map h with h(n) >= n.

    ``epsilon`` is a finite prefix (1-indexed in the math, stored 0-based);
    ``h`` holds h(1), ..., h(len(epsilon)).
    """

    epsilon: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.epsilon, dtype=float)
        if eps.ndim != 1 or len(eps) == 0:
            raise InvariantError("epsilon must be a nonempty 1-d array")
        if not np.all(eps > 0):
            raise InvariantError("epsilon must be positive")
        if np.any(np.diff(eps) > 0):
            raise InvariantError("epsilon must be nonincreasing")
        harr = np.asarray(self.h, dtype=int)
        if harr.shape != eps.shape:
            raise InvariantError("h must have the same length as epsilon")
        idx = np.arange(1, len(harr) + 1)
        if np.any(harr < idx):
            raise InvariantError("h(n) >= n is required")
        if np.any(np.diff(harr) < 0):
            raise InvariantError("h must be nondecreasing")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "h", harr)


def lift_sequence(spec: DecaySpec, N: int) -> np.ndarray:
    """Lift eps to xi with eps <= xi, xi nonincreasing, xi_n <= 2 xi_{h(n)}.

    xi_n = sup_m eps_m 2^{-rho(m,n)} where rho counts how many h-steps m
    needs to reach n; m stuck at a fixed point below n contributes nothing.
    The orbit through c reaches every n with c < n <= h(c) in one more step,
    so the supremum satisfies the recurrence

        xi_n = max(eps_n, 1/2 max{xi_c : c < n <= h(c)}).

    As h is nondecreasing, the admissible c form a window sliding right with
    n, whose maximum a monotone deque tracks: O(N) in all.
    """
    if N < 1 or N > len(spec.epsilon):
        raise DomainError("need 1 <= N <= len(epsilon)")
    xi = spec.epsilon[:N].tolist()
    h = spec.h[:N].tolist()
    window = deque()      # 0-based c, xi[c] strictly decreasing front to back
    for n in range(1, N):
        c = n - 1
        while window and xi[window[-1]] <= xi[c]:
            window.pop()
        window.append(c)
        while window and h[window[0]] <= n:
            window.popleft()  # 1-based h(c + 1) < n + 1: c cannot reach n
        if window:
            xi[n] = max(xi[n], 0.5 * xi[window[0]])
    return np.array(xi)


def slow_k_witness(epsilon: Sequence[float], N: int):
    """Element of (linf(1), linf(2^k)) whose K-profile dominates eps.

    Returns (x, profile) with x_k = eps_k on the window k = 0..N and the
    LP-certified bound K(x, 2^{-n}) >= eps_n for every n = 0..N.  The
    profile stores K(x, 2^n) for n = -N..0.
    """
    eps = np.asarray(epsilon, dtype=float)
    if np.any(np.diff(eps) > 0) or np.any(eps < 0):
        raise InvariantError("epsilon must be nonincreasing and nonnegative")
    if len(eps) < N + 1:
        raise InvariantError("need len(epsilon) >= N + 1 for window 0..N")
    eps = eps[:N + 1]
    x = FiniteVector(0, eps)
    ns = np.arange(0, N + 1, dtype=float)
    couple = weighted_sup_couple(np.ones(N + 1), 2.0 ** ns)
    values = couple.profile_batch(eps, 2.0 ** (-ns))[0]
    failed = np.flatnonzero(values < eps * (1.0 - 1e-12))
    if len(failed):
        n = int(failed[0])
        raise ConstructionError(
            f"certificate failed at n={n}: K={values[n]} < eps={eps[n]}")
    profile = KProfile(-N, 0, values[::-1].copy())
    return x, profile


def slow_snumber_witness(epsilon) -> MatrixOperator:
    """Finite-rank diagonal operator with a_n = eps_n exactly."""
    return diag_operator(epsilon)


@dataclass(frozen=True)
class StrictnessReport:
    N: int
    int_norm: float
    sum_norm: float
    interp_norm: float

    def to_json(self) -> dict:
        return {"N": self.N, "int_norm": self.int_norm,
                "sum_norm": self.sum_norm, "interp_norm": self.interp_norm}


STRICTNESS_N_MIN = -40
STRICTNESS_N_MAX = 40


def strictness_witness(N: int, params: InterpParams,
                       n_min: int = STRICTNESS_N_MIN,
                       n_max: int = STRICTNESS_N_MAX) -> StrictnessReport:
    """Norms of the flat vector y_N = (1/N, ..., 1/N) in (l1, linf).

    The intersection norm is exactly 1 and the sum norm exactly 1/N, so the
    ratio of the two endpoint norms collapses while the interpolation norm
    sits strictly between them.  K(y_N, t) saturates at 1 for t >= N and the
    weighted tail 2^{-theta n} dies slowly, so the default window here is
    wider than elsewhere.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    couple = l1_linf_couple(N)
    y = FiniteVector(0, np.full(N, 1.0 / N))
    int_norm = max(couple.norm0(y), couple.norm1(y))
    sum_norm = couple.k(y, 1.0)
    val = interp_norm(y, couple, params, n_min, n_max)
    return StrictnessReport(N, float(int_norm), float(sum_norm), float(val))


def strictness_sweep(N_list: Sequence[int], params: InterpParams,
                     n_min: int = STRICTNESS_N_MIN,
                     n_max: int = STRICTNESS_N_MAX) -> list[StrictnessReport]:
    return [strictness_witness(N, params, n_min, n_max) for N in N_list]
