"""Constructive slow-decay witnesses.

Three concrete constructions with exactly checkable certificates:

* ``lift_sequence`` turns a vanishing nonincreasing sequence eps and a rate
  map h (nondecreasing, h(n) >= n) into xi with eps_n <= xi_n, xi
  nonincreasing and xi_n <= 2 xi_{h(n)}.  The construction is the supremum

      xi_n = sup_m eps_m * 2^{-rho(m, n)},
      rho(m, n) = min{k >= 0 : h^k(m) >= n},

  with unreachable (m, n) pairs excluded; all three postconditions follow
  pointwise and are verified exactly, not approximately.  As xi is
  nonincreasing it reduces to xi_n = max(eps_n, xi_{c(n)} / 2) with
  c(n) = min{c < n : h(c) >= n}: one binary search over h for every c(n),
  O(N log N), then one O(N) loop.

* ``slow_k_witness`` places eps on the diagonal of the couple
  (linf(1), linf(2^k)).  There K(x, .) is the least concave nondecreasing
  majorant of (0, 0) and the points (2^{-k}, eps_k)
  (``couples._weighted_sup_batch``), and the point (2^{-n}, eps_n) lies
  under it, which certifies the lower bound K(x, 2^{-n}) >= eps_n: the
  K-profile decays no faster than eps no matter how fast t does.

* ``strictness_sweep`` evaluates the flat vectors y_N = (1/N, ..., 1/N)
  in (l1, linf), whose intersection norm stays 1 while the sum norm is 1/N;
  across a doubling sweep the (theta, q) norm decays like
  N^{-min(theta, 1-theta)}, strictly between the endpoints.  Every value
  comes from the closed form K(y_N, t) = min(t, N)/N (Calderon's
  K(x, t) = int_0^t x*(s) ds on (l1, linf)), so nothing N-sized is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .couples import (FiniteVector, KProfile, _integer, _n_window,
                      weighted_sup_couple)
from .errors import ConstructionError, DomainError, InvariantError, SizeError
from .interp import InterpParams, dyadic_norm
from .snum import MatrixOperator, diag_operator

__all__ = [
    "DecaySpec", "StrictnessReport", "lift_sequence", "slow_k_witness",
    "slow_snumber_witness", "strictness_witness", "strictness_sweep",
    "STRICTNESS_MAX_N", "SLOW_K_MAX_N",
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
        if not np.all(np.isfinite(eps)):
            raise InvariantError("epsilon must be finite")
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

    As h is nondecreasing, the admissible c are the run c(n) <= c < n with
    c(n) = min{c < n : h(c) >= n}, and as xi is nonincreasing their maximum
    is xi_{c(n)}.  One ``np.searchsorted`` over h(1..N) finds every c(n),
    O(N log N); the recurrence is then one O(N) loop.  Only h(1..N) is read.
    N must be an integer (``couples._integer``).
    """
    N = _integer(N, "N")
    if N < 1 or N > len(spec.epsilon):
        raise DomainError("need 1 <= N <= len(epsilon)")
    xi = spec.epsilon[:N].tolist()
    # 0-based: c(n) is the first c with h[c] > n, and c(n) <= n as h[n] > n
    first = np.searchsorted(spec.h[:N], np.arange(1, N), side="right")
    for n, c in enumerate(first.tolist(), start=1):
        if c < n:
            half = 0.5 * xi[c]
            if half > xi[n]:
                xi[n] = half
    return np.array(xi)


# the largest N whose weight 2^N in ``slow_k_witness`` is a finite float
SLOW_K_MAX_N = np.finfo(float).maxexp - 1


def slow_k_witness(epsilon: Sequence[float], N: int):
    """Element of (linf(1), linf(2^k)) whose K-profile dominates eps.

    Returns (x, profile) with x_k = eps_k on the window k = 0..N and the
    bound K(x, 2^{-n}) >= eps_n for every n = 0..N.  The bound holds since
    K(x, .) is the least concave nondecreasing majorant of (0, 0) and the
    points (2^{-k}, eps_k), and (2^{-n}, eps_n) lies under it; the profile
    is checked against eps all the same.  The profile stores K(x, 2^n) for
    n = -N..0.  N is at most 1023, so that the
    weight 2^N is a finite float; a larger N, or one that is not an integer
    (``couples._integer``), raises DomainError.
    """
    if _integer(N, "N") > SLOW_K_MAX_N:
        raise DomainError(f"N = {N} exceeds {SLOW_K_MAX_N}, where the "
                          f"weight 2^N overflows a float")
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


STRICTNESS_N_MIN = -40
STRICTNESS_N_MAX = 40
# The largest N a sweep takes.  The sweep allocates nothing N-sized, so the
# cap is the command's range, not a memory bound.
STRICTNESS_MAX_N = 2 ** 24


def strictness_witness(N: int, params: InterpParams,
                       n_min: int = STRICTNESS_N_MIN,
                       n_max: int = STRICTNESS_N_MAX) -> StrictnessReport:
    """Norms of the flat vector y_N = (1/N, ..., 1/N) in (l1, linf).

    The intersection norm is exactly 1 and the sum norm exactly 1/N, so the
    ratio of the two endpoint norms collapses while the interpolation norm
    sits strictly between them.  K(y_N, t) = min(t, N)/N saturates at 1 for
    t >= N and the weighted tail 2^{-theta n} dies slowly, so the default
    window here is wider than elsewhere.  It is ``strictness_sweep`` of [N].
    """
    return strictness_sweep([N], params, n_min, n_max)[0]


def strictness_sweep(N_list: Sequence[int], params: InterpParams,
                     n_min: int = STRICTNESS_N_MIN,
                     n_max: int = STRICTNESS_N_MAX) -> list[StrictnessReport]:
    """``strictness_witness`` of every N of ``N_list``, in its order.

    Every report is built from the closed form: the intersection norm
    max(||y_N||_1, ||y_N||_inf) is 1.0, the sum norm K(y_N, 1) is 1.0 / N,
    and the profile K(y_N, t) = min(t, N)/N over t = 2^n_min .. 2^n_max is
    one array over the distinct N, whose (theta, q) norm
    ``interp.dyadic_norm`` takes.  Each N must be an integer
    (``couples._integer``); any N < 1 is refused with DomainError and any N
    above ``STRICTNESS_MAX_N`` with SizeError.
    """
    Ns = sorted({_integer(N, "N") for N in N_list})
    if not Ns:
        return []
    if Ns[0] < 1:
        raise DomainError("N must be >= 1")
    if Ns[-1] > STRICTNESS_MAX_N:
        raise SizeError(f"N = {Ns[-1]} exceeds the strictness sweep's cap "
                        f"{STRICTNESS_MAX_N}")
    grid, t = _n_window(n_min, n_max)
    col = np.array(Ns, dtype=float)[:, None]
    val = dyadic_norm(np.minimum(t, col) / col, grid, params.theta, params.q)
    reports = {N: StrictnessReport(N, 1.0, 1.0 / N, v)
               for N, v in zip(Ns, val.tolist())}
    return [reports[N] for N in N_list]
