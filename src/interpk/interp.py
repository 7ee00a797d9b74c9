"""Real-interpolation quasi-norms on dyadic K-profiles.

The continuous norm (integral of (t^-theta K(x,t))^q dt/t)^(1/q) is realized
as a dyadic sum over t = 2^n, n in a finite window:

    ||x||_{theta,q} = ( sum_n (2^{-theta n} K(x, 2^n))^q )^{1/q},

with the sup for q = inf.  A constant normalization factor (ln 2) is dropped
throughout since only two-sided equivalences are ever asserted.

``dyadic_weights`` is the one place the weight 2^{-theta n} is computed and
``dyadic_norm`` the one weighted lq sum over it; every norm on a dyadic grid
here and in ``verify`` calls them.

The module also provides:

* lattice-parameter norms ||{K(x, 2^n)}||_E for weighted lr lattices E over
  the window, with a K-nontriviality check on {min(1, 2^n)};
* the split of the norm into the t <= 1 and t > 1 halves;
* substitution/comparison checks for pairs of power parameter spaces
  Phi(theta) (weight t^-theta inside the q-th power) on the dyadic grid;
* the derived couple (A0+A1, A0 cap A1) whose K at t <= 1 is evaluated both
  by the surrogate K(x,t) + t K(x,1/t) and on the explicit sum and
  intersection norms (by ``k_route`` for an (l1, linf) base, by descent
  otherwise).  The surrogate has two implementations:
  ``DerivedSumIntCouple.surrogate`` gathers it from a base profile (for
  ``profile_batch`` and ``verify``), and ``DerivedSumIntCouple.k_batch``
  evaluates it at one t per row with two base ``k_batch`` calls;
* endpoint norm handles materializing (A0, A1)_{theta,q} for reiteration
  experiments.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from ._descent import _t_grid, k_kernel
from .couples import (Couple, FiniteVector, KProfile, WeightedNorm,
                      _finite_exponent, _integer, _n_window, _parse_p,
                      descent_route, k_profile, k_route, stable_lp_sum)
from .errors import DomainError, InvariantError, ParamError, WindowError

__all__ = [
    "DEFAULT_N_MIN", "DEFAULT_N_MAX", "InterpParams", "LatticeParam",
    "ParamSpace", "ConditionReport", "interp_norm", "interp_norm_from_profile",
    "truncation_terms", "lattice_norm", "split_norm", "parameter_conditions",
    "DerivedSumIntCouple", "derived_sum_int_couple", "EndpointNorm",
    "endpoint_space", "sequence_couple_k", "dyadic_weights", "dyadic_norm",
]

DEFAULT_N_MIN = -20
DEFAULT_N_MAX = 20


def _check_theta_q(theta, q, keys=("theta", "q")) -> float:
    """Refuse a theta that is not a real number in (0, 1) and a q that
    ``couples._parse_p`` refuses, naming them by ``keys``; return q as a
    float."""
    if not (isinstance(theta, numbers.Real) and 0.0 < theta < 1.0):
        raise ParamError(f"{keys[0]} must lie in (0, 1), got {theta}")
    return _parse_p(q, keys[1])


@dataclass(frozen=True)
class InterpParams:
    """Parameters (theta, q) of the real interpolation norm."""

    theta: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "q", _check_theta_q(self.theta, self.q))


@dataclass(frozen=True)
class LatticeParam:
    """A weighted lr lattice over the n-window: ||a||_E = ||(w_n a_n)||_lr.

    The window starts at the integer ``n_min`` (DomainError for anything
    else, a bool included); r is read by ``couples._parse_p``.
    """

    r: float
    n_min: int
    lattice_weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", _parse_p(self.r, "r"))
        w = np.asarray(self.lattice_weights, dtype=float)
        if w.ndim != 1 or len(w) == 0 or not np.all(w > 0):
            raise InvariantError("lattice weights must be positive")
        if not np.all(np.isfinite(w)):
            raise InvariantError("lattice weights must be finite")
        object.__setattr__(self, "lattice_weights", w)
        object.__setattr__(self, "n_min", _integer(self.n_min, "n_min"))

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.lattice_weights) - 1

    def norm_of(self, values: np.ndarray) -> float:
        return float(stable_lp_sum(self.lattice_weights * np.abs(values),
                                   self.r))

    def k_nontrivial(self, rel_tol: float = 1e-9) -> bool:
        """Trend check that {min(1, 2^n)} has stable finite norm in E.

        On a finite window the norm is always finite; divergence of the
        infinite sum shows up as the weighted summand growing toward a
        window edge, which is what this flags.  The window must be one that
        ``couples._n_window`` admits, as for the profile it weighs.
        """
        g = self.lattice_weights * np.minimum(
            1.0, _n_window(self.n_min, self.n_max)[1])
        if len(g) < 2:
            return True
        tol = 1.0 + rel_tol
        return g[0] <= g[1] * tol and g[-1] <= g[-2] * tol


@dataclass(frozen=True)
class ParamSpace:
    """Power parameter space Phi(theta): weight t^-theta under the p-power."""

    theta: float
    p: float

    def __post_init__(self):
        p = _finite_exponent(self.p, "p")
        _check_theta_q(self.theta, p)
        object.__setattr__(self, "p", p)


def dyadic_weights(theta: float, grid) -> np.ndarray:
    """The weights 2^{-theta n} at the exponents n of ``grid``."""
    return 2.0 ** (-theta * np.asarray(grid, dtype=float))


def dyadic_norm(values, grid, theta: float, q: float):
    """(sum_n (2^{-theta n} values_n)^q)^{1/q} along the last axis, the max
    for q = inf, over the exponents n of ``grid``; values >= 0."""
    return stable_lp_sum(dyadic_weights(theta, grid) * values, q)


def interp_norm_from_profile(profile: KProfile, params: InterpParams) -> float:
    return float(dyadic_norm(profile.values, profile.grid, params.theta,
                             params.q))


def interp_norm(x: FiniteVector, couple: Couple, params: InterpParams,
                n_min: int = DEFAULT_N_MIN, n_max: int = DEFAULT_N_MAX) -> float:
    """Dyadic (theta, q) interpolation norm of x in the couple."""
    return interp_norm_from_profile(k_profile(x, couple, n_min, n_max), params)


def truncation_terms(profile: KProfile, params: InterpParams) -> dict:
    """First/last weighted summands; grow the window while these matter."""
    terms = dyadic_weights(params.theta, profile.grid) * profile.values
    return {"first_term": float(terms[0]), "last_term": float(terms[-1])}


def lattice_norm(x: FiniteVector, couple: Couple, E: LatticeParam) -> float:
    """||{K(x, 2^n)}||_E for a weighted lr lattice E over the n-window.

    Reduces to interp_norm when the weights are 2^{-theta n} and r = q.
    """
    if not E.k_nontrivial():
        raise ParamError("lattice parameter fails the K-nontriviality check")
    profile = k_profile(x, couple, E.n_min, E.n_max)
    return E.norm_of(profile.values)


def split_norm(x: FiniteVector, couple: Couple, params: InterpParams,
               n_min: int = DEFAULT_N_MIN, n_max: int = DEFAULT_N_MAX):
    """(low, high) halves of the interpolation norm, split at t = 1.

    low collects n <= 0 (t in (0, 1]), high collects n >= 1, each combined
    with the same exponent q, so low^q + high^q recovers the full norm's
    q-th power exactly (max for q = inf).
    """
    profile = k_profile(x, couple, n_min, n_max)
    low, high = (float(dyadic_norm(profile.values[mask], profile.grid[mask],
                                   params.theta, params.q))
                 for mask in (profile.grid <= 0, profile.grid > 0))
    return low, high


# ---------------------------------------------------------------------------
# parameter-space condition checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionEstimate:
    constant: float
    fail: bool


@dataclass(frozen=True)
class ConditionReport:
    """Worst observed constants for the four comparison/substitution
    inequalities between two power parameter spaces on the dyadic grid:

      cond1:  ||u||_{Phi0, t<1} <= C ||u||_{Phi1, t<1}
      cond2:  ||u||_{Phi1, t>1} <= C ||u||_{Phi0, t>1}
      cond3:  ||u||_{Phi0, t>1} =(C)= ||t u(1/t)||_{Phi1, t<1}
      cond4:  ||u||_{Phi1, t>1} =(C)= ||t u(1/t)||_{Phi0, t<1}

    A condition is flagged failed when its constant keeps growing as the
    window doubles (no finite C can work on the full line).
    """

    cond1: ConditionEstimate
    cond2: ConditionEstimate
    cond3: ConditionEstimate
    cond4: ConditionEstimate
    probes: int
    seed: int
    n_min: int
    n_max: int

    def to_json(self) -> dict:
        out: dict = {"probes": self.probes, "seed": self.seed,
                     "n_min": self.n_min, "n_max": self.n_max}
        for name in ("cond1", "cond2", "cond3", "cond4"):
            est: ConditionEstimate = getattr(self, name)
            out[name] = "fail" if est.fail else est.constant
        return out


def _condition_probes(grid: np.ndarray, probes: int, seed: int) -> np.ndarray:
    """Deterministic nonnegative step probes: all spikes, then seeded noise."""
    n = len(grid)
    rows = [np.eye(n)]
    rng = np.random.default_rng(seed)
    extra = np.zeros((probes, n))
    for i in range(probes):
        if i % 2 == 0:
            extra[i] = np.abs(rng.standard_normal(n))
        else:
            support = rng.choice(n, size=max(1, n // 5), replace=False)
            extra[i, support] = rng.uniform(0.5, 2.0, size=len(support))
    rows.append(extra)
    return np.vstack(rows)


def _condition_constants(phi0: ParamSpace, phi1: ParamSpace,
                         grid: np.ndarray, U: np.ndarray) -> np.ndarray:
    low = grid < 0
    high = grid > 0

    def phi_part(space: ParamSpace, values: np.ndarray, mask) -> np.ndarray:
        return dyadic_norm(values[:, mask], grid[mask], space.theta, space.p)

    # t -> 1/t pulls the n > 0 samples onto n < 0 with an extra factor t
    V = np.zeros_like(U)
    pos_idx = np.where(high)[0]
    for idx in pos_idx:
        n = grid[idx]
        tgt = np.where(grid == -n)[0]
        if len(tgt):
            V[:, tgt[0]] = (2.0 ** float(-n)) * U[:, idx]

    def worst(numer: np.ndarray, denom: np.ndarray, two_sided: bool) -> float:
        ok = (denom > 1e-300) & (numer > 1e-300)
        if not np.any(ok):
            return 1.0
        ratio = numer[ok] / denom[ok]
        if two_sided:
            return float(np.max(np.maximum(ratio, 1.0 / ratio)))
        return float(np.max(ratio))

    c1 = worst(phi_part(phi0, U, low), phi_part(phi1, U, low), False)
    c2 = worst(phi_part(phi1, U, high), phi_part(phi0, U, high), False)
    c3 = worst(phi_part(phi0, U, high), phi_part(phi1, V, low), True)
    c4 = worst(phi_part(phi1, U, high), phi_part(phi0, V, low), True)
    return np.array([c1, c2, c3, c4])


def parameter_conditions(phi0: ParamSpace, phi1: ParamSpace, probes: int,
                         seed: int, n_min: int = DEFAULT_N_MIN,
                         n_max: int = DEFAULT_N_MAX,
                         growth_threshold: float = 1.5) -> ConditionReport:
    """Estimate the four condition constants on seeded step-function probes.

    The probe set always contains every single-spike step, which realizes the
    exact worst ratio between two weighted norms of equal exponent.  Failure
    is detected by comparing against the same estimate on the half window:
    growth beyond ``growth_threshold`` marks the constant as unbounded.
    """
    if probes < 1:
        raise DomainError("probes must be >= 1")
    grid, _ = _n_window(n_min, n_max)
    consts = _condition_constants(phi0, phi1, grid,
                                  _condition_probes(grid, probes, seed))
    half = np.arange(n_min // 2, n_max // 2 + 1)
    consts_half = _condition_constants(phi0, phi1, half,
                                       _condition_probes(half, probes, seed))
    ests = []
    for c_full, c_half in zip(consts, consts_half):
        fail = bool(c_full > growth_threshold * c_half)
        ests.append(ConditionEstimate(float(c_full), fail))
    return ConditionReport(*ests, probes=probes, seed=seed,
                           n_min=n_min, n_max=n_max)


# ---------------------------------------------------------------------------
# derived couple (A0 + A1, A0 cap A1)
# ---------------------------------------------------------------------------

@functools.cache
def _linf_l1_route():
    """The route of (linf, l1): its kernel reads no weights and no
    dimension, so one serves the derived couple of every base on the
    ``l1_linf`` route.  Built on first use, not at import."""
    return k_route(WeightedNorm(np.inf, 0, np.ones(1)),
                   WeightedNorm(1.0, 0, np.ones(1)))


class DerivedSumIntCouple:
    """The ordered couple (A0+A1, A0 cap A1) derived from a base couple.

    Its K at t <= 1 is exposed along two routes: the surrogate
    K(x, t) + t K(x, 1/t) built from the base couple (``surrogate`` gathers
    it from a base profile; ``k_batch`` is its one-t-per-row form), and K
    on the explicit sum and intersection norms (``k_oracle_batch``).
    Requests with t > 1 use the monotone extension by the value at t = 1;
    the true K is sandwiched between K(., 1) and the sum norm there, so the
    extension stays inside the surrogate band.
    """

    def __init__(self, base: Couple):
        if not base.is_exact():
            raise InvariantError(
                "derived couple needs a base couple with an exact strategy")
        self.base = base
        # the sum and intersection of (l1, linf), either order, are linf
        # and l1; other bases have no weighted-norm form, so no route
        self.route = (_linf_l1_route() if base.route.name == "l1_linf"
                      else None)

    def embed(self, x: FiniteVector) -> np.ndarray:
        return self.base.embed(x)

    # --- explicit endpoint norms -----------------------------------------
    def sum_dense(self, X: np.ndarray) -> np.ndarray:
        return self.base.k_batch(X, 1.0)

    def int_dense(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(self.base.norm0.dense(X), self.base.norm1.dense(X))

    # --- route (i): surrogate from the base couple ------------------------
    def k_batch(self, X: np.ndarray, T) -> np.ndarray:
        # a scalar t stays a scalar: the base kernels get one shared t; t is
        # read through the one t rule before it is clamped to 1
        T = np.asarray(T, dtype=float)
        _t_grid(T)
        tc = np.minimum(T, 1.0)
        return self.base.k_batch(X, tc) + tc * self.base.k_batch(X, 1.0 / tc)

    @staticmethod
    def surrogate(P: np.ndarray, grid: np.ndarray, t) -> np.ndarray:
        """The surrogate K(x, s) + s K(x, 1/s), s = min(t, 1), at each t of
        ``t``, gathered from a base profile P whose columns are at the
        sorted t values ``grid``; every s and 1/s must be in ``grid``."""
        s = np.minimum(np.asarray(t, dtype=float), 1.0)
        return (P[:, np.searchsorted(grid, s)]
                + s * P[:, np.searchsorted(grid, 1.0 / s)])

    def profile_batch(self, X: np.ndarray, t_grid) -> np.ndarray:
        """Surrogate K at every row of X and every t of ``t_grid``, from one
        base profile at every s = min(t, 1) and 1/s."""
        s = np.minimum(_t_grid(t_grid)[0].ravel(), 1.0)
        grid = np.sort(np.concatenate([s, 1.0 / s]))
        return self.surrogate(self.base.profile_batch(X, grid), grid, s)

    def profile(self, x: FiniteVector, n_min: int, n_max: int) -> KProfile:
        return k_profile(x, self, n_min, n_max)

    # --- route (ii): K on the explicit norms -------------------------------
    def k_oracle_batch(self, X: np.ndarray, T, budget: int = 8,
                       seed: int = 0) -> np.ndarray:
        """K on the explicit sum and intersection norms.

        For a base on the ``l1_linf`` route (either order) the sum norm
        K(x, 1) is ||x||_inf and the intersection norm max(||x||_1,
        ||x||_inf) is ||x||_1, so the derived couple is exactly (linf, l1)
        and ``k_route`` answers it (the ``l1_linf`` row of the route table
        in ``couples``); ``budget``/``seed`` are unused.  Other bases get
        ``couples.descent_route``, an upper bound, whose kernel holds the
        one size guard: more than ``couples.ORACLE_MAX_DIM`` (16)
        coordinates raise SizeError.  Rows must span the base window
        (WindowError).  ``T`` is one t per row, or an (m, k)/(1, k) grid
        answered by one call with an (m, k) result: on the exact route equal
        to k per-t calls, on the descent each value at most the per-t value
        (the lowest of the row's split lines, ``descent_route``).
        """
        route = self.route or descent_route(self.sum_dense, self.int_dense,
                                            budget=budget, seed=seed)
        return route.kernel(self.base.window_rows(X), T)


def derived_sum_int_couple(couple: Couple) -> DerivedSumIntCouple:
    """Materialize the couple (A0+A1, A0 cap A1) over the base window."""
    return DerivedSumIntCouple(couple)


# ---------------------------------------------------------------------------
# endpoint spaces and sequence-couple K
# ---------------------------------------------------------------------------

class EndpointNorm:
    """Norm handle evaluating x -> interp_norm(x; theta, q) over the window.

    Its ``dense`` evaluates the norm of each row of a matrix, so it can be
    handed, as a norm callable, to ``couples.descent_route``.  It
    is not a ``WeightedNorm`` (it has no exponent or weights), so it cannot
    be an endpoint of a ``Couple``.
    """

    def __init__(self, couple: Couple, params: InterpParams,
                 n_min: int = DEFAULT_N_MIN, n_max: int = DEFAULT_N_MAX):
        self.couple = couple
        self.params = params
        self.n_min = n_min
        self.n_max = n_max
        self._grid, self._t = _n_window(n_min, n_max)

    def dense(self, X: np.ndarray) -> np.ndarray:
        prof = self.couple.profile_batch(X, self._t)
        return dyadic_norm(prof, self._grid, self.params.theta, self.params.q)

    def embed(self, x: FiniteVector) -> np.ndarray:
        return self.couple.embed(x)

    def __call__(self, x: FiniteVector) -> float:
        return float(self.dense(self.embed(x)[None, :])[0])


def endpoint_space(couple: Couple, params: InterpParams,
                   n_min: int = DEFAULT_N_MIN,
                   n_max: int = DEFAULT_N_MAX) -> EndpointNorm:
    """Materialize (A0, A1)_{theta, q} as a reusable norm handle."""
    return EndpointNorm(couple, params, n_min, n_max)


def sequence_couple_k(values: np.ndarray, t, p0, w0, p1, w1,
                      budget: int = 4, seed: int = 0) -> np.ndarray:
    """K of nonnegative sequences in the couple (lp0(w0), lp1(w1)).

    Rows of ``values`` are treated as independent sequences.  K is read
    from ``couples.k_route`` (its route table is in the ``couples`` module
    docstring; the ``power`` route is the coordinatewise surrogate), and
    ``budget``/``seed`` are unused there; pairs without a route take
    ``couples.descent_route``, an upper bound whose kernel refuses sequences
    longer than ``couples.ORACLE_MAX_DIM`` (16) with SizeError.  ``t`` is a
    scalar or one t per row (an (m,) result), or an (m, k)/(1, k) grid (an
    (m, k) result); a grid is one kernel call, equal to k per-t calls on a
    route, and on the descent at most the per-t values with the same seed
    (each t reads the lowest of its row's split lines).  WindowError
    unless the rows are as long as both weight vectors.  Rows of no entries
    with no weights have K = 0: zeros of the kernels' d = 0 shape, after t
    is checked.
    """
    V = np.atleast_2d(np.asarray(values, dtype=float))
    if V.shape[1] == 0 and np.size(w0) == np.size(w1) == 0:
        # no norm exists to build; ``k_kernel`` answers d = 0 before its
        # core would run
        return k_kernel(lambda X, T: None)(V, t)
    n0 = WeightedNorm(p0, 0, w0)
    n1 = WeightedNorm(p1, 0, w1)
    if not V.shape[1] == n0.dim == n1.dim:
        raise WindowError(f"sequences of length {V.shape[1]} with weights "
                          f"of lengths {n0.dim} and {n1.dim}")
    route = k_route(n0, n1) or descent_route(n0.dense, n1.dense,
                                             budget=budget, seed=seed)
    return route.kernel(V, t)
