"""Vectors on integer windows, weighted lp quasi-norms, couples, and the
decomposition functional

    K(x, t) = inf { ||a||_{A0} + t * ||b||_{A1} : a + b = x }.

Everything is finite: vectors carry an integer offset into Z and a finite
entry array; norms carry positive weights over a window of Z.  A couple is
two norms on a shared window plus an evaluation strategy for K.  Each
argument rule has one function here, which the other modules call too: a
norm's exponent is a positive number or "inf" (``_parse_p``, also the
CLI's config check and interp's q and r), an exponent that must be finite
lies in (0, inf) (``_finite_exponent``: the Lorentz and parameter-space
exponents and the witness probes), and an offset, a window end or a
witness length is an integer (``_integer``).  The module reads and writes
no config JSON: ``interpk.cli`` checks a config and builds the vectors,
norms and couples from it.

``k_route(norm0, norm1)`` is the one place that maps a norm pair to a K
kernel.  Its route table, where (A1, A0) is answered through the identity
K(x, t; A0, A1) = t * K(x, 1/t; A1, A0):

* ``l1_linf``       exponents {1, inf} with unit weights, either order: the
  closed form of ``_l1_linf_batch``;
* ``weighted_sup``  (linf(w0), linf(w1)): by duality

      K(x, t) = max{sum_i lam_i w0_i |x_i| : sum_i lam_i <= 1,
                    sum_i lam_i w0_i / w1_i <= t, lam >= 0},

  the least concave nondecreasing majorant of (0, 0) and the points
  (w0_i / w1_i, w0_i |x_i|), built once per vector by one monotone-chain
  pass in O(d log d) time; each t is read on the piece that holds it, in
  at most m (d + 1) k cells for m vectors and k values of t
  (``_weighted_sup_batch``);
* ``l1_lp``         (l1(w0), lp(w1)) with 1 < p < inf, either order:
  Holmstedt's closed form (``_l1_lp_batch``);
* ``power``         one shared finite exponent p: the coordinatewise power
  functional

      K_p(x, t) = ( sum_i inf_{a+b=x_i} (w0_i |a|)^p + t^p (w1_i |b|)^p )^{1/p}

  (``_power_batch``), exact for p = 1 and a one-sided surrogate otherwise,
  with band [2^{-(1-1/p)}, 1] for p > 1 and [1, 2^{1/p-1}] for p < 1.  For
  one split with alpha = ||a||_{A0} and beta = t ||b||_{A1},

      (alpha^p + beta^p)^{1/p} <= alpha + beta
                               <= 2^{1-1/p} (alpha^p + beta^p)^{1/p}

  when p >= 1, and both inequalities reverse when p < 1; K_p and K are the
  infima of the outer and middle terms over splits.  The kernel takes p-th
  powers per coordinate, not per (row, t, coordinate) cell: a row table of
  |x_i|^p and a factor table of the weight factors' p-th powers per t,
  joined by one length-d dot product per (row, t);
* ``descent``       any other pair (``k_route`` returns None):
  ``descent_route`` builds its K, a seeded multi-start descent over
  decompositions (``_descent.decomposition_infimum``).  Each value is
  realised by a split a, the line norm0(a) + t * norm1(x - a), so it is an
  upper approximation, and it reports the band (1, 1) all the same; a grid
  answers each t by the lowest of its row's lines, at most the per-t value,
  so a descent profile is monotone by construction.  It is the one
  place that builds a descent K and the engine's one caller: ``oracle``
  couples, ``sequence_couple_k`` (so ``snum``'s diagonal K), the derived
  couple and ``verify.oracle_agreement`` call it with their two norm
  callables and their own budget and seed, nothing else.  The engine
  derives its clip scales from the norms themselves (norm(e_j) = w_j for
  every weighted lp norm).  Its kernel refuses rows of more than
  ``ORACLE_MAX_DIM`` (16) coordinates, more than ``DESCENT_MAX_CELLS``
  (2^19) stacked cells, and a lower envelope of more than
  ``DESCENT_MAX_ENVELOPE`` (2^28) reads, m k^2 for m rows of k values of
  t, with SizeError before the engine runs.

A route carries its band: ``band[0] <= K_route / K_true <= band[1]``, (1, 1)
for the exact routes.  The strategy names select what a couple may use:

* ``exact_l1_linf``, ``weighted_sup_lp`` and ``power_coordinatewise`` name
  the ``l1_linf``, ``weighted_sup`` and ``power`` routes, and the norms
  must have that route;
* ``oracle`` takes any norm pair: it uses the route where the route is
  exact and ``descent_route`` (budget 8, seed 0) everywhere else.

Every kernel of the route table, the descent engine and the mirror
identity share one call contract, the adapter ``_descent.k_kernel``: X is
an (m, d) array or one (d,) row, and T a scalar or one t per row (an (m,)
result) or an (m, k)/(1, k) grid (an (m, k) result).  The adapter turns X
into a 2-d float array, refuses a T with neither 1 nor m rows
(InvariantError), answers d = 0 with zeros and unwraps the result for one
t per row, so a kernel is only its 2-d core.  K is defined for
t > 0 only, and the adapter reads T through ``_descent._t_grid``, the one
rule for t: it refuses every t outside [2^-1023, 2^1023], NaN included,
with DomainError (the range holds every dyadic window and is closed under
t -> 1/t, so the mirror identity never reads an infinite 1/t), so no
entry point (``Couple``, ``k_sphere_sup``, ``interp``'s derived couple and
``sequence_couple_k``, ``snum``'s diagonal K) keeps a copy of the check.
K refuses rows that do not span the window with WindowError
(``Couple.window_rows``; ``sequence_couple_k`` checks its weights).

K-profiles sample K(x, 2^n) over a dyadic window; they are the discrete
object every interpolation norm downstream consumes.  ``_n_window`` checks
a window and returns its exponents n and the grid's t = 2^n, the one place
that builds a dyadic t-grid.  ``Couple.profile_batch``
evaluates a whole grid of t per vector in one kernel call, so the exact
kernels sort (or build their majorant) once per vector, not once per t.
A grid shared by every row, and a scalar t (``Couple.k_batch`` passes it as
a (1, 1) grid), reaches the kernels unbroadcast, so their per-t arithmetic
runs once per t, not once per (row, t); the result is the same bit for bit
as for the grid given per row.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from ._descent import decomposition_infimum, k_kernel
from .errors import DomainError, InvariantError, SizeError, WindowError

__all__ = [
    "FiniteVector", "WeightedNorm", "Couple", "KProfile", "KRoute", "k_route",
    "descent_route", "EXACT_L1_LINF", "WEIGHTED_SUP_LP",
    "POWER_COORDINATEWISE", "ORACLE", "k_profile", "k_sphere_sup",
    "l1_linf_couple", "weighted_sup_couple", "power_couple",
    "validate_profiles", "vec",
]

EXACT_L1_LINF = "exact_l1_linf"
WEIGHTED_SUP_LP = "weighted_sup_lp"
POWER_COORDINATEWISE = "power_coordinatewise"
ORACLE = "oracle"

# strategy name -> the route it names
_STRATEGY_ROUTES = {EXACT_L1_LINF: "l1_linf", WEIGHTED_SUP_LP: "weighted_sup",
                    POWER_COORDINATEWISE: "power"}

ORACLE_MAX_DIM = 16
# The most cells S*m*k*d one descent stacks: S = 3 + budget starts of m rows
# at k values of t, d coordinates each.  A descent's peak RSS above its
# inputs read 95 bytes per cell at d = 8 and up to 280 at d = 1, where the
# line searches' per-row vectors outweigh the rows (a child process per
# run, about 2^20 cells); so at the cap a descent holds about 150 MB at
# most, and it runs 5 to 30 s (2 vCPUs, numpy 2.4).  The cap does not bound
# the lower envelope's m*k^2 pass over a grid (one row at d = 1 on 2^16
# values of t took 10.6 s); DESCENT_MAX_ENVELOPE does.
DESCENT_MAX_CELLS = 2 ** 19
# The most m*k^2 (rows times values of t, squared) one descent's lower
# envelope reads: it reads each t of a row from all k of the row's lines.
# One row at d = 1 and budget 0 took 0.025 s at k = 2,046 (CI's widest
# oracle profile) and 0.39 to 0.54 s at the cap, k = 2^14, the one-row grid
# of the cell-cap test in tests/test_couples.py (2 vCPUs, numpy 2.4).
DESCENT_MAX_ENVELOPE = 2 ** 28

# cells (table rows x t values x coordinates) per block of the power
# kernel's factor table
_POWER_CHUNK_CELLS = 2 ** 14

# the least positive float: a floor for a divisor that leaves every
# positive value as it is
_SMALLEST = 5e-324
# the least positive normal float
_NORMAL = 2.0 ** -1022
# the largest float: a ceiling for a divisor that leaves every finite value
# as it is
_FLOAT_MAX = float(np.finfo(float).max)


def _parse_p(p, key: str = "exponent p") -> float:
    """An exponent: a positive number or "inf" (or "infinity", in any
    case); ``key`` names it in the refusal.  A bool or any other string is
    no exponent."""
    if isinstance(p, str) and p.lower() in ("inf", "infinity"):
        return math.inf
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise DomainError(f"{key} must be a number or \"inf\", got {p!r}")
    p = float(p)
    if not (p > 0):
        raise DomainError(f"{key} must be positive, got {p}")
    return p


def _finite_exponent(p, key: str) -> float:
    """A finite exponent: a number in (0, inf), not a bool; ``key`` names
    it in the refusal."""
    if (isinstance(p, bool) or not isinstance(p, numbers.Real)
            or not 0.0 < p < math.inf):
        raise DomainError(f"{key} must lie in (0, inf), got {p}")
    return float(p)


def _integer(n, key: str) -> int:
    """An offset, window end or length: an int or numpy integer, not a
    bool or a float, however whole; ``key`` names it in the refusal."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"{key} must be an integer, got {n!r}")
    return int(n)


def stable_lp_sum(terms: np.ndarray, p: float, axis: int = -1) -> np.ndarray:
    """(sum terms^p)^(1/p) of nonnegative terms along ``axis``; max for p = inf.

    Factors out the largest term so intermediate powers never overflow even
    for large exponents or extreme magnitudes.  A row with an infinite term
    sums to inf.
    """
    terms = np.asarray(terms, dtype=float)
    if terms.shape[axis] == 0:
        return np.zeros(np.delete(terms.shape, axis))
    if math.isinf(p):
        return np.maximum.reduce(terms, axis=axis)
    peak = np.maximum.reduce(terms, axis=axis, keepdims=True)
    # a row whose peak is inf is divided by the largest float instead, so
    # its sum is inf, not inf / inf = NaN; finite rows keep their bits
    safe = np.where(peak > 0, np.minimum(peak, _FLOAT_MAX), 1.0)
    return np.squeeze(peak, axis=axis) * np.add.reduce(
        (terms / safe) ** p, axis=axis) ** (1.0 / p)


@dataclass(frozen=True)
class FiniteVector:
    """A finitely supported vector over Z: entries start at the integer
    index ``offset`` (DomainError for anything else, a bool included)."""

    offset: int
    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 1:
            raise InvariantError("entries must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise InvariantError("entries must be finite")
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "offset", _integer(self.offset, "offset"))

    def __len__(self):
        return len(self.entries)

    @property
    def window(self) -> tuple[int, int]:
        """Half-open index window [offset, offset + len)."""
        return self.offset, self.offset + len(self.entries)

    def scaled(self, factor: float) -> "FiniteVector":
        return FiniteVector(self.offset, factor * self.entries)


def vec(entries, offset: int = 0) -> FiniteVector:
    """Shorthand constructor."""
    return FiniteVector(offset, np.asarray(entries, dtype=float))


@dataclass(frozen=True)
class WeightedNorm:
    """Weighted lp quasi-norm over a window of Z.

    ``norm(x) = (sum_i (w_i |x_i|)^p)^(1/p)`` for finite p and
    ``sup_i w_i |x_i|`` for p = inf.  The norm is r-normed with
    r = min(p, 1), and its quasi-norm constant is 2^(1/p - 1) for p < 1,
    1 otherwise.  The window starts at the integer ``offset`` (DomainError
    for anything else, a bool included).
    """

    p: float
    offset: int
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _parse_p(self.p))
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or len(w) == 0:
            raise InvariantError("weights must be a nonempty 1-d array")
        if not np.all(w > 0) or not np.all(np.isfinite(w)):
            raise InvariantError("weights must be positive and finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offset", _integer(self.offset, "offset"))

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def window(self) -> tuple[int, int]:
        return self.offset, self.offset + self.dim

    def dense(self, X: np.ndarray) -> np.ndarray:
        """Norm of each row of X; rows must span the full window."""
        X = np.asarray(X, dtype=float)
        return stable_lp_sum(self.weights * np.abs(X), self.p)

    def embed(self, x: FiniteVector) -> np.ndarray:
        """Dense representation of x on this window (WindowError outside)."""
        lo, hi = x.window
        wlo, whi = self.window
        if len(x) and (lo < wlo or hi > whi):
            raise WindowError(
                f"vector window [{lo},{hi}) not contained in norm window "
                f"[{wlo},{whi})")
        out = np.zeros(self.dim)
        out[lo - wlo:hi - wlo] = x.entries
        return out

    def __call__(self, x: FiniteVector) -> float:
        return float(self.dense(self.embed(x)))


class KRoute(NamedTuple):
    """The K kernel of one norm pair: ``kernel(X, T)`` is K at the rows of
    X and the t of T, within ``band`` of the true K (see the module
    docstring)."""

    name: str
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    exact: bool = True
    band: tuple[float, float] = (1.0, 1.0)


def _mirrored(route: KRoute) -> KRoute:
    """The route of (A1, A0) from that of (A0, A1)."""
    return route._replace(
        kernel=k_kernel(lambda X, T: T * route.kernel(X, 1.0 / T)))


def _l1_route(p: float, w0, w1) -> KRoute | None:
    """The route of (l1(w0), lp(w1)), p != 1."""
    if math.isinf(p) and np.all(w0 == 1.0) and np.all(w1 == 1.0):
        return KRoute("l1_linf", lambda X, T: _l1_linf_batch(X, T))
    if 1.0 < p < math.inf:
        return KRoute("l1_lp", lambda X, T: _l1_lp_batch(X, T, p, w0, w1))
    return None


def k_route(norm0: WeightedNorm, norm1: WeightedNorm) -> KRoute | None:
    """The K kernel for (norm0, norm1) by the module's route table, or None
    where only descent answers.  This is the one place that maps exponents
    and weights to a kernel; the kernels are looked up when called."""
    p0, p1 = norm0.p, norm1.p
    w0, w1 = norm0.weights, norm1.weights
    if p0 == p1 == math.inf:
        return KRoute("weighted_sup",
                      lambda X, T: _weighted_sup_batch(X, T, w0, w1))
    if p0 == p1:
        c = 2.0 ** (1.0 / p0 - 1.0)
        return KRoute("power", lambda X, T: _power_batch(X, T, p0, w0, w1),
                      p0 == 1.0, (min(c, 1.0), max(c, 1.0)))
    if p0 == 1.0:
        return _l1_route(p1, w0, w1)
    route = _l1_route(p0, w1, w0) if p1 == 1.0 else None
    return route and _mirrored(route)


def descent_route(dense0, dense1, *, budget: int, seed: int) -> KRoute:
    """The ``descent`` route: K of the norm callables (dense0, dense1) by
    ``_descent.decomposition_infimum`` with these knobs, an upper
    approximation reported with band (1, 1).  A per-t call is the best
    split's value at that t; a grid value is the lowest of its row's split
    lines there, at most the per-t value.  The engine probes each norm
    on the basis vectors for its clip scales; for a weighted lp norm that
    probe is the weights, bit for bit, whatever the exponent.  Its kernel
    refuses, with SizeError before the engine runs, rows wider than
    ``ORACLE_MAX_DIM``, a stacked problem of more than
    ``DESCENT_MAX_CELLS`` cells (3 + budget starts, m rows, k values of t
    per row, d coordinates), and a lower envelope of more than
    ``DESCENT_MAX_ENVELOPE`` reads (m k^2).  It is the one caller of the
    engine, so this is the one size guard of every descent K,
    ``verify.oracle_agreement``'s reference included.  The engine is
    looked up when the kernel runs and gets the norms positionally, so a
    wrapper installed on it (a tracer that counts norm calls) sees every
    descent."""
    def kernel(X, T):
        shape = np.shape(X)
        if shape[-1] > ORACLE_MAX_DIM:
            raise SizeError(f"oracle limited to dimension {ORACLE_MAX_DIM}")
        m = shape[0] if len(shape) == 2 else 1
        k = np.shape(T)[1] if np.ndim(T) == 2 else 1
        cells = (3 + max(0, int(budget))) * m * k * shape[-1]
        if cells > DESCENT_MAX_CELLS:
            raise SizeError(f"descent of {cells} cells (starts x rows x t "
                            f"values x coordinates) exceeds the cap "
                            f"{DESCENT_MAX_CELLS}")
        if m * k * k > DESCENT_MAX_ENVELOPE:
            raise SizeError(f"descent envelope of {m * k * k} reads (m k^2) "
                            f"exceeds the cap {DESCENT_MAX_ENVELOPE}")
        return decomposition_infimum(X, T, dense0, dense1, budget=budget,
                                     seed=seed)
    return KRoute("descent", kernel, exact=False)


@dataclass(frozen=True)
class Couple:
    """Two weighted quasi-norms on a shared window plus a K strategy.

    ``route`` is the ``KRoute`` the couple evaluates K through: the
    ``k_route`` of its norms, or ``descent_route`` for an ``oracle`` couple
    whose norms have no exact route.  ``equiv_lo <= K_strategy / K_true <=
    equiv_hi`` is the route's band, (1, 1) for the exact routes; descent
    reports (1, 1) too, although it is an upper approximation.
    """

    norm0: WeightedNorm
    norm1: WeightedNorm
    strategy: str
    route: KRoute = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.norm0.window != self.norm1.window:
            raise WindowError("couple norms must share one index window")
        s = self.strategy
        route = k_route(self.norm0, self.norm1)
        if s == ORACLE:
            if not (route and route.exact):
                route = descent_route(self.norm0.dense, self.norm1.dense,
                                      budget=8, seed=0)
        elif s not in _STRATEGY_ROUTES:
            raise InvariantError(f"unknown strategy {s!r}")
        elif route is None or route.name != _STRATEGY_ROUTES[s]:
            if s == POWER_COORDINATEWISE and math.inf in (self.norm0.p,
                                                          self.norm1.p):
                raise DomainError(
                    "power_coordinatewise rejects p = inf; use weighted_sup_lp")
            raise InvariantError(
                f"{s} needs the {_STRATEGY_ROUTES[s]} route, these norms "
                f"have {route.name if route else 'none'} (see k_route)")
        object.__setattr__(self, "route", route)

    @property
    def offset(self) -> int:
        return self.norm0.offset

    @property
    def dim(self) -> int:
        return self.norm0.dim

    @property
    def equiv_lo(self) -> float:
        return self.route.band[0]

    @property
    def equiv_hi(self) -> float:
        return self.route.band[1]

    def is_exact(self) -> bool:
        return self.route.exact

    def reversed(self) -> "Couple":
        """The couple (A1, A0); K relates by K(x,t;A1,A0) = t K(x,1/t;A0,A1)."""
        return replace(self, norm0=self.norm1, norm1=self.norm0)

    def embed(self, x: FiniteVector) -> np.ndarray:
        return self.norm0.embed(x)

    def window_rows(self, X) -> np.ndarray:
        """X as a 2-d float array whose rows are dense over the window;
        WindowError when their width is not the window's."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise WindowError(f"rows of {X.shape[1]} entries on a window of "
                              f"{self.dim}")
        return X

    def k_batch(self, X: np.ndarray, T) -> np.ndarray:
        """K at each row of X (dense over the window); T scalar or per-row.
        A scalar reaches the kernel as a (1, 1) grid shared by every row,
        a per-row T as an (m, 1) column.  A grid, or a T whose length is
        neither 1 nor the row count (``k_kernel``), raises InvariantError
        naming both."""
        X = self.window_rows(X)
        T = np.asarray(T, dtype=float)
        if T.ndim > 1:
            raise InvariantError(f"t of shape {T.shape} for {len(X)} rows "
                                 f"of X: k_batch takes a scalar or one t "
                                 f"per row")
        return self.route.kernel(X, T.reshape(-1, 1))[:, 0]

    def profile_batch(self, X: np.ndarray, t_grid) -> np.ndarray:
        """K at every row of X and every t of ``t_grid``: (m, len(t_grid))."""
        grid = np.asarray(t_grid, dtype=float).reshape(1, -1)
        return self.route.kernel(self.window_rows(X), grid)

    def k(self, x: FiniteVector, t: float) -> float:
        return float(self.k_batch(self.embed(x)[None, :], t)[0])


@dataclass(frozen=True)
class KProfile:
    """Samples K(x, 2^n) for n on an integer window (its ends are read by
    ``_integer``).

    Invariants: values are nonnegative, nondecreasing in n, and values/2^n
    is nonincreasing in n.
    """

    n_min: int
    n_max: int
    values: np.ndarray

    def __post_init__(self):
        for key in ("n_min", "n_max"):
            object.__setattr__(self, key, _integer(getattr(self, key), key))
        v = np.asarray(self.values, dtype=float)
        if len(v) != self.n_max - self.n_min + 1:
            raise InvariantError("profile length must match the n-window")
        object.__setattr__(self, "values", v)

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    @property
    def t_values(self) -> np.ndarray:
        return 2.0 ** self.grid

    def validate(self, rel_tol: float = 1e-9) -> None:
        validate_profiles(self.values[None, :], self.t_values, rel_tol)

    def to_json(self) -> dict:
        return {"n_min": self.n_min, "n_max": self.n_max,
                "values": self.values.tolist()}


def validate_profiles(P: np.ndarray, t, rel_tol: float = 1e-9) -> None:
    """Check the ``KProfile`` invariants on every row of P, the values of K
    at the increasing t of ``t``; each row's slack is ``rel_tol`` times its
    own largest value (of K, then of K/t).  InvariantError on a violation.
    """
    def slack(V):
        return rel_tol * V.max(axis=1, initial=1e-300, keepdims=True)

    floor = -slack(P)
    if (P < floor).any():
        raise InvariantError("profile values must be nonnegative")
    if (P[:, 1:] - P[:, :-1] < floor).any():
        raise InvariantError("K(x, t) must be nondecreasing in t")
    ratios = P / t
    if (ratios[:, 1:] - ratios[:, :-1] > slack(ratios)).any():
        raise InvariantError("K(x, t)/t must be nonincreasing in t")


# ---------------------------------------------------------------------------
# batch strategy kernels
# ---------------------------------------------------------------------------

def _take_columns(V: np.ndarray, index: np.ndarray) -> np.ndarray:
    """V[r, index[r, j]] for an (m, k) index, or V[r, index[0, j]] for a
    shared (1, k) one: a C-ordered (m, k) result either way, so a reduction
    along its rows adds in the same order as for any other kernel output."""
    if len(index) == 1:
        return np.take(V, index[0], axis=1)
    return np.take_along_axis(V, index, axis=1)


@k_kernel
def _l1_linf_batch(X: np.ndarray, T) -> np.ndarray:
    """Exact K for the unweighted (l1, linf) couple, rowwise.

    K(x, t) = sum_{k<=floor(t)} x*_k + (t - floor(t)) x*_{floor(t)+1} with x*
    the nonincreasing rearrangement of |x| (zero beyond the support).  Each
    row is sorted and prefix-summed once and read off at all of its t.
    floor(t), its fraction and the read positions are worked out on T as
    given, once per t of a shared grid, and gathered by column.
    """
    m, d = X.shape
    star = np.sort(np.abs(X), axis=1)[:, ::-1]
    prefix = np.zeros((m, d + 1))
    np.cumsum(star, axis=1, out=prefix[:, 1:])
    floor = np.floor(T)
    whole = np.minimum(floor, d).astype(int)
    # zero where t >= d, so the clamped read of star adds nothing there
    frac = np.where(floor < d, T - floor, 0.0)
    return (_take_columns(prefix, whole)
            + frac * _take_columns(star, np.minimum(whole, d - 1)))


@k_kernel
def _l1_lp_batch(X: np.ndarray, T, p: float, w0, w1) -> np.ndarray:
    """Exact K for (l1(w0), lp(w1)) with 1 < p < inf, rowwise.

    The optimal split gives the lp side b_i = min(|x_i|, lam * g_i) with
    g_i = (w0_i / w1_i^p)^{1/(p-1)}, so the clipped coordinates are those
    with the largest r_i = |x_i| / g_i, an order that does not depend on t.
    With p' = p/(p-1) and the j largest r_i clipped,

        K(x, t) = C_j + A_j^{1/p} (t^{p'} - B_j)^{1/p'},

    C_j = sum_{i<=j} w0_i |x_i|, B_j = sum_{i<=j} (w0_i/w1_i)^{p'} and
    A_j = sum_{i>j} (w1_i |x_i|)^p, where j counts the i with
    A_i / r_i^p + B_i < t^{p'} (nondecreasing in i).  Each row is sorted and
    prefix-summed once; each t finds its j by binary search.  B, the count
    test and t^{p'} are kept in log space, since (w0/w1)^{p'} and t^{p'}
    overflow for p near 1; rows are scaled by a power of two.  Weights may
    be shared (d,) or per-row (m, d).
    """
    m, d = X.shape
    k = T.shape[1]
    q = p / (p - 1.0)
    W0 = np.broadcast_to(np.asarray(w0, dtype=float), (m, d))
    W1 = np.broadcast_to(np.asarray(w1, dtype=float), (m, d))
    absx = np.abs(X)
    # exact power-of-two scale: max_i w1_i |x_i| / scale lies in [1/2, 1)
    scale = np.ldexp(1.0, np.frexp(np.max(W1 * absx, axis=1))[1])
    absx = absx / scale[:, None]
    with np.errstate(divide="ignore"):
        log_r = np.log(absx) - (np.log(W0) - p * np.log(W1)) / (p - 1.0)
    order = np.argsort(-log_r, axis=1, kind="stable")   # zeros last

    def sort(V):
        return np.take_along_axis(V, order, axis=1)

    absx, log_r, W0, W1 = sort(absx), sort(log_r), sort(W0), sort(W1)
    # prefix sums with j = 0..d clipped: C_j, A_j and log B_j
    C = np.zeros((m, d + 1))
    np.cumsum(W0 * absx, axis=1, out=C[:, 1:])
    A = np.zeros((m, d + 1))
    A[:, :d] = np.cumsum(((W1 * absx) ** p)[:, ::-1], axis=1)[:, ::-1]
    logB = np.full((m, d + 1), -np.inf)
    logB[:, 1:] = np.logaddexp.accumulate(q * np.log(W0 / W1), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_f = np.where(absx > 0, np.logaddexp(
            np.log(A[:, 1:]) - p * log_r, logB[:, 1:]), np.inf)
    level = q * np.log(T)
    lo = np.zeros((m, k), dtype=np.intp)
    hi = np.full((m, k), d, dtype=np.intp)
    for _ in range(d.bit_length()):
        mid = (lo + hi) // 2
        below = np.take_along_axis(log_f, np.minimum(mid, d - 1), axis=1) < level
        open_ = lo < hi
        lo = np.where(open_ & below, mid + 1, lo)
        hi = np.where(open_ & ~below, mid, hi)

    def at(V):
        return np.take_along_axis(V, lo, axis=1)

    # (t^{p'} - B_j)^{1/p'} = t (1 - B_j / t^{p'})^{1/p'}
    rest = at(A) ** (1.0 / p) * T * (-np.expm1(at(logB) - level)) ** (1.0 / q)
    return scale[:, None] * (at(C) + rest)


@k_kernel
@np.errstate(over="ignore")     # knots, heights or g t past the largest float
def _weighted_sup_batch(X, T, w0, w1) -> np.ndarray:
    """Exact K for (linf(w0), linf(w1)), read off each row's least concave
    majorant.

    The dual of linf(w) is l1(1/w), so by the K-functional duality
    (Bergh-Lofstrom ch. 2)

        K(x, t) = max{sum_i lam_i w0_i |x_i| : sum_i lam_i <= 1,
                      sum_i lam_i w0_i / w1_i <= t, lam >= 0},

    the least concave nondecreasing majorant at t of the points (0, 0) and
    (s_i, h_i) = (w0_i / w1_i, w0_i |x_i|).  Each row's points are sorted
    by their knot s_i, the higher first on equal knots (and the steeper
    chord from (0, 0) first on equal points, so a joint permutation of x,
    w0 and w1 keeps every bit).  A point no higher than one before it lies
    under the majorant and is dropped; one monotone-chain pass from (0, 0)
    then pops every vertex on or under the chord to the next point.

    Each t is read on the piece that holds it, h_a + v_a (t - s_a) with
    s_a <= t < s_b: a sum of nonnegative terms, so every value is within a
    few ulp of K.  (The least of all pieces' lines loses every digit at a
    small t when a far piece's line starts just above 0: 50% error on four
    points.)  The first piece's slope is h_i / s_i = w1_i |x_i|, taken as
    that product, and the chord to a knot past the largest float is taken
    through it, so knots that underflow or overflow still give K.
    O(d log d) time per row; the lookup of the pieces holds at most
    m (d + 1) k cells.  Weights may be shared (d,) or per-row (m, d).
    """
    absx = np.abs(X)
    w0, w1 = np.asarray(w0, dtype=float), np.asarray(w1, dtype=float)
    points = np.empty(X.shape + (3,))     # knot s, height h, slope g = h / s
    points[..., 0] = w0 / w1
    points[..., 1] = w0 * absx
    points[..., 2] = w1 * absx
    points = points[np.arange(len(X))[:, None], np.lexsort(
        (-points[..., 2], -points[..., 1], points[..., 0]), axis=-1)]
    height = points[..., 1]
    keep = height > 0.0
    keep[:, 1:] &= height[:, 1:] > np.maximum.accumulate(height, 1)[:, :-1]
    flat = points[keep].tolist()
    vertices, starts, end = [], [], 0     # (s, h, slope to the right)
    for n in np.count_nonzero(keep, axis=1).tolist():
        hull, slopes = [(0.0, 0.0)], [0.0]
        for s, h, g in flat[end:end + n]:
            while True:
                # v: the chord's slope from the last vertex, g from (0, 0)
                s0, h0 = hull[-1]
                v = (g if not h0 else (h - h0) / (s - s0) if s < math.inf
                     else g * (h - h0) / (h - g * s0))
                if not h0 or slopes[-1] > v:
                    break
                hull.pop()
                slopes.pop()
            hull.append((s, h))
            slopes.append(v)
        end += n
        starts.append(len(vertices))
        vertices += [(s, h, v) for (s, h), v in zip(hull, slopes[1:] + [0.0])]
    P = np.reshape(vertices, (-1, 3))
    starts = np.array(starts, dtype=np.intp)
    T_at = (T if len(T) == 1
            else np.repeat(T, np.diff(starts, append=len(P)), axis=0))
    # the piece of each t: the row's last vertex with s <= t
    P = P[starts[:, None] - 1 + np.add.reduceat(
        P[:, :1] <= T_at, starts, axis=0, dtype=np.intp)]
    return P[..., 1] + P[..., 2] * (T - P[..., 0])


@k_kernel
def _power_batch(X, T, p, w0, w1) -> np.ndarray:
    """Coordinatewise power functional K_p for a shared exponent, rowwise.

    Per coordinate, with u = w0_i and v = t*w1_i, the amplitude
    c_i = (inf_{a+b=x_i} (u|a|)^p + (v|b|)^p)^{1/p} is |x_i| f_i(t) with
    the weight factor
      p <= 1:  f_i = min(u, v)                              (endpoint optimum);
      p > 1:   f_i = (u^-s + v^-s)^{-1/s}, s = p/(p-1)      (stationarity),
    and K_p is the lp sum of the amplitudes.  For p > 1 the factor is taken
    in its ratio form min(u, v) (1 + (min(u, v) / max(u, v))^s)^{-1/s}: the
    ratio is at most 1 and the second factor lies in [2^{-1/s}, 1], so
    nothing overflows, and a v = inf where t w1_i overflows gives the limit
    f_i = u.  The outer 1/s power damps the error of the ratio's s-th
    power, so f_i is within one unit in the last place for normal u and v
    (2.2e-16 relative at most against 60-digit decimal on 4,000 pairs per
    p, p from 1.0001 to 7, u and v across 2^+-1000).  Where some t w1_i of
    a (row, t) cell is subnormal, v keeps fewer bits than the weights give
    (7.6e-5 relative error at p = 0.5 for t w1_i near 2^-1062), so there u
    and t are first scaled by a power of two c that brings the least t w1_i
    to the normal range, as far as no u or v overflows, and K_p by 1/c
    (``_subnormal_scale``); every other cell has c = 1 and keeps its
    bits.  Since
    c_i^p = |x_i|^p f_i^p, no power is taken per (row, t, coordinate) cell:

    * the row table (|x_i| / a)^p, one row per vector, with a its largest
      |x_i|;
    * the factor table (f_i / b)^p per t, with b the largest f_i at that t,
      built for one row when the weights and the grid are shared by every
      row, for every row otherwise;
    * one length-d dot product S per (row, t) cell, and K_p = a b S^{1/p};
      at p = 1 the tables are |x| and f themselves, and K_1 = S.

    Both tables peak at 1, so nothing overflows.  A cell whose S falls
    below 2^{-960 min(p, 1)}, where S or S^{1/p} would lose digits to
    underflow, is recomputed by ``stable_lp_sum`` of its amplitudes; zero
    rows come out as exact zeros.  Each cell is the same dot product
    whatever the batch, so a grid gives the bits of its per-t calls and a
    row alone those it has in a batch.  Memory is m*d for the row table,
    m*k for the results and n*k*d for a factor table of n rows; that table
    is built in blocks of t values of at most ``_POWER_CHUNK_CELLS`` cells
    (one t at least), so it stays flat in the grid size.
    """
    m, d = X.shape
    k = T.shape[1]
    w0 = np.asarray(w0, dtype=float)
    w1 = np.asarray(w1, dtype=float)
    n = 1 if w0.ndim == w1.ndim == 1 and len(T) == 1 else m
    out = np.zeros((m, k))
    absx = np.abs(X)
    if p == 1.0:
        rows = absx
    else:
        a = np.maximum.reduce(absx, axis=1, keepdims=True)
        rows = (absx / np.maximum(a, _SMALLEST)) ** p
        floor = 2.0 ** (-960.0 * min(p, 1.0))
    # each (row, t) cell is one dot of a row-table row and a factor column
    rows = rows[:, None, None, :]
    u = w0[..., None, :]
    W1 = w1[..., None, :]
    step = max(1, _POWER_CHUNK_CELLS // max(n * d, 1))
    for j in range(0, k, step):
        t, uc, c = T[:, j:j + step, None], u, None
        with np.errstate(over="ignore"):
            v = t * W1                          # an inf v loses the min
            if v.min() < _NORMAL:               # some t w1_i is subnormal
                c = _subnormal_scale(t, u, v, W1)
                uc, v = u * c, (t * c) * W1
        f = np.minimum(uc, v)
        if p == 1.0:
            K = np.matmul(rows, f[..., None])[..., 0, 0]
        else:
            if p > 1.0:
                s = p / (p - 1.0)
                f *= (1.0 + (f / np.maximum(uc, v)) ** s) ** (-1.0 / s)
            b = np.maximum.reduce(f, axis=2, keepdims=True)
            F = (f / np.maximum(b, _SMALLEST)) ** p
            S = np.matmul(rows, F[..., None])[..., 0, 0]
            K = a * b[..., 0] * S ** (1.0 / p)
            low = S < floor
            if low.any():
                r, i = np.nonzero(low)
                K[r, i] = stable_lp_sum(
                    absx[r] * f[r if len(f) > 1 else 0, i], p)
        out[:, j:j + step] = K if c is None else K / c[..., 0]
    return out


def _subnormal_scale(t, u, v, W1):
    """The power of two c per (row, t) cell of ``_power_batch``'s factor
    table, v = t w1, with a trailing axis: 1 where no t w1_i is subnormal,
    else the one that lifts the least t w1_i to at least 2^-1021, lowered
    as far as needed to keep every c u_i and c t w1_i at most 2^1022 (but
    not below 1).  The exponents are read from log2 of t and of w1, not of
    v, which is the value that lost its bits."""
    log_v = np.log2(t) + np.log2(W1)
    lo = np.min(log_v, axis=2, keepdims=True)
    hi = np.max(np.maximum(np.log2(u), log_v), axis=2, keepdims=True)
    e = np.maximum(0.0, np.minimum(-1021.0 - np.floor(lo),
                                   1022.0 - np.ceil(hi)))
    subnormal = np.any(v < _NORMAL, axis=2, keepdims=True)
    return np.exp2(np.where(subnormal, e, 0.0))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _n_window(n_min: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponents n = n_min..n_max of a dyadic grid and its t = 2^n;
    DomainError when the window is empty or 2^n at an end is not a positive
    normal float (n outside [-1022, 1023]), or an end is not an integer
    (``_integer``)."""
    n_min, n_max = _integer(n_min, "n_min"), _integer(n_max, "n_max")
    lo, hi = np.finfo(float).minexp, np.finfo(float).maxexp - 1
    for key, n in (("n_min", n_min), ("n_max", n_max)):
        if not lo <= n <= hi:
            raise DomainError(f"{key} = {n} is outside [{lo}, {hi}], where "
                              f"t = 2^n is a positive normal float")
    if n_min > n_max:
        raise DomainError(f"need n_min <= n_max, got n_min = {n_min} and "
                          f"n_max = {n_max}")
    n = np.arange(n_min, n_max + 1)
    return n, 2.0 ** n.astype(float)


def k_profile(x: FiniteVector, couple: Couple, n_min: int, n_max: int) -> KProfile:
    """Evaluate the couple's strategy at t = 2^n for n in [n_min, n_max],
    and validate the profile.

    A descent profile is the lower envelope of the lines of the splits the
    descent found (``_descent.decomposition_infimum``), so it is
    nondecreasing with K/t nonincreasing by construction, and each value is
    at most that of a per-t call.
    """
    _, t = _n_window(n_min, n_max)
    prof = KProfile(n_min, n_max, couple.profile_batch(couple.embed(x), t)[0])
    prof.validate(rel_tol=1e-9)
    return prof


def k_sphere_sup(couple: Couple, t: float) -> float:
    """Max of K(e_k, t) / K(e_k, 1) over the window's basis spikes e_k.

    Two ``k_batch`` calls on the d x d identity.  The value is the sup of
    K(x, t) over the sum-space sphere K(x, 1) = 1 wherever the ratio is a
    weighted mean of per-coordinate ratios, which peaks at a spike:

    * the ``power`` route, at any p: with y = |x|^p >= 0 and the weight
      factors f_i of ``_power_batch``, K_p(x, t)^p / K_p(x, 1)^p is
      sum y_i A_i / sum y_i B_i, A_i = f_i(t)^p and B_i = f_i(1)^p > 0,
      a weighted mean of the A_i / B_i;
    * (l1, linf) at t <= 1, where K(x, t) = t ||x||_linf and the ratio is
      t for every x != 0.

    Those are ``verify.dichotomy_sweep``'s two families.  On every other
    route it is a lower bound for that sup.  Always <= max(1, t).
    """
    spikes = np.eye(couple.dim)
    # t first, so a t the kernels refuse is refused before any other work
    k_t = couple.k_batch(spikes, t)
    k_one = couple.k_batch(spikes, 1.0)
    keep = k_one > 1e-300
    if not np.any(keep):
        return 0.0
    return float(np.max(k_t[keep] / k_one[keep]))


# ---------------------------------------------------------------------------
# couple factories
# ---------------------------------------------------------------------------

def l1_linf_couple(dim: int, offset: int = 0) -> Couple:
    """The unweighted (l1, linf) couple on ``dim`` coordinates."""
    ones = np.ones(dim)
    return Couple(WeightedNorm(1.0, offset, ones),
                  WeightedNorm(math.inf, offset, ones), EXACT_L1_LINF)


def weighted_sup_couple(w0, w1, offset: int = 0) -> Couple:
    """The couple (linf(w0), linf(w1)) with its exact LP strategy."""
    return Couple(WeightedNorm(math.inf, offset, w0),
                  WeightedNorm(math.inf, offset, w1), WEIGHTED_SUP_LP)


def power_couple(p, w0, w1, offset: int = 0) -> Couple:
    """The couple (lp(w0), lp(w1)) with the coordinatewise power strategy."""
    return Couple(WeightedNorm(p, offset, w0), WeightedNorm(p, offset, w1),
                  POWER_COORDINATEWISE)
