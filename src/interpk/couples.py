"""Vectors on integer windows, weighted lp quasi-norms, couples, and the
decomposition functional

    K(x, t) = inf { ||a||_{A0} + t * ||b||_{A1} : a + b = x }.

Everything is finite: vectors carry an integer offset into Z and a finite
entry array; norms carry positive weights over a window of Z.  A couple is
two norms on a shared window plus an evaluation strategy for K.

``k_route(norm0, norm1)`` is the one place that maps a norm pair to a K
kernel.  Its route table, where (A1, A0) is answered through the identity
K(x, t; A0, A1) = t * K(x, 1/t; A1, A0):

* ``l1_linf``       exponents {1, inf} with unit weights, either order: the
  closed form of ``_l1_linf_batch``;
* ``weighted_sup``  (linf(w0), linf(w1)): the two-variable linear program
  solved on the vertex chain of its feasible region, built once per vector
  in O(d log d) time and O(d) memory (``_weighted_sup_batch``);
* ``l1_lp``         (l1(w0), lp(w1)) with 1 < p < inf, either order:
  Holmstedt's closed form (``_l1_lp_batch``);
* ``power``         one shared finite exponent p: the coordinatewise power
  functional

      K_p(x, t) = ( sum_i inf_{a+b=x_i} (w0_i |a|)^p + t^p (w1_i |b|)^p )^{1/p}

  (``_power_batch``), exact for p = 1 and a surrogate with band
  [2^{-1/min(p,1)}, 2^{1/min(p,1)}] otherwise;
* ``descent``       any other pair (``k_route`` returns None):
  ``descent_route`` builds its K, a seeded multi-start descent over
  decompositions (``_descent.decomposition_infimum``).  It is an upper
  approximation, and it reports the band (1, 1) all the same.  It is the one
  place that builds a descent K: ``oracle`` couples, ``sequence_couple_k``
  and the derived couple call it with their own budget and seed.

A route carries its band: ``band[0] <= K_route / K_true <= band[1]``, (1, 1)
for the exact routes.  The strategy names select what a couple may use:

* ``exact_l1_linf``, ``weighted_sup_lp`` and ``power_coordinatewise`` name
  the ``l1_linf``, ``weighted_sup`` and ``power`` routes, and the norms
  must have that route;
* ``oracle`` takes any norm pair: it uses the route where the route is
  exact and ``descent_route`` (budget 8, seed 0) everywhere else.

K-profiles sample K(x, 2^n) over a dyadic window; they are the discrete
object every interpolation norm downstream consumes.  ``Couple.profile_batch``
evaluates a whole grid of t per vector in one kernel call, so the exact
kernels sort (or build their vertex chain) once per vector, not once per t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from ._descent import _t_matrix, decomposition_infimum
from .errors import DomainError, InvariantError, WindowError

__all__ = [
    "FiniteVector", "WeightedNorm", "Couple", "KProfile", "KRoute", "k_route",
    "descent_route", "EXACT_L1_LINF", "WEIGHTED_SUP_LP",
    "POWER_COORDINATEWISE", "ORACLE", "k_profile", "k_sphere_sup",
    "l1_linf_couple", "weighted_sup_couple", "power_couple",
]

EXACT_L1_LINF = "exact_l1_linf"
WEIGHTED_SUP_LP = "weighted_sup_lp"
POWER_COORDINATEWISE = "power_coordinatewise"
ORACLE = "oracle"

# strategy name -> the route it names
_STRATEGY_ROUTES = {EXACT_L1_LINF: "l1_linf", WEIGHTED_SUP_LP: "weighted_sup",
                    POWER_COORDINATEWISE: "power"}

ORACLE_MAX_DIM = 16

# cells (rows x t values x coordinates) per block of a power-kernel grid
_POWER_CHUNK_CELLS = 2 ** 14


def _parse_p(p, key: str = "exponent p") -> float:
    """An exponent from JSON: a positive number or "inf"; ``key`` names it
    in the refusal."""
    if isinstance(p, str):
        if p.lower() in ("inf", "infinity"):
            return math.inf
        raise DomainError(f"unrecognized exponent string {p!r}")
    p = float(p)
    if not (p > 0):
        raise DomainError(f"{key} must be positive, got {p}")
    return p


def stable_lp_sum(terms: np.ndarray, p: float, axis: int = -1) -> np.ndarray:
    """(sum terms^p)^(1/p) of nonnegative terms along ``axis``; max for p = inf.

    Factors out the largest term so intermediate powers never overflow even
    for large exponents or extreme magnitudes.
    """
    terms = np.asarray(terms, dtype=float)
    if terms.shape[axis] == 0:
        return np.zeros(np.delete(terms.shape, axis))
    if math.isinf(p):
        return np.max(terms, axis=axis)
    peak = np.max(terms, axis=axis, keepdims=True)
    safe = np.where(peak > 0, peak, 1.0)
    return np.squeeze(peak, axis=axis) * np.sum(
        (terms / safe) ** p, axis=axis) ** (1.0 / p)


def _p_to_json(p: float):
    return "inf" if math.isinf(p) else p


@dataclass(frozen=True)
class FiniteVector:
    """A finitely supported vector over Z: entries start at index ``offset``."""

    offset: int
    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 1:
            raise InvariantError("entries must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise InvariantError("entries must be finite")
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "offset", int(self.offset))

    def __len__(self):
        return len(self.entries)

    @property
    def window(self) -> tuple[int, int]:
        """Half-open index window [offset, offset + len)."""
        return self.offset, self.offset + len(self.entries)

    def scaled(self, factor: float) -> "FiniteVector":
        return FiniteVector(self.offset, factor * self.entries)

    def to_json(self) -> dict:
        return {"offset": self.offset, "entries": self.entries.tolist()}

    @staticmethod
    def from_json(data: dict) -> "FiniteVector":
        return FiniteVector(int(data.get("offset", 0)), data["entries"])


def vec(entries, offset: int = 0) -> FiniteVector:
    """Shorthand constructor."""
    return FiniteVector(offset, np.asarray(entries, dtype=float))


@dataclass(frozen=True)
class WeightedNorm:
    """Weighted lp quasi-norm over a window of Z.

    ``norm(x) = (sum_i (w_i |x_i|)^p)^(1/p)`` for finite p and
    ``sup_i w_i |x_i|`` for p = inf.  The norm is r-normed with
    r = min(p, 1), and its quasi-norm constant is 2^(1/p - 1) for p < 1,
    1 otherwise.
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
        object.__setattr__(self, "offset", int(self.offset))

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def window(self) -> tuple[int, int]:
        return self.offset, self.offset + self.dim

    @property
    def quasi_constant(self) -> float:
        return max(1.0, 2.0 ** (1.0 / self.p - 1.0))

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

    def to_json(self) -> dict:
        return {"p": _p_to_json(self.p), "weights": self.weights.tolist()}

    @staticmethod
    def from_json(data: dict, offset: int = 0) -> "WeightedNorm":
        return WeightedNorm(data["p"], int(data.get("offset", offset)),
                            np.asarray(data["weights"], dtype=float))


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
    def kernel(X, T):
        T = np.asarray(T, dtype=float)
        return T * route.kernel(X, 1.0 / T)
    return route._replace(kernel=kernel)


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
        band = 1.0 if p0 == 1.0 else 2.0 ** (1.0 / min(p0, 1.0))
        return KRoute("power", lambda X, T: _power_batch(X, T, p0, w0, w1),
                      p0 == 1.0, (1.0 / band, band))
    if p0 == 1.0:
        return _l1_route(p1, w0, w1)
    route = _l1_route(p0, w1, w0) if p1 == 1.0 else None
    return route and _mirrored(route)


def descent_route(dense0, dense1, *, budget: int, seed: int,
                  scale0=None, scale1=None) -> KRoute:
    """The ``descent`` route: K of the norm callables (dense0, dense1) by
    ``_descent.decomposition_infimum`` with these knobs, an upper
    approximation reported with band (1, 1).  The engine is looked up when
    the kernel runs and gets the norms positionally, so a wrapper installed
    on it (the benchmark's tracer counts norm calls) sees every descent."""
    return KRoute("descent", lambda X, T: decomposition_infimum(
        X, T, dense0, dense1, budget=budget, seed=seed, scale0=scale0,
        scale1=scale1), exact=False)


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
                route = descent_route(
                    self.norm0.dense, self.norm1.dense, budget=8, seed=0,
                    # norm(e_j) = w_j for every lp exponent
                    scale0=self.norm0.weights, scale1=self.norm1.weights)
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
    def window(self) -> tuple[int, int]:
        return self.norm0.window

    @property
    def quasi_constant(self) -> float:
        return max(self.norm0.quasi_constant, self.norm1.quasi_constant)

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

    def k_batch(self, X: np.ndarray, T) -> np.ndarray:
        """K at each row of X (dense over the window); T scalar or per-row."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        T = np.broadcast_to(np.asarray(T, dtype=float), (X.shape[0],))
        if np.any(T <= 0):
            raise DomainError("t must be positive")
        return self.route.kernel(X, T[:, None])[:, 0]

    def profile_batch(self, X: np.ndarray, t_grid) -> np.ndarray:
        """K at every row of X and every t of ``t_grid``: (m, len(t_grid))."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        grid = np.asarray(t_grid, dtype=float).reshape(1, -1)
        if np.any(grid <= 0):
            raise DomainError("t must be positive")
        return self.route.kernel(X, grid)

    def k(self, x: FiniteVector, t: float) -> float:
        return float(self.k_batch(self.embed(x)[None, :], t)[0])

    def to_json(self) -> dict:
        return {"norm0": self.norm0.to_json(), "norm1": self.norm1.to_json(),
                "strategy": self.strategy, "offset": self.offset,
                "equiv_lo": self.equiv_lo, "equiv_hi": self.equiv_hi}

    @staticmethod
    def from_json(data: dict) -> "Couple":
        """The inverse of ``to_json``; the band keys are read-only and
        ignored."""
        offset = int(data.get("offset", 0))
        return Couple(WeightedNorm.from_json(data["norm0"], offset),
                      WeightedNorm.from_json(data["norm1"], offset),
                      data["strategy"])


@dataclass(frozen=True)
class KProfile:
    """Samples K(x, 2^n) for n on an integer window.

    Invariants: values are nonnegative, nondecreasing in n, and values/2^n
    is nonincreasing in n.
    """

    n_min: int
    n_max: int
    values: np.ndarray

    def __post_init__(self):
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
        v = self.values
        scale = max(float(np.max(v, initial=0.0)), 1e-300)
        slack = rel_tol * scale
        if np.any(v < -slack):
            raise InvariantError("profile values must be nonnegative")
        if np.any(np.diff(v) < -slack):
            raise InvariantError("K(x, t) must be nondecreasing in t")
        ratios = v / self.t_values
        rslack = rel_tol * max(float(np.max(ratios, initial=0.0)), 1e-300)
        if np.any(np.diff(ratios) > rslack):
            raise InvariantError("K(x, t)/t must be nonincreasing in t")

    def to_json(self) -> dict:
        return {"n_min": self.n_min, "n_max": self.n_max,
                "values": self.values.tolist()}


# ---------------------------------------------------------------------------
# batch strategy kernels
# ---------------------------------------------------------------------------

def _l1_linf_batch(X: np.ndarray, T) -> np.ndarray:
    """Exact K for the unweighted (l1, linf) couple, rowwise.

    K(x, t) = sum_{k<=floor(t)} x*_k + (t - floor(t)) x*_{floor(t)+1} with x*
    the nonincreasing rearrangement of |x| (zero beyond the support).  Each
    row is sorted and prefix-summed once and read off at all of its t.
    """
    X = np.atleast_2d(X)
    m, d = X.shape
    T, per_row = _t_matrix(T, m)
    if d == 0:
        out = np.zeros(T.shape)
    else:
        star = np.sort(np.abs(X), axis=1)[:, ::-1]
        prefix = np.zeros((m, d + 1))
        np.cumsum(star, axis=1, out=prefix[:, 1:])
        floor = np.floor(T)
        whole = np.minimum(floor, d).astype(int)
        frac = np.where(floor < d, T - floor, 0.0)
        head = np.take_along_axis(prefix, whole, axis=1)
        nxt = np.take_along_axis(star, np.minimum(whole, d - 1), axis=1)
        out = head + frac * np.where(whole < d, nxt, 0.0)
    return out[:, 0] if per_row else out


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
    X = np.atleast_2d(X)
    m, d = X.shape
    T, per_row = _t_matrix(T, m)
    if d == 0:
        out = np.zeros(T.shape)
        return out[:, 0] if per_row else out
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
    lo = np.zeros(T.shape, dtype=np.intp)
    hi = np.full(T.shape, d, dtype=np.intp)
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
    out = scale[:, None] * (at(C) + rest)
    return out[:, 0] if per_row else out


def _weighted_sup_batch(X, T, w0, w1) -> np.ndarray:
    """Exact K for (linf(w0), linf(w1)) on each row's vertex chain.

    K(x, t) = min{l0 + t*l1 : l0/w0_i + l1/w1_i >= |x_i|, l0, l1 >= 0}.  For
    fixed l0 the least feasible l1 is g(l0) = max(0, max_i w1_i (|x_i| -
    l0/w0_i)), the upper envelope of the zero line and d falling lines, so
    K(x, t) = min over the envelope's vertices v on l0 >= 0 of l0_v + t g(l0_v).
    The vertices do not depend on t: they are built once per row by sorting
    the lines by slope and one monotone-chain pass, O(d log d) time and O(d)
    memory, and every t of the row reads them.  Weights may be shared (d,)
    or per-row (m, d).
    """
    X = np.atleast_2d(X)
    m, d = X.shape
    T, per_row = _t_matrix(T, m)
    r = np.abs(X)
    W0 = np.broadcast_to(np.asarray(w0, dtype=float), (m, d))
    W1 = np.broadcast_to(np.asarray(w1, dtype=float), (m, d))
    height = W1 * r           # line i at l0 = 0
    slope = W1 / W0           # line i falls at this rate ...
    root = W0 * r             # ... and meets zero at l0 = root
    # steepest line first, the higher one first among equal slopes
    order = np.lexsort((-height, -slope), axis=-1)
    lines = np.stack([height, slope, root], axis=2)
    lines = np.take_along_axis(lines, order[:, :, None], 1).tolist()
    l0s, l1s, counts = [], [], []     # vertices of all rows, row after row
    for row in lines:
        hull = []             # (height, slope, root, start l0) of each piece
        for b, s, a in row:
            if b <= 0.0 or (hull and hull[-1][1] == s):
                continue      # below the zero line, or below an equal slope
            start = 0.0
            while hull:
                hb, hs, _, h0 = hull[-1]
                # the new, shallower line overtakes the top at l0 = cross
                cross = (hb - b) / (hs - s)
                if cross > h0:
                    start = cross
                    break
                hull.pop()
            hull.append((b, s, a, start))
        while len(hull) > 1 and hull[-1][2] <= hull[-1][3]:
            hull.pop()        # meets zero before it reaches the envelope
        for hb, hs, _, h0 in hull:
            l0s.append(h0)
            l1s.append(max(hb - hs * h0, 0.0))
        l0s.append(hull[-1][2] if hull else 0.0)
        l1s.append(0.0)
        counts.append(len(hull) + 1)
    n_vert = max(counts, default=1)
    filled = np.arange(n_vert) < np.asarray(counts, dtype=int)[:, None]
    L0 = np.full((m, n_vert), np.inf)     # padding never wins the min
    L1 = np.zeros((m, n_vert))
    L0[filled] = l0s
    L1[filled] = l1s
    out = np.min(L0[:, :, None] + T[:, None, :] * L1[:, :, None], axis=1)
    return out[:, 0] if per_row else out


def _power_batch(X, T, p, w0, w1) -> np.ndarray:
    """Coordinatewise power functional K_p for a shared exponent, rowwise.

    Per coordinate, with u = w0_i and v = t*w1_i, the amplitude
    c_i = (inf_{a+b=x_i} (u|a|)^p + (v|b|)^p)^{1/p} is:
      p <= 1:  min(u, v) |x_i|            (endpoint optimum);
      p > 1:   |x_i| (u^-s + v^-s)^{-1/s}, s = p/(p-1)  (stationarity),
    and K_p is the lp sum of the amplitudes.  A grid of t is evaluated in
    blocks of columns of at most ``_POWER_CHUNK_CELLS`` (row, t, coordinate)
    cells (one column at least), so memory stays flat in the grid size;
    every value is computed as it would be alone.
    """
    X = np.atleast_2d(X)
    m, d = X.shape
    w0 = np.asarray(w0, dtype=float)
    w1 = np.asarray(w1, dtype=float)
    # shared weights and a t shared by every row: the weight factor depends
    # on (t, i) only, so it is computed for one row and broadcast
    n = 1 if (w0.ndim == w1.ndim == 1
              and (np.ndim(T) == 0 or np.shape(T)[0] == 1)) else m
    T, per_row = _t_matrix(T, m)
    out = np.zeros(T.shape)
    absx = np.abs(X)[:, None, :]
    u = np.broadcast_to(w0, (n, d))[:, None, :]
    step = max(1, _POWER_CHUNK_CELLS // max(m * d, 1))
    for j in range(0, T.shape[1] if d else 0, step):
        v = T[:n, j:j + step, None] * np.broadcast_to(w1, (n, d))[:, None, :]
        if p <= 1.0:
            amp = np.minimum(u, v) * absx
        else:
            s = p / (p - 1.0)
            # harmonic-type mean of the weights, evaluated in log space
            mean = np.exp(-np.logaddexp(-s * np.log(u), -s * np.log(v)) / s)
            amp = absx * mean
        out[:, j:j + step] = stable_lp_sum(amp, p)
    return out[:, 0] if per_row else out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _n_window(n_min: int, n_max: int) -> np.ndarray:
    """The exponents n_min..n_max of a dyadic grid t = 2^n; DomainError
    when the window is empty or 2^n at an end is not a positive normal
    float (n outside [-1022, 1023])."""
    lo, hi = np.finfo(float).minexp, np.finfo(float).maxexp - 1
    for key, n in (("n_min", n_min), ("n_max", n_max)):
        if not lo <= n <= hi:
            raise DomainError(f"{key} = {n} is outside [{lo}, {hi}], where "
                              f"t = 2^n is a positive normal float")
    if n_min > n_max:
        raise DomainError(f"need n_min <= n_max, got n_min = {n_min} and "
                          f"n_max = {n_max}")
    return np.arange(n_min, n_max + 1)


def k_profile(x: FiniteVector, couple: Couple, n_min: int, n_max: int) -> KProfile:
    """Evaluate the couple's strategy at t = 2^n for n in [n_min, n_max]."""
    grid = _n_window(n_min, n_max)
    values = couple.profile_batch(couple.embed(x), 2.0 ** grid.astype(float))
    prof = KProfile(n_min, n_max, values[0])
    if couple.route.name != "descent":
        prof.validate(rel_tol=1e-9)
    return prof


def k_sphere_sup(couple: Couple, t: float, samples: int, seed: int) -> float:
    """Max of K(x, t) over seeded directions normalized to K(x, 1) = 1.

    A lower bound for the sup over the whole sum-space sphere.  The sampled
    directions always include every basis spike e_k of the window, plus
    ``samples`` random directions (alternating dense Gaussian and sparse).
    Always <= max(1, t).
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if not (t > 0):
        raise DomainError("t must be positive")
    d = couple.dim
    rng = np.random.default_rng(seed)
    dirs = [np.eye(d)]
    rand = np.zeros((samples, d))
    for i in range(samples):
        if i % 2 == 0:
            rand[i] = rng.standard_normal(d)
        else:
            support = rng.choice(d, size=max(1, d // 4), replace=False)
            rand[i, support] = rng.standard_normal(len(support)) * (
                2.0 ** rng.integers(-4, 5))
    dirs.append(rand)
    X = np.vstack(dirs)
    k_one = couple.k_batch(X, 1.0)
    keep = k_one > 1e-300
    if not np.any(keep):
        return 0.0
    k_t = couple.k_batch(X[keep], t)
    return float(np.max(k_t / k_one[keep]))


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
