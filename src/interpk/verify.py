"""Named verification experiments.

Each check measures an empirical two-sided equivalence constant (min and max
of a ratio of two norms over a seeded sample set) and reports it as an
EquivReport.  No check claims set equality of spaces: equality or
distinctness of interpolation spaces is not decidable from finite data, so
the runtime counterpart of every equivalence theorem is a ratio band that
stays stable across a dimension sweep, and the counterpart of a distinctness
theorem is a witness whose membership flags differ between two parameter
pairs.

A check computes both sides of its ratio from library functions (the
couples' profiles and K routes, ``interp.dyadic_norm``,
``DerivedSumIntCouple.surrogate``) and holds no formula of its own.  There
are two exceptions: ``oracle_agreement`` runs the descent on norms it
writes itself, since that descent is the reference the exact kernels are
accepted against, and ``konig``'s right side writes the Lorentz sum over a
batch of rows, which ``snum.lorentz_norm`` takes one row at a time.

Every pass/fail threshold is a default in its check's signature
(overridable per call), never in the check logic.  Every check is
deterministic under (seed, config): sample i is drawn from a child generator
keyed by (seed, i), so doubling the sample count extends the sample set and
can only widen the observed band.  One such generator serves sample i at
every dimension of a sweep, and each dimension still sees the stream it
would get from a generator of its own: Gaussian draws are prefix-stable, so
dimension d takes the first d of one stream; draws whose count depends on d
restart from the generator's saved state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._descent import decomposition_infimum
from .couples import (Couple, FiniteVector, _l1_linf_batch, _n_window,
                      _parse_p, _weighted_sup_batch, k_sphere_sup,
                      l1_linf_couple, power_couple, stable_lp_sum)
from .errors import DomainError, EmptyReportError, InvariantError
from .interp import (DEFAULT_N_MAX, DEFAULT_N_MIN, InterpParams,
                     _check_theta_q, derived_sum_int_couple, dyadic_norm,
                     dyadic_weights, sequence_couple_k)
from .snum import (LorentzParams, k_operator_diag_batch, lorentz_norm,
                   witness_sequence)

__all__ = [
    "EquivReport", "DichotomyReport", "DistinctnessReport",
    "equivalence_report", "vector_sampler", "check_mainlema",
    "check_sum_intersection", "check_reiteration", "check_konig",
    "dichotomy_sweep", "distinctness_demo", "oracle_agreement",
    "couple_family",
]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class EquivReport:
    """Empirical two-sided equivalence constants for one check."""

    check: str
    seed: int
    sample_count: int
    min_ratio: float
    max_ratio: float
    per_dimension: dict
    config: dict
    passed: bool | None = None
    notes: str = ""
    trace: list | None = None

    def __post_init__(self):
        if not (0 < self.min_ratio <= self.max_ratio):
            raise InvariantError("need 0 < min_ratio <= max_ratio")

    @property
    def spread(self) -> float:
        return self.max_ratio / self.min_ratio

    def to_json(self) -> dict:
        out = {"check": self.check, "seed": self.seed,
               "sample_count": self.sample_count,
               "min_ratio": self.min_ratio, "max_ratio": self.max_ratio,
               "per_dimension": {str(k): v for k, v in self.per_dimension.items()},
               "config": self.config, "pass": self.passed}
        if self.notes:
            out["notes"] = self.notes
        return out


@dataclass
class DichotomyReport:
    check: str
    family: str
    t: float
    sizes: list
    values: list
    seed: int
    config: dict
    passed: bool

    def to_json(self) -> dict:
        return {"check": self.check, "family": self.family, "t": self.t,
                "sizes": list(self.sizes), "values": list(self.values),
                "seed": self.seed, "config": self.config, "pass": self.passed}


@dataclass
class DistinctnessReport:
    check: str
    length: int
    pairs: list
    config: dict
    passed: bool

    def to_json(self) -> dict:
        return {"check": self.check, "length": self.length,
                "pairs": self.pairs, "config": self.config,
                "pass": self.passed}


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------

def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _sample_rows(index: int, seed: int, dims: Sequence[int]) -> dict:
    """Sample ``index`` of the standard mix at every dim of ``dims``.

    The mix is flat, spike, Gaussian, sparse, witness.  Index 0 is always
    the flat vector (the strictness witness shape) and index 1 the first
    basis spike, so the extreme shapes are represented at every sample
    count.  One generator keyed by (seed, index) serves every dim: the
    Gaussian kind takes the first d draws of one stream (normal draws are
    prefix-stable), the sparse kind, whose draws depend on d, restarts from
    the generator's saved state at each dim, and the witness kind draws the
    same two values at any d.
    """
    if index == 0:
        return {d: np.full(d, 1.0 / d) for d in dims}
    if index == 1:
        return {d: np.eye(1, d).reshape(-1) for d in dims}
    rng = _sample_rng(seed, index)
    kind = index % 3
    if kind == 0:
        z = rng.standard_normal(max(dims))
        return {d: z[:d] for d in dims}
    if kind == 1:
        state = rng.bit_generator.state
        out = {}
        for d in dims:
            rng.bit_generator.state = state
            row = np.zeros(d)
            support = rng.choice(d, size=max(1, d // 4), replace=False)
            row[support] = rng.standard_normal(len(support)) * (
                2.0 ** rng.uniform(-5.0, 5.0))
            out[d] = row
        return out
    scale = 2.0 ** rng.integers(-3, 4)
    if rng.integers(0, 2):
        return {d: np.full(d, scale / d) for d in dims}
    return {d: scale * 2.0 ** (-np.arange(d, dtype=float) / 2.0)
            for d in dims}


def sample_dense(dim: int, index: int, seed: int) -> np.ndarray:
    """Sample ``index`` of the standard mix at one dimension."""
    return _sample_rows(index, seed, (dim,))[dim]


def vector_sampler(dim: int, seed: int, offset: int = 0) -> Callable[[int], FiniteVector]:
    """Seeded generator index -> FiniteVector for equivalence_report."""

    def sample(index: int) -> FiniteVector:
        return FiniteVector(offset, sample_dense(dim, index, seed))

    return sample


def _nonincreasing_rows(index: int, seed: int, lengths: Sequence[int]) -> dict:
    """Sample ``index`` of the nonincreasing mix at every length of
    ``lengths``; one generator, restarted from its saved state per length."""
    rng = _sample_rng(seed, index)
    state = rng.bit_generator.state
    kind = index % 3
    out = {}
    for length in lengths:
        rng.bit_generator.state = state
        if kind == 0:
            vals = np.sort(np.abs(rng.standard_normal(length)))[::-1]
        elif kind == 1:
            rate = rng.uniform(0.1, 1.5)
            vals = 2.0 ** (-rate * np.arange(length, dtype=float))
        else:
            n = np.arange(1, length + 1, dtype=float)
            vals = n ** (-rng.uniform(0.3, 2.0))
        out[length] = vals * 2.0 ** rng.integers(-2, 3)
    return out


def sample_nonincreasing(length: int, index: int, seed: int) -> np.ndarray:
    """Seeded nonincreasing nonnegative sequences of mixed decay shapes."""
    return _nonincreasing_rows(index, seed, (length,))[length]


def _sample_sweep(rows, count: int, sizes: Sequence[int],
                  seed: int) -> dict[int, np.ndarray]:
    """{size: (count, size) matrix} whose row i is ``rows(i, seed, ...)``
    at that size, one ``rows`` call per index for the whole sweep."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if not sizes or min(sizes) < 1:
        raise DomainError(f"the sweep needs one or more dimensions or "
                          f"lengths, each >= 1, got {list(sizes)}")
    sizes = sorted(set(sizes))
    out = {size: np.empty((count, size)) for size in sizes}
    for i in range(count):
        for size, row in rows(i, seed, sizes).items():
            out[size][i] = row
    return out


# ---------------------------------------------------------------------------
# generic equivalence report
# ---------------------------------------------------------------------------

def equivalence_report(norm_a, norm_b, sampler: Callable[[int], FiniteVector],
                       count: int, check: str = "equivalence",
                       seed: int = 0, config: dict | None = None,
                       keep_trace: bool = False) -> EquivReport:
    """Ratios norm_a(x)/norm_b(x) over ``count`` sampled vectors.

    Samples where either norm vanishes are skipped; if all collide at zero
    an EmptyReportError is raised.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    trace = [] if keep_trace else None
    dims: dict[int, list] = {}
    for i in range(count):
        x = sampler(i)
        va = float(norm_a(x))
        vb = float(norm_b(x))
        if va <= 1e-300 or vb <= 1e-300:
            continue
        r = va / vb
        dims.setdefault(len(x), []).append(r)
        if keep_trace:
            trace.append({"index": i, "dim": len(x), "ratio": r})
    if not dims:
        raise EmptyReportError("all samples had a vanishing norm")
    per_dim, lo, hi, total = _band_from_ratios(
        {d: np.asarray(v) for d, v in dims.items()})
    return EquivReport(check, seed, total, lo, hi, per_dim, config or {},
                       trace=trace)


# ---------------------------------------------------------------------------
# couple families
# ---------------------------------------------------------------------------

def couple_family(name: str, dim: int) -> Couple:
    """Construct the named couple at the given dimension.

    ``l1_linf``: the unweighted (l1, linf) pair on dim coordinates (ordered
    at fixed dimension).  ``l1_geometric``: the non-ordered pair
    (l1(2^k), l1(2^{-k})) on the symmetric window |k| <= (dim-1)//2, so
    its dim must be odd.
    """
    if dim < 1:
        raise DomainError(f"couple dimension must be >= 1, got {dim}")
    if name == "l1_linf":
        return l1_linf_couple(dim)
    if name == "l1_geometric":
        if dim % 2 == 0:
            raise DomainError(f"l1_geometric needs an odd dimension (its "
                              f"window is symmetric about 0), got {dim}")
        half = (dim - 1) // 2
        ks = np.arange(-half, half + 1, dtype=float)
        return power_couple(1.0, 2.0 ** ks, 2.0 ** (-ks), offset=-half)
    raise DomainError(f"unknown couple family {name!r}")


def _band_from_ratios(per_size: dict[int, np.ndarray]):
    per_dim = {}
    lo, hi = math.inf, 0.0
    total = 0
    for size, arr in sorted(per_size.items()):
        per_dim[size] = {"min": float(np.min(arr)), "max": float(np.max(arr)),
                         "count": int(arr.size)}
        lo = min(lo, per_dim[size]["min"])
        hi = max(hi, per_dim[size]["max"])
        total += arr.size
    return per_dim, lo, hi, total


def _spreads_stable(per_dim: dict, growth: float) -> bool:
    spreads = [v["max"] / v["min"] for _, v in sorted(per_dim.items())]
    return all(b <= a * growth for a, b in zip(spreads, spreads[1:]))


def _sweep_report(check: str, seed: int, rows, count: int,
                  sizes: Sequence[int], pair, keep_trace: bool,
                  ts: Sequence[float] | None = None) -> EquivReport:
    """The band of the ratios lhs / rhs over a seeded size sweep.

    ``rows`` draws the samples (see ``_sample_sweep``).  At each entry of
    ``sizes``, in order, ``pair(size, X)`` gets the nonzero sample rows X
    at that size and returns (lhs, rhs): vectors, or, with ``ts`` given,
    matrices whose column j is at t = ts[j].  A ratio counts where both
    sides exceed 1e-300, and a size left with none raises EmptyReportError.
    Trace rows run t-major within a size and carry t when ``ts`` is given.
    The caller sets the report's config and verdict.
    """
    samples = _sample_sweep(rows, count, sizes, seed)
    per_size = {}
    trace = [] if keep_trace else None
    for size in sizes:
        X = samples[size]
        keep = X.any(axis=1)
        idx = np.flatnonzero(keep)
        lhs, rhs = pair(size, X[keep])
        columns = []
        # a vector is one column, a matrix has one column per t of ts
        for j, (a, b) in enumerate(zip(np.atleast_2d(lhs.T),
                                       np.atleast_2d(rhs.T))):
            ok = (a > 1e-300) & (b > 1e-300)
            columns.append(a[ok] / b[ok])
            if keep_trace:
                at = {"t": float(ts[j])} if ts else {}
                trace.extend({"size": int(size), **at, "index": int(i),
                              "ratio": float(r)}
                             for i, r in zip(idx[ok], columns[-1]))
        per_size[size] = np.concatenate(columns)
        if not per_size[size].size:
            raise EmptyReportError(
                f"{check}: no ratio left at size {size} (each had a side "
                f"that is NaN or not above 1e-300)")
    per_dim, lo, hi, total = _band_from_ratios(per_size)
    return EquivReport(check, seed, total, lo, hi, per_dim, {}, trace=trace)


# ---------------------------------------------------------------------------
# named checks
# ---------------------------------------------------------------------------

def check_mainlema(family: str = "l1_linf",
                   dims: Sequence[int] = (2, 4, 8),
                   t_grid: Sequence[float] = tuple(2.0 ** n
                                                   for n in range(-6, 1)),
                   count: int = 200, seed: int = 0,
                   band: Sequence[float] = (0.125, 8.0), budget: int = 4,
                   keep_trace: bool = False) -> EquivReport:
    """K of (A0+A1, A0 cap A1) on its explicit norms against the surrogate
    K(x,t) + t K(x,1/t), over the t <= 1 of ``t_grid`` and a dimension
    sweep.  The explicit K is exact for ``l1_linf`` and seeded descent with
    ``budget`` random starts otherwise."""
    ts = [t for t in t_grid if t <= 1.0]
    if not ts:
        raise DomainError("t_grid needs at least one value t <= 1")
    if len(band) != 2 or not band[0] <= band[1]:
        raise DomainError(f"band must be [low, high] with low <= high, "
                          f"got {list(band)}")
    couples = {dim: couple_family(family, dim) for dim in dims}

    def pair(dim, X):
        derived = derived_sum_int_couple(couples[dim])
        oracle = derived.k_oracle_batch(X, np.reshape(ts, (1, -1)),
                                        budget=budget, seed=seed)
        return oracle, derived.profile_batch(X, ts)

    report = _sweep_report("mainlema", seed, _sample_rows, count, dims, pair,
                           keep_trace, ts)
    report.passed = band[0] <= report.min_ratio and report.max_ratio <= band[1]
    report.config = {"family": family, "dims": list(dims),
                     "t_grid": list(t_grid), "count": count,
                     "band": list(band), "budget": budget}
    return report


def check_sum_intersection(theta: float, p: float,
                           dims: Sequence[int] = (4, 8, 16, 32, 64),
                           count: int = 160, seed: int = 0,
                           family: str = "l1_linf",
                           n_min: int = DEFAULT_N_MIN,
                           n_max: int = DEFAULT_N_MAX,
                           spread_growth: float = 1.10,
                           keep_trace: bool = False) -> EquivReport:
    """Interpolation norm of the derived couple (A0+A1, A0 cap A1) at
    (theta, p) against the sum (theta < 1/2) or max (theta >= 1/2) of the
    endpoint norms at theta and 1-theta.

    The derived couple is ordered (intersection into sum), so its norm is
    equivalent to the t <= 1 half of the profile sum with dimension-free
    constants; the check evaluates that half, where the surrogate
    K(x,t) + t K(x,1/t) is available, gathered by
    ``DerivedSumIntCouple.surrogate`` from the base profile that the right
    side also reads.
    """
    _check_theta_q(theta, p, ("theta", "p"))
    grid = _n_window(n_min, n_max)
    if n_min != -n_max:
        raise DomainError(f"the derived profile needs a symmetric window "
                          f"n_min = -n_max, got n_min = {n_min} and "
                          f"n_max = {n_max}")
    low_half = grid <= 0
    t = 2.0 ** grid.astype(float)
    w_theta = dyadic_weights(theta, grid)
    w_mirror = dyadic_weights(1.0 - theta, grid)
    derived = {dim: derived_sum_int_couple(couple_family(family, dim))
               for dim in dims}

    def pair(dim, X):
        # the window is symmetric, so the base profile P holds every s and
        # 1/s the derived profile D gathers
        P = derived[dim].base.profile_batch(X, t)
        D = derived[dim].surrogate(P, t, t[low_half])
        lhs = dyadic_norm(D, grid[low_half], theta, p)
        if theta < 0.5:
            return lhs, sequence_couple_k(P, 1.0, p, w_theta, p, w_mirror)
        return lhs, np.maximum(dyadic_norm(P, grid, theta, p),
                               dyadic_norm(P, grid, 1.0 - theta, p))

    report = _sweep_report("sum_intersection", seed, _sample_rows, count,
                           dims, pair, keep_trace)
    report.passed = _spreads_stable(report.per_dimension, spread_growth)
    report.config = {"theta": theta, "p": p, "dims": list(dims),
                     "count": count, "family": family, "n_min": n_min,
                     "n_max": n_max, "spread_growth": spread_growth}
    return report


def check_reiteration(theta0: float, theta1: float, alpha: float, r: float,
                      p: float | None = None, q: float | None = None,
                      dims: Sequence[int] = (4, 8, 16, 32),
                      count: int = 160, seed: int = 0,
                      family: str = "l1_linf", n_min: int = DEFAULT_N_MIN,
                      n_max: int = DEFAULT_N_MAX,
                      spread_growth: float = 1.10,
                      keep_trace: bool = False) -> EquivReport:
    """Interpolation at (alpha, r) between the endpoint spaces
    (theta0, p) and (theta1, q) against direct interpolation at
    ((1-alpha) theta0 + alpha theta1, r); p and q default to r.

    The K-functional between the endpoint spaces is evaluated on the shared
    K-profile: a decomposition of x induces a decomposition of its profile
    and conversely up to dimension-free constants, so the profile-level K in
    the weighted sequence couple stands in for the vector-level one.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    p = r if p is None else p
    q = r if q is None else q
    # r first: p and q default to it
    for keys, theta, exponent in ((("alpha", "r"), alpha, r),
                                  (("theta0", "p"), theta0, p),
                                  (("theta1", "q"), theta1, q)):
        _check_theta_q(theta, exponent, keys)
    grid = _n_window(n_min, n_max)
    w0 = dyadic_weights(theta0, grid)
    w1 = dyadic_weights(theta1, grid)
    theta_bar = (1.0 - alpha) * theta0 + alpha * theta1
    t_grid = (2.0 ** grid.astype(float))[None, :]
    couples = {dim: couple_family(family, dim) for dim in dims}

    def pair(dim, X):
        P = couples[dim].profile_batch(X, t_grid)
        KK = sequence_couple_k(P, t_grid, p, w0, q, w1, seed=seed)
        return (dyadic_norm(KK, grid, alpha, r),
                dyadic_norm(P, grid, theta_bar, r))

    report = _sweep_report("reiteration", seed, _sample_rows, count, dims,
                           pair, keep_trace)
    report.passed = _spreads_stable(report.per_dimension, spread_growth)
    report.config = {"theta0": theta0, "theta1": theta1, "alpha": alpha,
                     "r": r, "p": p, "q": q, "dims": list(dims),
                     "count": count, "family": family, "n_min": n_min,
                     "n_max": n_max, "spread_growth": spread_growth}
    return report


def check_konig(p0: float, p1: float, theta: float, q: float,
                lengths: Sequence[int] = (4, 8, 16, 32, 64),
                count: int = 48, seed: int = 0,
                n_min: int = DEFAULT_N_MIN, n_max: int = DEFAULT_N_MAX,
                spread_growth: float = 1.10, witness_length: int = 2 ** 16,
                keep_trace: bool = False) -> EquivReport:
    """Dyadic interpolation norm of diagonal K-profiles between the lp0 and
    lp1 ideals against the Lorentz (p, q) norm, 1/p = (1-theta)/p0 + theta/p1.

    Also runs the separating witness eps_n = n^{-1/p}(1+ln n)^{-1/q} and
    records its membership flags at (p, q) and (p, 2q); the flags are part
    of the pass condition.
    """
    InterpParams(theta, q)
    inv_p = (1.0 - theta) / _parse_p(p0, "p0") + theta / _parse_p(p1, "p1")
    params = LorentzParams(1.0 / inv_p if inv_p else math.inf, q)
    p = params.p
    grid = _n_window(n_min, n_max)
    t_grid = (2.0 ** grid.astype(float))[None, :]

    def pair(length, S):
        KK = k_operator_diag_batch(S, t_grid, p0, p1, seed=seed)
        n_idx = np.arange(1, length + 1, dtype=float)
        rhs = stable_lp_sum(
            np.broadcast_to(n_idx ** (1.0 / p - 1.0 / q), S.shape) * S, q)
        return dyadic_norm(KK, grid, theta, q), rhs

    report = _sweep_report("konig", seed, _nonincreasing_rows, count,
                           lengths, pair, keep_trace)
    _, witness = witness_sequence(p, q, witness_length,
                                  probe_params=[(p, q), (p, 2.0 * q)])
    flags = [probe.flag for probe in witness.probes]
    report.passed = (_spreads_stable(report.per_dimension, spread_growth)
                     and flags == ["diverging", "converging"])
    report.config = {"p0": p0, "p1": p1, "theta": theta, "q": q, "p": p,
                     "lengths": list(lengths), "count": count,
                     "n_min": n_min, "n_max": n_max,
                     "spread_growth": spread_growth,
                     "witness_length": witness_length,
                     "witness_flags": flags}
    return report


def dichotomy_sweep(family: str, t: float, sizes: Sequence[int],
                    samples: int = 32, seed: int = 0, lower: float = 0.99,
                    upper_slack: float = 1e-9) -> DichotomyReport:
    """Sphere sup of K(., t) across growing windows.

    For the non-ordered family the estimate must stay >= ``lower`` (the sum
    space differs from both endpoints, so the normalized K cannot drop); for
    the ordered family it must stay below t (consistent with A0+A1 = A1).
    """
    if not sizes:
        raise DomainError("sizes needs one or more window sizes, got []")
    values = []
    for size in sizes:
        couple = couple_family(family, size)
        values.append(k_sphere_sup(couple, t, samples, seed))
    if family == "l1_geometric":
        passed = all(v >= lower for v in values)
    else:
        # ordered: K(x, t) <= t ||x||_{A1} <= t K(x, 1) for t <= 1
        bound = min(1.0, t) * (1.0 + upper_slack)
        passed = all(v <= bound for v in values)
    config = {"family": family, "t": t, "sizes": list(sizes),
              "samples": samples, "lower": lower, "upper_slack": upper_slack}
    return DichotomyReport("dichotomy", family, t, list(sizes),
                           [float(v) for v in values], seed, config, passed)


def distinctness_demo(p_list: Sequence[float], q_list: Sequence[float],
                      N: int, norm_lengths: Sequence[int] = (16, 64)
                      ) -> DistinctnessReport:
    """Witness-based separation of Lorentz ideal parameter pairs.

    For each unordered pair of parameters, the witness built from the finer
    pair (smaller p, then smaller q) diverges there and converges in the
    coarser ideal whenever p differs or q does; identical pairs report
    identical flags.  Ideal norms of the truncated witness diagonal operator
    are tabulated alongside, at each length of ``norm_lengths``: the witness
    is nonincreasing and positive, so it is that operator's own sequence of
    approximation numbers, and its Lorentz norm is the ideal norm without
    an L x L matrix or an SVD.
    """
    for key, values in (("p_list", p_list), ("q_list", q_list)):
        if not values:
            raise DomainError(f"{key} needs one or more values, got []")
    if not norm_lengths or min(norm_lengths) < 1 or max(norm_lengths) < 4:
        # the norms read a witness of max(norm_lengths) terms, which needs 4
        raise DomainError(f"norm_lengths needs entries >= 1, the largest "
                          f">= 4, got {list(norm_lengths)}")
    pairs_all = [(float(p), float(q)) for p in p_list for q in q_list]
    results = []
    passed = True
    for i, a in enumerate(pairs_all):
        for b in pairs_all[i:]:
            fine, coarse = sorted((a, b))
            _, report = witness_sequence(fine[0], fine[1], N,
                                         probe_params=[fine, coarse])
            flag_fine, flag_coarse = (pr.flag for pr in report.probes)
            entry = {"pair_a": list(fine), "pair_b": list(coarse),
                     "flag_fine": flag_fine, "flag_coarse": flag_coarse,
                     "separated": flag_fine != flag_coarse}
            eps, _ = witness_sequence(fine[0], fine[1], max(norm_lengths))
            entry["ideal_norms"] = {
                str(L): {
                    "fine": lorentz_norm(eps[:L], LorentzParams(*fine)),
                    "coarse": lorentz_norm(eps[:L], LorentzParams(*coarse))}
                for L in norm_lengths}
            # distinct parameter pairs must separate, identical ones must not
            passed &= entry["separated"] == (fine != coarse)
            results.append(entry)
    config = {"p_list": [float(p) for p in p_list],
              "q_list": [float(q) for q in q_list], "N": N,
              "norm_lengths": list(norm_lengths)}
    return DistinctnessReport("distinctness", N, results, config, passed)


# ---------------------------------------------------------------------------
# oracle agreement (closed forms vs descent)
# ---------------------------------------------------------------------------

def _block_weighted_sup(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """max_j W[r % m, j] |A[r, j]| for each row r of A, m = len(W)."""
    # A is column-major, so A.T is C-ordered and its reshape to
    # (d, blocks, m) is a view
    terms = np.abs(A).T.reshape(W.shape[1], -1, len(W))
    terms *= W.T[:, None, :]
    return np.max(terms, axis=0).reshape(-1)


def oracle_agreement(count: int = 200, max_dim: int = 8, seed: int = 0,
                     budget: int = 4) -> dict:
    """Relative gap between the exact strategies and the descent oracle.

    Per sample: a random dimension <= max_dim, a random t in [2^-6, 2^6],
    and either the unweighted (l1, linf) couple or (linf(w0), linf(w1)) with
    seeded log-uniform weights.  Returns the worst relative errors per kind.
    """
    if count < 2:
        raise DomainError(f"count must be >= 2 (samples alternate between "
                          f"the two kinds), got {count}")
    specs = {"l1_linf": [], "weighted_sup": []}
    for i in range(count):
        rng = _sample_rng(seed, i)
        dim = int(rng.integers(1, max_dim + 1))
        t = float(2.0 ** rng.uniform(-6.0, 6.0))
        x = rng.standard_normal(dim)
        kind = "l1_linf" if i % 2 == 0 else "weighted_sup"
        w0 = 2.0 ** rng.uniform(-3.0, 3.0, size=dim)
        w1 = 2.0 ** rng.uniform(-3.0, 3.0, size=dim)
        specs[kind].append((dim, t, x, w0, w1))

    worst = {}
    for kind, items in specs.items():
        # one descent per kind: rows zero-padded to the kind's largest dim,
        # with weight 1 on the padding, where both norms see only zeros
        n = max(item[0] for item in items)
        X = np.zeros((len(items), n))
        W0 = np.ones((len(items), n))
        W1 = np.ones((len(items), n))
        for row, (dim, _, x, w0, w1) in enumerate(items):
            X[row, :dim], W0[row, :dim], W1[row, :dim] = x, w0, w1
        T = np.asarray([item[1] for item in items])
        if kind == "l1_linf":
            exact = _l1_linf_batch(X, T)
            n0 = lambda A: np.sum(np.abs(A), axis=1)
            n1 = lambda A: np.max(np.abs(A), axis=1)
            W0 = W1 = np.ones(n)
        else:
            exact = _weighted_sup_batch(X, T, W0, W1)
            # the descent stacks its starts as blocks of len(X) rows: the
            # weights broadcast over the blocks
            n0 = lambda A: _block_weighted_sup(A, W0)
            n1 = lambda A: _block_weighted_sup(A, W1)
        oracle = decomposition_infimum(X, T, n0, n1, budget=budget,
                                       seed=seed, scale0=W0, scale1=W1)
        keep = exact > 1e-300
        worst[kind] = float(np.max(
            np.abs(oracle[keep] - exact[keep]) / exact[keep]))
    return {"count": count, "max_dim": max_dim, "seed": seed,
            "worst_relative_error": worst}
