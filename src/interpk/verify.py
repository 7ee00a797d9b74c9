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
``DerivedSumIntCouple.surrogate``, the Lorentz sum of
``snum.lorentz_norm``) and holds no formula of its own, but for
``oracle_agreement``'s reference norms: it runs the descent on norms it
writes itself, since that descent is the reference the exact kernels are
accepted against.  That descent, like every other, is the kernel of
``couples.descent_route``, under its size guard.

A report is a dataclass, and one ``to_json`` serializes every report class:
each field but ``trace`` (the per-sample rows, which the CLI writes as a
CSV of their own), with ``passed`` written under "pass".  ``EquivReport``
adds only str keys for ``per_dimension``.

Every pass/fail threshold is a default in its check's signature
(overridable per call), never in the check logic.  ``dichotomy_sweep`` and
``distinctness_demo`` draw nothing and take no seed: their reports are
deterministic under the config alone.  Every other check is deterministic
under (seed, config): its sample set is one sweep of indices
i = 0, ..., count - 1, and sample i draws the stream of
``default_rng(SeedSequence([seed, i]))``, so doubling the sample count
extends the sample set and can only widen the observed band.  That stream
serves sample i at every dimension of a sweep, and each dimension still sees
the stream it would get from a generator of its own: Gaussian draws are
prefix-stable, so dimension d takes the first d of one stream; draws whose
count depends on d restart the stream.  No generator is built per sample:
one vectorized pass (``_seeding.pcg64_states``) gives the PCG64 state numpy
would seed for each index, one uint32 word of the key, and one generator
restarted from each state draws the same streams.  The sparse kind's
supports, numpy's ``Generator.choice`` draws, come from one more vectorized
pass (``_floyd_supports``): the raw words that choice would read from each
sparse sample's stream run through numpy's Floyd-and-shuffle rule for all
samples and dims at once.  Choice itself still draws at d = 1, where it
reads no word, above d = 10000, where numpy shuffles instead, and for the
rare row where numpy would reject a draw.

This module does not postpone its annotations (no ``from __future__ import
annotations``): the CLI reads each check's config keys, defaults and types
off its signature on every call, and evaluated annotations spare that read
compiling every annotation string again.
"""

import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from ._descent import _t_grid
from ._seeding import generator, pcg64_states
from .couples import (Couple, FiniteVector, _l1_linf_batch, _n_window,
                      _parse_p, _weighted_sup_batch, descent_route,
                      k_sphere_sup, l1_linf_couple, power_couple)
from .errors import (DomainError, EmptyReportError, InvariantError,
                     SizeError)
from .interp import (DEFAULT_N_MAX, DEFAULT_N_MIN, _check_theta_q,
                     derived_sum_int_couple, dyadic_norm, dyadic_weights,
                     sequence_couple_k)
from .snum import (LorentzParams, _lorentz_rows, k_operator_diag_batch,
                   lorentz_norm, witness_report, witness_sequence)

__all__ = [
    "EquivReport", "DichotomyReport", "DistinctnessReport",
    "equivalence_report", "check_mainlema",
    "check_sum_intersection", "check_reiteration", "check_konig",
    "dichotomy_sweep", "distinctness_demo", "oracle_agreement",
    "couple_family",
]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class _Report:
    """The serialization every report shares."""

    def to_json(self) -> dict:
        """Every dataclass field but ``trace``, with ``passed`` under
        "pass"."""
        return {"pass" if f.name == "passed" else f.name: getattr(self, f.name)
                for f in fields(self) if f.name != "trace"}


@dataclass
class EquivReport(_Report):
    """Empirical two-sided equivalence constants for one check."""

    check: str
    seed: int
    sample_count: int
    min_ratio: float
    max_ratio: float
    per_dimension: dict
    config: dict
    passed: bool | None = None
    trace: list | None = None

    def __post_init__(self):
        if not (0 < self.min_ratio <= self.max_ratio):
            raise InvariantError("need 0 < min_ratio <= max_ratio")

    def to_json(self) -> dict:
        return {**super().to_json(), "per_dimension": {
            str(k): v for k, v in self.per_dimension.items()}}


@dataclass
class DichotomyReport(_Report):
    check: str
    family: str
    t: float
    sizes: list
    values: list
    config: dict
    passed: bool


@dataclass
class DistinctnessReport(_Report):
    check: str
    length: int
    pairs: list
    config: dict
    passed: bool


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------

# A sweep holds count x (sum of its distinct sizes) float64 sample cells
# at once, and every check then evaluates K of each sample row on a t-grid
# (41 points on the default window), tens of times the sample matrix.  So a
# sweep of more than 2^22 cells (32 MiB of samples, over a GiB downstream)
# is refused before anything is drawn or allocated; the acceptance configs
# use under 2^15.
_SWEEP_MAX_CELLS = 2 ** 22


# rng's annotation is a string: evaluated at import, it would load
# numpy.random (about 5 MB of RSS) in every process that imports interpk
def _uniform(rng: "np.random.Generator", low: float, high: float) -> float:
    """``rng.uniform(low, high)`` for scalar bounds: numpy's own formula,
    so the same double from the same draw, without its argument
    handling."""
    return low + (high - low) * rng.random()


def _columns(pairs: list) -> list:
    """[(a, b, ...), ...] as the arrays [array of a's, array of b's, ...];
    [] for no pairs."""
    return [np.array(column) for column in zip(*pairs)]


# Generator.choice(d, k, replace=False) takes k distinct values by Floyd's
# algorithm when d <= 10000, and above that by shuffling the tail of
# arange(d); ``_floyd_supports`` runs the first only.
_FLOYD_MAX_DIM = 10000


def _floyd_supports(words: np.ndarray, dims: list) -> list:
    """[(support, rejected), ...], one pair per d of ``dims`` (descending,
    each in [2, 10000]): row s of the (S, k) ``support`` is
    ``Generator.choice(d, k, replace=False)``, k = max(1, d // 4), on the
    stream whose first raw words are row s of ``words`` (S, k of dims[0]),
    wherever ``rejected[s]`` is not set.

    This is numpy's own draw, run as numpy ops over all rows at once.
    Floyd's algorithm draws val uniform on [0, j] for j = d - k, ..., d - 1
    and takes j instead when val is already taken; a shuffle then swaps
    position i with one uniform on [0, i], for i = k - 1, ..., 1.  Each of
    these 2k - 1 draws on [0, r] is Lemire's: the next uint32 u (the low
    half of a word, then its high half) gives (u (r + 1)) >> 32, redrawn
    while the low 32 bits of u (r + 1) are below 2^32 mod (r + 1).  The pass
    takes one u per draw and flags the rows where numpy would redraw
    (about 1 row in 350 at d = 10000, 1 in 9 million at d = 64); choice
    must draw those again.  The draws read 2k - 1 uint32, so choice leaves
    the stream k words on.
    """
    S = len(words)
    d = np.repeat(np.array(dims), S)
    k = np.maximum(d // 4, 1)
    top = int(k[0])
    kc = k[:, None]
    t = np.arange(2 * top - 1)
    # draw t of a row is bounded by Floyd's j for t < k, then by the
    # shuffle's i, and past the row's 2k - 1 draws by 0, which never rejects
    r = np.where(t < kc, (d - k)[:, None] + t, np.maximum(2 * kc - 1 - t, 0))
    r = r.astype(np.uint64) + np.uint64(1)
    u = words.astype("<u8", copy=False).view("<u4")[:, :len(t)]
    m = np.tile(u, (len(dims), 1)) * r
    vals = (m >> np.uint64(32)).astype(np.intp)
    rejected = ((m & np.uint64(0xFFFFFFFF)) < np.uint64(2 ** 32) % r).any(1)
    # rows run by k, descending, so the rows still drawing at step s are
    # the first live[s]
    live = np.searchsorted(-k, -np.arange(1, top + 1), side="right")
    # Floyd: each row's d cells of one flat taken-mask start at off
    off = np.cumsum(d) - d
    taken = np.zeros(int(d.sum()), dtype=bool)
    pos = vals[:, :top] + off[:, None]
    first_j = off + d - k
    idx = np.empty((len(d), top), dtype=np.intp)
    for s in range(top):
        n = live[s]
        v = pos[:n, s]
        pick = np.where(taken[v], first_j[:n] + s, v)
        taken[pick] = True
        idx[:n, s] = pick
    idx -= off[:, None]
    # the shuffle, on positions in the flattened idx
    base = np.arange(len(d)) * top
    swap = np.take_along_axis(
        vals, np.minimum(kc + np.arange(top - 1), len(t) - 1), axis=1)
    swap += base[:, None]
    last = base + k - 1
    flat = idx.reshape(-1)
    for s in range(top - 1):
        n = live[s + 1]
        i, j = last[:n] - s, swap[:n, s]
        flat[i], flat[j] = flat[j], flat[i]
    return [(idx[b * S:(b + 1) * S, :max(1, dim // 4)],
             rejected[b * S:(b + 1) * S]) for b, dim in enumerate(dims)]


def _choice_draws(rng: "np.random.Generator", state: dict, d: int,
                  k: int) -> tuple:
    """(support, Gaussian values, scale) of the sparse kind at dim d, by
    ``Generator.choice`` on the stream restarted at ``state``."""
    rng.bit_generator.state = state
    support = rng.choice(d, size=k, replace=False)
    return support, rng.standard_normal(k), 2.0 ** _uniform(rng, -5.0, 5.0)


def _sample_rows(out: dict, states: Iterable[dict]) -> None:
    """Fill row i of each (count, d) zero matrix ``out[d]`` (keys
    ascending) with sample i of the standard mix at dim d; ``states`` are
    the starting states of samples 0, 1, ..., in order.

    The mix is flat, spike, Gaussian, sparse, witness.  Index 0 is always
    the flat vector (the strictness witness shape) and index 1 the first
    basis spike, so the extreme shapes are represented at every sample
    count from 2 on.  One pass over the samples only draws, one stream serving every
    dim: the Gaussian kind writes its draws into the largest dim's matrix
    and each smaller dim takes their first d (normal draws are
    prefix-stable), the sparse kind, whose draws depend on d, restarts at
    each dim, and the witness kind draws the same two values at any d.
    Each matrix is then filled kind by kind, and the witness kind's
    halving row 2^(-j/2) is built once per dim.

    The sparse kind's support is ``Generator.choice(d, max(1, d // 4),
    replace=False)``.  The draw pass reads the words that choice would read
    from each sample's stream instead (one ``random_raw`` per sample and
    dim, which leaves the stream where choice leaves it), and
    ``_floyd_supports`` turns the largest dim's words into the supports of
    every dim in [2, 10000] in one vectorized run of numpy's
    Floyd-and-shuffle rule over all sparse samples.  Afterwards choice
    itself draws the rows that run cannot: every row at d = 1, where choice
    reads no word, and above 10000, where numpy shuffles instead, and each
    row of a rejected draw.
    """
    dims = list(out)
    big = out[dims[-1]]
    rng = generator()
    bits = rng.bit_generator
    # rows of the sparse kind: i % 3 == 1, but row 1 is the spike
    sparse = np.arange(4, len(big), 3)
    # ascending, so the last words read in a sample are the largest dim's
    floyd_dims = [d for d in dims if 2 <= d <= _FLOYD_MAX_DIM]
    gauss, flat, halving = [], [], []     # gauss: rows; others: (row, scale)
    sparse_states, words, draws = [], [], {d: [] for d in floyd_dims}
    for i, state in enumerate(states):
        if i < 2:
            continue
        if i % 3 == 1:
            sparse_states.append(state)
            for d in floyd_dims:
                k = max(1, d // 4)
                bits.state = state
                raw = bits.random_raw(k)
                draws[d].append((rng.standard_normal(k),
                                 2.0 ** _uniform(rng, -5.0, 5.0)))
            if floyd_dims:
                words.append(raw)
            continue
        bits.state = state
        if i % 3 == 0:
            gauss.append(i)
            big[i] = rng.standard_normal(dims[-1])
        else:
            scale = 2.0 ** rng.integers(-3, 4)
            (flat if rng.integers(0, 2) else halving).append((i, scale))
    flat, halving = _columns(flat), _columns(halving)
    floyd_dims.reverse()
    supports = (dict(zip(floyd_dims,
                         _floyd_supports(np.array(words), floyd_dims)))
                if words else {})
    for d in dims:
        M = out[d]
        M[0] = 1.0 / d
        M[1:2, 0] = 1.0
        if gauss and M is not big:
            M[gauss] = big[gauss, :d]
        if len(sparse):
            k = max(1, d // 4)
            if d in supports:
                z, scale = _columns(draws[d])
                support, rejected = supports[d]
                redraw = np.flatnonzero(rejected)
            else:
                support = np.empty((len(sparse), k), dtype=np.intp)
                z, scale = np.empty((len(sparse), k)), np.empty(len(sparse))
                redraw = range(len(sparse))
            for s in redraw:
                support[s], z[s], scale[s] = _choice_draws(
                    rng, sparse_states[s], d, k)
            M[sparse[:, None], support] = z * scale[:, None]
        if flat:
            rows, scale = flat
            M[rows] = (scale / d)[:, None]
        if halving:
            rows, scale = halving
            M[rows] = scale[:, None] * 2.0 ** (-np.arange(d, dtype=float)
                                               / 2.0)


def _nonincreasing_rows(out: dict, states: Iterable[dict]) -> None:
    """Fill row i of each (count, length) matrix ``out[length]`` with
    sample i of the nonincreasing mix at that length; ``states`` are the
    starting states of samples 0, 1, ..., in order.

    The sorted Gaussian kind, whose draws depend on the length, restarts
    its stream at each length; the geometric and power kinds draw the same
    two values at any length, so they draw once.  Each matrix is then
    filled kind by kind.
    """
    lengths = list(out)
    rng = generator()
    geometric, power = [], []     # (row, exponent draw, scale) of each kind
    gauss, gauss_draws = [], {n: [] for n in lengths}
    for i, state in enumerate(states):
        kind = i % 3
        if kind == 0:
            gauss.append(i)
            for length in lengths:
                rng.bit_generator.state = state
                z = rng.standard_normal(length)
                gauss_draws[length].append((z, 2.0 ** rng.integers(-2, 3)))
            continue
        rng.bit_generator.state = state
        # the exponent is drawn before the scale
        if kind == 1:
            geometric.append((i, _uniform(rng, 0.1, 1.5),
                              2.0 ** rng.integers(-2, 3)))
        else:
            power.append((i, _uniform(rng, 0.3, 2.0),
                          2.0 ** rng.integers(-2, 3)))
    geometric, power = map(_columns, (geometric, power))
    for length in lengths:
        M = out[length]
        if gauss:
            z, scale = _columns(gauss_draws[length])
            M[gauss] = (np.sort(np.abs(z), axis=1)[:, ::-1]
                        * scale[:, None])
        if geometric:
            rows, rate, scale = geometric
            M[rows] = (2.0 ** (-rate[:, None] * np.arange(length, dtype=float))
                       * scale[:, None])
        if power:
            rows, exponent, scale = power
            n = np.arange(1, length + 1, dtype=float)
            M[rows] = n ** (-exponent[:, None]) * scale[:, None]


def _sample_sweep(rows, count: int, sizes: Sequence[int],
                  seed: int) -> dict[int, np.ndarray]:
    """{size: (count, size) matrix} whose row i is sample i at that size,
    filled by one ``rows(out, states)`` call for the whole sweep.  Every
    sample set a check draws is such a sweep, of indices 0, ..., count - 1.

    Sample i's stream is that of ``default_rng(SeedSequence([seed, i]))``;
    the cell cap keeps every i far below 2^32, so it is one uint32 word of
    the key.  ``_seeding.pcg64_states`` computes those generators' starting states
    in one vectorized pass per block of indices, and one generator,
    restarted from each state, draws every sample, so the streams are
    numpy's own at a fraction of the cost of a generator per sample.
    ``rows`` draws sample by sample and then fills each size's matrix kind
    by kind in a few vectorized writes; every value is the one a sample
    drawn and built alone gets.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if not sizes or min(sizes) < 1:
        raise DomainError(f"the sweep needs one or more dimensions or "
                          f"lengths, each >= 1, got {list(sizes)}")
    sizes = sorted(set(sizes))
    if count * sum(sizes) > _SWEEP_MAX_CELLS:
        raise SizeError(f"count {count} times the summed sizes "
                        f"{sum(sizes)} exceeds the sweep limit of "
                        f"{_SWEEP_MAX_CELLS} sample cells; lower count")
    out = {size: np.zeros((count, size)) for size in sizes}
    rows(out, pcg64_states(seed, count))
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
    ``budget`` random starts otherwise.  Every t of ``t_grid``, the dropped
    t > 1 too, must pass the one t rule (``_descent._t_grid``)."""
    _t_grid(t_grid)
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
    grid, t = _n_window(n_min, n_max)
    if n_min != -n_max:
        raise DomainError(f"the derived profile needs a symmetric window "
                          f"n_min = -n_max, got n_min = {n_min} and "
                          f"n_max = {n_max}")
    low_half = grid <= 0
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
    p = r if p is None else p
    q = r if q is None else q
    # r first: p and q default to it
    for keys, theta, exponent in ((("alpha", "r"), alpha, r),
                                  (("theta0", "p"), theta0, p),
                                  (("theta1", "q"), theta1, q)):
        _check_theta_q(theta, exponent, keys)
    grid, t = _n_window(n_min, n_max)
    w0 = dyadic_weights(theta0, grid)
    w1 = dyadic_weights(theta1, grid)
    theta_bar = (1.0 - alpha) * theta0 + alpha * theta1
    t_grid = t[None, :]
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
    _check_theta_q(theta, q)
    inv_p = (1.0 - theta) / _parse_p(p0, "p0") + theta / _parse_p(p1, "p1")
    params = LorentzParams(1.0 / inv_p if inv_p else math.inf, q)
    p = params.p
    grid, t = _n_window(n_min, n_max)
    t_grid = t[None, :]

    def pair(length, S):
        KK = k_operator_diag_batch(S, t_grid, p0, p1, seed=seed)
        return dyadic_norm(KK, grid, theta, q), _lorentz_rows(S, p, q)

    # the witness first: a witness_length above snum.WITNESS_MAX_N is
    # refused before the sweep draws anything
    witness = witness_report(p, q, witness_length,
                             probe_params=[(p, q), (p, 2.0 * q)])
    report = _sweep_report("konig", seed, _nonincreasing_rows, count,
                           lengths, pair, keep_trace)
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
                    lower: float = 0.99,
                    upper_slack: float = 1e-9) -> DichotomyReport:
    """Sphere sup of K(., t) across growing windows.

    Each value is ``k_sphere_sup`` of the family's couple, the max of
    K(e_k, t) / K(e_k, 1) over the window's spikes; on both families that
    is the sup over the whole sum-space sphere, so nothing is drawn.  For
    the non-ordered family it must stay >= ``lower`` (the sum space differs
    from both endpoints, so the normalized K cannot drop); for the ordered
    family it must stay below t (consistent with A0+A1 = A1).  The ordered
    family's gate holds for t <= 1 only, so a larger t is refused.
    """
    if not sizes:
        raise DomainError("sizes needs one or more window sizes, got []")
    if family == "l1_linf" and t > 1:
        raise DomainError(f"t must be <= 1 for the ordered family l1_linf, "
                          f"got {t}")
    values = [k_sphere_sup(couple_family(family, size), t) for size in sizes]
    if family == "l1_geometric":
        passed = all(v >= lower for v in values)
    else:
        # ordered: K(x, t) <= t ||x||_{A1} <= t K(x, 1) for t <= 1
        bound = min(1.0, t) * (1.0 + upper_slack)
        passed = all(v <= bound for v in values)
    config = {"family": family, "t": t, "sizes": list(sizes),
              "lower": lower, "upper_slack": upper_slack}
    return DichotomyReport("dichotomy", family, t, list(sizes), values,
                           config, passed)


def distinctness_demo(p_list: Sequence[float], q_list: Sequence[float],
                      N: int, norm_lengths: Sequence[int] = (16, 64)
                      ) -> DistinctnessReport:
    """Witness-based separation of Lorentz ideal parameter pairs.

    For each unordered pair of parameters, the witness built from the finer
    pair (smaller p, then smaller q) diverges there and converges in the
    coarser ideal whenever p differs or q does; identical pairs report
    identical flags.  One witness pass runs per distinct fine pair, probing
    the fine pair and each of its coarse partners once; a probe's sums do
    not depend on the other probes, so each flag is the one a pass of its
    own would give.  Ideal norms of the truncated witness diagonal operator
    are tabulated alongside, at each length of ``norm_lengths``: the witness
    is nonincreasing and positive, so it is that operator's own sequence of
    approximation numbers, and its Lorentz norm is the ideal norm without
    an L x L matrix or an SVD.  Nothing is drawn.
    """
    for key, values in (("p_list", p_list), ("q_list", q_list)):
        if not values:
            raise DomainError(f"{key} needs one or more values, got []")
    if not norm_lengths or min(norm_lengths) < 1 or max(norm_lengths) < 4:
        # the norms read a witness of max(norm_lengths) terms, which needs 4
        raise DomainError(f"norm_lengths needs entries >= 1, the largest "
                          f">= 4, got {list(norm_lengths)}")
    pairs_all = [(float(p), float(q)) for p in p_list for q in q_list]
    pairs = [tuple(sorted((a, b)))
             for i, a in enumerate(pairs_all) for b in pairs_all[i:]]
    # fine pair -> the probes of its witness: itself, then its partners
    probes: dict = {}
    for fine, coarse in pairs:
        probes.setdefault(fine, {fine: None})[coarse] = None
    flags, witnesses = {}, {}
    for fine, params in probes.items():
        report = witness_report(fine[0], fine[1], N,
                                probe_params=list(params))
        flags.update(((fine, param), probe.flag)
                     for param, probe in zip(params, report.probes))
        witnesses[fine], _ = witness_sequence(fine[0], fine[1],
                                              max(norm_lengths))
    results = []
    passed = True
    for fine, coarse in pairs:
        flag_fine, flag_coarse = flags[fine, fine], flags[fine, coarse]
        entry = {"pair_a": list(fine), "pair_b": list(coarse),
                 "flag_fine": flag_fine, "flag_coarse": flag_coarse,
                 "separated": flag_fine != flag_coarse}
        eps = witnesses[fine]
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
    return np.maximum.reduce(terms, axis=0).reshape(-1)


def oracle_agreement(count: int = 200, max_dim: int = 8, seed: int = 0,
                     budget: int = 4) -> dict:
    """Relative gap between the exact strategies and the descent oracle.

    Per sample: a random dimension <= max_dim, a random t in [2^-6, 2^6],
    and either the unweighted (l1, linf) couple or (linf(w0), linf(w1)) with
    seeded log-uniform weights.  Returns the worst relative errors per kind.
    The reference is one ``couples.descent_route`` kernel call per kind on
    the kind's norms, whose probe on e_j gives the clip scales (the
    weights, 1 on the padding); so a kind whose largest sampled dimension
    exceeds ``couples.ORACLE_MAX_DIM`` raises SizeError.
    """
    if count < 2:
        raise DomainError(f"count must be >= 2 (samples alternate between "
                          f"the two kinds), got {count}")
    specs = {"l1_linf": [], "weighted_sup": []}
    rng = generator()
    for i, state in enumerate(pcg64_states(seed, count)):
        rng.bit_generator.state = state
        dim = int(rng.integers(1, max_dim + 1))
        t = float(2.0 ** _uniform(rng, -6.0, 6.0))
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
            n0 = lambda A: np.add.reduce(np.abs(A), axis=1)
            n1 = lambda A: np.maximum.reduce(np.abs(A), axis=1)
        else:
            exact = _weighted_sup_batch(X, T, W0, W1)
            # the descent stacks its starts, and its probe of e_j, as blocks
            # of len(X) rows: the weights broadcast over the blocks, and the
            # probe reads them back as the clip scales
            n0 = lambda A: _block_weighted_sup(A, W0)
            n1 = lambda A: _block_weighted_sup(A, W1)
        oracle = descent_route(n0, n1, budget=budget, seed=seed).kernel(X, T)
        keep = exact > 1e-300
        worst[kind] = float(np.max(
            np.abs(oracle[keep] - exact[keep]) / exact[keep]))
    return {"count": count, "max_dim": max_dim, "seed": seed,
            "worst_relative_error": worst}
