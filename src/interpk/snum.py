"""Approximation numbers of matrix operators, Lorentz sequence quasi-norms,
and the diagonal-restricted K-functional between two lp ideals.

Between Euclidean spaces the n-th approximation number of a matrix equals
its n-th singular value, so the sequence is computed exactly by SVD.  The
Lorentz quasi-norm of a nonincreasing sequence s is

    ||s||_{p,q} = ( sum_n (n^{1/p - 1/q} s_n)^q )^{1/q},

and an operator's ideal quasi-norm is the Lorentz norm of its approximation
numbers.  Witness sequences eps_n = n^{-1/p} (1 + ln n)^{-1/q} separate the
ideals: their membership probes carry partial sums together with trend flags
(finite data cannot prove summability, so the flags are indicators with
fixed thresholds, not proofs).

Every witness builder (``witness_sequence``, ``witness_report``,
``witness_trace``, ``witness_samples``) reads a probe's partial sums from
one function, ``_power_log_sums``, without a pass over the N terms.  A
probe's summand is taken in closed form, n^a (1 + ln n)^b with
a = q*(1/p* - 1/p) - 1 and b = -q*/q, and its partial sum S(K) is an exact
head of at most ``_SUM_HEAD`` terms plus an Euler-Maclaurin tail.  So a
report reads S at N // 2 and at N at a cost that does not grow with N, and
the reports of all builders agree bit for bit.  ``witness_sequence`` is
the one builder that returns all N terms; it computes eps over blocks of
``_WITNESS_BLOCK`` indices, so it holds eps plus about one block.
``witness_trace`` and ``witness_samples`` share one core,
``_sampled_trace``, which computes eps_n, the summand and S at the sampled
indices only (the trace is the samples at stride 1).  ``witness_report``
computes no eps at all, so the callers that read only the membership flags
(``verify``'s ``konig`` and ``distinctness``) hold no N-length array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .couples import _finite_exponent, _integer, stable_lp_sum
from .errors import DomainError, InvariantError, SizeError
from .interp import sequence_couple_k

__all__ = [
    "MatrixOperator", "SNumSeq", "LorentzParams", "MembershipProbe",
    "WitnessReport", "approx_numbers", "lorentz_norm", "ideal_norm",
    "diag_operator", "witness_sequence", "witness_report", "k_operator_diag",
    "DIVERGING", "CONVERGING", "INDETERMINATE", "WITNESS_MAX_N",
]

DIVERGING = "diverging"
CONVERGING = "converging"
INDETERMINATE = "indeterminate"

# trend thresholds: absolute increment for "diverging" (at most: past N of
# about 2^19 it follows the slowest divergent summand, see
# ``_membership``), tail share for "converging"; indicators only, stated as
# such in reports
DIVERGENCE_INCREMENT = 0.05
CONVERGENCE_TAIL_RATIO = 0.01
# the share of ln(G(N) / G(N // 2)) a diverging probe must add
_DIVERGENCE_SHARE = 1.0 - 2.0 ** -16

# indices per block of ``witness_sequence``'s eps, and counts per block of
# ``_power_log_sums``
_WITNESS_BLOCK = 4096
# terms of a witness sum added one by one before Euler-Maclaurin takes over
_SUM_HEAD = 1024
# The 4-point Gauss-Legendre rule on [0, 1], for the pieces of the
# Euler-Maclaurin integral.  On [-1, 1] its nodes are
# +-sqrt(3/7 -+ (2/7) sqrt(6/5)) with weights (18 -+ sqrt(30)) / 36; the
# closed form needs no eigensolver (a first LAPACK call adds about 0.7 MB
# of peak RSS to a process).
_GL_OUTER = math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5))
_GL_INNER = math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5))
_GL_NODES = np.array([(1 - _GL_OUTER) / 2, (1 - _GL_INNER) / 2,
                      (1 + _GL_INNER) / 2, (1 + _GL_OUTER) / 2])
_GL_WEIGHTS = np.array([(18 - math.sqrt(30)) / 72, (18 + math.sqrt(30)) / 72,
                        (18 + math.sqrt(30)) / 72, (18 - math.sqrt(30)) / 72])
# The longest witness any builder takes.  ``witness_sequence`` returns its
# N terms (128 MiB at 2^24; no other builder stores them).  At 2^24 the
# sampled rows of ``interpk witness`` take about 0.3 ms, ``witness_report``
# with one probe 0.12 ms and ``witness_sequence`` with two probes 0.17 s,
# nearly all of it eps (2 vCPUs, numpy 2.4).  A larger N is refused with
# SizeError before anything is allocated.
WITNESS_MAX_N = 2 ** 24


@dataclass(frozen=True)
class MatrixOperator:
    """A matrix acting between finite Euclidean spaces."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2:
            raise InvariantError("matrix entries must be two-dimensional")
        if not np.all(np.isfinite(arr)):
            raise InvariantError("matrix entries must be finite")
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def operator_norm(self) -> float:
        if self.entries.size == 0:
            return 0.0
        return float(np.linalg.svd(self.entries, compute_uv=False)[0])


@dataclass(frozen=True)
class SNumSeq:
    """A nonincreasing nonnegative s-number sequence."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise InvariantError("s-number sequence must be one-dimensional")
        scale = float(np.max(v, initial=0.0))
        slack = 1e-12 * max(scale, 1.0)
        if np.any(v < -slack):
            raise InvariantError("s-numbers must be nonnegative")
        if np.any(np.diff(v) > slack):
            raise InvariantError("s-numbers must be nonincreasing")
        object.__setattr__(self, "values", np.maximum(v, 0.0))

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class LorentzParams:
    """Lorentz exponents p, q in (0, inf) (``couples._finite_exponent``)."""

    p: float
    q: float

    def __post_init__(self):
        for name in ("p", "q"):
            object.__setattr__(self, name,
                               _finite_exponent(getattr(self, name), name))


def approx_numbers(T: MatrixOperator) -> SNumSeq:
    """Approximation numbers of T between Euclidean spaces (= singular values)."""
    if T.entries.size == 0:
        return SNumSeq(np.zeros(min(T.rows, T.cols)))
    return SNumSeq(np.linalg.svd(T.entries, compute_uv=False))


def lorentz_norm(s: SNumSeq | Sequence[float], params: LorentzParams) -> float:
    """Lorentz quasi-norm of a nonincreasing sequence over its finite length."""
    if not isinstance(s, SNumSeq):
        s = SNumSeq(np.asarray(s, dtype=float))
    return float(_lorentz_rows(s.values, params.p, params.q))


def _lorentz_rows(S: np.ndarray, p: float, q: float) -> np.ndarray:
    """(sum_n (n^{1/p - 1/q} s_n)^q)^{1/q} along the last axis of S, the max
    for q = inf: the Lorentz sum of ``lorentz_norm`` and of ``verify``'s
    konig check, one row or many."""
    n = np.arange(1, S.shape[-1] + 1, dtype=float)
    return stable_lp_sum(n ** (1.0 / p - 1.0 / q) * S, q)


def ideal_norm(T: MatrixOperator, params: LorentzParams) -> float:
    """Lorentz norm of the approximation numbers of T."""
    return lorentz_norm(approx_numbers(T), params)


def diag_operator(sigma) -> MatrixOperator:
    """Diagonal operator with prescribed approximation numbers.

    ``sigma`` must be nonincreasing and nonnegative; the round trip
    approx_numbers(diag_operator(sigma)) == sigma is exact.
    """
    seq = SNumSeq(np.asarray(sigma, dtype=float))
    return MatrixOperator(np.diag(seq.values))


@dataclass(frozen=True)
class MembershipProbe:
    """Partial sums of (n^{1/p - 1/q'} eps_n)^{q'} against a target ideal."""

    p: float
    q: float
    half_sum: float
    total_sum: float
    flag: str


@dataclass(frozen=True)
class WitnessReport:
    p: float
    q: float
    length: int
    probes: tuple[MembershipProbe, ...]


def _membership(p_star: float, q_star: float, half: float, total: float,
                N: int) -> MembershipProbe:
    """The probe with its trend flag, by the rule in ``witness_sequence``.

    A probe reads ``diverging`` when its increment I = S(N) - S(N // 2)
    is at least min(DIVERGENCE_INCREMENT, kappa * l(N)), with
    l(N) = ln(G(N) / G(M)), G(n) = 1 + ln n and M = N // 2.  l(N) is the
    integral from M to N of f(x) = 1 / (x G(x)), the slowest divergent
    summand n^-1 G^b (b = -1, the default probe's; b > -1 adds more).
    Its sum grows like ln G(N), and l(N) falls below 0.05 past
    N = 2^19 (0.0478 at 2^20, 0.0401 at 2^24), so a fixed 0.05 read it
    ``indeterminate`` there.  kappa comes from the Euler-Maclaurin gap
    between f's sum and its integral: f is decreasing and convex, so the
    trapezoid rule overestimates each unit step's integral, and
    l(N) <= I + (f(M) - f(N)) / 2.  With l(N) >= ln 2 / (G(M) + ln 2),
    the relative gap f(M) / (2 l(N)) is below (1 + ln 2 / G(M)) /
    (2 M ln 2) < 1 / M for M >= 4.  kappa * l(N) < 0.05 only where
    N > 2^19, so M >= 2^18 and the gap is below 2^-18; kappa = 1 - 2^-16
    leaves three quarters of its margin to the rounding of the sums (about
    1e-15 of S(N)).  For N <= 2^19, kappa * l(N) >= 0.05015, so the
    threshold there is DIVERGENCE_INCREMENT alone.

    What it cannot separate, at N = 2^24 and a = -1 (bisected on the
    computed sums): a convergent b in [-1.0000053, -1) still reads
    ``diverging``, its increment within 1 - kappa of l(N); b in
    (-1.0771, -1.0000053) reads ``indeterminate``; ``converging`` needs
    b <= -1.0771.
    """
    increment = total - half
    G = 1.0 + math.log(N)
    if increment >= min(DIVERGENCE_INCREMENT, _DIVERGENCE_SHARE
                        * math.log(G / (1.0 + math.log(N // 2)))):
        flag = DIVERGING
    elif increment <= CONVERGENCE_TAIL_RATIO * total:
        flag = CONVERGING
    else:
        flag = INDETERMINATE
    return MembershipProbe(float(p_star), float(q_star), half, total, flag)


def _compensated_cumsum(terms: np.ndarray) -> np.ndarray:
    """The running sums of ``terms``, each within about one rounding of the
    exact sum: ``np.cumsum`` plus the running sum of each step's rounding
    error, which TwoSum gives exactly."""
    sums = np.cumsum(terms)
    before = np.concatenate(([0.0], sums[:-1]))
    step = sums - before
    return sums + np.cumsum((before - (sums - step)) + (terms - step))


def _piece_integrals(lam: float, b: float, G: np.ndarray,
                     ell: np.ndarray) -> np.ndarray:
    """int_0^ell e^{lam h} (1 + h / G)^b dh for each pair (G, ell), by the
    4-point Gauss-Legendre rule on [0, ell].  The node values are added in
    node order, element by element, so each integral depends on its own
    pair only."""
    h = np.multiply.outer(_GL_NODES, ell)
    terms = _GL_WEIGHTS[:, None] * np.exp(lam * h + b * np.log1p(h / G))
    return ell * sum(terms)


def _end_terms(a: float, b: float, n, G):
    """Euler-Maclaurin's end terms f/2 + f'/12 - f'''/720 at n, over f(n),
    for f(x) = x^a (1 + ln x)^b with G = 1 + ln n: with c = a + b/G,
    f' = f c / n and f''' = f P / n^3, where
    P = c (c - 1) (c - 2) - 3 (b / G^2) (c - 1) + 2 b / G^3."""
    u = 1.0 / G
    bu = b * u
    c = a + bu
    P = c * (c * (c - 3.0) + 2.0) + bu * u * (2.0 * u - 3.0 * (c - 1.0))
    v = 1.0 / n
    return 0.5 + v * (c / 12.0 - v * v * P / 720.0)


def _power_log_sums(a: float, b: float, K: np.ndarray) -> np.ndarray:
    """S(K) = sum_{n <= K} n^a (1 + ln n)^b at each count of the sorted
    integer array K (entries >= 1).

    The first H = min(``_SUM_HEAD``, max K) terms are added exactly, by a
    compensated cumsum.  Past them S(K) = S(H) + int_H^K f + E(K) - E(H):
    Euler-Maclaurin with the end terms E = f/2 + f'/12 - f'''/720
    (``_end_terms``).  Its remainder is at most about 3.3e-5 times the
    integral of |f^(6)|, and past n = H = 1024 that lies far below the
    rounding of the sum while |a| and |b| stay below about 10.  The integral is taken in s = ln x, where past a grid point
    x it is x f(x) int e^{(a + 1) h} (1 + h / G)^b dh.  The grid is fixed,
    x_j = rint(H 2^{j / k}), with k pieces per octave so that a piece spans
    at most min(1/16, 1 / (8 rate)) in ln x, where
    rate = max(a + 1, 0) + |b| / (1 + ln H), and k is at most 512.  Each
    piece takes 4 Gauss-Legendre nodes (``_piece_integrals``),
    and so does the partial piece from the grid point below each K.  So
    S(K) is a function of K alone, not of the other counts or of max K.
    The counts past the head are taken ``_WITNESS_BLOCK`` at a time.  The
    sums are within about 1e-15 relative of ``math.fsum`` of the terms.
    Every term is positive, so a sum past the float range is inf, as the
    plain sum of the terms is.
    """
    K = np.asarray(K)
    H = min(_SUM_HEAD, int(K[-1]))
    n = np.arange(1, H + 1, dtype=float)
    G = 1.0 + np.log(n)
    terms = n ** a * G ** b
    out = np.empty(len(K))
    # past the float range inf - inf gives NaN, which is set to inf below
    with np.errstate(invalid="ignore"):
        head = _compensated_cumsum(terms)
        cut = int(np.searchsorted(K, H, "right"))
        out[:cut] = head[K[:cut] - 1]
        if cut < len(K):
            lam = a + 1.0
            rate = max(lam, 0.0) + abs(b) / G[-1]
            per_octave = min(512, math.ceil(math.log(2.0)
                                            * max(16.0, 8.0 * rate)))
            steps = np.arange(math.ceil(per_octave * math.log2(K[-1] / H))
                              + 1)
            x = np.rint(H * np.exp2(steps / per_octave))
            Gx = 1.0 + np.log(x)
            xf = x * (x ** a * Gx ** b)
            pieces = xf[:-1] * _piece_integrals(lam, b, Gx[:-1],
                                                np.log(x[1:] / x[:-1]))
            below = np.concatenate(([0.0], _compensated_cumsum(pieces)))
            base = head[-1] - terms[-1] * _end_terms(a, b, x[0], Gx[0])
            for lo in range(cut, len(K), _WITNESS_BLOCK):
                k = K[lo:lo + _WITNESS_BLOCK].astype(float)
                j = np.searchsorted(x, k, "right") - 1
                Gk = 1.0 + np.log(k)
                out[lo:lo + len(k)] = (
                    base + below[j]
                    + xf[j] * _piece_integrals(lam, b, Gx[j], np.log(k / x[j]))
                    + k ** a * Gk ** b * _end_terms(a, b, k, Gk))
    out[np.isnan(out)] = np.inf
    return out


class _WitnessPass:
    """The checked arguments of one witness and its probes.

    Every witness builder constructs one, so the refusals of
    ``_check_witness`` hold for all of them.  The summand of a probe
    (p*, q*), (n^{1/p* - 1/q*} eps_n)^{q*}, is taken in closed form as
    n^a G^b with G = 1 + ln n, a = q*(1/p* - 1/p) - 1 and b = -q*/q, so the
    default probe p* = p has a = -1 exactly; ``powers`` holds each probe's
    (a, b).  ``eps(n, G)`` is eps_n at any indices n.  ``report()`` reads
    each probe's sums at n = N // 2 and n = N from ``_power_log_sums``,
    which adds no term past its head, so the report of every builder is
    the same whatever else the builder computes.
    """

    def __init__(self, p: float, q: float, N: int,
                 probe_params: Sequence[tuple[float, float]]):
        _check_witness(p, q, N, probe_params)
        self.p, self.q, self.N = p, q, N
        self.probe_params = list(probe_params)
        self.powers = [(q_star * (1.0 / p_star - 1.0 / p) - 1.0, -q_star / q)
                       for p_star, q_star in self.probe_params]

    def eps(self, n: np.ndarray, G: np.ndarray) -> np.ndarray:
        """eps_n = n^{-1/p} G^{-1/q} at the indices n, with G = 1 + ln n."""
        return n ** (-1.0 / self.p) * G ** (-1.0 / self.q)

    def report(self, sums=None) -> WitnessReport:
        """The report from each probe's (S(N // 2), S(N)): ``sums`` when
        the caller has them, else read from ``_power_log_sums``."""
        if sums is None:
            counts = np.array([self.N // 2, self.N])
            sums = [_power_log_sums(a, b, counts).tolist()
                    for a, b in self.powers]
        probes = tuple(_membership(p_star, q_star, *pair, self.N)
                       for (p_star, q_star), pair
                       in zip(self.probe_params, sums))
        return WitnessReport(float(self.p), float(self.q), int(self.N), probes)


def _check_witness(p: float, q: float, N: int,
                   probe_params: Sequence[tuple[float, float]]) -> None:
    """Refuse a p or q that is not a positive number (a bool is none), an
    N that ``couples._integer`` refuses, N < 4, N above ``WITNESS_MAX_N``
    and a probe exponent that ``couples._finite_exponent`` refuses, the
    rule of ``LorentzParams``."""
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               and v > 0 for v in (p, q)):
        raise DomainError("p and q must be positive numbers")
    if _integer(N, "N") < 4:
        raise DomainError("need N >= 4")
    if N > WITNESS_MAX_N:
        raise SizeError(f"witness length N = {N} exceeds the cap "
                        f"{WITNESS_MAX_N}")
    for p_star, q_star in probe_params:
        _finite_exponent(p_star, "probe exponent p_star")
        _finite_exponent(q_star, "probe exponent q_star")


def witness_sequence(p: float, q: float, N: int,
                     probe_params: Sequence[tuple[float, float]] = ()):
    """The separating sequence eps_n = n^{-1/p} (1 + ln n)^{-1/q}, n = 1..N.

    For each probe (p*, q*) the summand (n^{1/p* - 1/q*} eps_n)^{q*} is
    summed; a probe is flagged ``diverging`` when the second half of the
    range still adds at least min(0.05, kappa ln(G(N) / G(N // 2))) to the
    partial sum, G(n) = 1 + ln n and kappa = 1 - 2^-16 (``_membership``:
    the second term is the slowest divergent summand's share, and sets the
    threshold only past N of about 2^19), ``converging`` when that tail is
    at most 1% of the total, and ``indeterminate`` in between.
    eps is computed over blocks of ``_WITNESS_BLOCK`` indices, so besides
    ``eps`` the call holds about one block, whatever N and the number of
    probes; the sums come from ``_power_log_sums``.
    """
    witness = _WitnessPass(p, q, N, probe_params)
    eps = np.empty(N)
    for start in range(0, N, _WITNESS_BLOCK):
        n = np.arange(start + 1, min(start + _WITNESS_BLOCK, N) + 1,
                      dtype=float)
        eps[start:start + len(n)] = witness.eps(n, 1.0 + np.log(n))
    return eps, witness.report()


def witness_report(p: float, q: float, N: int,
                   probe_params: Sequence[tuple[float, float]] = ()
                   ) -> WitnessReport:
    """The report of ``witness_sequence(p, q, N, probe_params)`` without
    its eps: no eps_n is computed, and each probe's two sums cost the same
    whatever N."""
    return _WitnessPass(p, q, N, probe_params).report()


def _sampled_trace(p: float, q: float, N: int, p_star: float,
                   q_star: float, stride: int):
    """The trace columns (n, eps_n, summand, partial_sum) at n = 1,
    1 + stride, 1 + 2 stride, ... and n = N, with the report of the probe
    (p*, q*): the one core of ``witness_trace`` and ``witness_samples``.

    eps_n, the summand and the partial sum are computed at the sampled
    indices only, so the memory is a small multiple of the output's.  One
    ``_power_log_sums`` call takes the sampled counts with N // 2 among
    them, and the report reads S(N // 2) and S(N) from it: S(K) depends on
    K alone.  The arguments are checked before any index array is
    allocated.
    """
    witness = _WitnessPass(p, q, N, [(p_star, q_star)])
    idx = np.arange(1, N + 1, stride)
    if (N - 1) % stride:
        idx = np.append(idx, N)
    n = idx.astype(float)
    G = 1.0 + np.log(n)
    (a, b), = witness.powers
    half = int(np.searchsorted(idx, N // 2))
    sums = _power_log_sums(a, b, np.insert(idx, half, N // 2))
    columns = (idx, witness.eps(n, G), n ** a * G ** b, np.delete(sums, half))
    return columns, witness.report([sums[[half, -1]].tolist()])


def witness_trace(p: float, q: float, N: int, p_star: float, q_star: float):
    """Per-index trace (n, eps_n, summand, partial_sum) for CSV export:
    ``witness_samples`` at stride 1, as arrays."""
    return _sampled_trace(p, q, N, p_star, q_star, 1)[0]


def witness_samples(p: float, q: float, N: int, p_star: float, q_star: float,
                    stride: int):
    """The trace rows (n, eps_n, summand, partial_sum) at n = 1, 1 + stride,
    1 + 2 stride, ... and n = N, as Python numbers, with the report of the
    probe (p*, q*).  The memory is a small multiple of the output's, not
    that of N-length arrays (see ``_sampled_trace``)."""
    columns, report = _sampled_trace(p, q, N, p_star, q_star, stride)
    return list(zip(*(col.tolist() for col in columns))), report


def k_operator_diag(sigma, t: float, p0: float, p1: float,
                    budget: int = 8, seed: int = 0) -> float:
    """inf over entrywise splits sigma = d0 + d1, d0, d1 >= 0 of
    ||d0||_{lp0} + t ||d1||_{lp1}.

    For diagonal operators this bounds the operator K-functional between the
    two lp ideals from above.  The value is ``interp.sequence_couple_k`` with
    unit weights, so the route table in the ``couples`` module docstring
    picks the kernel: exact for {1, inf}, (inf, inf), {1, p} with
    1 < p < inf and p0 = p1 = 1, the coordinatewise power surrogate for
    other equal exponents, and the seeded descent upper bound for every
    other pair (including (1, p) with p < 1, where the clip family is not
    optimal).  It is the one-row case of ``k_operator_diag_batch``, so the
    exact routes take any length, and pairs that descend refuse sequences
    longer than ``couples.ORACLE_MAX_DIM`` (16) with SizeError
    (``couples.descent_route``).
    """
    x = SNumSeq(np.asarray(sigma, dtype=float)).values
    return float(k_operator_diag_batch(x[None, :], t, p0, p1,
                                       budget=budget, seed=seed)[0])


def k_operator_diag_batch(X: np.ndarray, T, p0: float, p1: float,
                          budget: int = 8, seed: int = 0) -> np.ndarray:
    """Batched form of k_operator_diag over rows of nonnegative sequences.

    ``T`` is a scalar or one t per row (an (m,) result), or an (m, k)/(1, k)
    grid (an (m, k) result) answered by one kernel or descent call: a route
    gives the bits of per-t calls, the descent at most the per-t values
    (``couples.descent_route``).  Rows of no entries give zeros of that
    shape.  Pairs that descend refuse rows longer than
    ``couples.ORACLE_MAX_DIM`` (``couples.descent_route``).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    ones = np.ones(X.shape[1])
    return sequence_couple_k(X, T, p0, ones, p1, ones, budget=budget,
                             seed=seed)
