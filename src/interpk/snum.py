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
``witness_trace``, ``witness_samples``) reads one pass over blocks of
``_WITNESS_BLOCK`` indices.  A probe's summand is taken in closed form,
n^a (1 + ln n)^b with a = q*(1/p* - 1/p) - 1 and b = -q*/q, and eps_n only
where a builder returns it.  Each probe's block sum is one ``np.add.reduce``
added to the sum carried across blocks (split at N // 2), so the probe sums
at N // 2 and N follow one rule in every builder; the returned partial sums
are the carry plus a cumsum within the block.  ``witness_trace`` and
``witness_samples`` share one core, ``_sampled_trace``, which fills eps_n,
the summand and the partial sum at a set of sampled indices: the trace is
the samples at stride 1.  A witness's memory is its output (eps for
``witness_sequence``, the sampled columns for ``witness_trace`` and
``witness_samples``) plus a few blocks, not several N-length arrays.
``witness_report`` is the storage-free probe pass: it computes no eps and
keeps no term, only each probe's sums at N // 2 and N, so the callers that
read only the membership flags (``verify``'s ``konig`` and
``distinctness``) hold a few blocks whatever N.
"""

from __future__ import annotations

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

# trend thresholds: absolute increment for "diverging", tail share for
# "converging"; indicators only, stated as such in reports
DIVERGENCE_INCREMENT = 0.05
CONVERGENCE_TAIL_RATIO = 0.01

# indices per block of a witness pass
_WITNESS_BLOCK = 4096
# The longest witness any builder takes.  ``witness_sequence`` returns its
# N terms (128 MiB at 2^24; ``witness_report`` stores none), and a pass is
# N / 4096 blocks of numpy calls.  At 2^24 the sampled rows of ``interpk
# witness`` take about 0.14 s, ``witness_report`` with one probe 0.13 s and
# ``witness_sequence`` with two probes 0.41 s (2 vCPUs, numpy 2.4).  A
# larger N is refused with SizeError before anything is allocated.
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
    n = np.arange(1, len(s) + 1, dtype=float)
    terms = n ** (1.0 / params.p - 1.0 / params.q) * s.values
    return float(stable_lp_sum(terms, params.q))


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


def _membership(p_star: float, q_star: float, half: float,
                total: float) -> MembershipProbe:
    """The probe with its trend flag, by the rule in ``witness_sequence``."""
    increment = total - half
    if increment >= DIVERGENCE_INCREMENT:
        flag = DIVERGING
    elif increment <= CONVERGENCE_TAIL_RATIO * total:
        flag = CONVERGING
    else:
        flag = INDETERMINATE
    return MembershipProbe(float(p_star), float(q_star), half, total, flag)


class _WitnessPass:
    """One pass over n = 1..N in blocks of ``_WITNESS_BLOCK`` indices.

    Iterating yields ``(start, n, G, summands, carries)`` per block, for
    n = start + 1, ..., start + len(n): G = 1 + ln n, each probe's summands
    and each probe's sum over 1..start.  The summand of a probe (p*, q*),
    (n^{1/p* - 1/q*} eps_n)^{q*}, is taken in closed form as n^a G^b with
    a = q*(1/p* - 1/p) - 1 and b = -q*/q, so the default probe p* = p has
    a = -1 exactly.  ``eps(n, G)`` is eps_n at any of the block's indices,
    for the builders that return it.  Each probe's block sum is one
    ``np.add.reduce`` added to the carry (the block holding n = N // 2 is
    reduced in two parts, split there), so ``report()`` reads the sums at
    n = N // 2 and n = N by the same rule whichever builder iterates.
    Every witness builder constructs one, so the refusals of
    ``_check_witness`` hold for all of them.
    """

    def __init__(self, p: float, q: float, N: int,
                 probe_params: Sequence[tuple[float, float]]):
        _check_witness(p, q, N, probe_params)
        self.p, self.q, self.N = p, q, N
        self.probe_params = list(probe_params)
        self.half: list[float] = []
        self.total: list[float] = []

    def eps(self, n: np.ndarray, G: np.ndarray) -> np.ndarray:
        """eps_n = n^{-1/p} G^{-1/q} at the indices n, with G = 1 + ln n."""
        return n ** (-1.0 / self.p) * G ** (-1.0 / self.q)

    def __iter__(self):
        mid = self.N // 2
        powers = [(q_star * (1.0 / p_star - 1.0 / self.p) - 1.0,
                   -q_star / self.q) for p_star, q_star in self.probe_params]
        carries = [0.0] * len(powers)
        for start in range(0, self.N, _WITNESS_BLOCK):
            n = np.arange(start + 1, min(start + _WITNESS_BLOCK, self.N) + 1,
                          dtype=float)
            G = 1.0 + np.log(n)
            summands = [n ** a * G ** b for a, b in powers]
            yield start, n, G, summands, carries
            cut = mid - start
            if 0 < cut <= len(n):
                self.half = [c + float(np.add.reduce(s[:cut]))
                             for c, s in zip(carries, summands)]
                carries = [h + float(np.add.reduce(s[cut:]))
                           for h, s in zip(self.half, summands)]
            else:
                carries = [c + float(np.add.reduce(s))
                           for c, s in zip(carries, summands)]
        self.total = carries

    def report(self) -> WitnessReport:
        probes = tuple(_membership(p_star, q_star, half, total)
                       for (p_star, q_star), half, total
                       in zip(self.probe_params, self.half, self.total))
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
    accumulated; a probe is flagged ``diverging`` when the second half of the
    range still adds at least 0.05 to the partial sum, ``converging`` when
    that tail is at most 1% of the total, and ``indeterminate`` in between.
    One blocked pass builds it: besides ``eps`` it holds a few arrays of
    ``_WITNESS_BLOCK`` terms, whatever N and the number of probes.
    """
    witness = _WitnessPass(p, q, N, probe_params)
    eps = np.empty(N)
    for start, n, G, _, _ in witness:
        eps[start:start + len(n)] = witness.eps(n, G)
    return eps, witness.report()


def witness_report(p: float, q: float, N: int,
                   probe_params: Sequence[tuple[float, float]] = ()
                   ) -> WitnessReport:
    """The report of ``witness_sequence(p, q, N, probe_params)`` without
    its eps: the same pass, computing no eps_n and keeping no term, only
    each probe's two sums."""
    witness = _WitnessPass(p, q, N, probe_params)
    for _ in witness:
        pass
    return witness.report()


def _sampled_trace(p: float, q: float, N: int, p_star: float,
                   q_star: float, stride: int):
    """The trace columns (n, eps_n, summand, partial_sum) at n = 1,
    1 + stride, 1 + 2 stride, ... and n = N, with the report of the probe
    (p*, q*): the one core of ``witness_trace`` and ``witness_samples``.

    One blocked pass fills arrays of the sample count, so the memory is
    the output's, not that of N-length arrays; eps_n is computed at the
    sampled indices only.  A sampled partial sum is the block's carry plus
    the ``np.cumsum`` of the ``np.add.reduceat`` sums of the block's runs
    that end at each sampled index (at stride 1 those runs are the
    summands themselves).  The pass is built, and its arguments checked,
    before any index array is allocated.
    """
    witness = _WitnessPass(p, q, N, [(p_star, q_star)])
    idx = np.arange(0, N, stride)
    if (N - 1) % stride:
        idx = np.append(idx, N - 1)
    eps, summand, partial = (np.empty(len(idx)) for _ in range(3))
    lo = 0
    for start, n, G, (s,), (carry,) in witness:
        hi = int(np.searchsorted(idx, start + len(n)))
        if hi > lo:
            local = idx[lo:hi] - start
            runs = np.add.reduceat(s[:local[-1] + 1],
                                   np.concatenate(([0], local[:-1] + 1)))
            eps[lo:hi] = witness.eps(n[local], G[local])
            summand[lo:hi] = s[local]
            partial[lo:hi] = carry + np.cumsum(runs)
        lo = hi
    idx += 1    # n, in place: at stride 1 idx is N long
    return (idx, eps, summand, partial), witness.report()


def witness_trace(p: float, q: float, N: int, p_star: float, q_star: float):
    """Per-index trace (n, eps_n, summand, partial_sum) for CSV export:
    ``witness_samples`` at stride 1, as arrays."""
    return _sampled_trace(p, q, N, p_star, q_star, 1)[0]


def witness_samples(p: float, q: float, N: int, p_star: float, q_star: float,
                    stride: int):
    """The trace rows (n, eps_n, summand, partial_sum) at n = 1, 1 + stride,
    1 + 2 stride, ... and n = N, as Python numbers, with the report of the
    probe (p*, q*).  The memory is the output's, not that of N-length
    arrays (see ``_sampled_trace``)."""
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
    grid (an (m, k) result) answered by one kernel or descent call.  Rows
    of no entries give zeros of that shape.  Pairs that descend refuse rows
    longer than ``couples.ORACLE_MAX_DIM`` (``couples.descent_route``).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    ones = np.ones(X.shape[1])
    return sequence_couple_k(X, T, p0, ones, p1, ones, budget=budget,
                             seed=seed)
