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

Every witness builder (``witness_sequence``, ``witness_trace``,
``witness_samples``) reads one pass over blocks of ``_WITNESS_BLOCK``
indices, with each probe's partial sum carried across blocks so that it
equals one sequential cumsum bit for bit.  A witness's memory is its output
(eps for ``witness_sequence``, the sampled rows for ``witness_samples``)
plus a few blocks, not several N-length arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .couples import stable_lp_sum
from .errors import DomainError, InvariantError, SizeError
from .interp import sequence_couple_k

__all__ = [
    "MatrixOperator", "SNumSeq", "LorentzParams", "MembershipProbe",
    "WitnessReport", "approx_numbers", "lorentz_norm", "ideal_norm",
    "diag_operator", "witness_sequence", "k_operator_diag",
    "DIVERGING", "CONVERGING", "INDETERMINATE",
]

DIVERGING = "diverging"
CONVERGING = "converging"
INDETERMINATE = "indeterminate"

# trend thresholds: absolute increment for "diverging", tail share for
# "converging"; indicators only, stated as such in reports
DIVERGENCE_INCREMENT = 0.05
CONVERGENCE_TAIL_RATIO = 0.01

K_DIAG_MAX_DIM = 128

# indices per block of a witness pass
_WITNESS_BLOCK = 4096


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

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": self.entries.tolist()}

    @staticmethod
    def from_json(data: dict) -> "MatrixOperator":
        arr = np.asarray(data["entries"], dtype=float)
        if "rows" in data and arr.shape != (data["rows"], data["cols"]):
            raise InvariantError("matrix shape does not match rows/cols")
        return MatrixOperator(arr)


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
    p: float
    q: float

    def __post_init__(self):
        for name in ("p", "q"):
            val = float(getattr(self, name))
            if not (0.0 < val < math.inf):
                raise DomainError(f"{name} must lie in (0, inf)")
            object.__setattr__(self, name, val)


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

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q, "half_sum": self.half_sum,
                "total_sum": self.total_sum, "flag": self.flag}


@dataclass(frozen=True)
class WitnessReport:
    p: float
    q: float
    length: int
    probes: tuple[MembershipProbe, ...]

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q, "length": self.length,
                "probes": [pr.to_json() for pr in self.probes]}


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
    """One pass over eps_n = n^{-1/p} (1 + ln n)^{-1/q}, n = 1..N, in blocks
    of ``_WITNESS_BLOCK`` indices.

    Iterating yields ``(start, eps, summands, partials)`` per block, for
    n = start + 1, ..., start + len(eps): the block's eps_n and, for each
    probe (p*, q*), its summands (n^{1/p* - 1/q*} eps_n)^{q*} and partial
    sums.  Each probe's running sum is added to the next block's first
    summand before ``np.cumsum``, so the partial sums equal one sequential
    cumsum over 1..N bit for bit.  After the pass, ``report()`` reads each
    probe's sums at n = N // 2 and n = N.  Every witness builder constructs
    one, so the refusals of ``_check_witness`` hold for all of them.
    """

    def __init__(self, p: float, q: float, N: int,
                 probe_params: Sequence[tuple[float, float]]):
        _check_witness(p, q, N, probe_params)
        self.p, self.q, self.N = p, q, N
        self.probe_params = list(probe_params)
        self.half: list[float] = []
        self.total: list[float] = []

    def __iter__(self):
        mid = self.N // 2 - 1
        carry = [0.0] * len(self.probe_params)
        for start in range(0, self.N, _WITNESS_BLOCK):
            n = np.arange(start + 1, min(start + _WITNESS_BLOCK, self.N) + 1,
                          dtype=float)
            eps = n ** (-1.0 / self.p) * (1.0 + np.log(n)) ** (-1.0 / self.q)
            summands = [(n ** (1.0 / p_star - 1.0 / q_star) * eps) ** q_star
                        for p_star, q_star in self.probe_params]
            partials = []
            for summand, c in zip(summands, carry):
                partial = summand.copy()
                partial[0] += c
                partials.append(np.cumsum(partial, out=partial))
            carry = [float(s[-1]) for s in partials]
            if start <= mid < start + len(n):
                self.half = [float(s[mid - start]) for s in partials]
            yield start, eps, summands, partials
        self.total = carry

    def report(self) -> WitnessReport:
        probes = tuple(_membership(p_star, q_star, half, total)
                       for (p_star, q_star), half, total
                       in zip(self.probe_params, self.half, self.total))
        return WitnessReport(float(self.p), float(self.q), int(self.N), probes)


def _check_witness(p: float, q: float, N: int,
                   probe_params: Sequence[tuple[float, float]]) -> None:
    """Refuse p, q <= 0, N < 4 and a probe exponent outside (0, inf), the
    rule of ``LorentzParams``."""
    if not (p > 0 and q > 0):
        raise DomainError("p and q must be positive")
    if N < 4:
        raise DomainError("need N >= 4")
    for p_star, q_star in probe_params:
        for key, val in (("p_star", p_star), ("q_star", q_star)):
            if not (0.0 < val < math.inf):
                raise DomainError(f"probe exponent {key} must lie in "
                                  f"(0, inf), got {val}")


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
    for start, block, _, _ in witness:
        eps[start:start + len(block)] = block
    return eps, witness.report()


def witness_trace(p: float, q: float, N: int, p_star: float, q_star: float):
    """Per-index trace (n, eps_n, summand, partial_sum) for CSV export."""
    n = np.arange(1, N + 1)
    eps, summand, partial = (np.empty(len(n)) for _ in range(3))
    for start, e, (s,), (c,) in _WitnessPass(p, q, N, [(p_star, q_star)]):
        stop = start + len(e)
        eps[start:stop], summand[start:stop], partial[start:stop] = e, s, c
    return n, eps, summand, partial


def witness_samples(p: float, q: float, N: int, p_star: float, q_star: float,
                    stride: int):
    """The trace rows (n, eps_n, summand, partial_sum) at n = 1, 1 + stride,
    1 + 2 stride, ... and n = N, as Python numbers, with the report of the
    probe (p*, q*).

    One blocked pass computes them and keeps only the sampled rows, so the
    memory is the output's, not that of N-length arrays.
    """
    witness = _WitnessPass(p, q, N, [(p_star, q_star)])
    rows = []
    for start, eps, (summand,), (partial,) in witness:
        stop = start + len(eps)
        idx = np.arange(-(-start // stride) * stride, stop, stride)
        if stop == N and (N - 1) % stride:
            idx = np.append(idx, N - 1)
        local = idx - start
        rows.extend(zip((idx + 1).tolist(), eps[local].tolist(),
                        summand[local].tolist(), partial[local].tolist()))
    return rows, witness.report()


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
    optimal).
    """
    seq = SNumSeq(np.asarray(sigma, dtype=float))
    x = seq.values
    if not (t > 0):
        raise DomainError("t must be positive")
    if len(x) == 0:
        return 0.0
    if len(x) > K_DIAG_MAX_DIM:
        raise SizeError(f"diagonal K limited to length {K_DIAG_MAX_DIM}")
    return float(k_operator_diag_batch(x[None, :], t, p0, p1,
                                       budget=budget, seed=seed)[0])


def k_operator_diag_batch(X: np.ndarray, T, p0: float, p1: float,
                          budget: int = 8, seed: int = 0) -> np.ndarray:
    """Batched form of k_operator_diag over rows of nonnegative sequences.

    ``T`` is a scalar or one t per row (an (m,) result), or an (m, k)/(1, k)
    grid (an (m, k) result) answered by one kernel or descent call.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    ones = np.ones(X.shape[1])
    return sequence_couple_k(X, T, p0, ones, p1, ones, budget=budget,
                             seed=seed)
