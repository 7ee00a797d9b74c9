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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .couples import stable_lp_sum
from .errors import DomainError, InvariantError, SizeError, UnsupportedError
from .interp import sequence_couple_k

__all__ = [
    "MatrixOperator", "SNumSeq", "LorentzParams", "MembershipProbe",
    "WitnessReport", "approx_numbers", "lorentz_norm", "ideal_norm",
    "diag_operator", "witness_sequence", "k_operator_diag",
    "DIVERGING", "CONVERGING", "INDETERMINATE",
]

EUCLIDEAN = "euclidean"

DIVERGING = "diverging"
CONVERGING = "converging"
INDETERMINATE = "indeterminate"

# trend thresholds: absolute increment for "diverging", tail share for
# "converging"; indicators only, stated as such in reports
DIVERGENCE_INCREMENT = 0.05
CONVERGENCE_TAIL_RATIO = 0.01

K_DIAG_MAX_DIM = 128


@dataclass(frozen=True)
class MatrixOperator:
    """A matrix acting between finite Euclidean spaces."""

    entries: np.ndarray
    norm_kind: str = EUCLIDEAN

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
    if T.norm_kind != EUCLIDEAN:
        raise UnsupportedError(
            "exact approximation numbers need Euclidean domain and codomain")
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


def witness_sequence(p: float, q: float, N: int,
                     probe_params: Sequence[tuple[float, float]] = ()):
    """The separating sequence eps_n = n^{-1/p} (1 + ln n)^{-1/q}, n = 1..N.

    For each probe (p*, q*) the summand (n^{1/p* - 1/q*} eps_n)^{q*} is
    accumulated; a probe is flagged ``diverging`` when the second half of the
    range still adds at least 0.05 to the partial sum, ``converging`` when
    that tail is at most 1% of the total, and ``indeterminate`` in between.
    """
    if not (p > 0 and q > 0):
        raise DomainError("p and q must be positive")
    if N < 4:
        raise DomainError("need N >= 4")
    n = np.arange(1, N + 1, dtype=float)
    eps = n ** (-1.0 / p) * (1.0 + np.log(n)) ** (-1.0 / q)
    probes = []
    for p_star, q_star in probe_params:
        summand = (n ** (1.0 / p_star - 1.0 / q_star) * eps) ** q_star
        csum = np.cumsum(summand)
        total = float(csum[-1])
        half = float(csum[N // 2 - 1])
        increment = total - half
        if increment >= DIVERGENCE_INCREMENT:
            flag = DIVERGING
        elif increment <= CONVERGENCE_TAIL_RATIO * total:
            flag = CONVERGING
        else:
            flag = INDETERMINATE
        probes.append(MembershipProbe(float(p_star), float(q_star),
                                      half, total, flag))
    return eps, WitnessReport(float(p), float(q), int(N), tuple(probes))


def witness_trace(p: float, q: float, N: int, p_star: float, q_star: float):
    """Per-index trace (n, eps_n, summand, partial_sum) for CSV export."""
    n = np.arange(1, N + 1, dtype=float)
    eps = n ** (-1.0 / p) * (1.0 + np.log(n)) ** (-1.0 / q)
    summand = (n ** (1.0 / p_star - 1.0 / q_star) * eps) ** q_star
    return n.astype(int), eps, summand, np.cumsum(summand)


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
