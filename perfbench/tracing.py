"""Outside-in tracing of interpk for the traced benchmark run.

The library has no spans of its own, so this module wraps each module's
entry points from the outside.  A function is replaced at *every* binding
that refers to it (``decomposition_infimum`` lives in ``_descent`` and is
imported into ``couples``, ``interp``, ``snum`` and ``verify``), and methods
are replaced on their class, so a call reaches the wrapper whichever name
the caller used.  ``Tracer.install()`` puts the wrappers in and
``Tracer.uninstall()`` restores every original binding.

Each wrapped call records a span (layer, op, start, end, parent) in memory.
A span's self time is its duration minus the durations of its direct child
spans.  Counts are recorded at the same boundaries: rows and K values for
the batch kernels, objective evaluations for the descent engine (by wrapping
the two norm callables it receives), and, for the weighted sup kernel only,
the tracemalloc peak of each call.  tracemalloc runs only inside that kernel
because tracing every allocation slows the Python-loop layers: ``lift`` at
N = 1000 went from about 2 s to about 11 s with it on.
"""

from __future__ import annotations

import functools
import gzip
import os
import tracemalloc
from collections import defaultdict
from time import perf_counter

from interpk import _descent, cli, couples, interp, lethargy, snum, verify
import interpk

MODULES = (interpk, _descent, couples, interp, lethargy, snum, verify, cli)

# layer name -> (owner, attribute) entry points; an owner is a module or a
# class.  Module functions are rebound wherever they were imported.
ENTRY_POINTS = {
    "descent": [(_descent, "decomposition_infimum")],
    "couples.l1_linf": [(couples, "_l1_linf_batch")],
    "couples.weighted_sup": [(couples, "_weighted_sup_batch")],
    "couples.power": [(couples, "_power_batch")],
    "interp": [(interp, name) for name in (
        "interp_norm", "interp_norm_from_profile", "truncation_terms",
        "lattice_norm", "split_norm", "parameter_conditions",
        "derived_sum_int_couple", "endpoint_space", "sequence_couple_k")]
    + [(interp.DerivedSumIntCouple, name) for name in (
        "k_batch", "profile", "sum_dense", "int_dense", "k_oracle_batch")]
    + [(interp.EndpointNorm, "dense")],
    "cli": [(cli, "main")],
    "lethargy.lift": [(lethargy, "lift_sequence")],
    "lethargy.slow_k": [(lethargy, "slow_k_witness")],
    "lethargy.strictness": [(lethargy, "strictness_sweep"),
                            (lethargy, "strictness_witness")],
    "snum": [(snum, name) for name in (
        "approx_numbers", "lorentz_norm", "ideal_norm", "diag_operator",
        "witness_sequence", "witness_trace", "k_operator_diag",
        "k_operator_diag_batch")],
    "verify": [(verify, name) for name in (
        "check_mainlema", "check_sum_intersection", "check_reiteration",
        "check_konig", "dichotomy_sweep", "distinctness_demo",
        "oracle_agreement", "equivalence_report")],
}

KERNELS = ("l1_linf", "weighted_sup", "power")
LETHARGY = ("lift", "slow_k", "strictness")

# per-layer metric name -> unit, in report order
METRIC_UNITS = {
    "descent.calls": "count", "descent.rows": "count",
    "descent.norm_evals": "count", "descent.self_s": "s",
    "descent.ms_per_row": "ms",
    **{f"couples.{k}.{field}": unit for k in KERNELS for field, unit in (
        ("calls", "count"), ("rows", "count"), ("kvals", "count"),
        ("self_s", "s"), ("us_per_kval", "us"))},
    "couples.weighted_sup.peak_mb": "MB",
    "couples.weighted_sup.bytes_computed": "bytes",
    "interp.calls": "count", "interp.self_s": "s",
    "cli.calls": "count", "cli.self_s": "s",
    "lethargy.calls": "count", "lethargy.lift.self_s": "s",
    "lethargy.slow_k.self_s": "s",
    "snum.calls": "count", "snum.self_s": "s",
    "verify.calls": "count", "verify.self_s": "s",
    "trace.overhead": "ratio",
}

COUNT_METRICS = tuple(name for name, unit in METRIC_UNITS.items()
                      if unit in ("count", "bytes"))


class _Stats:
    __slots__ = ("calls", "incl_s", "self_s", "rows", "kvals", "norm_evals",
                 "peak_bytes", "bytes_computed")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.rows = 0
        self.kvals = 0
        self.norm_evals = 0
        self.peak_bytes = 0
        self.bytes_computed = 0


def _rows(X) -> int:
    shape = getattr(X, "shape", None)
    if shape is None or len(shape) == 0:
        return 1
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """In-memory span recorder with per-(op, layer) aggregates."""

    def __init__(self):
        self.spans: list[list] = []     # [layer, op, start, end, parent]
        self._stack: list[list] = []    # [span index, child seconds]
        self.stats: dict[tuple[str, str], _Stats] = defaultdict(_Stats)
        self.op = ""
        self._undo: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------
    def _enter(self, layer: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([layer, self.op, perf_counter(), 0.0, parent])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self, layer: str) -> _Stats:
        end = perf_counter()
        index, child = self._stack.pop()
        span = self.spans[index]
        span[3] = end
        dur = end - span[2]
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats[(self.op, layer)]
        st.calls += 1
        st.incl_s += dur
        st.self_s += dur - child
        return st

    def _wrap(self, layer: str, fn):
        if layer == "descent":
            return self._wrap_descent(fn)
        if layer.startswith("couples."):
            return self._wrap_kernel(layer, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(layer)
        return wrapper

    def _wrap_kernel(self, layer: str, fn):
        weighted = layer == "couples.weighted_sup"

        @functools.wraps(fn)
        def wrapper(X, *args, **kwargs):
            if weighted:
                tracemalloc.start()
            self._enter(layer)
            try:
                out = fn(X, *args, **kwargs)
            finally:
                st = self._exit(layer)
                if weighted:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    st.peak_bytes = max(st.peak_bytes, peak)
            m = _rows(X)
            st.rows += m
            st.kvals += out.size
            if weighted:
                d = X.shape[-1]
                # the (m, d(d-1)/2, d) float64 feasibility tensor
                st.bytes_computed += 8 * m * (d * (d - 1) // 2) * d
            return out
        return wrapper

    def _wrap_descent(self, fn):
        @functools.wraps(fn)
        def wrapper(X, T, norm0, norm1, *args, **kwargs):
            evals = [0]

            def counted(norm):
                def call(A):
                    evals[0] += 1
                    return norm(A)
                return call

            self._enter("descent")
            try:
                return fn(X, T, counted(norm0), counted(norm1), *args,
                          **kwargs)
            finally:
                st = self._exit("descent")
                st.rows += _rows(X)
                st.norm_evals += evals[0]
        return wrapper

    # --- installation --------------------------------------------------------
    def install(self) -> None:
        for layer, entries in ENTRY_POINTS.items():
            for owner, name in entries:
                if isinstance(owner, type):
                    self._set(owner, name, self._wrap(layer, vars(owner)[name]))
                    continue
                original = getattr(owner, name)
                wrapped = self._wrap(layer, original)
                for module in MODULES:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapped)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # --- reduction -----------------------------------------------------------
    def layer_totals(self, op: str | None = None) -> dict[str, _Stats]:
        """Aggregates per layer, over all ops or for one op."""
        out: dict[str, _Stats] = defaultdict(_Stats)
        for (span_op, layer), st in self.stats.items():
            if op is not None and span_op != op:
                continue
            acc = out[layer]
            for field in _Stats.__slots__:
                if field == "peak_bytes":
                    acc.peak_bytes = max(acc.peak_bytes, st.peak_bytes)
                else:
                    setattr(acc, field, getattr(acc, field)
                            + getattr(st, field))
        return out

    def metrics(self, overhead: float) -> dict[str, float]:
        tot = self.layer_totals()
        get = tot.get
        empty = _Stats()
        des = get("descent", empty)
        out = {
            "descent.calls": des.calls, "descent.rows": des.rows,
            "descent.norm_evals": des.norm_evals,
            "descent.self_s": des.self_s,
            "descent.ms_per_row": (1e3 * des.incl_s / des.rows
                                   if des.rows else 0.0),
        }
        for kernel in KERNELS:
            st = get(f"couples.{kernel}", empty)
            out.update({
                f"couples.{kernel}.calls": st.calls,
                f"couples.{kernel}.rows": st.rows,
                f"couples.{kernel}.kvals": st.kvals,
                f"couples.{kernel}.self_s": st.self_s,
                f"couples.{kernel}.us_per_kval": (1e6 * st.self_s / st.kvals
                                                  if st.kvals else 0.0),
            })
        wsup = get("couples.weighted_sup", empty)
        out["couples.weighted_sup.peak_mb"] = wsup.peak_bytes / 2 ** 20
        out["couples.weighted_sup.bytes_computed"] = wsup.bytes_computed
        for layer in ("interp", "cli", "snum", "verify"):
            st = get(layer, empty)
            out[f"{layer}.calls"] = st.calls
            out[f"{layer}.self_s"] = st.self_s
        out["lethargy.calls"] = sum(
            get(f"lethargy.{name}", empty).calls for name in LETHARGY)
        out["lethargy.lift.self_s"] = get("lethargy.lift", empty).self_s
        out["lethargy.slow_k.self_s"] = get("lethargy.slow_k", empty).self_s
        out["trace.overhead"] = overhead
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped CSV: layer,op,start_s,end_s,parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,layer,op,start_s,end_s,parent\n")
            for i, (layer, op, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{layer},{op},{start - origin:.9f},"
                         f"{end - origin:.9f},{parent}\n")
