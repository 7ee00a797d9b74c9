"""One benchmark workload in one process (started by run.py).

The process imports interpk from the checkout's ``src``, builds the
workload's seeded inputs, runs one small warm-up of each operation kind and
then reports its set-up time: the time since the parent spawned it.  With
``--setup-only`` it stops there.  Otherwise it runs the workload's
operation list in whole passes, a closed loop with one client, until
``--seconds`` have passed (at least two passes), checking every output.

Timing.  On a shared 2-vCPU host the speed of a fixed interpreter loop was
measured to switch between two levels about 1.7x apart, for seconds to
minutes at a time, whatever runs here; a whole run can fall in the slow
level.  Raw times then follow the host's other tenants, not the code.  So
right before each timed operation the worker times a fixed probe loop
(``_probe``), and divides the operation's time by it.  The median of that
ratio over the run's repetitions, times the probe's reference time
PROBE_REF_S, is the operation's time at the reference speed.  ``wall_s``
sums these over the operation list (one pass) and ``op_ms.geomean`` is
their geometric mean, so a slowdown of any one operation moves it in
proportion.  The raw times (fastest repetition, median and 95th percentile
over all samples) and the probe times are reported in the record.

With ``--trace 1`` it runs one untraced pass, then two passes under the
outside-in tracer (tracing.py).  It reports per-layer metrics from the
first traced pass and requires the counts of both to repeat exactly.  The
workload's baseline operations, if any, then run once untraced and once
traced to restate the ROADMAP's baseline.

Output: JSON lines on stdout.  Lines with a ``record`` key describe the run;
the last line holds the result that run.py turns into the benchmark's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, SRC)
import numpy  # noqa: E402

# The speed probe: the fastest of PROBE_REPEAT runs of a loop of plain
# interpreter steps followed by a loop of small-slice numpy ufunc calls,
# the two kinds of work the library's Python layers do.  Under the host's
# slow level the ops slow down more than a plain interpreter loop; the
# numpy part tracks them better.  PROBE_REF_S is the probe's time at the
# reference speed, about its fast-level time on the 2-vCPU Xeon VM where
# the benchmark was written.
PROBE_STEPS = 8000
PROBE_UFUNC_CALLS = 150
PROBE_REPEAT = 3
PROBE_REF_S = 450e-6
_PROBE_BUF = numpy.zeros(64)


def _probe() -> float:
    """The speed probe's time, about half a millisecond."""
    best = math.inf
    buf = _PROBE_BUF
    for _ in range(PROBE_REPEAT):
        start = perf_counter()
        x = 0
        for i in range(PROBE_STEPS):
            x += i
        for i in range(PROBE_UFUNC_CALLS):
            j = i & 31
            numpy.maximum(buf[j:j + 8], 0.5 * i, out=buf[j:j + 8])
        best = min(best, perf_counter() - start)
    return best


# Probes taken during set-up, which is scaled to the reference speed too.
SETUP_PROBES = [_probe()]

import interpk  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import REFERENCE_RTOL, CheckFailed, close, require  # noqa: E402

SETUP_PROBES.append(_probe())

# Named per-operation times (seconds at the reference speed) of the
# operations users wait on, summed over the listed operations.
NAMED_TIMES = {
    "verify": {"mainlema_s": ("verify/mainlema",),
               "konig_s": ("verify/konig.q1", "verify/konig.q2"),
               "reiteration_mixed_s": ("verify/reiteration.mixed",),
               "oracle_agreement_s": ("verify/oracle_agreement",)},
    "witnesses": {"lift_long_s": ("lift/long",)},
    "profiles": {},
}

# End-to-end metrics measured here; run.py adds setup_s.
END_TO_END_UNITS = {"wall_s": "s", "op_ms.geomean": "ms",
                    "peak_rss_mb": "MB"}

# Layer whose wrapper must see calls in a traced run of each workload.
EXERCISED = {"verify": "descent.calls", "profiles": "cli.calls",
             "witnesses": "lethargy.calls"}

# Layers predicted to see no calls at all.
PREDICTED_ZERO = {"verify": ("lethargy.calls",),
                  "profiles": ("descent.calls", "lethargy.calls"),
                  "witnesses": ("descent.calls",)}


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)


class Runner:
    """Executes operations, checks their outputs and counts failures."""

    def __init__(self):
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0

    def execute(self, op) -> float:
        self.attempted += 1
        start = perf_counter()
        try:
            out = op.run()
        except Exception:
            elapsed = perf_counter() - start
            self._fail(op.name, traceback.format_exc())
            return elapsed
        elapsed = perf_counter() - start
        try:
            numbers = op.check(out)
            if self.reference is not None:
                self._compare(op.name, numbers)
        except CheckFailed as exc:
            self._fail(op.name, f"check failed: {exc}")
        except Exception:
            self._fail(op.name, traceback.format_exc())
        return elapsed

    def _compare(self, name: str, numbers: list) -> None:
        want = self.reference.get(name)
        require(want is not None, "no reference stored")
        require(len(want) == len(numbers),
                f"{len(numbers)} numbers, reference has {len(want)}")
        bad = [i for i, (a, b) in enumerate(zip(numbers, want))
               if not close(float(a), float(b), REFERENCE_RTOL)]
        require(not bad, f"{len(bad)} numbers differ from the reference, "
                f"first at index {bad[:1]}")

    def _fail(self, name: str, detail: str) -> None:
        self.failed += 1
        print(f"FAILED {name}: {detail}", file=sys.stderr, flush=True)

    def run_pass(self, ops, tracer=None) -> list[tuple[str, float]]:
        times = []
        for op in ops:
            if tracer is not None:
                tracer.op = op.name
            times.append((op.name, self.execute(op)))
        return times

    def probed_pass(self, ops) -> list[tuple[str, float, float]]:
        """(name, time, probe time just before) for each operation."""
        out = []
        for op in ops:
            probe = _probe()
            out.append((op.name, self.execute(op), probe))
        return out

    def traced_pass(self, ops):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            times = self.run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        return tracer, times


def _wall(times) -> float:
    return sum(t for _, t in times)


def _run_record(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
            "import_path": os.path.relpath(os.path.dirname(interpk.__file__),
                                           ROOT)}


def _end_to_end(workload: str, passes, ops) -> tuple[dict, dict]:
    """(gated metrics, further figures for the record)."""
    by_op: dict[str, list] = {}
    for times in passes:
        for name, t, probe in times:
            by_op.setdefault(name, []).append((t, probe))
    at_ref = {name: PROBE_REF_S * statistics.median(t / p for t, p in tp)
              for name, tp in by_op.items()}
    wall = sum(at_ref.values())
    metrics = {
        "wall_s": wall,
        "op_ms.geomean": math.exp(statistics.fmean(
            math.log(1e3 * t) for t in at_ref.values())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    durations = [t for times in passes for _, t, _ in times]
    probes = [p for times in passes for _, _, p in times]
    fastest = {name: min(t for t, _ in tp) for name, tp in by_op.items()}
    extra = {"passes": len(passes), "ops_per_pass": len(ops),
             "op_samples": len(durations),
             "raw": {"wall_s.fastest": sum(fastest.values()),
                     "op_ms.p50": 1e3 * statistics.median(durations),
                     "pass_s.median": statistics.median(
                         sum(t for _, t, _ in p) for p in passes),
                     "probe_us.min": 1e6 * min(probes),
                     "probe_us.median": 1e6 * statistics.median(probes)}}
    if len(durations) >= 200:
        extra["raw"]["op_ms.p95"] = 1e3 * statistics.quantiles(
            durations, n=20, method="inclusive")[18]
    if workload == "profiles":
        extra["k_evals_per_s"] = sum(op.kvals for op in ops) / wall
    for metric, names in NAMED_TIMES[workload].items():
        extra[metric] = sum(at_ref[name] for name in names)
    extra["op_ms.at_ref"] = {k: 1e3 * v for k, v in at_ref.items()}
    return metrics, extra


def _baseline(workload: str, runner, tracer, baseline_ops) -> dict:
    """Figures restating the ROADMAP's baseline, from the traced run."""
    if workload == "profiles":
        op = "kprofile/weighted_sup_lp.d64"
        st = tracer.layer_totals(op)["couples.weighted_sup"]
        return {"weighted_sup.d64.kernel_s": st.incl_s,
                "weighted_sup.d64.peak_mb": st.peak_bytes / 2 ** 20}
    untraced = dict(runner.run_pass(baseline_ops))
    op_tracer, times = runner.traced_pass(baseline_ops)
    traced = dict(times)
    (op,) = untraced
    tot = op_tracer.layer_totals(op)
    out = {f"{op}.untraced_s": untraced[op], f"{op}.traced_s": traced[op]}
    if workload == "verify":
        out.update({"descent_share": tot["descent"].incl_s / traced[op],
                    "descent_calls": tot["descent"].calls,
                    "norm_evals": tot["descent"].norm_evals,
                    "l1_linf_calls": tot["couples.l1_linf"].calls})
    else:
        out["lift_self_s"] = tot["lethargy.lift"].self_s
    return out


def _traced(args, runner, wl) -> tuple[dict, dict, bool]:
    base = runner.run_pass(wl.ops)
    tracer, pass_a = runner.traced_pass(wl.ops)
    tracer_b, pass_b = runner.traced_pass(wl.ops)
    metrics = tracer.metrics(_wall(pass_a) / _wall(base))
    again = tracer_b.metrics(_wall(pass_b) / _wall(base))
    ok = True
    diff = {k: (metrics[k], again[k]) for k in tracing.COUNT_METRICS
            if metrics[k] != again[k]}
    if diff:
        ok = False
        print(f"trace counts differ between two traced passes: {diff}",
              file=sys.stderr)
    exercised = EXERCISED[args.workload]
    if metrics[exercised] <= 0:
        ok = False
        print(f"tracer saw no calls: {exercised} = 0", file=sys.stderr)
    spans = os.path.join(RUN_DIR, f"spans-{args.workload}-seed{args.seed}"
                         ".csv.gz")
    tracer.write_spans(spans)
    extra = {"baseline": _baseline(args.workload, runner, tracer,
                                   wl.baseline),
             "predicted_zero": {k: metrics[k] == 0
                                for k in PREDICTED_ZERO[args.workload]},
             "spans": {"count": len(tracer.spans),
                       "path": os.path.relpath(spans, ROOT)}}
    return metrics, extra, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-clock", type=float, required=True,
                        help="parent's perf_counter() just before spawning")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.abspath(interpk.__file__).startswith(SRC + os.sep):
        print(f"interpk imported from {interpk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        wl = workloads.build(args.workload, args.seed, work)
        SETUP_PROBES.append(_probe())
        runner = Runner()
        runner.run_pass(wl.warmups)
        SETUP_PROBES.append(_probe())
        raw = perf_counter() - args.spawn_clock
        setup = {"setup_s": raw * PROBE_REF_S / statistics.fmean(SETUP_PROBES),
                 "setup_s.raw": raw}
        if args.setup_only:
            _emit(setup)
            return 0
        if args.seed == workloads.DEFAULT_SEED:
            path = os.path.join(os.path.dirname(__file__), "reference.json")
            with open(path, "r", encoding="utf-8") as fh:
                runner.reference = json.load(fh)[args.workload]
        ok = True
        if args.trace:
            units = tracing.METRIC_UNITS
            metrics, extra, ok = _traced(args, runner, wl)
        else:
            units = END_TO_END_UNITS
            start = perf_counter()
            passes = [runner.probed_pass(wl.ops), runner.probed_pass(wl.ops)]
            while perf_counter() - start < args.seconds:
                passes.append(runner.probed_pass(wl.ops))
            metrics, extra = _end_to_end(args.workload, passes, wl.ops)
        extra.update(fail_ratio=runner.failed / runner.attempted,
                     skipped=wl.skipped, run=_run_record(args),
                     reference_checked=runner.reference is not None)
        _emit({"record": extra})
        _emit({**setup,
               "correct": ok and runner.failed == 0,
               "attempted": runner.attempted, "failed": runner.failed,
               "metrics": {name: {"value": metrics[name], "unit": unit}
                           for name, unit in units.items()}})
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
