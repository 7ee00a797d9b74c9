"""interpk benchmark: one command, three workloads, each in its own process.

    python3 perfbench/run.py --workload {verify,profiles,witnesses} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is not installed, so the
workload process imports it from ``src``.  BLAS is pinned to one thread, so
the SVDs in ``snum`` start no threads, and all load comes from one client in
a closed loop: each operation starts when the previous one returned.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; set-up time
is the median over SETUP_SAMPLES fresh processes, each timed from spawn to
its first timed operation.  Like every gated time it is scaled to the
reference speed of worker.py's speed probe, because the host's speed drifts
for minutes at a time; the raw figures go to the record.  ``--trace 1``
prints the per-layer metrics of a traced run instead.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Earlier lines hold the run record (machine, versions, BLAS settings, seed,
import path), the workload-specific figures and, for traced runs, the
restated ROADMAP baseline.  The exit code is 0 whenever a result is printed,
also when operations failed; any other outcome exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The parent never imports interpk, so it keeps its own copy of the names.
WORKLOADS = ("verify", "profiles", "witnesses")
SETUP_SAMPLES = 5
DEADLINE_S = 175.0


def _child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, deadline: float, setup_only: bool) -> list[str]:
    """Run one workload process; its stdout lines, or SystemExit."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawn-clock", repr(perf_counter())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("workload process exceeded the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited {proc.returncode}")
    lines = out.splitlines()
    if not lines:
        raise SystemExit("workload process printed nothing")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="interpk benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "interpk",
                                       "__init__.py")):
        print("src/interpk not found: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S

    setup, raw = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            sample = json.loads(_spawn(args, deadline, True)[-1])
            setup.append(sample["setup_s"])
            raw.append(sample["setup_s.raw"])
    lines = _spawn(args, deadline, False)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    setup.append(result.pop("setup_s"))
    raw.append(result.pop("setup_s.raw"))
    if not args.trace:
        print(json.dumps({"record": {"setup_s.samples": setup,
                                     "setup_s.raw_samples": raw}}))
        result["metrics"] = {"setup_s": {"value": statistics.median(setup),
                                         "unit": "s"},
                             **result["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
