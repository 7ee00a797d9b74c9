"""Regenerate reference.json: every operation's numbers at the default seed.

    python3 perfbench/make_reference.py

Run it from the root of a checkout, only when a change to the library is
meant to change its outputs; the benchmark compares each operation's
numbers with this file, to 1e-6 relative, whenever it runs the default seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    work = os.path.join(ROOT, ".perfbench_run", f"reference-{os.getpid()}")
    os.makedirs(work)
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, workloads.DEFAULT_SEED, work)
            reference[name] = {op.name: op.check(op.run())
                               for op in wl.ops + wl.baseline}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
