"""Self-test of the restart benchmark's correctness checks.

Runs a short restart-small loop in which op 0 has one byte of a rank
file flipped after its save and op 1 one byte of an atom flipped after
its conversion; op 2 is clean.  Both damaged ops must be counted as
failed, the loop must not crash, the clean op must pass, and the
traced op's instrumentation must be removed again.  Run from the
repository root::

    python3 restartbench/selftest.py

Exits 0 when every expectation holds.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402


def main() -> int:
    fsync = os.fsync
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_work")
    try:
        job = Job(WORKLOADS["restart-small"], seed=5, ckpt_dir=os.path.join(work, "job"))
        outcomes, failed, _ = run.measure(
            job, seconds=0, trace=True, faults={0: "rank-file", 1: "atom"}, min_ops=3
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks = {
        "both damaged ops counted as failed": failed == 2,
        "clean op passed": [i for i, _, _ in outcomes] == [2],
        "instrumentation removed": os.fsync is fsync,
    }
    for what, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
