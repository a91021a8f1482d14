"""Restart-to-ready benchmark: save stall, fixed and resharded restart.

Run from the repository root::

    python3 restartbench/run.py --workload restart-small --seed 1 \
        --seconds 45 --trace 0

Each workload is a closed loop with one caller (see ``workloads.py``
and ``CATALOGUE.md``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every other op is traced, the metrics are the per-layer ones, and a
Chrome trace-event file plus a per-layer self-time table are written
under ``.bench_out/``.  Scratch checkpoints live under ``.bench_work/``
and are deleted on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import hostspeed
import layers
from tracing import NullRecorder, Recorder, instrument

ROOT = pathlib.Path(__file__).resolve().parent.parent
SETUP_REPS = 3
PAPER_FIG12 = (1.14, 1.37)


def tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with at
    least ten samples above it, never below the upper median rank (so
    never below the p50)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n


def git_rev(root: pathlib.Path) -> str:
    """HEAD commit read from ``.git`` files ("unknown" outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, work: str) -> Dict:
    import numpy as np

    from repro.core.convert import _resolve_workers
    from repro.storage.store import ObjectStore

    return {
        "nproc": os.cpu_count(),
        "durable": ObjectStore(work).durable,
        "convert_workers": _resolve_workers(None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": git_rev(ROOT),
        "seed": seed,
    }


def set_up(workload, seed: int, work: pathlib.Path):
    """Build the source job SETUP_REPS times.

    Returns (job, median host-adjusted seconds, median raw seconds).
    Each rep also runs one untraced op of a gpt3-mini twin, so lazy
    imports and first-call costs land in set-up, not in the first op.
    """
    from workloads import Job, run_op

    adjusted, raw, job = [], [], None
    before = hostspeed.calibrate()
    for rep in range(SETUP_REPS):
        if job is not None:
            shutil.rmtree(job.ckpt_dir)
        start = time.perf_counter()
        twin = dataclasses.replace(workload, model="gpt3-mini", saves_per_op=1)
        warm = Job(twin, seed, str(work / f"warm{rep}"))
        run_op(warm, 0, NullRecorder())
        shutil.rmtree(warm.ckpt_dir)
        job = Job(workload, seed, str(work / f"job{rep}"))
        raw.append(time.perf_counter() - start)
        after = hostspeed.calibrate()
        adjusted.append(raw[-1] / hostspeed.factor(before, after))
        before = after
    return job, statistics.median(adjusted), statistics.median(raw)


def measure(job, seconds: float, trace: bool, faults: Optional[Dict[int, str]] = None,
            min_ops: int = 1):
    """Closed loop of ops for ``seconds`` (and at least ``min_ops``).

    With ``trace`` every even op runs instrumented under one recorder
    and every odd op untraced.  A raised exception or failed check
    counts the op as failed; its samples are dropped.

    Returns (outcomes, failed, recorder) where outcomes holds
    ``(index, traced, OpResult)`` per successful op.
    """
    from workloads import run_op

    faults = faults or {}
    recorder = Recorder() if trace else None
    outcomes, failed, index = [], 0, 0
    min_ops = max(min_ops, 2 if trace else 1)
    deadline = time.perf_counter() + seconds
    while index < min_ops or time.perf_counter() < deadline:
        traced = trace and index % 2 == 0
        rec = recorder if traced else NullRecorder()
        try:
            with instrument(recorder) if traced else contextlib.nullcontext():
                with rec.op(index):
                    result = run_op(job, index, rec, fault=faults.get(index))
            outcomes.append((index, traced, result))
        except Exception as exc:  # an op failure is a result, not a crash
            failed += 1
            print(f"op {index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        index += 1
    return outcomes, failed, recorder


def end_to_end(outcomes, failed: int, setup_s: float,
               setup_raw_s: float) -> Tuple[Dict, List[str]]:
    """Metrics in host-adjusted seconds, and report lines that give the
    raw wall p50 beside each."""
    from workloads import TIMINGS

    attempted = len(outcomes) + failed
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
    }
    lines = [f"  timings are host-adjusted; {'setup_s':<18} {setup_s:.4f} s "
             f"(raw {setup_raw_s:.4f} s)"]
    factors = [f for _, _, r in outcomes for f in r.host_factors]
    if factors:
        lines.append(f"  host factor p50 {statistics.median(factors):.3f} "
                     f"(min {min(factors):.3f}, max {max(factors):.3f})")
    for key in TIMINGS:
        values = [v for _, _, r in outcomes for v in r.adjusted[key]]
        if not values:
            continue
        raw = statistics.median(v for _, _, r in outcomes for v in r.samples[key])
        value, pct = tail(values)
        metrics[f"{key}.p50"] = (statistics.median(values), "s")
        metrics[f"{key}.tail"] = (value, "s")
        lines.append(
            f"  {key:<18} p50 {statistics.median(values):8.4f} s   "
            f"tail p{pct:.0f} {value:8.4f} s   (n={len(values)}; raw p50 {raw:.4f} s)"
        )
    if "ucp_restart_s.p50" in metrics and "restart_s.p50" in metrics:
        ratio = metrics["ucp_restart_s.p50"][0] / metrics["restart_s.p50"][0]
        lines.append(
            f"  fig12 view (not gated): ucp_restart_s.p50 / restart_s.p50 = "
            f"{ratio:.2f}x; paper {PAPER_FIG12[0]}-{PAPER_FIG12[1]}x"
        )
    return metrics, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"restartbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"restartbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    try:
        env = environment(args.seed, str(work))
        print("env " + json.dumps(env, sort_keys=True))
        if not env["durable"]:
            print("restartbench: ObjectStore durability resolved off "
                  "(REPRO_DURABLE=0); refusing to report", file=sys.stderr)
            return 3
        job, setup_s, setup_raw_s = set_up(workload, args.seed, work)
        outcomes, failed, recorder = measure(job, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(outcomes) + failed
    print(f"workload {workload.name}: {attempted} ops, {failed} failed "
          f"({workload.why})")
    if args.trace and {t for _, t, _ in outcomes} != {True, False}:
        print("restartbench: a traced run needs a successful traced and "
              "untraced op", file=sys.stderr)
        metrics, lines = {}, []
    elif args.trace:
        metrics, lines = layers.per_layer(outcomes, recorder)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{workload.name}-seed{args.seed}.json"
        layers.write_trace(path, recorder, env, lines)
        lines.append(f"  trace file: {path.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(outcomes, failed, setup_s, setup_raw_s)
    print("\n".join(lines))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
