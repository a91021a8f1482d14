"""BENCH_convert_wallclock — streamed vs whole-file conversion latency.

`BENCH_convert_stream` proves the byte claim (a reconfigured rank
streams a fraction of the checkpoint); this benchmark proves
``ucp_convert``'s streamed pipeline also beats the whole-file reference
conversion (``tests.helpers.full_read_convert``: digest-verified
whole-file loads + in-memory Extract/Union) on *wall-clock* at
paper-relevant scales, sweeping shard size (model), shard count (source
topology) and worker count, and reporting p50/p95/p99 per path.

Methodology (single-box, noisy-neighbor tolerant):

* every config alternates streamed/full conversions back-to-back, so
  regime drift (page-cache state, CPU contention) inflates both paths'
  samples together rather than biasing one;
* the gate compares medians-of-samples, not single shots:
  ``ratio = p50(streamed) / p50(full) <= 1.0`` for every swept row;
* digest identity with the reference output is asserted on every
  row — the speedup is never allowed to change an output byte.

Mini-scale checkpoints (a few MB) are deliberately *not* swept: there
the fixed planning cost (~10 ms of interval-map lowering and range
assembly) exceeds the few-MB byte savings on a warm page cache, so the
streamed win starts at tens-of-MB shards — see docs/PERFORMANCE.md for
the crossover analysis.  ``REPRO_BENCH_SMOKE=1`` trims the sweep to the
CI smoke row.
"""

import os
import shutil
import statistics
import time

from repro.core.convert import CONVERT_SOURCE_FILE, ucp_convert
from repro.dist.topology import ParallelConfig
from repro.storage.store import ObjectStore

from bench_util import make_engine, record_result
from tests.helpers import full_read_convert

GATE_MAX_RATIO = 1.0

# (label, model, source parallel, target parallel, workers, pairs, smoke)
#
# Worker-count axis: both paths are run at the same worker setting per
# row.  Single-thread (w=1) rows are deliberately absent: there both
# pipelines are hash/deserialize-dominated and tie within measurement
# noise (ratio ~0.95-1.05 — see docs/PERFORMANCE.md), so a gated row
# would be a coin flip.  From w=2 up the streamed win is structural:
# digest and extract overlap in the thread pool (both release the GIL),
# while the whole-file reference's working-set deserialize + two-copy
# union gains nothing from extra workers.
SWEEP = [
    (
        "tp4->tp2/medium/w4",
        "gpt3-medium-bench",
        ParallelConfig(tp=4, dp=2),
        ParallelConfig(tp=2, dp=2),
        4,
        9,
        False,
    ),
    (
        "tp2.pp2->dp4.zero2/medium/w4",
        "gpt3-medium-bench",
        ParallelConfig(tp=2, pp=2, dp=2),
        ParallelConfig(dp=4, zero_stage=2),
        4,
        9,
        True,
    ),
    (
        "tp4->tp2/large/w2",
        "gpt3-large-bench",
        ParallelConfig(tp=4, dp=2),
        ParallelConfig(tp=2, dp=2),
        2,
        7,
        False,
    ),
    (
        "tp4->tp2/large/w4",
        "gpt3-large-bench",
        ParallelConfig(tp=4, dp=2),
        ParallelConfig(tp=2, dp=2),
        4,
        7,
        False,
    ),
]


def _dir_digests(path):
    """Output digests, minus the resume marker only ucp_convert writes."""
    store = ObjectStore(path)
    return {
        rel: store.digest(rel)
        for rel in store.list(".")
        if rel != CONVERT_SOURCE_FILE
    }


def _percentiles(samples):
    ordered = sorted(samples)

    def pct(p):
        # nearest-rank percentile: honest with single-digit sample sizes
        idx = min(len(ordered) - 1, max(0, round(p * (len(ordered) - 1))))
        return round(ordered[idx], 4)

    return {"p50": pct(0.50), "p95": pct(0.95), "p99": pct(0.99)}


def test_bench_convert_wallclock(benchmark, tmp_path):
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    sweep = [row for row in SWEEP if row[6]] if smoke else SWEEP

    # durable (fsync-on-commit) writes add identical cost to both paths
    # but double the per-sample variance on a shared box; this benchmark
    # measures the conversion pipelines, not fsync latency (the crash
    # suite covers durability — see test_crashenum_smoke.py)
    prior_durable = os.environ.get("REPRO_DURABLE")
    os.environ["REPRO_DURABLE"] = "0"
    try:
        _run_sweep(benchmark, tmp_path, sweep)
    finally:
        if prior_durable is None:
            os.environ.pop("REPRO_DURABLE", None)
        else:
            os.environ["REPRO_DURABLE"] = prior_durable


def _run_sweep(benchmark, tmp_path, sweep):
    rows = []
    for label, model, source, target, workers, pairs, _ in sweep:
        safe = label.replace(">", "").replace("/", "-")
        engine = make_engine(model, parallel=source)
        engine.train(2)
        ckpt = str(tmp_path / f"{safe}-ckpt")
        engine.save_checkpoint(ckpt)
        del engine
        src_store = ObjectStore(ckpt)
        ckpt_bytes = sum(src_store.size(rel) for rel in src_store.list("."))

        counter = [0]

        def convert_once(streaming, keep=None):
            counter[0] += 1
            out = keep or str(tmp_path / f"{safe}-scratch-{counter[0]}")
            convert = ucp_convert if streaming else full_read_convert
            start = time.perf_counter()
            report = convert(ckpt, out, workers=workers)
            elapsed = time.perf_counter() - start
            if keep is None:
                shutil.rmtree(out)
            return elapsed, report

        # identity pair (kept on disk) doubles as warmup
        stream_dir = str(tmp_path / f"{safe}-stream")
        full_dir = str(tmp_path / f"{safe}-full")
        _, streamed_report = convert_once(True, keep=stream_dir)
        _, full_report = convert_once(False, keep=full_dir)
        assert _dir_digests(stream_dir) == _dir_digests(full_dir), label
        shutil.rmtree(stream_dir)
        shutil.rmtree(full_dir)

        # streamed never reads the bytes the plan proves unneeded: the
        # model_states files (weights re-derivable from fp32 optimizer
        # state) stay untouched, so conversion reads stay strictly under
        # the checkpoint's on-disk footprint.  (Both paths read whole
        # optimizer rank files — streamed for manifest digests, full by
        # construction — so conversion bytes are near-parity; the 0.25x
        # per-rank fraction is the sliced-load claim in
        # BENCH_convert_stream.)
        assert 0 < streamed_report.bytes_read < ckpt_bytes, label

        streamed_s, full_s = [], []
        for _ in range(pairs):
            streamed_s.append(convert_once(True)[0])
            full_s.append(convert_once(False)[0])

        ratio = statistics.median(streamed_s) / statistics.median(full_s)
        rows.append(
            {
                "interchange": label,
                "model": model,
                "source": source.describe(),
                "target": target.describe(),
                "workers": workers,
                "pairs": pairs,
                "checkpoint_bytes": ckpt_bytes,
                "streamed_wallclock_s": _percentiles(streamed_s),
                "full_wallclock_s": _percentiles(full_s),
                "wallclock_ratio_p50": round(ratio, 4),
                "streamed_bytes_read": streamed_report.bytes_read,
                "full_bytes_read": full_report.bytes_read,
                "streamed_digest_bytes": streamed_report.digest_bytes,
                "streamed_planned_state_bytes":
                    streamed_report.planned_state_bytes,
                "num_preads": streamed_report.num_preads,
                "num_batches": streamed_report.num_batches,
                "ranges_coalesced": streamed_report.ranges_coalesced,
                "cache_hits": streamed_report.cache_hits,
                "stage_seconds": {
                    name: round(seconds, 4)
                    for name, seconds in
                    streamed_report.stage_seconds.items()
                },
            }
        )

    # CI convert-perf gate: streamed conversion is at least as fast as
    # the whole-file reference conversion (by sample median) at every
    # swept config
    for row in rows:
        assert row["wallclock_ratio_p50"] <= GATE_MAX_RATIO, (
            row["interchange"],
            row["wallclock_ratio_p50"],
        )

    # register the smoke row's streamed conversion with pytest-benchmark
    gate_row = next(r for r in SWEEP if r[6])
    label, model, source, _, workers, _, _ = gate_row
    safe = label.replace(">", "").replace("/", "-")
    gate_ckpt = str(tmp_path / f"{safe}-ckpt")
    counter = [0]

    def streamed_convert_once():
        counter[0] += 1
        ucp_convert(
            gate_ckpt,
            str(tmp_path / f"bench-wallclock-{counter[0]}"),
            workers=workers,
        )

    benchmark.pedantic(streamed_convert_once, rounds=3, iterations=1)

    record_result(
        "BENCH_convert_wallclock",
        {
            "rows": rows,
            "gate": {
                "max_wallclock_ratio": GATE_MAX_RATIO,
                "rule": "p50(streamed)/p50(full) per row, interleaved "
                        "same-box pairs",
            },
            "fields": {
                "streamed_wallclock_s": "nearest-rank percentiles over "
                    "the row's interleaved streamed samples",
                "full_wallclock_s": "same, for the whole-file reference "
                    "conversion",
                "wallclock_ratio_p50": "p50(streamed)/p50(full); the CI "
                    "convert-perf job gates this at <= 1.0",
                "streamed_bytes_read": "total source bytes the streamed "
                    "conversion read from disk (headers + digest "
                    "verification + planned state; each byte once, "
                    "model_states never touched)",
                "full_bytes_read": "source bytes the whole-file reference "
                    "conversion read (every optimizer rank file, whole)",
                "streamed_digest_bytes": "bytes hashed for manifest "
                    "verification of plan-touched files",
                "streamed_planned_state_bytes": "state bytes the lowered "
                    "read plans actually need",
            },
            "note": "streamed output is digest-identical to the "
                    "whole-file reference on every row; mini-scale rows are "
                    "intentionally absent (fixed ~10ms planning cost "
                    "dominates below tens-of-MB shards — see "
                    "docs/PERFORMANCE.md)",
        },
    )
