"""Per-layer metrics, self-time table and trace file of a traced run.

Layer names are module names: ``engine`` (repro.parallel.engine),
``saver`` (repro.ckpt.saver), ``ckpt_loader`` (repro.ckpt.loader),
``convert`` (repro.core.convert with its provenance pre-flight),
``ucp_loader`` (repro.core.loader + repro.core.ops), ``rangeio``
(repro.storage.rangeio) and ``store`` (repro.storage.store).  Every
metric is a per-op total over the op's timed phases, reported as the
median over traced ops; ``*_s`` of ``store``, ``rangeio`` and the
convert stages are thread-seconds.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

import tracing

CALL_METRICS = {
    "engine.build": "engine.build_s",
    "saver.save": "saver.save_s",
    "ckpt_loader.load": "ckpt_loader.load_s",
    "ucp_loader.load": "ucp_loader.load_s",
}
FACTS = (
    ("saver.bytes", "bytes"), ("saver.files", "count"),
    ("convert.wall_s", "s"), ("convert.plan_s", "thread-s"),
    ("convert.digest_s", "thread-s"), ("convert.assemble_s", "thread-s"),
    ("convert.write_s", "thread-s"), ("convert.bytes_read", "bytes"),
    ("convert.bytes_written", "bytes"), ("convert.preads", "count"),
)


def _per_op(spans: List[tracing.Span], facts: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer quantity of one traced op."""
    top = tracing.top_layer(spans)
    m: Dict[str, float] = defaultdict(float)
    for span in spans:
        name, dur, owner = span.name, span.seconds, top[span.sid]
        if name in CALL_METRICS:
            m[CALL_METRICS[name]] += dur
        elif name in ("store.put", "store.read", "store.fsync"):
            kind = name.split(".")[1]
            m[f"store.{kind}_calls"] += 1
            m[f"store.{kind}_s"] += dur
            m[f"store.{kind}_bytes"] += span.attrs.get("bytes", 0)
            if kind == "read" and owner in ("ckpt_loader.load", "ucp_loader.load"):
                m[f"{owner.split('.')[0]}.bytes_read"] += span.attrs["bytes"]
        elif name == "rangeio.read_multi":
            m["rangeio.read_multi_calls"] += 1
            m["rangeio.read_multi_s"] += dur
        elif name == "rangeio.cache_put":
            m["rangeio.cache_puts"] += span.attrs.get("blocks", 0)
        elif name == "rangeio.lookups":
            m["hits"] += span.attrs.get("hits", 0)
            m["lookups"] += span.attrs.get("hits", 0) + span.attrs.get("misses", 0)
    for key, _ in FACTS:
        m[key] = facts[key]
    m["convert.read_amp"] = facts["convert.bytes_read"] / facts["convert.planned_state_bytes"]
    m["ucp_loader.read_amp"] = m["ucp_loader.bytes_read"] / facts["ucp_loader.partition_bytes"]
    m["rangeio.cache_hit_ratio"] = m["hits"] / m["lookups"] if m["lookups"] else 0.0
    return m


UNITS = dict(
    FACTS,
    **{k: "s" for k in CALL_METRICS.values()},
    **{
        "ckpt_loader.bytes_read": "bytes", "convert.read_amp": "ratio",
        "ucp_loader.bytes_read": "bytes", "ucp_loader.read_amp": "ratio",
        "rangeio.read_multi_calls": "count", "rangeio.read_multi_s": "thread-s",
        "rangeio.cache_puts": "count", "rangeio.cache_hit_ratio": "ratio",
        "store.put_calls": "count", "store.put_s": "thread-s",
        "store.put_bytes": "bytes", "store.fsync_calls": "count",
        "store.fsync_s": "thread-s", "store.read_calls": "count",
        "store.read_s": "thread-s", "store.read_bytes": "bytes",
    },
)


def self_time_lines(spans: List[tracing.Span], n_ops: int) -> List[str]:
    """Self time per layer, and each restart's wall split by layer call."""
    own = tracing.self_times(spans)
    by_name: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        by_name[span.name] += own[span.sid]
        calls[span.name] += 1
    lines = [f"  self time per layer call (thread-s per op, mean of {n_ops} traced "
             "ops; phase.* is time outside any layer call)"]
    for name in sorted(by_name, key=lambda n: (n.split(".")[0], -by_name[n])):
        lines.append(f"    {name:<22} {by_name[name] / n_ops:9.4f}  "
                     f"{calls[name] / n_ops:9.1f} calls")

    kids = tracing.children(spans)
    phases: Dict[str, List[tracing.Span]] = defaultdict(list)
    for span in spans:
        if span.layer == "phase":
            phases[span.name].append(span)

    def split(name: str) -> Dict[str, float]:
        """Mean wall of a phase, by direct layer call plus its own gap."""
        out: Dict[str, float] = defaultdict(float)
        for phase in phases[name]:
            for child in kids.get(phase.sid, ()):
                out[child.name] += child.seconds / len(phases[name])
            out["untracked"] += own[phase.sid] / len(phases[name])
        return out

    lines.append("  restart wall accounting (mean seconds per restart)")
    conv = split("phase.convert")
    for label, parts in (
        ("save_stall_s", [split("phase.save")]),
        ("restart_s", [split("phase.restart")]),
        ("ucp_restart_s", [conv, split("phase.ucp_restart")]),
        ("reshard_restart_s", [conv, split("phase.reshard_restart")]),
    ):
        merged: Dict[str, float] = defaultdict(float)
        for part in parts:
            for key, value in part.items():
                merged[key] += value
        terms = " + ".join(f"{k} {v:.4f}" for k, v in sorted(merged.items()))
        lines.append(f"    {label:<18} {sum(merged.values()):.4f} = {terms}")
    return lines


def per_layer(outcomes, recorder: tracing.Recorder) -> Tuple[Dict, List[str]]:
    """(metrics, report lines) of a traced run."""
    traced = {i: r for i, t, r in outcomes if t}
    untraced = [r for _, t, r in outcomes if not t]
    # spans of failed ops stay in the trace file but not in the metrics
    spans = [s for s in recorder.spans if s.op in traced]
    spans_by_op: Dict[int, List[tracing.Span]] = defaultdict(list)
    for span in spans:
        spans_by_op[span.op].append(span)
    per_op = [_per_op(spans_by_op[i], r.facts) for i, r in traced.items()]
    metrics = {
        key: (statistics.median(m[key] for m in per_op), unit)
        for key, unit in sorted(UNITS.items())
    }
    overhead = (
        statistics.median(r.timed_s for r in traced.values())
        / statistics.median(r.timed_s for r in untraced)
    )
    metrics["trace.overhead"] = (overhead, "ratio")
    lines = self_time_lines(spans, len(traced))
    lines.append(
        f"  trace.overhead: traced / untraced timed-phase p50 = {overhead:.3f} "
        f"({len(traced)} traced, {len(untraced)} untraced ops)"
    )
    return metrics, lines


def write_trace(path, recorder: tracing.Recorder, env: Dict, lines: List[str]) -> None:
    doc = tracing.chrome_trace(recorder.spans, {"env": env, "self_time": lines})
    path.write_text(json.dumps(doc))
