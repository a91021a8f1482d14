"""Workloads and the op cycle of the restart benchmark.

Every workload runs one source training job at ``tp2.pp2.dp2`` and, per
op, the cycle a real failure forces: the job trains one step and saves
a fresh tag (``saves_per_op`` times), then the job restarts from that
tag in three ways.  Every call goes through the library's public
functions with their own defaults; nothing is tuned for the benchmark.

* standard restart: build an engine in the source topology and
  ``load_distributed_checkpoint``;
* UCP restart: ``ucp_convert``, then build an engine in the source
  topology and ``load_ucp_into_engine`` (the paper's Fig 12 pair);
* reshard restart: the same conversion, then build and load an engine
  in the workload's target topology.

Both UCP restarts include the one conversion's wall time; in a real
failure only one of them happens.  Every timed phase is bracketed by
untimed ``hostspeed.calibrate()`` probes, and each sample is also kept
host-adjusted (see ``hostspeed.py``).  Each op alternates whether the
standard or the UCP restarts go first.  Every restarted engine is
checked against the source job's state; a mismatch fails the op.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from typing import Dict, List, Optional

import numpy as np

from repro.ckpt.loader import load_distributed_checkpoint
from repro.ckpt.manifest import verify_tag
from repro.ckpt.retention import RetentionPolicy, prune_checkpoints
from repro.ckpt.saver import save_distributed_checkpoint
from repro.core.convert import ucp_convert
from repro.core.loader import load_ucp_into_engine
from repro.core.ops import strip_padding
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.parallel.engine import TrainingEngine
from repro.storage.serializer import TensorIndexEntry
from repro.storage.store import ObjectStore

import hostspeed

KINDS = ("fp32", "exp_avg", "exp_avg_sq")
SOURCE = ParallelConfig(tp=2, pp=2, dp=2)
TIMINGS = ("save_stall_s", "restart_s", "ucp_restart_s", "reshard_restart_s")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    model: str
    target: ParallelConfig
    saves_per_op: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "save-medium", "gpt3-medium-bench",
            ParallelConfig(tp=2, pp=2, dp=1), 2,
            "write side: two ~110 MB saves per restart; the restart "
            "shrinks DP only, so the loader never re-slices TP",
        ),
        Workload(
            "restart-small", "gpt3-small-bench",
            ParallelConfig(tp=4, pp=1, dp=2), 1,
            "Fig 12 pair at small scale: ~10 MB of atoms fit the load "
            "cache, so per-file costs and fsyncs dominate",
        ),
        Workload(
            "reshard-medium", "gpt3-medium-bench",
            ParallelConfig(tp=4, pp=1, dp=2), 1,
            "headline reshard: 79 MB of atoms exceed the load cache and "
            "TP changes, so the sliced loader dominates",
        ),
    )
}


class CheckFailed(Exception):
    """A restarted engine or a saved tag does not match the source job."""


@dataclasses.dataclass
class Reference:
    """The source job's state at the tag the restarts load."""

    iteration: int
    step: int
    tensors: Dict[str, Dict[str, np.ndarray]]


def reference_state(engine: TrainingEngine) -> Reference:
    """Consolidated, padding-stripped state of every kind.

    Padding rows are stripped because the source keeps its nonzero
    init there while UCP re-pads with zeros by design.
    """
    specs = engine.layout.shard_specs
    tensors = {
        kind: {
            name: strip_padding(arr, specs[name])
            for name, arr in engine.zero.consolidated_tensors(kind).items()
        }
        for kind in KINDS
    }
    return Reference(engine.iteration, engine.zero.global_step, tensors)


def check_restart(engine: TrainingEngine, ref: Reference, what: str) -> None:
    if engine.iteration != ref.iteration:
        raise CheckFailed(
            f"{what}: iteration {engine.iteration} != {ref.iteration}"
        )
    steps = {p.state.step for parts in engine.zero.partitions.values() for p in parts}
    if steps != {ref.step}:
        raise CheckFailed(f"{what}: optimizer steps {sorted(steps)} != {ref.step}")
    specs = engine.layout.shard_specs
    for kind in KINDS:
        got = engine.zero.consolidated_tensors(kind)
        for name, want in ref.tensors[kind].items():
            if not np.array_equal(strip_padding(got[name], specs[name]), want):
                raise CheckFailed(f"{what}: {kind} of {name!r} differs from source")


def partition_bytes(engine: TrainingEngine) -> int:
    """Bytes of every ZeRO partition of every state kind."""
    numel = sum(p.numel for parts in engine.zero.partitions.values() for p in parts)
    return numel * 4 * len(KINDS)


def corrupt(directory: str, rel_dir: str, name_part: str) -> None:
    """Flip one payload byte of the first file whose path has ``name_part``.

    The byte is the high byte of a float32 inside the file's first
    tensor payload, so the damage changes a value, not just a digest.
    """
    store = ObjectStore(directory)
    rel = next(r for r in store.list(rel_dir) if name_part in r)
    stack = [store.load_index(rel)]
    while stack:
        node = stack.pop()
        if isinstance(node, TensorIndexEntry) and node.nbytes >= 4:
            pos = node.offset + (node.nbytes // 2) // 4 * 4 + 3
            break
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
    else:
        raise ValueError(f"no tensor payload in {rel}")
    path = os.path.join(directory, rel)
    with open(path, "r+b") as fh:
        fh.seek(pos)
        byte = fh.read(1)[0]
        fh.seek(pos)
        fh.write(bytes([byte ^ 0x40]))


class Job:
    """The source training job whose tags every restart loads."""

    def __init__(self, workload: Workload, seed: int, ckpt_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.ckpt_dir = ckpt_dir
        self.model_cfg = get_config(workload.model)
        self.engine = self.build(SOURCE)
        self.engine.train(1)
        save_distributed_checkpoint(self.engine, ckpt_dir)

    def build(self, parallel: ParallelConfig) -> TrainingEngine:
        return TrainingEngine(
            self.model_cfg, parallel, seed=self.seed, data_seed=self.seed + 1
        )


@dataclasses.dataclass
class OpResult:
    """Timed samples and layer facts of one successful op.

    ``samples`` are wall seconds and ``adjusted`` the same samples in
    host-adjusted seconds; ``host_factors`` holds each timed phase's
    ``hostspeed.factor``.
    """

    samples: Dict[str, List[float]]
    adjusted: Dict[str, List[float]]
    facts: Dict[str, float]
    host_factors: List[float]

    @property
    def timed_s(self) -> float:
        """Wall time of every timed phase, convert counted once."""
        return (
            sum(self.samples["save_stall_s"]) + sum(self.samples["restart_s"])
            + sum(self.samples["ucp_restart_s"])
            + sum(self.samples["reshard_restart_s"]) - self.facts["convert.wall_s"]
        )


def run_op(job: Job, index: int, rec, fault: Optional[str] = None) -> OpResult:
    """One save -> restart cycle; raises on any failure or check mismatch.

    ``fault`` ("rank-file" or "atom") flips a byte of the newest tag's
    rank file before the restarts, or of an atom after the conversion;
    only the benchmark's self-test sets it.
    """
    w = job.workload
    samples: Dict[str, List[float]] = {k: [] for k in TIMINGS}
    adjusted: Dict[str, List[float]] = {k: [] for k in TIMINGS}
    facts: Dict[str, float] = {"saver.bytes": 0, "saver.files": 0}
    factors: Dict[str, float] = {}
    all_factors: List[float] = []

    @contextlib.contextmanager
    def phase(name: str):
        """A timed phase; sets ``factors[name]`` from the probes around it."""
        before = hostspeed.calibrate()
        with rec.span(f"phase.{name}") as span:
            yield span
        factors[name] = hostspeed.factor(before, hostspeed.calibrate())
        all_factors.append(factors[name])

    def record(key: str, *parts) -> None:
        """One sample of ``key``: the sum of (phase name, span) parts."""
        samples[key].append(sum(span.seconds for _, span in parts))
        adjusted[key].append(sum(span.seconds / factors[name] for name, span in parts))

    for _ in range(w.saves_per_op):
        job.engine.train(1)
        with phase("save") as save:
            with rec.span("saver.save", anchor=True):
                info = save_distributed_checkpoint(job.engine, job.ckpt_dir)
        record("save_stall_s", ("save", save))
        facts["saver.bytes"] += info.total_bytes
        facts["saver.files"] += len(info.files)
        problems = verify_tag(ObjectStore(job.ckpt_dir), info.tag, deep=True)
        if problems:
            raise CheckFailed(f"save {info.tag}: {problems}")
    tag = info.tag
    ref = reference_state(job.engine)
    if fault == "rank-file":
        corrupt(job.ckpt_dir, tag, "optim_states")

    def standard() -> None:
        with phase("restart") as timed:
            with rec.span("engine.build"):
                engine = job.build(SOURCE)
            with rec.span("ckpt_loader.load", anchor=True):
                load_distributed_checkpoint(engine, job.ckpt_dir, tag=tag)
        record("restart_s", ("restart", timed))
        check_restart(engine, ref, "standard restart")

    def universal() -> None:
        ucp_dir = os.path.join(job.ckpt_dir, f"ucp_{tag}")
        with phase("convert") as convert:
            with rec.span("convert.ucp_convert", anchor=True):
                report = ucp_convert(job.ckpt_dir, ucp_dir, tag=tag)
        stages = report.stage_seconds
        facts.update({
            "convert.wall_s": convert.seconds,
            "convert.plan_s": stages.get("plan", 0.0),
            "convert.digest_s": stages.get("digest", 0.0),
            "convert.assemble_s": stages.get("assemble", 0.0),
            "convert.write_s": stages.get("write", 0.0),
            "convert.bytes_read": report.bytes_read,
            "convert.bytes_written": report.bytes_written,
            "convert.preads": report.num_preads,
            "convert.planned_state_bytes": report.planned_state_bytes,
            "ucp_loader.partition_bytes": 0,
        })
        if fault == "atom":
            corrupt(ucp_dir, ".", "fp32")
        for key, parallel in (("ucp_restart_s", SOURCE), ("reshard_restart_s", w.target)):
            with phase(key[:-2]) as load:
                with rec.span("engine.build"):
                    engine = job.build(parallel)
                with rec.span("ucp_loader.load", anchor=True):
                    load_ucp_into_engine(engine, ucp_dir)
            record(key, ("convert", convert), (key[:-2], load))
            facts["ucp_loader.partition_bytes"] += partition_bytes(engine)
            check_restart(engine, ref, key[:-2])
            del engine  # free it before the next build, as a restart would

    for restart in (standard, universal) if index % 2 == 0 else (universal, standard):
        restart()
    prune_checkpoints(job.ckpt_dir, RetentionPolicy(keep_last=1))
    return OpResult(samples, adjusted, facts, all_factors)
