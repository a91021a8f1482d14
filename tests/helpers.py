"""Test helpers: engine factory, numerical-gradient utilities, and the
full-read reference conversion."""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.analysis.interchange import preflight_convert
from repro.ckpt import manifest as manifest_mod
from repro.ckpt import naming
from repro.ckpt.loader import resolve_tag
from repro.core.atom import STATE_KINDS, AtomCheckpoint, AtomStore
from repro.core.convert import _map_maybe_parallel, _resolve_workers
from repro.core.metadata import UCPMetadata
from repro.core.ops import extract, strip_padding, union
from repro.core.patterns import program_for_config
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.models.configs import ModelConfig
from repro.parallel.engine import TrainingEngine
from repro.storage.store import ObjectStore


def make_engine(
    model_name: str = "gpt3-mini",
    parallel: ParallelConfig = None,
    seed: int = 7,
    **kwargs,
) -> TrainingEngine:
    """A small engine with fast defaults."""
    defaults = dict(global_batch_size=4, seq_len=16)
    defaults.update(kwargs)
    return TrainingEngine(
        get_config(model_name),
        parallel if parallel is not None else ParallelConfig(),
        seed=seed,
        **defaults,
    )


def numerical_param_grad(
    forward_loss, param_data: np.ndarray, indices, eps: float = 1e-3
) -> np.ndarray:
    """Central-difference gradient of a scalar loss at selected indices.

    Args:
        forward_loss: zero-arg callable returning the scalar loss
            (reads ``param_data`` by reference).
        param_data: the parameter array to perturb (mutated and
            restored).
        indices: flat indices to probe.
    """
    flat = param_data.reshape(-1)
    grads = np.zeros(len(indices), dtype=np.float64)
    for i, idx in enumerate(indices):
        original = flat[idx]
        flat[idx] = original + eps
        loss_plus = forward_loss()
        flat[idx] = original - eps
        loss_minus = forward_loss()
        flat[idx] = original
        grads[i] = (loss_plus - loss_minus) / (2.0 * eps)
    return grads


def assert_grad_close(analytic, numeric, rtol: float = 5e-2, atol: float = 1e-4):
    """Compare analytic vs central-difference gradients (fp32 noise aware)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(numeric), np.abs(analytic))
    mask = denom > atol
    if mask.any():
        rel = np.abs(analytic[mask] - numeric[mask]) / denom[mask]
        assert rel.max() < rtol, (
            f"gradient mismatch: max rel err {rel.max():.4f} "
            f"(analytic={analytic[mask][rel.argmax()]:.6g}, "
            f"numeric={numeric[mask][rel.argmax()]:.6g})"
        )


@dataclasses.dataclass(frozen=True)
class FullReadConversion:
    """What :func:`full_read_convert` wrote, and the source bytes it read."""

    metadata: UCPMetadata
    bytes_read: int


def full_read_convert(
    ckpt_dir: str,
    ucp_dir: str,
    workers: Optional[int] = None,
) -> FullReadConversion:
    """Reference conversion of the latest tag: Algorithm 1 over
    whole-file rank loads.

    The oracle ``ucp_convert`` is checked against.  It runs the same
    pre-flight (with the byte-provenance theorems), then digest-verifies
    and deserializes every optimizer rank file whole, checks the Adam
    and loss-scaler state rank-uniform, and runs the in-memory
    ``extract`` -> ``union`` -> ``strip_padding`` operators, writing one
    atom per parameter plus ``ucp_meta.npt`` — no read plans, byte
    ranges, block cache or resume.  Each phase fans out over
    ``ucp_convert``'s own worker pool (``workers`` resolves the same
    way), so wall-clock comparisons measure the pipelines alone.
    """
    workers = _resolve_workers(workers)

    src_store = ObjectStore(ckpt_dir)
    src_tag = resolve_tag(src_store, None)
    manifest = manifest_mod.require_manifest(src_store, src_tag)

    def load(rel):
        entry = manifest_mod.manifest_entry(manifest, rel.split("/")[-1])
        return manifest_mod.load_verified(src_store, rel, entry)

    job_config = load(f"{src_tag}/{naming.JOB_CONFIG_FILE}")
    model_cfg = ModelConfig.from_dict(job_config["model_config"])
    source_cfg = ParallelConfig.from_dict(job_config["parallel_config"])
    preflight = preflight_convert(
        src_store,
        src_tag,
        manifest,
        model_cfg,
        source_cfg,
        job_config.get("optimizer_layout", "flat"),
        provenance=True,
    )
    assert preflight.ok, preflight.render_text()

    files = [
        rel for rel in src_store.list(src_tag)
        if rel.endswith("_optim_states.npt")
    ]
    payloads = _map_maybe_parallel(load, files, workers)
    adam, loss_scaler = payloads[0]["adam"], payloads[0].get("loss_scaler")
    for rel, payload in zip(files, payloads):
        assert payload["adam"] == adam, f"{rel}: adam state diverges"
        assert payload.get("loss_scaler") == loss_scaler, (
            f"{rel}: loss-scaler state diverges"
        )

    program = program_for_config(
        model_cfg, expert_parallel=source_cfg.expert_parallel
    )
    fragments = {}
    saved = {}
    for payload in payloads:
        saved.update(payload["sharding"])
        for fragment in extract(payload):
            fragments.setdefault(
                (fragment.name, fragment.kind), []
            ).append(fragment)
    names = sorted({name for name, _ in fragments})
    specs = {
        name: program.resolve_spec(
            name,
            tuple(saved[name]["logical_shape"]),
            tuple(saved[name]["unpadded_shape"]),
        )
        for name in names
    }

    def consolidate(name):
        states = {
            kind: strip_padding(
                union(fragments[(name, kind)], specs[name], source_cfg.tp),
                specs[name],
            )
            for kind in STATE_KINDS
        }
        return AtomCheckpoint(
            name=name, states=states, spec=specs[name].to_dict()
        )

    atoms = _map_maybe_parallel(consolidate, names, workers)
    dst_store = ObjectStore(ucp_dir)
    _map_maybe_parallel(AtomStore(ucp_dir, dst_store).write, atoms, workers)
    metadata = UCPMetadata(
        iteration=int(job_config["iteration"]),
        optimizer_step=max(int(p["optimizer_step"]) for p in payloads),
        model_config=model_cfg.to_dict(),
        source_parallel_config=source_cfg.to_dict(),
        params={
            atom.name: {
                "shape": list(atom.shape),
                "spec": atom.spec,
                "kinds": sorted(atom.states),
            }
            for atom in atoms
        },
        adam=adam,
        training={
            key: job_config[key]
            for key in (
                "seed", "data_seed", "global_batch_size", "seq_len",
                "mp_policy",
            )
        },
        pattern_program=program.to_dict(),
        loss_scaler=loss_scaler,
    )
    metadata.save(dst_store)
    return FullReadConversion(metadata, src_store.bytes_read)
