"""Checkpoints: a binary named-tensor table plus a JSON manifest.

weights.bin holds each trainable parameter once, as its FP32 master copy
(in FP32 runs too, where it is the parameter), plus every optimizer slot, as
length-prefixed named-tensor records; a restored parameter is its master cast
to the parameter's dtype, as after every applied step. manifest.json carries
the step, a hash of the config that produced the run, and the loss-scale
state, which is all a resumed run needs to continue bit-identically. The
``var:`` parameter records that older checkpoints also hold are ignored. A
resume refuses another dtype mode or loss-scale policy kind, with a
CheckpointError that names both, a missing or misshapen master, and optimizer
records other than the FP32 slots its optimizer keeps for every trainable
variable (none before its first step); it checks all of these before it
changes the replica.
"""

from __future__ import annotations

import json
import os

from .distrib import Replica
from .optim import OPTIMIZER_SLOTS
from .tensor import DType, Tensor, cast, read_named_tensor, write_named_tensor

WEIGHTS_FILE = "weights.bin"
MANIFEST_FILE = "manifest.json"


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(directory: str, replica: Replica, step: int, config_hash: str) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, WEIGHTS_FILE), "wb") as f:
        for name in sorted(replica.state.master):
            write_named_tensor(f, f"master:{name}", replica.state.master[name])
        for var_name in sorted(replica.optimizer.slots):
            for slot_name, arr in sorted(replica.optimizer.slots[var_name].items()):
                write_named_tensor(f, f"opt:{var_name}:{slot_name}",
                                   Tensor.from_array(arr))
    manifest = {
        "step": step,
        "config_hash": config_hash,
        "mode": replica.model.mode,
        "optimizer_t": replica.optimizer.t,
        "loss_scale_state": replica.state.scale_state.to_dict(),
    }
    with open(os.path.join(directory, MANIFEST_FILE), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def checkpoint_exists(directory: str) -> bool:
    return (os.path.isfile(os.path.join(directory, WEIGHTS_FILE))
            and os.path.isfile(os.path.join(directory, MANIFEST_FILE)))


def load_checkpoint(directory: str, *replicas: Replica) -> dict:
    """Restore replicas in place from one read of the checkpoint; returns the manifest.

    The replicas share the decoded tensors, which nothing mutates, but each
    gets its own optimizer slot arrays, which the optimizer updates in place.
    """
    if not checkpoint_exists(directory):
        raise CheckpointError(f"no checkpoint at {directory!r}")
    with open(os.path.join(directory, MANIFEST_FILE), encoding="utf-8") as f:
        manifest = json.load(f)
    tensors: dict[str, Tensor] = {}
    with open(os.path.join(directory, WEIGHTS_FILE), "rb") as f:
        while (record := read_named_tensor(f)) is not None:
            tensors[record[0]] = record[1]
    for replica in replicas:
        _restore(replica, manifest, tensors)
    return manifest


def _restore(replica: Replica, manifest: dict, tensors: dict[str, Tensor]) -> None:
    if manifest["mode"] != replica.model.mode:
        raise CheckpointError(f"checkpoint of a {manifest['mode']!r} model does not match "
                              f"the current {replica.model.mode!r} model")
    masters = {name: tensors.get(f"master:{name}") for name in replica.state.master}
    for name, master in masters.items():
        var = replica.model.variables[name]
        if master is None or master.shape != var.value.shape or master.dtype is not DType.F32:
            raise CheckpointError(f"checkpoint lacks FP32 master weights of {name!r}")
    optimizer_t = int(manifest["optimizer_t"])
    slots = _checked_slots(replica, optimizer_t, tensors)
    try:
        replica.state.scale_state.load_dict(manifest["loss_scale_state"])
    except ValueError as e:
        raise CheckpointError(str(e)) from e
    for name, master in masters.items():
        var = replica.model.variables[name]
        replica.state.master[name] = master
        # apply_update's refresh, so an FP32 parameter is its master again
        var.value = cast(master, var.value.dtype)
    replica.optimizer.slots = {name: {slot: t.f32().copy() for slot, t in per_var.items()}
                               for name, per_var in slots.items()}
    replica.optimizer.t = optimizer_t


def _checked_slots(replica: Replica, t: int, tensors: dict[str, Tensor]
                   ) -> dict[str, dict[str, Tensor]]:
    """The ``opt:`` records, which must be exactly the FP32 slots that the
    replica's optimizer keeps for every trainable variable after ``t`` steps."""
    kept = OPTIMIZER_SLOTS[replica.optimizer.kind] if t > 0 else ()
    wanted = {f"opt:{name}:{slot}": (name, slot)
              for name in sorted(replica.state.master) for slot in kept}
    for key in tensors:
        if key.startswith("opt:") and key not in wanted:
            raise CheckpointError(f"checkpoint holds the optimizer record {key!r}, which a "
                                  f"{replica.optimizer.kind} optimizer at step {t} does not keep")
    slots: dict[str, dict[str, Tensor]] = {}
    for key, (name, slot) in wanted.items():
        record, shape = tensors.get(key), replica.model.variables[name].value.shape
        if record is None or record.shape != shape or record.dtype is not DType.F32:
            raise CheckpointError(f"checkpoint lacks the FP32 {shape} optimizer record {key!r}")
        slots.setdefault(name, {})[slot] = record
    return slots
