"""Checkpoints: a binary named-tensor table plus a JSON manifest.

weights.bin holds every parameter, FP32 master copy (in FP32 runs too, where
it equals the parameter), and optimizer slot as length-prefixed named-tensor
records; manifest.json carries the step, a hash of the config that produced
the run, and the loss-scale state, which is all a resumed run needs to
continue bit-identically.
"""

from __future__ import annotations

import json
import os

from .distrib import Replica
from .tensor import DType, Tensor, cast, read_named_tensor, write_named_tensor

WEIGHTS_FILE = "weights.bin"
MANIFEST_FILE = "manifest.json"


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(directory: str, replica: Replica, step: int, config_hash: str) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, WEIGHTS_FILE), "wb") as f:
        for name in sorted(replica.model.variables):
            write_named_tensor(f, f"var:{name}", replica.model.variables[name].value)
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


def load_checkpoint(directory: str, replica: Replica) -> dict:
    """Restore a replica in place; returns the manifest."""
    if not checkpoint_exists(directory):
        raise CheckpointError(f"no checkpoint at {directory!r}")
    with open(os.path.join(directory, MANIFEST_FILE), encoding="utf-8") as f:
        manifest = json.load(f)
    tensors: dict[str, Tensor] = {}
    with open(os.path.join(directory, WEIGHTS_FILE), "rb") as f:
        while (record := read_named_tensor(f)) is not None:
            tensors[record[0]] = record[1]
    for name, var in replica.model.variables.items():
        key = f"var:{name}"
        if key not in tensors:
            raise CheckpointError(f"checkpoint lacks parameter {name!r}")
        if tensors[key].shape != var.value.shape or tensors[key].dtype is not var.value.dtype:
            raise CheckpointError(f"parameter {name!r} does not match the current model")
        var.value = tensors[key]
    for name in replica.state.master:
        master = tensors.get(f"master:{name}")
        var = replica.model.variables[name]
        if master is None or master.shape != var.value.shape or master.dtype is not DType.F32:
            raise CheckpointError(f"checkpoint lacks FP32 master weights of {name!r}")
        replica.state.master[name] = master
        # apply_update's refresh, so an FP32 parameter is its master again
        var.value = cast(master, var.value.dtype)
    replica.optimizer.slots = {}
    for key, t in tensors.items():
        if key.startswith("opt:"):
            _, var_name, slot_name = key.split(":", 2)
            replica.optimizer.slots.setdefault(var_name, {})[slot_name] = t.f32().copy()
    replica.optimizer.t = int(manifest["optimizer_t"])
    replica.state.scale_state.load_dict(manifest["loss_scale_state"])
    return manifest
