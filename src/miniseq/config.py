"""Declarative JSON run configuration.

Key names mirror the usual training-config vocabulary
("batch_size_per_gpu", "optimizer", "lr_policy", "dtype", "loss_scale",
"loss_scaling", ...). Parsing is strict: unknown keys are rejected so a typo
cannot silently fall back to a default.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from .blocks import DATA_LAYERS, ModelSpec, Seq2SeqModel
from .mixed_precision import RegularizerRegistry, make_scale_policy
from .optim import LR_POLICY_PARAMS, OPTIMIZER_PARAMS, LRPolicy, Optimizer


class ConfigError(ValueError):
    pass


_TRANSPORTS = ("in_process", "tcp")
RUN_MODES = ("train", "eval", "train_eval", "infer")


@dataclass
class Config:
    batch_size_per_gpu: int = 32
    num_workers: int = 1
    use_allreduce: bool = False
    transport: str = "in_process"
    worker_addresses: list = field(default_factory=list)
    dtype: str = "float32"
    loss_scale: float | None = None
    loss_scaling: str | None = None
    loss_scaling_params: dict = field(default_factory=dict)
    optimizer: str = "adam"
    optimizer_params: dict = field(default_factory=dict)
    lr_policy: str = "constant"
    lr_policy_params: dict = field(default_factory=dict)
    encoder: str = "rnn"
    encoder_params: dict = field(default_factory=dict)
    decoder: str = "attention_rnn"
    decoder_params: dict = field(default_factory=dict)
    loss: str = "basic_sequence"
    data_layer: str = "copy_task"
    data_layer_params: dict = field(default_factory=dict)
    regularizers: list = field(default_factory=list)
    max_steps: int = 1000
    eval_every: int = 100
    eval_batches: int = 4
    infer_max_len: int = 32
    seed: int = 1234
    checkpoint_dir: str = "checkpoints"

    def validate(self) -> "Config":
        if self.batch_size_per_gpu < 1:
            raise ConfigError("batch_size_per_gpu must be >= 1")
        if self.num_workers < 1:
            raise ConfigError("num_workers must be >= 1")
        if self.eval_batches < 1:
            raise ConfigError("eval_batches must be >= 1")
        if self.data_layer not in DATA_LAYERS:
            raise ConfigError(f"unknown data_layer {self.data_layer!r}")
        if self.transport not in _TRANSPORTS:
            raise ConfigError(f"unknown transport {self.transport!r}")
        if self.transport == "tcp" and len(self.worker_addresses) != self.num_workers:
            raise ConfigError("tcp transport needs one worker address per worker")
        if self.transport == "tcp" and not self.use_allreduce:
            raise ConfigError("transport 'tcp' runs allreduce only: it needs use_allreduce true")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        # each part is checked by the builder the run uses; the data layer may read
        # files, so runner.build_replica checks its params when it builds it
        spec = self.model_spec()
        for key, build in (
                ("model", spec.validate),
                ("optimizer", lambda: Optimizer(self.optimizer, **self.optimizer_params)),
                ("lr_policy", lambda: LRPolicy(self.lr_policy, **self.lr_policy_params)),
                ("loss_scaling", lambda: make_scale_policy(
                    self.dtype, self.loss_scale, self.loss_scaling, self.loss_scaling_params)),
                # the variable names do not depend on the vocabulary size
                ("regularizers", lambda: self.regularizers and RegularizerRegistry.from_patterns(
                    self.regularizers, Seq2SeqModel(spec, vocab_size=1).variables))):
            try:
                build()
            except (TypeError, ValueError, KeyError) as e:
                raise ConfigError(f"{key}: {e}") from e
        # the constructors accept every kind's keywords, so one kind's key passes another
        for key, kind, params, reads in (
                ("optimizer", self.optimizer.lower(), self.optimizer_params, OPTIMIZER_PARAMS),
                ("lr_policy", self.lr_policy, self.lr_policy_params, LR_POLICY_PARAMS)):
            unread = sorted(set(params) - set(reads[kind]))
            if unread:
                raise ConfigError(f"{key}: {kind!r} does not read {key}_params {unread}")
        return self

    def model_spec(self) -> ModelSpec:
        return ModelSpec(encoder=self.encoder, encoder_params=dict(self.encoder_params),
                         decoder=self.decoder, decoder_params=dict(self.decoder_params),
                         loss=self.loss, dtype=self.dtype)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def content_hash(self) -> str:
        return hashlib.sha256(json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()


def parse_config(data: bytes | str) -> Config:
    """Strict parse of the JSON document into a validated Config."""
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e.msg} at line {e.lineno}"
                          f" column {e.colno}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = set(Config.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return Config(**raw).validate()


def load_config(path: str) -> Config:
    with open(path, "rb") as f:
        return parse_config(f.read())
