"""Run orchestration: the train / eval / train_eval / infer entry points.

A run is described by a Config; this module builds the worker group, drives
the step loop, logs metrics, and handles checkpoints. With the TCP transport
the runner launches one OS process per worker (each re-reads the config and
joins the ring); with the in-process transport workers are persistent threads
that take turns (see distrib.WorkerGroup).
"""

from __future__ import annotations

import fnmatch
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .blocks import DATA_LAYERS, DataLayer, ModelSpec, Seq2SeqModel, token_accuracy
from .checkpoint import checkpoint_exists, load_checkpoint, save_checkpoint
from .config import RUN_MODES, Config
from .distrib import (
    InProcessTransport,
    Replica,
    TcpTransport,
    WorkerGroup,
    distributed_train_step,
)
from .metrics import MetricsLog, MetricsRow, bleu4, wer
from .mixed_precision import RegularizerRegistry, make_scale_policy
from .optim import LRPolicy, Optimizer

METRICS_FILE = {"train": "metrics.csv", "train_eval": "metrics.csv", "eval": "metrics_eval.csv"}


@dataclass
class RunResult:
    status: int
    artifacts: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


def build_replica(config: Config, rank: int, num_workers: int) -> Replica:
    """One worker's full stack from the config; identical seeds across ranks."""
    spec = ModelSpec(
        encoder=config.encoder, encoder_params=dict(config.encoder_params),
        decoder=config.decoder, decoder_params=dict(config.decoder_params),
        loss=config.loss, loss_params=dict(config.loss_params),
        dtype=config.dtype,
    )
    data = DATA_LAYERS[config.data_layer](**config.data_layer_params)
    model = Seq2SeqModel(spec, vocab_size=data.vocab.size, seed=config.seed)
    shard = data.shard(rank, num_workers)
    optimizer = Optimizer(config.optimizer_kind, **config.optimizer_params)
    lr_policy = LRPolicy(config.lr_policy, **config.lr_policy_params)
    scale_state = make_scale_policy(config.dtype, config.loss_scale,
                                    config.loss_scaling, config.loss_scaling_params)
    registry = RegularizerRegistry()
    for reg in config.regularizers:
        for name, var in sorted(model.variables.items()):
            if var.trainable and fnmatch.fnmatchcase(name, reg["pattern"]):
                registry.register(name, reg.get("kind", "l2_weight_decay"), reg["lambda"])
    return Replica(model, shard, optimizer, lr_policy, scale_state=scale_state,
                   registry=registry, batch_size=config.batch_size_per_gpu)


def _epoch(config: Config, step: int, examples_per_epoch) -> int:
    if not examples_per_epoch:
        return 0
    consumed = (step + 1) * config.batch_size_per_gpu * config.num_workers
    return consumed // examples_per_epoch


def _eval_layer(config: Config) -> DataLayer:
    return DATA_LAYERS[config.data_layer](**{**config.data_layer_params, "split": "eval"})


def evaluate(config: Config, replica: Replica, log: MetricsLog | None, step: int,
             layer: DataLayer | None = None) -> dict:
    """Teacher-forced loss/accuracy plus greedy BLEU/WER on the eval split.

    A run that evaluates more than once passes the eval ``layer`` it built
    once; without one, this call builds it.
    """
    if layer is None:
        layer = _eval_layer(config)
    losses, accs = [], []
    hyps, refs = [], []
    for i in range(config.eval_batches):
        batch = layer.batch(i, config.batch_size_per_gpu)
        loss_node, tape = replica.model.forward(batch)
        logits = tape.ops[-1].inputs[0].value
        losses.append(loss_node.value.item())
        accs.append(token_accuracy(logits, batch))
        decoded = replica.model.greedy_decode(batch.source_ids, batch.source_mask,
                                              max_len=config.infer_max_len)
        for row, ids in enumerate(decoded):
            ref_len = int(batch.target_mask[row].sum()) - 1  # trailing eos excluded
            hyps.append(layer.vocab.decode(ids))
            refs.append(layer.vocab.decode(batch.target_ids[row, :ref_len]))
    summary = {
        "loss": float(np.mean(losses)),
        "token_accuracy": float(np.mean(accs)),
        "bleu": bleu4(hyps, refs) if refs else 0.0,
        "wer": wer(hyps, refs) if refs else 0.0,
        "exact_match": float(np.mean([h == r for h, r in zip(hyps, refs)])) if refs else 0.0,
    }
    if log is not None:
        epoch = _epoch(config, step, layer.examples_per_epoch)
        base = dict(step=step, epoch=epoch, split="eval", loss=summary["loss"], lr=None,
                    loss_scale=replica.scale, grad_norm=None, skipped=False,
                    tokens_per_sec=None)
        log.append(MetricsRow(**base, metric_name="token_accuracy",
                              metric_value=summary["token_accuracy"]))
        log.append(MetricsRow(**{**base, "loss": None}, metric_name="bleu",
                              metric_value=summary["bleu"]))
        log.append(MetricsRow(**{**base, "loss": None}, metric_name="wer",
                              metric_value=summary["wer"]))
    return summary


def _train_in_process(config: Config, mode: str, enable_logs: bool) -> RunResult:
    group_mode = "allreduce" if (config.use_allreduce or config.num_workers == 1) else "tower"
    replicas = [build_replica(config, r, config.num_workers)
                for r in range(config.num_workers)]
    start_step = _resume(config, replicas)
    group = WorkerGroup(replicas, mode=group_mode)
    log = MetricsLog()
    try:
        # run_step already counts the tokens of every replica
        summary = _drive_steps(config, mode, group.run_step, replicas[0], log,
                               start_step, enable_logs, tokens_multiplier=1)
    finally:
        group.close()
    return _finish(config, mode, replicas[0], log, summary)


def _resume(config: Config, replicas: list[Replica]) -> int:
    """The step to start at, after loading any checkpoint into every replica."""
    if not checkpoint_exists(config.checkpoint_dir):
        return 0
    for r in replicas:
        manifest = load_checkpoint(config.checkpoint_dir, r)
    return int(manifest["step"])


def _finish(config: Config, mode: str, rank0: Replica, log: MetricsLog,
            summary: dict) -> RunResult:
    """Save the final checkpoint and write the metrics after any earlier rows."""
    save_checkpoint(config.checkpoint_dir, rank0, config.max_steps, config.content_hash())
    metrics_path = os.path.join(config.checkpoint_dir, METRICS_FILE[mode])
    log.write_csv(metrics_path)
    return RunResult(0, artifacts={"checkpoint_dir": config.checkpoint_dir,
                                   "metrics_csv": metrics_path}, summary=summary)


def _drive_steps(config: Config, mode: str, run_step, rank0: Replica, log: MetricsLog | None,
                 start_step: int, enable_logs: bool, tokens_multiplier: int) -> dict:
    """Step loop; ``tokens_multiplier`` scales ``StepMetrics.tokens`` to the
    whole group for the logged tokens per second."""
    examples_per_epoch = rank0.data.examples_per_epoch
    summary: dict = {}
    layer = None
    for step in range(start_step, config.max_steps):
        m = run_step(step)
        if log is not None:
            log.append(MetricsRow(
                step=step, epoch=_epoch(config, step, examples_per_epoch), split="train",
                loss=m.loss, lr=m.lr, loss_scale=m.scale, grad_norm=m.grad_norm,
                skipped=not m.applied,
                tokens_per_sec=(m.tokens * tokens_multiplier / m.seconds
                                if m.seconds > 0 else None)))
            if enable_logs:
                print(f"step {step} loss {m.loss:.6f} scale {m.scale:g} "
                      f"{'applied' if m.applied else 'skipped'}", flush=True)
        summary["loss"] = m.loss
        if mode == "train_eval" and config.eval_every > 0 and (step + 1) % config.eval_every == 0:
            if log is not None:
                if layer is None:
                    layer = _eval_layer(config)
                summary.update(evaluate(config, rank0, log, step, layer))
    return summary


def _train_tcp_worker(config: Config, mode: str, rank: int, enable_logs: bool) -> RunResult:
    replica = build_replica(config, rank, config.num_workers)
    start_step = _resume(config, [replica])
    transport = TcpTransport(rank, config.worker_addresses)
    log = MetricsLog() if rank == 0 else None

    def run_step(step):
        return distributed_train_step(replica, transport, rank, config.num_workers, step)

    try:
        # each rank counts only its own shard's tokens
        summary = _drive_steps(config, mode, run_step, replica, log, start_step,
                               enable_logs, tokens_multiplier=config.num_workers)
    finally:
        transport.close()
    if rank == 0:
        return _finish(config, mode, replica, log, summary)
    return RunResult(0)


def _spawn_tcp_workers(config_path: str, mode: str, overrides: list[str],
                       num_workers: int) -> RunResult:
    """Launch one process per rank; the first non-zero exit stops the others.

    A thread per process waits on it, so exits arrive in the order they
    happen and the rank that failed first is the one named.
    """
    procs = []
    exits: queue.Queue = queue.Queue()
    try:
        for rank in range(num_workers):
            cmd = [sys.executable, "-m", "miniseq.cli", "--config_file", config_path,
                   "--mode", mode, "--worker_rank", str(rank)] + overrides
            procs.append(subprocess.Popen(cmd))
            threading.Thread(target=lambda r, p: exits.put((r, p.wait())),
                             args=(rank, procs[-1]), daemon=True).start()
        for _ in range(num_workers):
            rank, code = exits.get()
            if code != 0:
                break
        else:
            return RunResult(0)
    finally:
        _stop(procs)
    message = f"worker rank {rank} exited with status {code}; the other ranks were stopped"
    print(f"error: {message}", file=sys.stderr, flush=True)
    # a rank killed by signal N reports -N; the launcher exits 128 + N, as shells do
    return RunResult(code if code > 0 else 128 - code,
                     summary={"failed_rank": rank, "error": message})


def _stop(procs: list[subprocess.Popen], grace: float = 5.0) -> None:
    """Terminate the processes still running, then kill any that outlive ``grace``."""
    for p in procs:
        if p.poll() is None:
            p.terminate()
    deadline = time.monotonic() + grace
    for p in procs:
        try:
            p.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


def run(config: Config, mode: str, *, enable_logs: bool = False,
        infer_input: str | None = None, infer_output: str | None = None,
        config_path: str | None = None, worker_rank: int | None = None,
        cli_overrides: list[str] | None = None) -> RunResult:
    """Execute one run mode; returns exit status plus artifact paths."""
    if mode not in RUN_MODES:
        raise ValueError(f"mode must be one of {RUN_MODES}")

    if mode in ("train", "train_eval"):
        if config.transport == "tcp" and config.num_workers > 1:
            if worker_rank is not None:
                return _train_tcp_worker(config, mode, worker_rank, enable_logs)
            if config_path is None:
                raise ValueError("tcp training needs the config file path to spawn workers")
            return _spawn_tcp_workers(config_path, mode, cli_overrides or [],
                                      config.num_workers)
        return _train_in_process(config, mode, enable_logs)

    if mode == "eval":
        replica = build_replica(config, 0, 1)
        manifest = load_checkpoint(config.checkpoint_dir, replica)
        log = MetricsLog()
        summary = evaluate(config, replica, log, int(manifest["step"]))
        metrics_path = os.path.join(config.checkpoint_dir, METRICS_FILE["eval"])
        log.write_csv(metrics_path)
        return RunResult(0, artifacts={"metrics_csv": metrics_path}, summary=summary)

    # infer
    if not infer_input or not infer_output:
        raise ValueError("infer mode needs --infer_input and --infer_output")
    replica = build_replica(config, 0, 1)
    load_checkpoint(config.checkpoint_dir, replica)
    vocab = replica.data.vocab
    with open(infer_input, encoding="utf-8") as f:
        lines = [line.split() for line in f.read().splitlines()]
    outputs = []
    t0 = time.perf_counter()
    for tokens in lines:
        ids = np.array([vocab.encode(tokens)], dtype=np.int64)
        mask = np.ones_like(ids, dtype=np.float32)
        decoded = replica.model.greedy_decode(ids, mask, max_len=config.infer_max_len)
        outputs.append(" ".join(vocab.decode(decoded[0])))
    with open(infer_output, "w", encoding="utf-8", newline="\n") as f:
        for line in outputs:
            f.write(line + "\n")
    if enable_logs:
        print(f"decoded {len(lines)} sequences in {time.perf_counter() - t0:.2f}s", flush=True)
    return RunResult(0, artifacts={"infer_output": infer_output},
                     summary={"sequences": len(lines)})
