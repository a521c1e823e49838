"""Run orchestration: the train / eval / train_eval / infer entry points.

A run is described by a Config; this module builds the worker group, drives
the step loop, logs metrics, and handles checkpoints. Every training run goes
through one driver, _train, which steps the WorkerGroup of the ranks in its
process: with the in-process transport that is all of them, on a thread pool
where each rank waits only on its own ring edge (see distrib.WorkerGroup);
with the TCP transport the runner spawns one OS process per rank, each
running _train on the caller's Config as a one-rank group that joins the ring.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from multiprocessing.process import BaseProcess

import numpy as np

from .autodiff import Tape
from .blocks import DATA_LAYERS, DataLayer, Seq2SeqModel, token_accuracy
from .checkpoint import checkpoint_exists, load_checkpoint, save_checkpoint
from .config import RUN_MODES, Config, ConfigError
from .distrib import Replica, TcpTransport, WorkerGroup
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
    try:
        data = DATA_LAYERS[config.data_layer](**config.data_layer_params)
    except TypeError as e:
        raise ConfigError(f"data_layer_params: {e}") from e
    model = Seq2SeqModel(config.model_spec(), vocab_size=data.vocab.size, seed=config.seed)
    shard = data.shard(rank, num_workers)
    optimizer = Optimizer(config.optimizer, **config.optimizer_params)
    lr_policy = LRPolicy(config.lr_policy, **config.lr_policy_params)
    scale_state = make_scale_policy(config.dtype, config.loss_scale,
                                    config.loss_scaling, config.loss_scaling_params)
    registry = RegularizerRegistry.from_patterns(config.regularizers, model.variables)
    return Replica(model, shard, optimizer, lr_policy, scale_state=scale_state,
                   registry=registry, batch_size=config.batch_size_per_gpu)


def _epoch(config: Config, step: int, examples_per_epoch) -> int:
    if not examples_per_epoch:
        return 0
    consumed = (step + 1) * config.batch_size_per_gpu * config.num_workers
    return consumed // examples_per_epoch


def _eval_layer(config: Config) -> DataLayer:
    return DATA_LAYERS[config.data_layer](**{**config.data_layer_params, "split": "eval"})


def evaluate(config: Config, replica: Replica, log: MetricsLog, step: int,
             layer: DataLayer) -> dict:
    """Teacher-forced loss/accuracy plus greedy BLEU/WER on the eval split
    ``layer``, appended to ``log`` as the eval rows of ``step``.

    Both passes run on tapes that record nothing, and greedy decoding reuses
    the encoding of the teacher-forced pass, so each batch is encoded once.
    BLEU, WER and exact match score the token ids without decoding them:
    every id is below the vocabulary size, where ids and tokens correspond
    one to one, so the scores are those of the decoded tokens.
    """
    losses, accs = [], []
    hyps, refs = [], []
    model = replica.model
    for i in range(config.eval_batches):
        batch = layer.batch(i, config.batch_size_per_gpu)
        loss, logits, rep = model.teacher_forced(Tape(model.mode, record=False), batch)
        losses.append(loss.item())
        accs.append(token_accuracy(logits, batch))
        decoded = model.greedy_decode(batch.source_ids, batch.source_mask,
                                      max_len=config.infer_max_len, rep=rep)
        ref_lens = batch.target_mask.sum(axis=1).astype(np.int64) - 1  # trailing eos excluded
        for ids, target, n in zip(decoded, batch.target_ids.tolist(), ref_lens.tolist()):
            hyps.append(ids)
            refs.append(target[:n])
    summary = {
        "loss": float(np.mean(losses)),
        "token_accuracy": float(np.mean(accs)),
        "bleu": bleu4(hyps, refs) if refs else 0.0,
        "wer": wer(hyps, refs) if refs else 0.0,
        "exact_match": float(np.mean([h == r for h, r in zip(hyps, refs)])) if refs else 0.0,
    }
    epoch = _epoch(config, step, replica.data.examples_per_epoch)
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


def _infer_lines(model: Seq2SeqModel, lines: list[list[int]], batch_size: int,
                 max_len: int) -> list[list[int]]:
    """Greedy decodes of the id sequences, in input order.

    Lines of one length are decoded together, up to ``batch_size`` at a
    time, so that no batch holds padding. An empty line decodes to nothing.
    """
    order = sorted(range(len(lines)), key=lambda i: len(lines[i]))
    outputs: list[list[int]] = [[] for _ in lines]
    for length, same in itertools.groupby(order, key=lambda i: len(lines[i])):
        if length == 0:
            continue
        same = list(same)
        for k in range(0, len(same), batch_size):
            group = same[k:k + batch_size]
            ids = np.array([lines[i] for i in group], dtype=np.int64)
            decoded = model.greedy_decode(ids, np.ones(ids.shape, dtype=np.float32),
                                          max_len=max_len)
            for i, out in zip(group, decoded):
                outputs[i] = out
    return outputs


def _resume(config: Config, replicas: list[Replica]) -> int:
    """The step to start at, after loading any checkpoint into every replica."""
    if not checkpoint_exists(config.checkpoint_dir):
        return 0
    return int(load_checkpoint(config.checkpoint_dir, *replicas)["step"])


def _train(config: Config, mode: str, enable_logs: bool, rank: int | None = None) -> RunResult:
    """Train the ranks of this process: all of them in process, or TCP rank
    ``rank``. Rank 0 logs, saves the checkpoint at the step reached and
    writes the metrics after any earlier rows."""
    ranks = range(config.num_workers) if rank is None else [rank]
    replicas = [build_replica(config, r, config.num_workers) for r in ranks]
    start_step = _resume(config, replicas)
    transport = None if rank is None else TcpTransport(rank, config.worker_addresses)
    group_mode = "allreduce" if (config.use_allreduce or config.num_workers == 1) else "tower"
    group = WorkerGroup(replicas, mode=group_mode, transport=transport)
    log = MetricsLog() if rank in (None, 0) else None
    try:
        summary = _drive_steps(config, mode, group.run_step, replicas[0], log, start_step,
                               enable_logs)
    finally:
        group.close()
    if log is None:
        return RunResult(0)
    # a resume at or past max_steps trains nothing and keeps the checkpoint's step
    save_checkpoint(config.checkpoint_dir, replicas[0], max(start_step, config.max_steps),
                    config.content_hash())
    metrics_path = os.path.join(config.checkpoint_dir, METRICS_FILE[mode])
    log.write_csv(metrics_path)
    return RunResult(0, artifacts={"checkpoint_dir": config.checkpoint_dir,
                                   "metrics_csv": metrics_path}, summary=summary)


def _drive_steps(config: Config, mode: str, run_step, rank0: Replica, log: MetricsLog | None,
                 start_step: int, enable_logs: bool) -> dict:
    """Step loop; rank 0 (``log`` given) logs a row and a line per step."""
    examples_per_epoch = rank0.data.examples_per_epoch
    summary: dict = {}
    # built before step 0, so that a missing eval split fails before training
    evaluating = mode == "train_eval" and config.eval_every > 0 and log is not None
    layer = _eval_layer(config) if evaluating else None
    for step in range(start_step, config.max_steps):
        m = run_step(step)
        if log is not None:
            log.append(MetricsRow(
                step=step, epoch=_epoch(config, step, examples_per_epoch), split="train",
                loss=m.loss, lr=m.lr, loss_scale=m.scale, grad_norm=m.grad_norm,
                skipped=not m.applied,
                tokens_per_sec=m.tokens / m.seconds if m.seconds > 0 else None))
            if enable_logs:
                print(f"step {step} loss {m.loss:.6f} scale {m.scale:g} "
                      f"{'applied' if m.applied else 'skipped'}", flush=True)
        summary["loss"] = m.loss
        if evaluating and (step + 1) % config.eval_every == 0:
            summary.update(evaluate(config, rank0, log, step, layer))
    return summary


def _spawn_tcp_workers(config: Config, mode: str, enable_logs: bool) -> RunResult:
    """Start one process per rank on ``config``; the first non-zero exit stops
    the others, and the rank that failed first is the one named.

    The processes are spawned, not forked: the launching process may hold
    threads (the in-process pool, a test runner's) whose locks a forked
    child would inherit.
    """
    context = multiprocessing.get_context("spawn")
    procs = [context.Process(target=_train, name=f"miniseq-rank-{rank}",
                             args=(config, mode, enable_logs, rank))
             for rank in range(config.num_workers)]
    try:
        for p in procs:
            p.start()
        running = {p.sentinel: rank for rank, p in enumerate(procs)}
        code = 0
        while running and code == 0:
            for sentinel in wait(list(running)):
                rank = running.pop(sentinel)
                procs[rank].join()
                code = procs[rank].exitcode
                if code != 0:
                    break
        if code == 0:
            return RunResult(0)
    finally:
        _stop(procs)
    message = f"worker rank {rank} exited with status {code}; the other ranks were stopped"
    print(f"error: {message}", file=sys.stderr, flush=True)
    # a rank killed by signal N reports -N; the launcher exits 128 + N, as shells do
    return RunResult(code if code > 0 else 128 - code,
                     summary={"failed_rank": rank, "error": message})


def _stop(procs: list[BaseProcess], grace: float = 5.0) -> None:
    """Terminate the processes still running, then kill any that outlive ``grace``."""
    # a failed start() leaves the later ranks unstarted
    started = [p for p in procs if p.pid is not None]
    for p in started:
        p.terminate()  # a no-op on a process already joined
    deadline = time.monotonic() + grace
    for p in started:
        p.join(max(0.0, deadline - time.monotonic()))
        if p.is_alive():
            p.kill()
            p.join()


def run(config: Config, mode: str, *, enable_logs: bool = False,
        infer_input: str | None = None, infer_output: str | None = None) -> RunResult:
    """Execute one run mode; returns exit status plus artifact paths.

    A TCP training run spawns its ranks, which import the caller's main
    module: a script that calls this must guard its entry point with
    ``if __name__ == "__main__"``.
    """
    if mode not in RUN_MODES:
        raise ValueError(f"mode must be one of {RUN_MODES}")

    if mode in ("train", "train_eval"):
        if config.transport == "tcp" and config.num_workers > 1:
            return _spawn_tcp_workers(config, mode, enable_logs)
        return _train(config, mode, enable_logs)

    if mode == "eval":
        replica = build_replica(config, 0, 1)
        manifest = load_checkpoint(config.checkpoint_dir, replica)
        log = MetricsLog()
        summary = evaluate(config, replica, log, int(manifest["step"]), _eval_layer(config))
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
        lines = [vocab.encode(line.split()) for line in f.read().splitlines()]
    t0 = time.perf_counter()
    outputs = _infer_lines(replica.model, lines, config.batch_size_per_gpu,
                          config.infer_max_len)
    with open(infer_output, "w", encoding="utf-8", newline="\n") as f:
        for ids in outputs:
            f.write(" ".join(vocab.decode(ids)) + "\n")
    if enable_logs:
        print(f"decoded {len(lines)} sequences in {time.perf_counter() - t0:.2f}s", flush=True)
    return RunResult(0, artifacts={"infer_output": infer_output},
                     summary={"sequences": len(lines)})
