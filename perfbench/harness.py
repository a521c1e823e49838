"""The four training workloads, their timed trials, output checks and metrics.

Every trial goes through the program's real entry point,
``runner.run(config, "train_eval")``, on a config generated from the seed.
The load is a closed loop with one caller: step n+1 starts only after step n
returns. A trial runs a fixed number of steps so that its losses repeat
exactly for one seed; a run repeats trials until its time is spent.

Untraced trials wrap only ``WorkerGroup.run_step`` (to time each group
step), ``runner.evaluate`` (to time the eval pass) and
``Seq2SeqModel.greedy_decode`` (to check that every sequence is decoded).
Traced trials add a span around every public function listed in LAYER_SEAMS.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import stats
import tracing
from tracing import Recorder, patched, seam_name

from miniseq import runner
from miniseq.config import parse_config

SEQ_LEN = 8
GLOBAL_BATCH = 32
TOKENS_PER_STEP = GLOBAL_BATCH * (SEQ_LEN + 1)  # fixed-length sequences plus eos
FINAL_LOSS_STEPS = 50
SETUP_PROBES = 20  # before every trial, so set-up is sampled across the run
WARMUP_STEPS = 10
P_TAIL = 95

# The parity model of the acceptance tests (hidden 64, emb 32, vocab 16).
MODEL = {
    "encoder": "rnn", "encoder_params": {"layers": 1, "hidden": 64, "emb_size": 32},
    "decoder": "attention_rnn", "decoder_params": {"hidden": 64, "emb_size": 32},
    "loss": "basic_sequence",
    "optimizer": "Adam",
    "lr_policy": "constant", "lr_policy_params": {"learning_rate": 0.001},
    # greedy decode stops at the reference length (seq_len tokens plus eos)
    "infer_max_len": SEQ_LEN + 1,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data_layer: str
    workers: int
    allreduce: bool
    dtype: str
    # Steps per trial, fixed so losses repeat for one seed. Short enough that
    # the loss has not started its seed-dependent fall (README: Load shape).
    steps: int
    eval_batches: int
    extra: dict = field(default_factory=dict)
    same_digest_as: str | None = None   # workload that must end bit-identical
    idle_seams: frozenset = frozenset()  # seams this workload never calls

    def config(self, seed: int, checkpoint_dir: str, steps: int | None = None,
               eval_batches: int | None = None) -> dict:
        steps = steps or self.steps
        return {
            **MODEL, **self.extra,
            "data_layer": self.data_layer,
            "data_layer_params": {"vocab_size": 16, "seq_len": SEQ_LEN, "seed": seed},
            "seed": seed,
            "batch_size_per_gpu": GLOBAL_BATCH // self.workers,
            "num_workers": self.workers,
            "use_allreduce": self.allreduce,
            "transport": "in_process",
            "dtype": self.dtype,
            "max_steps": steps,
            "eval_every": steps,
            "eval_batches": eval_batches or self.eval_batches,
            "checkpoint_dir": checkpoint_dir,
        }


_NO_F16 = {("miniseq.halffloat", "narrow_host"), ("miniseq.tensor", "cast")}
_NO_TOWER = {("miniseq.distrib", "tower_train_step"),
             ("miniseq.distrib", "Replica.copy_parameters_from")}
_NO_TRANSPORT = {("miniseq.distrib", "InProcessTransport.send"),
                 ("miniseq.distrib", "InProcessTransport.recv")}
_NO_RING = _NO_TRANSPORT | {
    ("miniseq.distrib", n) for n in ("distributed_train_step", "allreduce_flag_or",
                                     "ring_allreduce", "ReduceBucket.flatten",
                                     "ReduceBucket.unflatten")}

WORKLOADS = {w.name: w for w in [
    Workload("copy-fp32",
             "single-worker fp32 baseline: blocks and autodiff do the work, no F16, "
             "K=1 pass-through reduce",
             "copy_task", 1, False, "float32", steps=100, eval_batches=40,
             idle_seams=frozenset(_NO_F16 | _NO_TOWER | _NO_TRANSPORT)),
    Workload("copy-mixed-backoff",
             "emulated F16 with Backoff scaling (growth interval 20): narrowing, F16 "
             "fan-in and overflow skips run",
             # 130 steps: the first overflow skip comes at step 100 to 120
             "copy_task", 1, False, "mixed", steps=130, eval_batches=40,
             extra={"loss_scaling": "Backoff", "loss_scaling_params": {"growth_interval": 20}},
             idle_seams=frozenset(_NO_TOWER | _NO_TRANSPORT)),
    Workload("reverse-k4-allreduce",
             "4 threaded workers x batch 8 with flag-OR and ring allreduce over the "
             "in-process transport",
             "reverse_task", 4, True, "float32", steps=100, eval_batches=128,
             same_digest_as="reverse-k4-tower",
             idle_seams=frozenset(_NO_F16 | _NO_TOWER)),
    Workload("reverse-k4-tower",
             "same data and compute as reverse-k4-allreduce, summed in one thread: "
             "transport and ring bypassed",
             "reverse_task", 4, False, "float32", steps=100, eval_batches=64,
             idle_seams=frozenset(_NO_F16 | _NO_RING)),
]}


# -- one trial ----------------------------------------------------------------------


class _SetupDone(Exception):
    """Raised at the first step of a set-up probe."""


@dataclass
class Trial:
    steps: int = 0
    setup_s: float = math.nan
    step_s: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    applied: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    eval_s: float = 0.0
    eval_seqs: int = 0
    eval_expected: int = 0
    eval_loss: float = math.nan
    digests: list = field(default_factory=list)
    wall_s: float = 0.0
    errors: list = field(default_factory=list)


def tokens_per_s(trials) -> float:
    """Target tokens of the timed steps over the wall time of those steps."""
    step_s = [s for t in trials for s in t.step_s]
    return len(step_s) * TOKENS_PER_STEP / sum(step_s)


def _probe_wrappers(trial: Trial, setup_only: bool) -> dict:
    """Light wrappers installed in every trial, traced or not."""
    state = {"t0": None, "group": None}

    def run_step(fn):
        @functools.wraps(fn)
        def wrapper(group, *args, **kwargs):
            if state["group"] is None:
                state["group"] = group
                trial.setup_s = time.perf_counter() - state["t0"]
                if setup_only:
                    raise _SetupDone
            t0 = time.perf_counter()
            m = fn(group, *args, **kwargs)
            trial.step_s.append(time.perf_counter() - t0)
            trial.losses.append(m.loss)
            trial.applied.append(bool(m.applied))
            trial.scales.append(m.scale)
            return m
        return wrapper

    def evaluate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            summary = fn(*args, **kwargs)
            trial.eval_s += time.perf_counter() - t0
            trial.eval_loss = summary["loss"]
            return summary
        return wrapper

    def greedy_decode(fn):
        @functools.wraps(fn)
        def wrapper(model, source_ids, source_mask, *args, **kwargs):
            out = fn(model, source_ids, source_mask, *args, **kwargs)
            rows = source_ids.shape[0]
            max_len = kwargs.get("max_len", args[0] if args else None)
            if len(out) != rows:
                trial.errors.append(f"greedy_decode returned {len(out)} of {rows} sequences")
            elif any(not 0 <= i < model.vocab_size for seq in out for i in seq) or (
                    max_len is not None and any(len(seq) > max_len for seq in out)):
                trial.errors.append("greedy_decode produced an invalid sequence")
            trial.eval_seqs += len(out)
            return out
        return wrapper

    wrappers = {("miniseq.distrib", "WorkerGroup.run_step"): run_step,
                ("miniseq.runner", "evaluate"): evaluate,
                ("miniseq.blocks", "Seq2SeqModel.greedy_decode"): greedy_decode}
    return state, wrappers


def run_trial(workload: Workload, seed: int, workdir: str, *, steps: int | None = None,
              eval_batches: int | None = None, setup_only: bool = False,
              recorder: Recorder | None = None) -> Trial:
    """One ``runner.run`` of the workload; failures land in ``Trial.errors``."""
    gc.collect()  # earlier trials' reference cycles are not collected inside this one
    checkpoint_dir = os.path.join(workdir, "trial")
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    config = workload.config(seed, checkpoint_dir, steps, eval_batches)
    trial = Trial(steps=0 if setup_only else config["max_steps"],
                  eval_expected=config["eval_batches"] * config["batch_size_per_gpu"])
    state, wrappers = _probe_wrappers(trial, setup_only)
    layer_wrappers = layer_seam_wrappers(recorder) if recorder is not None else {}
    start = time.perf_counter()
    with patched(wrappers), patched(layer_wrappers):
        state["t0"] = time.perf_counter()
        try:
            runner.run(parse_config(json.dumps(config)), "train_eval")
        except _SetupDone:
            pass
        except Exception:  # noqa: BLE001 - a failed step is counted, not fatal
            trial.errors.append(traceback.format_exc())
    trial.wall_s = time.perf_counter() - start
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    if not setup_only:
        if state["group"] is not None:
            trial.digests = state["group"].parameter_digests()
        trial.errors += output_errors(trial)
    return trial


def output_errors(trial: Trial) -> list[str]:
    errors = []
    if len(trial.step_s) != trial.steps:
        errors.append(f"{len(trial.step_s)} of {trial.steps} steps completed")
    bad = [i for i, loss in enumerate(trial.losses) if not math.isfinite(loss)]
    if bad:
        errors.append(f"non-finite loss at step {bad[0]}")
    if len(set(trial.digests)) > 1:
        errors.append(f"replica digests differ after {len(trial.step_s)} steps")
    if trial.eval_seqs != trial.eval_expected:
        errors.append(f"eval decoded {trial.eval_seqs} of {trial.eval_expected} sequences")
    if not math.isfinite(trial.eval_loss):
        errors.append("eval loss is not finite")
    return errors


# -- traced seams ----------------------------------------------------------------------

TAPE_KINDS = ("matmul", "add", "bias_add", "tanh", "embedding_gather", "attn_scores",
              "attn_weights", "attn_context", "concat_last_axis", "stack_steps",
              "softmax_cross_entropy_with_mask")


def _group_step(bound):
    return 0, bound["step"]


def _rank_step(bound):
    return bound["rank"], bound["step"]


def _ckpt_bytes(bound, _result):
    d = bound["directory"]
    return sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d))


# (module, attribute) -> (context, count); see Recorder.wrap
LAYER_SEAMS = {
    ("miniseq.halffloat", "narrow_host"): (None, lambda b, r: int(np.size(b["x"]))),
    ("miniseq.tensor", "cast"): (None, None),
    ("miniseq.autodiff", "backward"): (None, lambda b, r: len(b["tape"].ops)),
    **{("miniseq.autodiff", f"Tape.{k}"): (None, None) for k in TAPE_KINDS},
    ("miniseq.blocks", "DataLayer.batch"): (None, None),
    ("miniseq.blocks", "Seq2SeqModel.forward"): (None, None),
    ("miniseq.blocks", "Seq2SeqModel.greedy_decode"): (None, lambda b, r: len(r)),
    ("miniseq.mixed_precision", "check_finite_all"): (None, None),
    ("miniseq.mixed_precision", "unscale_to_f32"): (None, None),
    ("miniseq.optim", "Optimizer.step"): (None, None),
    ("miniseq.distrib", "WorkerGroup.run_step"): (_group_step, None),
    ("miniseq.distrib", "distributed_train_step"): (_rank_step, None),
    ("miniseq.distrib", "tower_train_step"): (None, None),
    ("miniseq.distrib", "allreduce_flag_or"): (None, None),
    ("miniseq.distrib", "ring_allreduce"): (None, None),
    ("miniseq.distrib", "InProcessTransport.send"): (None, lambda b, r: len(b["message"])),
    ("miniseq.distrib", "InProcessTransport.recv"): (None, None),
    ("miniseq.distrib", "ReduceBucket.flatten"): (None, None),
    ("miniseq.distrib", "ReduceBucket.unflatten"): (None, None),
    ("miniseq.distrib", "Replica.apply"): (None, None),
    ("miniseq.distrib", "Replica.copy_parameters_from"): (None, None),
    ("miniseq.checkpoint", "save_checkpoint"): (None, _ckpt_bytes),
    ("miniseq.metrics", "MetricsLog.append"): (None, None),
    ("miniseq.metrics", "MetricsLog.write_csv"): (None, None),
    ("miniseq.runner", "build_replica"): (None, None),
}


def layer_seam_wrappers(recorder: Recorder) -> dict:
    return {seam: recorder.wrap(seam_name(*seam), context, count)
            for seam, (context, count) in LAYER_SEAMS.items()}


def unused_seams(workload: Workload, spans) -> list[str]:
    """Seams the workload should call but did not: reporting them as 0 would lie."""
    hit = {s.name for s in spans}
    return [seam_name(*seam) for seam in LAYER_SEAMS
            if seam not in workload.idle_seams and seam_name(*seam) not in hit]


# -- metrics --------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(trials: list[Trial], setups: list[float], rss_mb: float) -> dict:
    step_s = [s for t in trials for s in t.step_s]
    first = trials[0]
    return {
        "train_tokens_per_s": (tokens_per_s(trials), "tokens/s"),
        "step_ms_p50": (1e3 * statistics.median(step_s), "ms"),
        "step_ms_p95": (1e3 * stats.percentile(step_s, P_TAIL), "ms"),
        "eval_seqs_per_s": (sum(t.eval_seqs for t in trials) / sum(t.eval_s for t in trials),
                            "seq/s"),
        "final_loss": (float(np.mean(first.losses[-FINAL_LOSS_STEPS:])), "nats"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def layer_metrics(spans, trial: Trial) -> dict:
    """Per-layer figures of one traced trial: per group step, summed over ranks,
    unless the unit says otherwise."""
    n = len(trial.step_s)
    in_step = [s for s in spans if s.step is not None]
    by_name: dict[str, list] = {}
    for s in in_step:
        by_name.setdefault(s.name, []).append(s)
    everywhere: dict[str, list] = {}
    for s in spans:
        everywhere.setdefault(s.name, []).append(s)

    def ms(name, pool=by_name, per=n):
        return 1e3 * sum(s.duration for s in pool.get(name, ())) / per

    def calls(name):
        return len(by_name.get(name, ())) / n

    def counted(name, pool=by_name):
        return sum(s.count for s in pool.get(name, ()))

    out = {
        "halffloat.narrow_calls": (calls("halffloat.narrow_host"), "count"),
        "halffloat.narrow_elems": (counted("halffloat.narrow_host") / n, "count"),
        "halffloat.narrow_ms": (ms("halffloat.narrow_host"), "ms"),
        "tensor.cast_calls": (calls("tensor.cast"), "count"),
        "tensor.cast_ms": (ms("tensor.cast"), "ms"),
        "autodiff.backward_ms": (ms("autodiff.backward"), "ms"),
        "autodiff.tape_ops": (counted("autodiff.backward") / n, "count"),
    }
    for kind in TAPE_KINDS:
        out[f"autodiff.fwd.{kind}_ms"] = (ms(f"autodiff.Tape.{kind}"), "ms")
        out[f"autodiff.fwd.{kind}_calls"] = (calls(f"autodiff.Tape.{kind}"), "count")

    decode = everywhere.get("blocks.Seq2SeqModel.greedy_decode", ())
    skipped = trial.applied.count(False)
    out.update({
        "blocks.batch_ms": (ms("blocks.DataLayer.batch"), "ms"),
        "blocks.forward_ms": (ms("blocks.Seq2SeqModel.forward"), "ms"),
        "blocks.greedy_decode_ms_per_seq": (
            1e3 * sum(s.duration for s in decode) / max(sum(s.count for s in decode), 1),
            "ms/seq"),
        "mixed_precision.check_finite_ms": (ms("mixed_precision.check_finite_all"), "ms"),
        "mixed_precision.unscale_ms": (ms("mixed_precision.unscale_to_f32"), "ms"),
        "mixed_precision.skipped_steps": (float(skipped), "count"),
        "mixed_precision.skipped_steps_ratio": (skipped / n, "skipped/step"),
        "mixed_precision.loss_scale_final": (trial.scales[-1], "scale"),
        "optim.step_ms": (ms("optim.Optimizer.step"), "ms"),
    })

    ranks: dict[int, list] = {}
    for s in by_name.get("distrib.distributed_train_step", ()):
        ranks.setdefault(s.rank, []).append(s)
    wait_shares = [1.0 - sum(s.cpu for s in r) / sum(s.duration for s in r)
                   for r in ranks.values()]
    slowest: dict[int, float] = {}
    for name in ("distrib.distributed_train_step", "distrib.tower_train_step"):
        for s in by_name.get(name, ()):
            slowest[s.step] = max(slowest.get(s.step, 0.0), s.duration)
    group = by_name.get("distrib.WorkerGroup.run_step", ())
    rank_spans = [s for r in ranks.values() for s in r]
    out.update({
        "distrib.rank_step_ms": (1e3 * sum(s.duration for s in rank_spans) / n, "ms"),
        "distrib.rank_cpu_ms": (1e3 * sum(s.cpu for s in rank_spans) / n, "ms"),
        "distrib.rank_wait_share": (statistics.mean(wait_shares) if wait_shares else 0.0,
                                    "ratio"),
        "distrib.flag_or_ms": (ms("distrib.allreduce_flag_or"), "ms"),
        "distrib.ring_allreduce_ms": (ms("distrib.ring_allreduce"), "ms"),
        "distrib.recv_wait_ms": (ms("distrib.InProcessTransport.recv"), "ms"),
        "distrib.bucket_ms": (ms("distrib.ReduceBucket.flatten")
                              + ms("distrib.ReduceBucket.unflatten"), "ms"),
        "distrib.apply_ms": (ms("distrib.Replica.apply"), "ms"),
        "distrib.group_overhead_ms": (
            1e3 * sum(s.duration - slowest.get(s.step, 0.0) for s in group) / n, "ms"),
        "distrib.messages": (calls("distrib.InProcessTransport.send"), "count"),
        "distrib.bytes": (counted("distrib.InProcessTransport.send") / n, "bytes"),
        "distrib.copy_parameters_ms": (ms("distrib.Replica.copy_parameters_from"), "ms"),
        "checkpoint.save_ms": (ms("checkpoint.save_checkpoint", everywhere, 1), "ms"),
        "checkpoint.bytes": (float(counted("checkpoint.save_checkpoint", everywhere)),
                             "bytes"),
        "metrics.log_ms": (ms("metrics.MetricsLog.append", everywhere)
                           + ms("metrics.MetricsLog.write_csv", everywhere), "ms"),
        "runner.build_replica_ms": (ms("runner.build_replica", everywhere, 1), "ms"),
    })
    return out


# Per-layer counts that must repeat exactly on one seed.
EXACT_COUNTS = ("autodiff.tape_ops", "halffloat.narrow_calls", "halffloat.narrow_elems",
                "tensor.cast_calls", "distrib.messages", "distrib.bytes",
                "mixed_precision.skipped_steps_ratio")


# -- runs -------------------------------------------------------------------------------


@dataclass
class RunResult:
    metrics: dict
    attempted: int
    failed: int
    errors: list
    notes: list = field(default_factory=list)


def _account(trials) -> tuple[int, int, list]:
    attempted = sum(t.steps for t in trials)
    failed = sum(t.steps for t in trials if t.errors)
    errors = [e for t in trials for e in t.errors]
    return attempted, failed, errors


def _check_determinism(trials: list[Trial]) -> None:
    """Every trial of one seed repeats the first one's losses and final weights."""
    first = trials[0]
    for i, t in enumerate(trials[1:], start=1):
        if t.losses != first.losses or t.digests[:1] != first.digests[:1]:
            t.errors.append(f"trial {i} diverged from trial 0 on the same seed")


def _run_trials(workload, seed, seconds, workdir, traced_too=False):
    """Warm-up, then trials until ``seconds`` are spent and p95 is defined.

    Untraced runs sample set-up with SETUP_PROBES probes before each trial;
    traced runs alternate untraced and traced trials. Returns the warm-up,
    the untraced trials, [(recorder, traced trial)] and the set-up probes.
    """
    warm = run_trial(workload, seed, workdir, steps=WARMUP_STEPS, eval_batches=1)
    untraced, traced, probes = [], [], []
    need = 1 if traced_too else stats.min_samples(P_TAIL)
    begin = time.perf_counter()
    while not warm.errors:
        if traced_too and len(traced) < len(untraced):
            recorder = Recorder()
            t = run_trial(workload, seed, workdir, recorder=recorder)
            traced.append((recorder, t))
        else:
            if not traced_too:
                probes += [run_trial(workload, seed, workdir, setup_only=True)
                           for _ in range(SETUP_PROBES)]
            t = run_trial(workload, seed, workdir)
            untraced.append(t)
        if t.errors:
            break
        done = sum(len(x.step_s) for x in untraced) >= need and (traced or not traced_too)
        if done and time.perf_counter() - begin + t.wall_s / 2 >= seconds:
            break
    return warm, untraced, traced, probes


def _check_counterpart(workload, seed, workdir, reference: Trial) -> Trial | None:
    """One trial of ``workload.same_digest_as``; it must end with the same weights."""
    if workload.same_digest_as is None or not reference.digests:
        return None
    other = run_trial(WORKLOADS[workload.same_digest_as], seed, workdir,
                      steps=reference.steps, eval_batches=1)
    if other.errors or other.digests[:1] != reference.digests[:1]:
        reference.errors.append(f"{workload.name} and {workload.same_digest_as} end with "
                                f"different parameters on seed {seed}")
    return other


def measure(workload: Workload, seed: int, seconds: float, workdir: str) -> RunResult:
    """Untraced run: the end-to-end metrics."""
    warm, trials, _, setups = _run_trials(workload, seed, seconds, workdir)
    checked = [warm] + trials
    rss_mb = peak_rss_mb()  # before the counterpart trial, whose peak is not this workload's
    if trials:
        _check_determinism(trials)
        other = _check_counterpart(workload, seed, workdir, trials[0])
        if other is not None:
            checked.append(other)
    attempted, failed, errors = _account(checked)
    errors = [e for t in setups for e in t.errors] + errors
    good = [t for t in trials if not t.errors]
    metrics = {}
    if good and not errors:
        metrics = end_to_end(good, [t.setup_s for t in setups + good], rss_mb)
    per_trial = sorted(tokens_per_s([t]) for t in good) or [math.nan]
    notes = [f"{len(trials)} trials x {workload.steps} steps, "
             f"{sum(len(t.step_s) for t in trials)} timed steps; trial tokens/s "
             f"min {per_trial[0]:.0f} median {statistics.median(per_trial):.0f} "
             f"max {per_trial[-1]:.0f}"]
    return RunResult(metrics, attempted, failed, errors, notes)


def trace(workload: Workload, seed: int, seconds: float, workdir: str,
          trace_path: str | None) -> RunResult:
    """Traced run: per-layer metrics, alternating untraced and traced trials."""
    warm, untraced, traced, _ = _run_trials(workload, seed, seconds, workdir, traced_too=True)
    checked = [warm] + untraced + [t for _, t in traced]
    if untraced:
        _check_determinism(untraced + [t for _, t in traced])
    attempted, failed, errors = _account(checked)
    if errors or not traced:
        return RunResult({}, attempted, failed, errors or ["no traced trial completed"])

    unused = unused_seams(workload, traced[0][0].spans)
    if unused:
        raise tracing.MissingSeam([f"{name} (never called)" for name in unused])
    per_trial = [layer_metrics(rec.spans, t) for rec, t in traced]
    for name in EXACT_COUNTS:
        if len({m[name][0] for m in per_trial}) > 1:
            errors.append(f"{name} differs between traced trials on one seed")
            failed += sum(t.steps for _, t in traced)
    metrics = {name: (statistics.median(m[name][0] for m in per_trial), unit)
               for name, (_, unit) in per_trial[0].items()}
    plain = tokens_per_s(untraced)
    with_spans = tokens_per_s([t for _, t in traced])
    metrics["trace.untraced_tokens_per_s"] = (plain, "tokens/s")
    metrics["trace.traced_tokens_per_s"] = (with_spans, "tokens/s")
    metrics["trace.tokens_per_s_delta"] = (with_spans - plain, "tokens/s")

    recorder = traced[0][0]
    ranked = sorted(tracing.self_times(recorder.spans).items(), key=lambda kv: -kv[1])
    n = len(traced[0][1].step_s)
    notes = [f"{len(untraced)} untraced + {len(traced)} traced trials x {workload.steps} steps",
             "self time per step, first traced trial (ms):"]
    notes += [f"  {name:44s} {1e3 * total / n:9.3f}" for name, total in ranked[:15]]
    if trace_path:
        recorder.write_chrome_trace(trace_path)
        notes.append(f"chrome trace: {trace_path}")
    return RunResult(metrics, attempted, failed, errors, notes)
