"""Acceptance suite: the thirteen gate criteria, one test each.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Budgets and tolerances are asserted where the criterion states
them; criterion 13 is report-only.
"""

import json
import math
import os
import subprocess
import sys
import threading
import time
import zlib

import numpy as np
import pytest

from miniseq import halffloat as hf
from miniseq.autodiff import Tape, Variable, backward
from miniseq.blocks import CopyTask, ModelSpec, ReverseTask, Seq2SeqModel, token_accuracy
from miniseq.config import parse_config
from miniseq.distrib import (
    InProcessTransport,
    Replica,
    WorkerGroup,
    allreduce_flag_or,
    ring_allreduce,
    throughput_probe,
)
from miniseq.metrics import bleu4, wer
from miniseq.mixed_precision import (
    BackoffScale,
    StaticScale,
    check_finite_all,
    init_master,
    memory_report,
    mp_step,
    unscale_to_f32,
)
from miniseq.optim import LRPolicy, Optimizer
from miniseq.runner import build_replica, run
from miniseq.tensor import DType, Tensor


def report(number: int, detail: str, elapsed: float) -> None:
    print(f"\n[criterion {number:02d}] PASS  {detail}  ({elapsed:.2f}s)")


# ---------------------------------------------------------------- criterion 1


def test_c01_fp16_exhaustive_exactness():
    t0 = time.perf_counter()
    bits = np.arange(65536, dtype=np.uint16)
    widened = hf.widen(bits)
    back = hf.narrow(widened)

    ref = bits.view(np.float16).astype(np.float32)
    ref_nan = np.isnan(ref)
    assert np.array_equal(np.isnan(widened), ref_nan)
    assert np.array_equal(widened[~ref_nan], ref[~ref_nan])

    mismatches = int(np.count_nonzero(back[~ref_nan] != bits[~ref_nan]))
    assert mismatches == 0
    assert all(hf.f16_classify(int(b)) == hf.NAN for b in back[ref_nan])

    exp = (bits >> 10) & 0x1F
    man = bits & 0x3FF
    ours_inf = (exp == 0x1F) & (man == 0)
    ours_nan = (exp == 0x1F) & (man != 0)
    assert np.array_equal(ours_inf, np.isinf(ref))
    assert np.array_equal(ours_nan, ref_nan)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "65536/65536 bit patterns round-trip; classification matches oracle", elapsed)


# ---------------------------------------------------------------- criterion 2


def _fd_grad(f, x, step=1e-3):
    """Fourth-order central differences: the O(step**2) error of the plain
    two-point difference is as large as the near-zero gradients it checks."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index

        def at(offset):
            shifted = x.copy()
            shifted[i] += offset
            return f(shifted)

        g[i] = (8 * (at(step) - at(-step)) - (at(2 * step) - at(-2 * step))) / (12 * step)
        it.iternext()
    return g


def test_c02_gradient_correctness_all_primitives():
    t0 = time.perf_counter()
    ids = np.array([[1, 3], [2, 0]])
    targets = np.array([[1, 0], [2, 2]])
    tmask = np.array([[1.0, 1.0], [1.0, 0.0]])
    amask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    sep = np.float64  # shadow dtype

    def shadow_attention(p):
        scores = np.einsum("bh,bth->bt", p["q"], p["s"])
        e = np.exp(scores - np.max(np.where(amask > 0, scores, -np.inf), -1, keepdims=True))
        e = e * amask
        w = e / e.sum(-1, keepdims=True)
        return float(np.tanh(np.einsum("bt,bth->bh", w, p["s"])).sum())

    def shadow_xent(p):
        x = p["logits"]
        z = x - x.max(-1, keepdims=True)
        logz = np.log(np.exp(z).sum(-1))
        b, t = np.indices(targets.shape)
        return float(((logz - z[b, t, targets]) * tmask).sum() / tmask.sum())

    cases = {
        "matmul": (lambda t, v: t.reduce_sum(t.matmul(v["a"], v["b"])),
                   lambda p: float((p["a"] @ p["b"]).sum()),
                   {"a": (3, 4), "b": (4, 2)}),
        "add": (lambda t, v: t.reduce_sum(t.tanh(t.add(v["a"], v["b"]))),
                lambda p: float(np.tanh(p["a"] + p["b"]).sum()),
                {"a": (3, 3), "b": (3, 3)}),
        "bias_add": (lambda t, v: t.reduce_sum(t.tanh(t.bias_add(v["x"], v["b"]))),
                     lambda p: float(np.tanh(p["x"] + p["b"]).sum()),
                     {"x": (4, 3), "b": (3,)}),
        "mul": (lambda t, v: t.reduce_sum(t.mul(v["a"], v["b"])),
                lambda p: float((p["a"] * p["b"]).sum()),
                {"a": (3, 3), "b": (3, 3)}),
        "scale": (lambda t, v: t.reduce_sum(t.scale(v["x"], 0.37)),
                  lambda p: float((0.37 * p["x"]).sum()), {"x": (4, 4)}),
        "tanh": (lambda t, v: t.reduce_sum(t.tanh(v["x"])),
                 lambda p: float(np.tanh(p["x"]).sum()), {"x": (5, 3)}),
        "sigmoid": (lambda t, v: t.reduce_sum(t.sigmoid(v["x"])),
                    lambda p: float((1 / (1 + np.exp(-p["x"]))).sum()), {"x": (5, 3)}),
        "relu": (lambda t, v: t.reduce_sum(t.mul(t.relu(v["x"]), t.relu(v["x"]))),
                 lambda p: float((np.maximum(p["x"], 0) ** 2).sum()), {"x": (5, 3)}),
        "embedding_gather": (
            lambda t, v: t.reduce_sum(t.tanh(t.embedding_gather(v["table"], ids))),
            lambda p: float(np.tanh(p["table"][ids]).sum()), {"table": (4, 3)}),
        "concat_last_axis": (
            lambda t, v: t.reduce_sum(t.tanh(t.concat_last_axis(v["a"], v["b"]))),
            lambda p: float(np.tanh(np.concatenate([p["a"], p["b"]], -1)).sum()),
            {"a": (3, 2), "b": (3, 4)}),
        "stack_steps": (
            lambda t, v: t.reduce_sum(t.mul(t.stack_steps([t.tanh(v["s0"]), t.tanh(v["s1"])]),
                                            t.stack_steps([t.tanh(v["s0"]), t.tanh(v["s1"])]))),
            lambda p: float((np.stack([np.tanh(p["s0"]), np.tanh(p["s1"])], 1) ** 2).sum()),
            {"s0": (2, 3), "s1": (2, 3)}),
        "attention": (
            lambda t, v: t.reduce_sum(t.tanh(t.attn_context(
                t.attn_weights(t.attn_scores(v["q"], v["s"]), amask), v["s"]))),
            shadow_attention, {"q": (2, 4), "s": (2, 3, 4)}),
        "softmax_cross_entropy": (
            lambda t, v: t.softmax_cross_entropy_with_mask(v["logits"], targets, tmask),
            shadow_xent, {"logits": (2, 2, 5)}),
        "reduce_mean": (lambda t, v: t.reduce_mean(t.mul(v["x"], v["x"])),
                        lambda p: float((p["x"] ** 2).mean()), {"x": (4, 5)}),
        "reduce_sum": (lambda t, v: t.reduce_sum(t.mul(v["x"], v["x"])),
                       lambda p: float((p["x"] ** 2).sum()), {"x": (4, 5)}),
    }

    worst = 0.0
    for name, (build, shadow, shapes) in cases.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(20):
            params = {k: rng.uniform(-1.2, 1.2, size=s) for k, s in shapes.items()}
            if name == "relu":  # keep points away from the kink
                params["x"] = np.sign(params["x"]) * (np.abs(params["x"]) + 0.1)
            # difference at the FP32-rounded point that the tape sees
            params = {k: v.astype(np.float32).astype(np.float64) for k, v in params.items()}
            tape = Tape("float32")
            leaves = {k: tape.leaf(Variable(k, Tensor.from_array(v))) for k, v in params.items()}
            loss = build(tape, leaves)
            grads = backward(tape, 1.0, loss=loss)
            for k in shapes:
                def f(x, k=k):
                    full = {n: sep(1) * np.asarray(v) for n, v in params.items()}
                    full[k] = x
                    return shadow(full)
                num = _fd_grad(f, params[k])
                ana = grads[k].f32()
                denom = np.maximum(np.maximum(np.abs(num), np.abs(ana)), 1e-4)
                worst = max(worst, float(np.max(np.abs(num - ana) / denom)))
                assert worst <= 1e-3, f"{name}/{k}: rel err {worst}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, f"{len(cases)} primitives x 20 points, worst rel err {worst:.2e} <= 1e-3", elapsed)


# ---------------------------------------------------------------- criterion 3


def _parity_config(tmp_path, dtype, tag):
    cfg = {
        "data_layer": "copy_task",
        "data_layer_params": {"vocab_size": 16, "seq_len": 8, "seed": 77},
        "encoder_params": {"layers": 1, "hidden": 64, "emb_size": 32},
        "decoder_params": {"hidden": 64, "emb_size": 32},
        "optimizer": "Adam",
        "lr_policy": "constant",
        "lr_policy_params": {"learning_rate": 1e-3},
        "batch_size_per_gpu": 32,
        "max_steps": 3000,
        "eval_batches": 5,
        "seed": 77,
        "dtype": dtype,
        "checkpoint_dir": str(tmp_path / f"ckpt_{tag}"),
    }
    if dtype == "mixed":
        cfg["loss_scaling"] = "Backoff"
    return parse_config(json.dumps(cfg))


def _loss_column(metrics_csv):
    losses = {}
    with open(metrics_csv, encoding="utf-8") as f:
        next(f)
        for line in f:
            parts = line.rstrip("\n").split(",")
            if parts[2] == "train" and parts[3]:
                losses[int(parts[0])] = float(parts[3])
    return losses


def test_c03_mixed_vs_fp32_training_parity(tmp_path):
    results = {}
    for dtype in ("float32", "mixed"):
        cfg = _parity_config(tmp_path, dtype, dtype)
        t0 = time.perf_counter()
        run(cfg, "train")
        train_time = time.perf_counter() - t0
        assert train_time < 120.0, f"{dtype} run took {train_time:.0f}s"
        summary = run(cfg, "eval").summary
        losses = _loss_column(os.path.join(cfg.checkpoint_dir, "metrics.csv"))
        tail = [losses[s] for s in sorted(losses)[-100:]]
        results[dtype] = {
            "acc": summary["token_accuracy"],
            "smoothed": float(np.mean(tail)),
            "losses": losses,
            "time": train_time,
        }

    for dtype, r in results.items():
        assert r["acc"] >= 0.99, f"{dtype} accuracy {r['acc']:.4f}"
    diff = abs(results["float32"]["smoothed"] - results["mixed"]["smoothed"])
    assert diff <= 0.05

    # CSV loss columns at matched steps diverge < 0.05 after convergence
    common = sorted(set(results["float32"]["losses"]) & set(results["mixed"]["losses"]))[-100:]
    per_step = max(abs(results["float32"]["losses"][s] - results["mixed"]["losses"][s])
                   for s in common)
    assert per_step < 0.05

    report(3, f"fp32 acc {results['float32']['acc']:.3f} / mixed acc "
              f"{results['mixed']['acc']:.3f}, smoothed loss diff {diff:.2e} <= 0.05",
           results["float32"]["time"] + results["mixed"]["time"])


# ---------------------------------------------------------------- criterion 4


def test_c04_loss_scaling_rescues_tiny_gradients():
    t0 = time.perf_counter()
    n = 4096
    rng = np.random.default_rng(4)
    exponents = rng.choice([-23, -24, -25, -26, -27, -28], size=n)
    true_grads = np.ldexp(np.ones(n), exponents + 12).astype(np.float32) / np.float32(n)

    def build(mode):
        tape = Tape(mode)
        dtype = tape.model_dtype
        w = tape.leaf(Variable("w", Tensor.from_array(np.ones(n), dtype)))
        c = tape.constant(Tensor.from_array(true_grads * n, dtype))
        tape.reduce_mean(tape.mul(w, c))
        return tape

    shadow = backward(build("float32"), 1.0)["w"].f32()
    assert np.array_equal(shadow, true_grads)

    g1 = backward(build("mixed"), 1.0)["w"]
    flushed_at_1 = float(np.mean(g1.f32() == 0.0))
    assert flushed_at_1 > 0.5

    tape = build("mixed")
    gs = backward(tape, 2.0 ** 10)["w"]
    flushed_at_s = float(np.mean(gs.f32() == 0.0))
    assert flushed_at_s < 0.01
    assert check_finite_all({"w": gs})

    recovered = unscale_to_f32({"w": gs}, 2.0 ** 10)["w"].f32()
    rel = np.abs(recovered - shadow) / np.abs(shadow)
    assert np.max(rel) <= 2.0 ** -11

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(4, f"flushed {flushed_at_1:.1%} at scale 1, {flushed_at_s:.1%} at 2^10; "
              f"recovery max rel err {np.max(rel):.2e} <= 2^-11", elapsed)


# ---------------------------------------------------------------- criterion 5


def test_c05_backoff_state_machine_and_skip_noop():
    t0 = time.perf_counter()
    p = BackoffScale(scale=2.0 ** 15, growth_interval=4, scale_min=1.0, scale_max=2.0 ** 16)
    script = (["good"] * 3 + ["overflow"] + ["good"] * 4 + ["good"] * 4
              + ["overflow"] * 20 + ["good"] * 8)
    expected = []
    scale, good = 2.0 ** 15, 0
    for e in script:
        if e == "overflow":
            scale = max(scale / 2, 1.0)
            good = 0
        else:
            good += 1
            if good == 4:
                scale = min(scale * 2, 2.0 ** 16)
                good = 0
        expected.append(scale)
    got = []
    for e in script:
        got.append(p.on_overflow() if e == "overflow" else p.on_good_step())
    assert got == expected

    # skipped step leaves parameters, master and optimizer bytes unchanged
    var = Variable("w", Tensor.from_array(np.full(8, 0.5), DType.F16))
    tape = Tape("mixed")
    w = tape.leaf(var)
    big = tape.constant(Tensor.from_array(np.full(8, 60000.0), DType.F16))
    tape.reduce_sum(tape.mul(tape.add(w, w), big))
    state = init_master(tape.variables, BackoffScale(scale=2.0 ** 15))
    opt = Optimizer("adam")
    before = (var.value.data.tobytes(), state.master["w"].data.tobytes(), opt.snapshot())
    outcome = mp_step(state, opt, 0.1, tape)
    assert not outcome.applied
    assert var.value.data.tobytes() == before[0]
    assert state.master["w"].data.tobytes() == before[1]
    assert opt.snapshot() == before[2]

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(5, f"{len(script)}-event scripted trajectory exact incl. clamps; skip is a no-op",
           elapsed)


# ---------------------------------------------------------------- criterion 6


def test_c06_regularizer_wrapper():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    w0 = rng.normal(scale=0.5, size=(6, 4)).astype(np.float32)
    x = rng.normal(size=(8, 6)).astype(np.float32)
    y = rng.normal(size=(8, 4)).astype(np.float32)
    lam = 1e-3

    def base_loss(tape, w):
        pred = tape.matmul(tape.constant(Tensor.from_array(x)), w)
        diff = tape.add(pred, tape.constant(Tensor.from_array(-y)))
        return tape.mul(diff, diff)

    # route A: L2 term inside the loss graph
    var_a = Variable("w", Tensor.from_array(w0))
    opt_a = Optimizer("sgd")
    for _ in range(100):
        tape = Tape("float32")
        w = tape.leaf(var_a)
        data_term = tape.reduce_mean(base_loss(tape, w))
        reg_term = tape.scale(tape.reduce_sum(tape.mul(w, w)), lam / 2)
        tape.reduce_sum(tape.stack_steps([data_term, reg_term]))
        grads = backward(tape, 1.0)
        master = {"w": var_a.value}
        opt_a.step(master, grads, lr=0.05)
        var_a.value = master["w"]

    # route B: registry adds lam * w to the FP32 gradients
    from miniseq.mixed_precision import MixedPrecisionState, RegularizerRegistry, \
        apply_regularizer_grads
    var_b = Variable("w", Tensor.from_array(w0))
    reg = RegularizerRegistry()
    reg.register("w", coeff=lam)
    opt_b = Optimizer("sgd")
    for _ in range(100):
        tape = Tape("float32")
        w = tape.leaf(var_b)
        tape.reduce_mean(base_loss(tape, w))
        grads = backward(tape, 1.0)
        state = MixedPrecisionState({"w": var_b.value}, StaticScale(1.0), reg)
        grads = apply_regularizer_grads(state, grads)
        master = {"w": var_b.value}
        opt_b.step(master, grads, lr=0.05)
        var_b.value = master["w"]

    dist = float(np.max(np.abs(var_a.value.f32() - var_b.value.f32())))
    assert dist <= 1e-6

    # mixed mode: FP32 path keeps the term an F16 product loses
    f16_prod = hf.f16_binop("mul", hf.f32_to_f16(1e-5), hf.f32_to_f16(1e-3))
    assert hf.f16_to_f32(f16_prod) == 0.0
    reg2 = RegularizerRegistry()
    reg2.register("w", coeff=1e-5)
    state2 = init_master({"w": Variable("w", Tensor.from_array([1e-3], DType.F16))},
                         StaticScale(1.0), reg2)
    out = apply_regularizer_grads(state2, {"w": Tensor.from_array([0.0], DType.F32)})
    assert out["w"].f32()[0] != 0.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, f"loss-term vs registry L2 distance {dist:.2e} <= 1e-6 after 100 steps; "
              f"FP32 path nonzero where F16 product underflows", elapsed)


# ---------------------------------------------------------------- criterion 7


def _run_collective(num_workers, fn):
    transport = InProcessTransport(num_workers, timeout=30.0)
    results = [None] * num_workers
    errors = []

    def work(rank):
        try:
            results[rank] = fn(transport, rank)
        except Exception as e:  # noqa: BLE001
            errors.append(e)
            transport.abort()

    threads = [threading.Thread(target=work, args=(r,)) for r in range(num_workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def test_c07_collective_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    trials = 0
    for k in (1, 2, 3, 4, 8):
        for n in (1, max(1, k - 1), k, 17, 1000):
            vecs = [rng.normal(size=n).astype(np.float32) for _ in range(k)]
            expect = np.zeros(n, dtype=np.float32)
            for v in vecs:
                expect = expect + v
            outs = _run_collective(k, lambda tr, r: ring_allreduce(tr, r, k, vecs[r], step=trials))
            for out in outs:
                assert np.array_equal(out, expect), f"K={k} n={n}"
            trials += 1

    for trial in range(100):
        k = int(rng.integers(1, 6))
        flags = rng.random(k) < 0.25
        outs = _run_collective(k, lambda tr, r: allreduce_flag_or(tr, r, k, bool(flags[r]),
                                                                  step=trial))
        assert outs == [bool(flags.any())] * k

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(7, f"ring == gather-sum oracle exactly for K in {{1,2,3,4,8}} incl. n < K; "
              f"flag-OR matched oracle on 100 trials", elapsed)


# ---------------------------------------------------------------- criterion 8


def _equiv_replica(rank, num_workers, batch_size, seed=88):
    spec = ModelSpec(encoder_params={"layers": 1, "hidden": 16, "emb_size": 8},
                     decoder_params={"hidden": 16, "emb_size": 8})
    model = Seq2SeqModel(spec, vocab_size=16, seed=seed)
    data = CopyTask(vocab_size=16, seq_len=6, seed=seed).shard(rank, num_workers)
    return Replica(model, data, Optimizer("sgd"), LRPolicy("constant", 0.05),
                   batch_size=batch_size)


def test_c08_distributed_equivalence():
    t0 = time.perf_counter()
    k, per_worker, steps = 4, 8, 50
    group = WorkerGroup([_equiv_replica(r, k, per_worker) for r in range(k)], mode="allreduce")
    tower = WorkerGroup([_equiv_replica(r, k, per_worker) for r in range(k)], mode="tower")

    single = _equiv_replica(0, 1, k * per_worker)
    base = CopyTask(vocab_size=16, seq_len=6, seed=88)

    class Concatenated:
        vocab = base.vocab
        examples_per_epoch = None

        def batch(self, step, batch_size):
            from miniseq.blocks import make_batch
            examples = []
            for r in range(k):
                # example i of shard r is example r + k*i of the base stream
                examples.extend(base.example(r + k * (step * per_worker + j))
                                for j in range(per_worker))
            return make_batch(examples, base.vocab.size)

    single.data = Concatenated()

    worst_single, worst_tower = 0.0, 0.0
    for s in range(steps):
        group.run_step(s)
        tower.run_step(s)
        _, _, grads, _, _ = single.forward_backward(s)
        single.apply(single.unscale(grads), s)

        digests = group.parameter_digests()
        assert len(set(digests)) == 1, f"replicas diverged at step {s}"
        for name, v in single.model.variables.items():
            d_single = np.max(np.abs(group.replicas[0].model.variables[name].value.f32()
                                     - v.value.f32()))
            d_tower = np.max(np.abs(group.replicas[0].model.variables[name].value.f32()
                                    - tower.replicas[0].model.variables[name].value.f32()))
            worst_single = max(worst_single, float(d_single))
            worst_tower = max(worst_tower, float(d_tower))
            assert d_single < 1e-6, f"step {s} var {name}"
            assert d_tower < 1e-6, f"step {s} var {name}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(8, f"4x8 == 1x32 within {worst_single:.1e}; tower == allreduce within "
              f"{worst_tower:.1e}; replicas bit-identical for {steps} steps", elapsed)


# ---------------------------------------------------------------- criterion 9


def test_c09_overflow_consensus():
    t0 = time.perf_counter()
    k = 4
    replicas = []
    for r in range(k):
        spec = ModelSpec(encoder_params={"layers": 1, "hidden": 8, "emb_size": 6},
                         decoder_params={"hidden": 8, "emb_size": 6}, dtype="mixed")
        model = Seq2SeqModel(spec, vocab_size=12, seed=9)
        data = CopyTask(vocab_size=12, seq_len=4, seed=9).shard(r, k)
        replicas.append(Replica(model, data, Optimizer("sgd"), LRPolicy("constant", 0.05),
                                scale_state=BackoffScale(scale=2.0 ** 12), batch_size=4))

    def inject(step, grads):
        if step == 1:
            grads = dict(grads)
            name = sorted(grads)[0]
            arr = grads[name].f32().copy()
            arr.flat[0] = np.inf
            grads[name] = Tensor.from_array(arr, DType.F16)
        return grads

    replicas[2].grad_tap = inject
    group = WorkerGroup(replicas, mode="allreduce")
    group.run_step(0)
    before = group.parameter_digests()
    metrics = group.run_step(1)
    assert not metrics.applied
    assert group.parameter_digests() == before
    assert [r.scale for r in replicas] == [2.0 ** 11] * k
    assert len(set(group.parameter_digests())) == 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(9, "one injected inf: all 4 workers skipped, scales 2^12 -> 2^11, "
              "replicas bit-identical", elapsed)


# --------------------------------------------------------------- criterion 10


def test_c10_memory_accounting():
    t0 = time.perf_counter()
    reports = {}
    for mode in ("float32", "mixed"):
        spec = ModelSpec(encoder_params={"layers": 1, "hidden": 64, "emb_size": 32},
                         decoder_params={"hidden": 64, "emb_size": 32}, dtype=mode)
        model = Seq2SeqModel(spec, vocab_size=16, seed=10)
        batch = CopyTask(vocab_size=16, seq_len=8, seed=10).batch(0, 32)
        loss, tape = model.forward(batch)
        opt = Optimizer("adam")
        if mode == "mixed":
            state = init_master(tape.variables, StaticScale(1.0))
            assert mp_step(state, opt, 1e-3, tape).applied
        else:
            grads = backward(tape, 1.0)
            master = {n: v.value for n, v in model.variables.items()}
            opt.step(master, grads, lr=1e-3)
        reports[mode] = memory_report(tape.variables, tape, opt, mode)

    full, mixed = reports["float32"], reports["mixed"]
    ratio = sum(mixed.values()) / sum(full.values())
    assert 0.5 <= ratio <= 0.8, f"total ratio {ratio:.3f}"
    assert mixed["activations"] * 2 == full["activations"]
    assert mixed["master"] == full["weights"]

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(10, f"mixed/fp32 total ratio {ratio:.3f} in [0.5, 0.8]; activations exactly 0.5x; "
               f"master == FP32 weight bytes", elapsed)


# --------------------------------------------------------------- criterion 11


def test_c11_metrics():
    t0 = time.perf_counter()
    from test_runner import reference_bleu  # independent implementation

    hyps = [
        "the quick brown fox jumps over the dog".split(),
        "a stitch in time saves nine".split(),
        "better late than never".split(),
    ]
    refs = [
        "the quick brown fox jumps over the lazy dog".split(),
        "a stitch in time saves nine every time".split(),
        "better late than sorry never".split(),
    ]
    ours = bleu4(hyps, refs)
    independent = reference_bleu(hyps, refs)
    assert abs(ours - independent) <= 0.1
    assert bleu4(refs, refs) == pytest.approx(100.0)
    assert bleu4([["the"] * 4], [["the", "cat", "sat"]]) == 0.0
    assert 0 <= ours <= 100

    assert wer([["a", "b"]], [["a", "b"]]) == 0.0
    assert wer([["a", "x", "c"]], [["a", "b", "c"]]) == pytest.approx(100 / 3, abs=1e-9)
    assert wer([[]], [["a", "b", "c"]]) == pytest.approx(100.0)
    assert wer([["a", "b", "c"]], [["a", "b", "c", "d"]]) >= 0.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(11, f"bleu fixture {ours:.2f} vs independent {independent:.2f} (<= 0.1 apart); "
               f"wer fixtures exact", elapsed)


# --------------------------------------------------------------- criterion 12


def _free_ports(n):
    import socket

    socks = [socket.socket() for _ in range(n)]
    for s in socks:
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def test_c12_end_to_end_cli(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "data_layer": "reverse_task",
        "data_layer_params": {"vocab_size": 16, "seq_len": 8, "seed": 12},
        "encoder_params": {"layers": 1, "hidden": 64, "emb_size": 32},
        "decoder_params": {"hidden": 64, "emb_size": 32},
        "optimizer": "Adam",
        "lr_policy": "constant",
        "lr_policy_params": {"learning_rate": 1e-3},
        "batch_size_per_gpu": 32,
        "max_steps": 2500,
        "eval_batches": 4,
        "seed": 12,
        "checkpoint_dir": str(tmp_path / "ckpt"),
    }
    cfg_path = tmp_path / "reverse.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def cli(*args, timeout=170):
        r = subprocess.run([sys.executable, "-m", "miniseq.cli", *args],
                           capture_output=True, text=True, timeout=timeout, env=env)
        assert r.returncode == 0, r.stderr
        return r

    cli("--config_file", str(cfg_path), "--mode", "train")
    cli("--config_file", str(cfg_path), "--mode", "eval")

    # 200 held-out sequences through the file-based infer round trip
    layer = ReverseTask(vocab_size=16, seq_len=8, seed=12, split="eval")
    sources, expected = [], []
    for i in range(200):
        src, tgt = layer.example(i)
        sources.append(" ".join(layer.vocab.decode(src)))
        expected.append(" ".join(layer.vocab.decode(tgt)))
    infer_in = tmp_path / "in.txt"
    infer_out = tmp_path / "out.txt"
    infer_in.write_text("\n".join(sources) + "\n", encoding="utf-8")
    cli("--config_file", str(cfg_path), "--mode", "infer",
        "--infer_input", str(infer_in), "--infer_output", str(infer_out))
    decoded = infer_out.read_text(encoding="utf-8").splitlines()
    exact = float(np.mean([d == e for d, e in zip(decoded, expected)]))
    assert exact >= 0.95, f"exact-sequence match {exact:.3f}"

    # 2-worker TCP run matches the in-process run's final parameters
    small = {
        "data_layer": "copy_task",
        "data_layer_params": {"vocab_size": 12, "seq_len": 4, "seed": 5},
        "encoder_params": {"layers": 1, "hidden": 16, "emb_size": 8},
        "decoder_params": {"hidden": 16, "emb_size": 8},
        "optimizer": "Sgd",
        "lr_policy": "constant",
        "lr_policy_params": {"learning_rate": 0.05},
        "batch_size_per_gpu": 8,
        "max_steps": 40,
        "seed": 5,
        "num_workers": 2,
        "use_allreduce": True,
    }
    ports = _free_ports(2)
    tcp_cfg = dict(small, transport="tcp",
                   worker_addresses=[f"127.0.0.1:{p}" for p in ports],
                   checkpoint_dir=str(tmp_path / "ckpt_tcp"))
    inp_cfg = dict(small, checkpoint_dir=str(tmp_path / "ckpt_inp"))
    tcp_path, inp_path = tmp_path / "tcp.json", tmp_path / "inp.json"
    tcp_path.write_text(json.dumps(tcp_cfg), encoding="utf-8")
    inp_path.write_text(json.dumps(inp_cfg), encoding="utf-8")
    cli("--config_file", str(tcp_path), "--mode", "train")
    cli("--config_file", str(inp_path), "--mode", "train")

    from miniseq.tensor import read_named_tensor
    def load_all(path):
        out = {}
        with open(path, "rb") as f:
            while (rec := read_named_tensor(f)) is not None:
                out[rec[0]] = rec[1]
        return out

    tcp_params = load_all(tmp_path / "ckpt_tcp" / "weights.bin")
    inp_params = load_all(tmp_path / "ckpt_inp" / "weights.bin")
    assert set(tcp_params) == set(inp_params)
    worst = max(float(np.max(np.abs(tcp_params[k].f32() - inp_params[k].f32())))
                for k in tcp_params)
    assert worst < 1e-6

    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    report(12, f"reverse-task round trip: {exact:.1%} exact of 200 held-out; "
               f"tcp vs in-process final params within {worst:.1e}", elapsed)


# --------------------------------------------------------------- criterion 13


def test_c13_throughput_trend_report_only():
    t0 = time.perf_counter()

    def make_group(k):
        return WorkerGroup([_equiv_replica(r, k, 8, seed=13) for r in range(k)],
                           mode="allreduce")

    rates = throughput_probe(make_group, worker_counts=(1, 4), steps=10, warmup=2)
    speedup = rates[4] / rates[1]
    scaling = rates[4] / (4 * rates[1])
    elapsed = time.perf_counter() - t0
    # report-only: the paper's hardware factors are not comparable at desk scale
    report(13, f"steps/s K=1: {rates[1]:.1f}, K=4: {rates[4]:.1f}; speedup {speedup:.2f}x; "
               f"scaling factor {scaling:.2f} (logged, not asserted)", elapsed)
    assert rates[1] > 0 and rates[4] > 0
