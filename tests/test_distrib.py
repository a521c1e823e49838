import gc
import json
import os
import sys
import threading
import time

import numpy as np
import pytest

from miniseq import runner
from miniseq.blocks import CopyTask, ModelSpec, ParallelText, Seq2SeqModel
from miniseq.config import parse_config
from miniseq.distrib import (
    TAG_FLAG,
    TAG_TENSOR_CHUNK,
    GroupAborted,
    InProcessTransport,
    Replica,
    ReduceBucket,
    TcpTransport,
    TransportError,
    WorkerGroup,
    allreduce_flag_or,
    chunk_payload,
    forward_backward_all,
    frame,
    parse_chunk,
    ring_allreduce,
    tower_train_step,
    unframe,
)
from miniseq.mixed_precision import BackoffScale, StaticScale
from miniseq.optim import LRPolicy, Optimizer
from miniseq.tensor import DType, Tensor


def run_collective(num_workers, fn):
    """Run fn(transport, rank) on num_workers threads; return results by rank."""
    transport = InProcessTransport(num_workers, timeout=20.0)
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


def naive_sum(vectors):
    acc = np.zeros_like(vectors[0], dtype=np.float32)
    for v in vectors:
        acc = acc + v.astype(np.float32)
    return acc


def small_replica(rank, num_workers, mode="float32", seed=5, batch_size=4,
                  scale_state=None):
    spec = ModelSpec(
        encoder_params={"layers": 1, "hidden": 8, "emb_size": 6},
        decoder_params={"hidden": 8, "emb_size": 6},
        dtype=mode,
    )
    model = Seq2SeqModel(spec, vocab_size=12, seed=seed)
    data = CopyTask(vocab_size=12, seq_len=4, seed=seed).shard(rank, num_workers)
    return Replica(model, data, Optimizer("sgd"), LRPolicy("constant", 0.1),
                   scale_state=scale_state, batch_size=batch_size)


class TestWireFormat:
    def test_frame_layout(self):
        msg = frame(1, b"\x07")
        assert msg == b"\x01\x00\x00\x00\x01\x07"
        tag, payload = unframe(msg)
        assert (tag, bytes(payload)) == (1, b"\x07")
        with pytest.raises(TransportError, match="corrupt frame"):
            unframe(msg + b"\x00")  # the length field says one byte, two follow

    def test_chunk_payload_round_trip(self):
        arr = np.array([1.5, -2.0], dtype=np.float32)
        payload = chunk_payload(3, 1, arr)
        step, origin, back = parse_chunk(payload)
        assert (step, origin) == (3, 1)
        assert np.array_equal(back, arr)
        assert len(payload) == 12 + 4 * arr.size  # [step][origin][count], no dtype byte
        with pytest.raises(TransportError, match="carries 1 elements, header says 2"):
            parse_chunk(payload[:-4])


class TestRingAllreduce:
    def test_three_scalars(self):
        vecs = [np.array([1.0], dtype=np.float32), np.array([2.0], dtype=np.float32),
                np.array([3.0], dtype=np.float32)]
        results = run_collective(3, lambda tr, r: ring_allreduce(tr, r, 3, vecs[r]))
        for out in results:
            assert np.array_equal(out, [6.0])

    def test_k1_identity(self):
        v = np.array([1.5, 2.5], dtype=np.float32)
        out = ring_allreduce(InProcessTransport(1), 0, 1, v)
        assert np.array_equal(out, v)

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    @pytest.mark.parametrize("n", [1, 2, 5, 1000])
    def test_matches_naive_oracle_exactly(self, k, n):
        rng = np.random.default_rng(k * 100 + n)
        vecs = [rng.normal(size=n).astype(np.float32) for _ in range(k)]
        expect = naive_sum(vecs)
        results = run_collective(k, lambda tr, r: ring_allreduce(tr, r, k, vecs[r], step=7))
        for out in results:
            assert np.array_equal(out, expect)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(0)
        vecs = [rng.normal(size=257).astype(np.float32) for _ in range(4)]
        a = run_collective(4, lambda tr, r: ring_allreduce(tr, r, 4, vecs[r]))
        b = run_collective(4, lambda tr, r: ring_allreduce(tr, r, 4, vecs[r]))
        for x, y in zip(a, b):
            assert np.array_equal(x.view(np.uint32), y.view(np.uint32))

    def test_float16_is_refused(self):
        v = np.ones(4, dtype=np.float16)
        for k in (1, 2):
            with pytest.raises(TypeError, match="float32"):
                ring_allreduce(InProcessTransport(k), 0, k, v)

    def test_mismatched_lengths_detected(self):
        def fn(tr, r):
            n = 8 if r == 0 else 12
            return ring_allreduce(tr, r, 2, np.ones(n, dtype=np.float32))

        with pytest.raises(TransportError):
            run_collective(2, fn)


class ForgedTransport:
    """Hands every receiver the same crafted frame and drops what is sent."""

    def __init__(self, message):
        self.message = message

    def send(self, src, dst, message):
        pass

    def recv(self, src, dst):
        return self.message


class TestAllgatherChecks:
    @pytest.mark.parametrize("tag,step,origin,match", [
        (TAG_FLAG, 5, 0, r"tag mismatch: expected 0, got 1"),
        (TAG_TENSOR_CHUNK, 4, 0, r"step mismatch: expected 5, got 4"),
        (TAG_TENSOR_CHUNK, 5, 2, r"origin mismatch: expected rank 0, got rank 2"),
    ], ids=["tag", "step", "origin"])
    def test_forged_frame_names_expected_and_received(self, tag, step, origin, match):
        vec = np.ones(4, dtype=np.float32)
        forged = frame(tag, chunk_payload(step, origin, vec))
        with pytest.raises(TransportError, match=match):
            ring_allreduce(ForgedTransport(forged), 1, 3, vec, step=5)

    def test_replayed_frame_fails_the_origin_check(self):
        # rank 1 of 3 takes rank 0's frame at the first hop; the same frame
        # arriving again at the second hop is not rank 2's
        vec = np.ones(4, dtype=np.float32)
        replayed = frame(TAG_TENSOR_CHUNK, chunk_payload(5, 0, vec))
        with pytest.raises(TransportError, match=r"expected rank 2, got rank 0"):
            ring_allreduce(ForgedTransport(replayed), 1, 3, vec, step=5)


class TestFlagOr:
    def test_all_false(self):
        results = run_collective(4, lambda tr, r: allreduce_flag_or(tr, r, 4, False))
        assert results == [False] * 4

    def test_one_true_among_four(self):
        results = run_collective(4, lambda tr, r: allreduce_flag_or(tr, r, 4, r == 2))
        assert results == [True] * 4

    def test_random_trials_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            flags = rng.random(k) < 0.3
            results = run_collective(k, lambda tr, r: allreduce_flag_or(tr, r, k, bool(flags[r])))
            assert results == [bool(flags.any())] * k


class TestReduceBucket:
    def test_flatten_unflatten_round_trip(self):
        model = Seq2SeqModel(ModelSpec(
            encoder_params={"layers": 1, "hidden": 4, "emb_size": 3},
            decoder_params={"hidden": 4, "emb_size": 3}), vocab_size=8, seed=0)
        bucket = ReduceBucket(model.variables)
        assert bucket.order == sorted(bucket.order)
        rng = np.random.default_rng(0)
        grads = {n: Tensor.from_array(rng.normal(size=v.value.shape), DType.F32)
                 for n, v in model.variables.items()}
        vec = bucket.flatten(grads)
        assert vec.size == bucket.total == sum(v.value.size for v in model.variables.values())
        back = bucket.unflatten(vec, {n: v.value.shape for n, v in model.variables.items()})
        for n in grads:
            assert np.array_equal(back[n].f32(), grads[n].f32())


class TestWorkerGroups:
    def test_k1_allreduce_equals_plain_training(self):
        def train(group_mode):
            replica = small_replica(0, 1)
            if group_mode == "group":
                group = WorkerGroup([replica], mode="allreduce")
                for s in range(5):
                    group.run_step(s)
            else:
                from miniseq.autodiff import backward as bw
                for s in range(5):
                    tape, loss, grads, finite, _ = replica.forward_backward(s)
                    replica.apply(replica.unscale(grads), s)
            return replica.parameter_digest()

        assert train("group") == train("plain")

    def test_replicas_bit_identical_after_steps(self):
        replicas = [small_replica(r, 4) for r in range(4)]
        group = WorkerGroup(replicas, mode="allreduce")
        for s in range(5):
            group.run_step(s)
            digests = group.parameter_digests()
            assert len(set(digests)) == 1

    def test_distributed_matches_concatenated_single_run(self):
        k, per_worker = 4, 4
        replicas = [small_replica(r, k, batch_size=per_worker) for r in range(k)]
        group = WorkerGroup(replicas, mode="allreduce")

        single = small_replica(0, 1, batch_size=k * per_worker)
        base = CopyTask(vocab_size=12, seq_len=4, seed=5)

        class Concatenated:
            vocab = base.vocab

            def batch(self, step, batch_size):
                from miniseq.blocks import make_batch
                examples = []
                for r in range(k):
                    # example i of shard r is example r + k*i of the base stream
                    start = step * per_worker
                    examples.extend(base.example(r + k * (start + j)) for j in range(per_worker))
                return make_batch(examples, base.vocab.size)

        single.data = Concatenated()
        for s in range(10):
            group.run_step(s)
            tape, loss, grads, finite, _ = single.forward_backward(s)
            single.apply(single.unscale(grads), s)
            for name, v in single.model.variables.items():
                dist = group.replicas[0].model.variables[name].value.f32()
                assert np.max(np.abs(dist - v.value.f32())) < 1e-6

    def test_tower_vs_allreduce_trajectories(self):
        k = 4
        tower = WorkerGroup([small_replica(r, k) for r in range(k)], mode="tower")
        ring = WorkerGroup([small_replica(r, k) for r in range(k)], mode="allreduce")
        for s in range(10):
            tower.run_step(s)
            ring.run_step(s)
            for name in tower.replicas[0].model.variables:
                a = tower.replicas[0].model.variables[name].value.f32()
                b = ring.replicas[0].model.variables[name].value.f32()
                assert np.max(np.abs(a - b)) < 1e-6

    def test_tower_k1_identical_to_plain(self):
        group = WorkerGroup([small_replica(0, 1)], mode="tower")
        plain = small_replica(0, 1)
        for s in range(5):
            group.run_step(s)
            tape, loss, grads, finite, _ = plain.forward_backward(s)
            plain.apply(plain.unscale(grads), s)
        assert group.replicas[0].parameter_digest() == plain.parameter_digest()

    def test_tower_equal_batches_average_to_same_gradient(self):
        # identical batches on both replicas: average equals either gradient
        k = 2
        replicas = [small_replica(0, 1, batch_size=4) for _ in range(k)]
        solo = small_replica(0, 1, batch_size=4)
        tower_train_step(replicas, 0, forward_backward_all(replicas, 0))
        tape, loss, grads, finite, _ = solo.forward_backward(0)
        solo.apply(solo.unscale(grads), 0)
        for name, v in solo.model.variables.items():
            assert np.max(np.abs(replicas[0].model.variables[name].value.f32()
                                 - v.value.f32())) < 1e-7

    def test_overflow_consensus_all_skip_and_halve(self):
        k = 4
        replicas = [small_replica(r, k, mode="mixed",
                                  scale_state=BackoffScale(scale=2.0 ** 12)) for r in range(k)]

        def tap(step, grads):
            if step == 2:
                name = next(iter(grads))
                arr = grads[name].f32().copy()
                arr.flat[0] = np.inf
                grads = dict(grads)
                grads[name] = Tensor.from_array(arr, DType.F16)
            return grads

        replicas[1].grad_tap = tap
        group = WorkerGroup(replicas, mode="allreduce")
        group.run_step(0)
        group.run_step(1)
        before = group.parameter_digests()
        metrics = group.run_step(2)
        assert not metrics.applied
        assert group.parameter_digests() == before
        assert {r.scale for r in replicas} == {2.0 ** 11}
        after = group.run_step(3)
        assert after.applied

    def test_tower_replicas_share_one_store_from_construction(self, monkeypatch):
        calls = []
        share = Replica.copy_parameters_from
        monkeypatch.setattr(Replica, "copy_parameters_from",
                            lambda self, other: calls.append(self) or share(self, other))
        replicas = [small_replica(r, 4, mode="mixed") for r in range(4)]
        group = WorkerGroup(replicas, mode="tower")
        assert calls == replicas[1:]
        for r in replicas:
            assert r.model.variables is replicas[0].model.variables
            assert r.state is replicas[0].state
        for s in range(3):
            assert group.run_step(s).applied
        assert calls == replicas[1:]  # no step copies anything
        assert len({r.data for r in replicas}) == 4
        assert len({r.bucket for r in replicas}) == 4

    def test_tower_overflow_backs_the_shared_scale_off_once(self):
        k = 4
        replicas = [small_replica(r, k, mode="mixed", scale_state=BackoffScale(scale=2.0 ** 15))
                    for r in range(k)]

        def tap(step, grads):
            name = min(grads)
            return {**grads, name: Tensor.from_array(np.full(grads[name].shape, np.inf),
                                                     DType.F16)}

        replicas[1].grad_tap = tap
        group = WorkerGroup(replicas, mode="tower")
        before = group.parameter_digests()
        metrics = group.run_step(0)
        assert not metrics.applied
        assert metrics.scale == 2.0 ** 14
        assert {r.scale for r in replicas} == {2.0 ** 14}
        assert group.parameter_digests() == before

    def test_mixed_mode_replicas_stay_identical(self):
        k = 2
        replicas = [small_replica(r, k, mode="mixed",
                                  scale_state=BackoffScale(scale=2.0 ** 10)) for r in range(k)]
        group = WorkerGroup(replicas, mode="allreduce")
        for s in range(5):
            group.run_step(s)
            assert len(set(group.parameter_digests())) == 1


def assert_same_share(got, want):
    """forward_backward_all's (tape, loss, grads, tokens) against a lone
    replica's forward_backward 5-tuple: the same loss, gradient bits and tokens."""
    _, loss, grads, tokens = got
    _, want_loss, want_grads, _, want_tokens = want
    assert (loss, tokens) == (want_loss, want_tokens)
    assert sorted(grads) == sorted(want_grads)
    for name, g in grads.items():
        assert g.dtype is want_grads[name].dtype and g.shape == want_grads[name].shape
        assert g.data.tobytes() == want_grads[name].data.tobytes(), name


def perturb(replica, name="dec/w_out"):
    v = replica.model.variables[name]
    arr = v.value.f32().copy()
    arr[0, 0] += 0.5
    v.value = Tensor.from_array(arr, v.value.dtype)


class TestStackedComputePhase:
    """The group's one tape per step, against a lone replica on each shard."""

    POLICIES = {"float32": ("float32", lambda r: None),
                "mixed-static-1024": ("mixed", lambda r: StaticScale(1024.0)),
                # each rank its own scale: the seed is one value per slice
                "mixed-backoff": ("mixed", lambda r: BackoffScale(scale=2.0 ** (10 + r)))}

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_every_rank_matches_a_lone_replica_on_its_shard(self, k, policy):
        mode, scale = self.POLICIES[policy]

        def replica(r):
            return small_replica(r, k, mode=mode, seed=5 + r, scale_state=scale(r))

        replicas = [replica(r) for r in range(k)]
        for step in range(3):
            got = forward_backward_all(replicas, step)
            assert len({id(tape) for tape, *_ in got}) == 1  # one tape for the group
            for r in range(k):
                assert_same_share(got[r], replica(r).forward_backward(step))

    @pytest.mark.parametrize("mode", ["float32", "mixed"])
    def test_a_perturbed_rank_gets_the_gradients_of_its_own_weights(self, mode):
        k = 3
        replicas = [small_replica(r, k, mode=mode) for r in range(k)]
        perturb(replicas[1])
        got = forward_backward_all(replicas, 0)
        for r in range(k):
            # rank r's shard on its own weights, and on rank 1's if r is not 1 or 0's if it is
            own, swapped = small_replica(r, k, mode=mode), small_replica(r, k, mode=mode)
            perturb(own if r == 1 else swapped)
            assert_same_share(got[r], own.forward_backward(0))
            swapped_grads = swapped.forward_backward(0)[2]
            assert any(g.data.tobytes() != swapped_grads[n].data.tobytes()
                       for n, g in got[r][2].items())

    def test_parallel_text_shards_of_different_lengths_get_their_own_tapes(self, tmp_path):
        # with batch 1, shard r of K reads lines r, r + K, ...: lengths 3, 5, 3, 5
        lines = ["a b c", "a b c d e", "c b a", "e d c b a"] * 2
        (tmp_path / "src.txt").write_text("\n".join(lines) + "\n")
        (tmp_path / "tgt.txt").write_text("\n".join(lines) + "\n")
        text = ParallelText(str(tmp_path / "src.txt"), str(tmp_path / "tgt.txt"))
        spec = ModelSpec(encoder_params={"layers": 1, "hidden": 8, "emb_size": 6},
                         decoder_params={"hidden": 8, "emb_size": 6})
        for k in (2, 4):
            def replica(r):
                model = Seq2SeqModel(spec, vocab_size=text.vocab.size, seed=r)
                return Replica(model, text.shard(r, k), Optimizer("sgd"),
                               LRPolicy("constant", 0.1), batch_size=1)

            for step in range(2):
                got = forward_backward_all([replica(r) for r in range(k)], step)
                tapes = [id(tape) for tape, *_ in got]
                assert len(set(tapes)) == 2 and tapes[0] != tapes[1]
                for r in range(k):
                    assert_same_share(got[r], replica(r).forward_backward(step))


def test_benchmark_model_allreduce_step_traffic():
    # the benchmark's reverse-k4-allreduce model: 15,504 trainable floats.
    # Per step each of 4 ranks sends 3 flag frames (5 + 9 bytes) and 3 chunk
    # frames (5 + 12 + 4 * 15,504 bytes)
    cfg = parse_config(json.dumps({
        "data_layer": "reverse_task",
        "data_layer_params": {"vocab_size": 16, "seq_len": 8, "seed": 1},
        "encoder_params": {"layers": 1, "hidden": 64, "emb_size": 32},
        "decoder_params": {"hidden": 64, "emb_size": 32},
        "batch_size_per_gpu": 8, "num_workers": 4, "use_allreduce": True}))
    group = WorkerGroup([runner.build_replica(cfg, r, 4) for r in range(4)])
    assert group.replicas[0].bucket.total == 15_504
    sent = []
    send = group.transport.send
    group.transport.send = lambda src, dst, message: sent.append(len(message)) or send(
        src, dst, message)
    try:
        assert group.run_step(0).applied
    finally:
        group.close()
    assert len(sent) == 24
    assert sum(sent) == 744_564


class TestInProcessTransport:
    def test_non_neighbor_traffic_rejected(self):
        tr = InProcessTransport(3, timeout=5.0)
        for src, dst in ((0, 0), (0, 2), (1, 0)):
            with pytest.raises(TransportError, match="ring-neighbor"):
                tr.send(src, dst, b"x")
            with pytest.raises(TransportError, match="ring-neighbor"):
                tr.recv(src, dst)
        tr.send(2, 0, b"y")
        assert tr.recv(2, 0) == b"y"

    def test_recv_on_an_empty_edge_times_out(self):
        tr = InProcessTransport(2, timeout=0.05)
        with pytest.raises(TransportError, match="recv timeout on edge 0->1"):
            tr.recv(0, 1)

    def test_abort_wakes_a_waiting_recv(self):
        tr = InProcessTransport(2, timeout=60.0)
        out = []

        def receive():
            try:
                tr.recv(0, 1)
            except GroupAborted:
                out.append(time.perf_counter())

        t = threading.Thread(target=receive)
        t.start()
        time.sleep(0.2)  # the receiver is waiting on its empty edge meanwhile
        t0 = time.perf_counter()
        tr.abort()
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert len(out) == 1 and out[0] - t0 < 1.0
        with pytest.raises(GroupAborted):
            tr.send(0, 1, b"z")

    def test_recv_after_abort_raises_at_once(self):
        tr = InProcessTransport(2, timeout=60.0)
        tr.send(0, 1, b"x")
        tr.abort()  # no receiver waits: the wake-up items stay on the edges
        for src, dst in ((0, 1), (1, 0)):  # an edge that holds a frame, an empty one
            for _ in range(2):  # twice: a second recv may find no wake-up item left
                t0 = time.perf_counter()
                with pytest.raises(GroupAborted):
                    tr.recv(src, dst)
                assert time.perf_counter() - t0 < 1.0


class TestSingleCopyFp32:
    """FP32 is mixed precision with an identity cast: master is the weights."""

    @staticmethod
    def assert_master_is_weights(replica):
        assert replica.state.master
        for name, master in replica.state.master.items():
            assert master is replica.model.variables[name].value

    def test_after_construction_and_a_k1_step(self):
        replica = small_replica(0, 1)
        self.assert_master_is_weights(replica)
        WorkerGroup([replica], mode="allreduce").run_step(0)
        self.assert_master_is_weights(replica)

    def test_every_replica_after_a_tower_step(self):
        group = WorkerGroup([small_replica(r, 4) for r in range(4)], mode="tower")
        assert group.run_step(0).applied
        for replica in group.replicas:
            self.assert_master_is_weights(replica)


PINS_POOL = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the pool pins its threads only where os.sched_setaffinity exists "
           "and this process may run on more than one CPU")


class TestWorkerPool:
    """In-process allreduce workers: persistent threads, each waiting on its own edge."""

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match="unknown group mode 'ring'"):
            WorkerGroup([small_replica(0, 1)], mode="ring")

    def test_thread_count_steady_across_steps(self):
        start = threading.active_count()
        group = WorkerGroup([small_replica(r, 4) for r in range(4)], mode="allreduce")
        counts = []
        for s in range(20):
            group.run_step(s)
            counts.append(threading.active_count())
        group.close()
        assert counts == [start + 4] * 20
        assert threading.active_count() == start

    def test_dropping_the_group_stops_its_workers(self):
        start = threading.active_count()
        group = WorkerGroup([small_replica(r, 4) for r in range(4)], mode="allreduce")
        group.run_step(0)
        assert threading.active_count() == start + 4
        del group
        deadline = time.monotonic() + 5.0
        while threading.active_count() != start and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == start

    def test_runner_stops_its_workers(self, tmp_path):
        cfg = {"data_layer": "reverse_task",
               "data_layer_params": {"vocab_size": 12, "seq_len": 4, "seed": 3},
               "encoder_params": {"layers": 1, "hidden": 8, "emb_size": 6},
               "decoder_params": {"hidden": 8, "emb_size": 6},
               "batch_size_per_gpu": 4, "num_workers": 4, "use_allreduce": True,
               "max_steps": 3, "checkpoint_dir": str(tmp_path / "ckpt")}
        start = threading.active_count()
        result = runner.run(parse_config(json.dumps(cfg)), "train")
        assert result.status == 0
        assert threading.active_count() == start

    def test_pooled_allreduce_matches_tower_bits_and_tokens(self):
        k, inf_step = 4, 3

        def inf_on_one_rank(step, grads):
            if step != inf_step:
                return grads
            name = min(grads)
            g = grads[name]
            return {**grads, name: Tensor(np.full(g.shape, np.inf, g.dtype.np_dtype), g.dtype)}

        for mode, policy in (("float32", StaticScale),
                             ("mixed", lambda: BackoffScale(growth_interval=4))):
            groups = {}
            for group_mode in ("tower", "allreduce"):
                replicas = [small_replica(r, k, mode=mode, scale_state=policy())
                            for r in range(k)]
                replicas[2].grad_tap = inf_on_one_rank
                groups[group_mode] = WorkerGroup(replicas, mode=group_mode)
            tower, ring = groups["tower"], groups["allreduce"]
            outcomes = {"tower": [], "allreduce": []}
            for s in range(10):
                shards = sum(float(r.data.batch(s, r.batch_size).target_mask.sum())
                             for r in ring.replicas)
                for group_mode, group in groups.items():
                    m = group.run_step(s)
                    assert m.tokens == shards
                    outcomes[group_mode].append((m.applied, m.scale))
            ring.close()
            assert ring.parameter_digests() == tower.parameter_digests()
            assert outcomes["allreduce"] == outcomes["tower"]
            assert [applied for applied, _ in outcomes["tower"]].count(False) >= 1
            assert not outcomes["tower"][inf_step][0]
            assert {r.scale for r in tower.replicas + ring.replicas} == {outcomes["tower"][-1][1]}

    def test_overlapping_ranks_end_with_tower_bits(self):
        k = 8  # more workers than cores
        groups = {}
        for mode in ("tower", "allreduce"):
            replicas = [small_replica(r, k, batch_size=2) for r in range(k)]
            groups[mode] = WorkerGroup(replicas, mode=mode)

        def tap(step, grads):
            time.sleep(0.001)  # lets any other rank run now
            return grads

        for r in groups["allreduce"].replicas:
            r.grad_tap = tap
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for s in range(5):
                for group in groups.values():
                    group.run_step(s)
        finally:
            sys.setswitchinterval(interval)
            groups["allreduce"].close()
        assert groups["allreduce"].parameter_digests() == groups["tower"].parameter_digests()

    def test_failure_names_rank_and_step_and_stops_the_group(self):
        replicas = [small_replica(r, 4) for r in range(4)]

        def tap(step, grads):
            if step == 1:
                raise ValueError("tap exploded")
            return grads

        replicas[2].grad_tap = tap
        group = WorkerGroup(replicas, mode="allreduce")
        group.run_step(0)
        t0 = time.perf_counter()
        with pytest.raises(TransportError, match=r"rank 2 failed at step 1: tap exploded"):
            group.run_step(1)
        assert time.perf_counter() - t0 < 2.0  # far below the 60 s recv timeout
        t0 = time.perf_counter()
        with pytest.raises(TransportError, match="aborted"):
            group.run_step(2)
        assert time.perf_counter() - t0 < 2.0
        group.close()

    @PINS_POOL
    def test_every_rank_runs_on_the_callers_lowest_cpu(self):
        k, steps = 4, 3
        replicas = [small_replica(r, k) for r in range(k)]
        seen = []

        def tap(step, grads):  # runs on the rank's pool thread
            seen.append((threading.get_ident(), os.sched_getaffinity(0)))
            return grads

        for r in replicas:
            r.grad_tap = tap
        group = WorkerGroup(replicas, mode="allreduce")
        try:
            for s in range(steps):
                group.run_step(s)
        finally:
            group.close()
        assert len({ident for ident, _ in seen}) == k
        assert [cpus for _, cpus in seen] == [{min(os.sched_getaffinity(0))}] * (k * steps)

    @PINS_POOL
    def test_callers_affinity_survives_step_and_close(self):
        before = os.sched_getaffinity(0)
        group = WorkerGroup([small_replica(r, 4) for r in range(4)], mode="allreduce")
        group.run_step(0)
        assert os.sched_getaffinity(0) == before
        group.close()
        assert os.sched_getaffinity(0) == before

    def test_group_steps_where_affinity_cannot_be_set(self, monkeypatch):
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        groups = [WorkerGroup([small_replica(r, 4) for r in range(4)], mode=mode)
                  for mode in ("tower", "allreduce")]
        for s in range(3):
            for group in groups:
                group.run_step(s)
        groups[1].close()
        assert groups[1].parameter_digests() == groups[0].parameter_digests()

    def test_one_worker_starts_no_thread(self):
        start = threading.active_count()
        group = WorkerGroup([small_replica(0, 1)], mode="allreduce")
        group.run_step(0)
        assert threading.active_count() == start
        group.close()

    @pytest.mark.parametrize("mode,k", [("allreduce", 1), ("allreduce", 4), ("tower", 4)])
    def test_step_leaves_no_cyclic_garbage(self, mode, k):
        group = WorkerGroup([small_replica(r, k) for r in range(k)], mode=mode)
        gc.collect()
        gc.disable()
        try:
            group.run_step(0)
            assert gc.collect() == 0
        finally:
            gc.enable()
            group.close()


class TestTcpTransport:
    def _free_ports(self, n):
        import socket as s
        socks = [s.socket() for _ in range(n)]
        for sk in socks:
            sk.bind(("127.0.0.1", 0))
        ports = [sk.getsockname()[1] for sk in socks]
        for sk in socks:
            sk.close()
        return ports

    def _run_ring(self, k, fn, timeout=20.0, close=True):
        """Run fn(transport, rank) on k threads, one TcpTransport each."""
        addresses = [f"127.0.0.1:{p}" for p in self._free_ports(k)]
        results = [None] * k
        errors = []

        def work(rank):
            try:
                tr = TcpTransport(rank, addresses, timeout=timeout)
                try:
                    results[rank] = fn(tr, rank)
                finally:
                    if close:
                        tr.close()
            except Exception as e:  # noqa: BLE001
                errors.append(e)

        threads = [threading.Thread(target=work, args=(r,)) for r in range(k)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
        assert not errors, errors
        return results

    def _connect_pair(self):
        """Two connected TcpTransports, ranks 0 and 1, with a 10 s timeout."""
        return self._run_ring(2, lambda tr, r: tr, timeout=10.0, close=False)

    def test_ring_over_tcp_matches_oracle(self):
        rng = np.random.default_rng(1)
        vecs = [rng.normal(size=37).astype(np.float32) for _ in range(3)]
        expect = naive_sum(vecs)
        results = self._run_ring(3, lambda tr, r: (ring_allreduce(tr, r, 3, vecs[r], step=1),
                                                   allreduce_flag_or(tr, r, 3, r == 0, step=1)))
        for out, flag in results:
            assert np.array_equal(out, expect)
            assert flag is True

    @pytest.mark.parametrize("k", [2, 3])
    def test_benchmark_gradient_length_over_tcp(self, k):
        # 15,504 floats is the benchmark model's gradient; every rank sends a
        # whole vector before it receives
        rng = np.random.default_rng(k)
        vecs = [rng.normal(size=15504).astype(np.float32) for _ in range(k)]
        expect = naive_sum(vecs)
        results = self._run_ring(k, lambda tr, r: (ring_allreduce(tr, r, k, vecs[r], step=2),
                                                   allreduce_flag_or(tr, r, k, r == k - 1, step=2),
                                                   allreduce_flag_or(tr, r, k, False, step=3)))
        for out, flag, no_flag in results:
            assert np.array_equal(out, expect)
            assert (flag, no_flag) == (True, False)

    def test_frame_larger_than_socket_buffers(self):
        # 8 MB frames: both ranks send before they receive, which deadlocks
        # if send blocks until the peer reads
        k, n = 2, 2_000_000
        rng = np.random.default_rng(5)
        vecs = [rng.normal(size=n).astype(np.float32) for _ in range(k)]
        expect = naive_sum(vecs)
        results = self._run_ring(k, lambda tr, r: ring_allreduce(tr, r, k, vecs[r], step=4),
                                 timeout=10.0)
        for out in results:
            assert np.array_equal(out, expect)

    def test_errors_name_the_peer_rank(self):
        transports = self._connect_pair()
        transports[1].close()
        with pytest.raises(TransportError, match="rank 0: rank 1 closed the connection"):
            transports[0].recv(1, 0)
        transports[0].send(0, 1, frame(TAG_FLAG, b"x" * 100))
        deadline = time.monotonic() + 10.0
        with pytest.raises(TransportError, match="rank 0: send to rank 1 failed"):
            while time.monotonic() < deadline:  # the writer finds the closed peer
                transports[0].send(0, 1, frame(TAG_FLAG, b"x" * 100))
                time.sleep(0.01)
        transports[0].close()

    def test_non_neighbor_traffic_rejected(self):
        transports = self._connect_pair()
        with pytest.raises(TransportError):
            transports[0].send(0, 0, b"x")
        for tr in transports:
            tr.close()


def test_throughput_probe_reports_rates():
    from miniseq.distrib import throughput_probe

    def make_group(k):
        return WorkerGroup([small_replica(r, k) for r in range(k)], mode="allreduce")

    rates = throughput_probe(make_group, worker_counts=(1, 2), steps=3, warmup=1)
    assert set(rates) == {1, 2}
    assert all(v > 0 for v in rates.values())
    scaling = rates[2] / (2 * rates[1])
    assert scaling <= 1.5  # sanity only; probe is report-only
