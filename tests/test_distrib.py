import gc
import json
import sys
import threading
import time

import numpy as np
import pytest

from miniseq import runner
from miniseq.blocks import CopyTask, ModelSpec, Seq2SeqModel
from miniseq.config import parse_config
from miniseq.distrib import (
    InProcessTransport,
    Replica,
    ReduceBucket,
    TcpTransport,
    TransportError,
    WorkerGroup,
    allreduce_flag_or,
    chunk_payload,
    frame,
    parse_chunk,
    ring_allreduce,
    tower_train_step,
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

    def test_chunk_payload_round_trip(self):
        arr = np.array([1.5, -2.0], dtype=np.float32)
        payload = chunk_payload(3, 1, DType.F32, arr)
        step, chunk, dtype, back = parse_chunk(payload)
        assert (step, chunk, dtype) == (3, 1, DType.F32)
        assert np.array_equal(back, arr)

    def test_chunk_payload_f16(self):
        arr = np.array([0.5], dtype=np.float16)
        payload = chunk_payload(0, 2, DType.F16, arr)
        _, _, dtype, back = parse_chunk(payload)
        assert dtype is DType.F16
        assert back.dtype.str == "<f2"


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

    def test_f16_payload_fp32_accumulation(self):
        # 3 half-precision vectors of 1024: F16 pairwise addition would stall,
        # FP32 accumulation at the finalizer is exact
        vecs = [np.full(4, 1024.0, dtype=np.float16) for _ in range(3)]
        results = run_collective(3, lambda tr, r: ring_allreduce(tr, r, 3, vecs[r]))
        for out in results:
            assert out.dtype == np.float16
            assert np.all(out.astype(np.float32) == 3072.0)

    def test_mismatched_lengths_detected(self):
        def fn(tr, r):
            n = 8 if r == 0 else 12
            return ring_allreduce(tr, r, 2, np.ones(n, dtype=np.float32))

        with pytest.raises(TransportError):
            run_collective(2, fn)


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
                    shard = base.shard(r, k)
                    start = step * per_worker
                    examples.extend(shard.example(start + j) for j in range(per_worker))
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
        tower_train_step(replicas, 0)
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

    def test_mixed_mode_replicas_stay_identical(self):
        k = 2
        replicas = [small_replica(r, k, mode="mixed",
                                  scale_state=BackoffScale(scale=2.0 ** 10)) for r in range(k)]
        group = WorkerGroup(replicas, mode="allreduce")
        for s in range(5):
            group.run_step(s)
            assert len(set(group.parameter_digests())) == 1


class TestTurn:
    def test_recv_lends_the_turn_while_it_waits(self):
        tr = InProcessTransport(2, timeout=5.0)

        def rank1():
            with tr.turn():  # blocks forever if rank 0 keeps the turn while it waits
                tr.send(1, 0, b"x")

        with tr.turn():
            t = threading.Thread(target=rank1)
            t.start()
            assert tr.recv(1, 0) == b"x"
            assert tr._turn_holder == threading.get_ident()  # taken back before return
        t.join(timeout=10.0)
        assert not t.is_alive()

    def test_thread_without_turn_ignores_it(self):
        tr = InProcessTransport(2, timeout=5.0)
        out = []
        with tr.turn():
            t = threading.Thread(target=lambda: out.append(tr.recv(0, 1)))
            t.start()
            time.sleep(0.1)  # the receiver blocks on its empty queue meanwhile
            tr.send(0, 1, b"y")
            t.join(timeout=10.0)
            assert tr._turn_holder == threading.get_ident()
        assert not t.is_alive()
        assert out == [b"y"]


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


class TestWorkerPool:
    """In-process allreduce workers: persistent threads taking turns."""

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

    def test_workers_compute_one_at_a_time(self):
        k = 8  # more workers than cores
        replicas = [small_replica(r, k, batch_size=2) for r in range(k)]
        inside, seen = [0], []

        def tap(step, grads):
            inside[0] += 1
            seen.append(inside[0])
            time.sleep(0.001)  # lets any other computing worker run now
            inside[0] -= 1
            return grads

        for r in replicas:
            r.grad_tap = tap
        group = WorkerGroup(replicas, mode="allreduce")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for s in range(5):
                group.run_step(s)
        finally:
            sys.setswitchinterval(interval)
            group.close()
        assert seen == [1] * (5 * k)
        assert len(set(group.parameter_digests())) == 1

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

    def test_ring_over_tcp_matches_oracle(self):
        ports = self._free_ports(3)
        addresses = [f"127.0.0.1:{p}" for p in ports]
        rng = np.random.default_rng(1)
        vecs = [rng.normal(size=37).astype(np.float32) for _ in range(3)]
        expect = naive_sum(vecs)
        results = [None] * 3
        errors = []

        def work(rank):
            try:
                tr = TcpTransport(rank, addresses, timeout=20.0)
                results[rank] = ring_allreduce(tr, rank, 3, vecs[rank], step=1)
                flag = allreduce_flag_or(tr, rank, 3, rank == 0, step=1)
                assert flag is True
                tr.close()
            except Exception as e:  # noqa: BLE001
                errors.append(e)

        threads = [threading.Thread(target=work, args=(r,)) for r in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        for out in results:
            assert np.array_equal(out, expect)

    def test_non_neighbor_traffic_rejected(self):
        ports = self._free_ports(2)
        addresses = [f"127.0.0.1:{p}" for p in ports]
        transports = [None, None]
        errors = []

        def work(rank):
            try:
                transports[rank] = TcpTransport(rank, addresses, timeout=10.0)
            except Exception as e:  # noqa: BLE001
                errors.append(e)

        threads = [threading.Thread(target=work, args=(r,)) for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
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
