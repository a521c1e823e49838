"""Data-parallel training: replicas, transports, and ring collectives.

K workers train over disjoint data shards; a WorkerGroup steps those that
live in one process. In allreduce mode every worker owns a full replica and
the group agrees on each step through two collectives: a flag-OR (did
anyone overflow?) and a ring allreduce of the unscaled FP32 gradients. In
tower mode a single process steps K towers that share rank 0's parameter
store (see WorkerGroup). Both modes average the same rank-order sum
(rank_order_sum) of the flattened gradients and update through the same
Replica.apply, so they end with bit-identical weights.

A group step first computes every local rank's loss and gradients on one
tape, their weights and batches stacked on a leading replica axis
(forward_backward_all). In process, the per-rank rest of an allreduce step
runs on a thread pool, where each rank waits only on its own ring edge: no
lock orders the ranks. That phase is short and mostly hand-offs, so the
pool's threads share one CPU and a hand-off wakes the next rank on a warm
core; one OS process per rank over TcpTransport is the path to using more
than one core.

The ring is an allgather: in K-1 exchanges each rank passes the frame it
received last to the next rank, so every rank ends with all K contributions
and adds them with rank_order_sum, the FP32 sum in ascending rank order that
tower_train_step computes over the same K vectors. Each rank sends (K-1)n
elements per allreduce, not the 2(K-1)n/K of a bandwidth-optimal ring, and
buys bit-reproducible results: every worker's reduced vector equals tower's.

Wire format (both transports): [length: u32 LE][tag: u8][payload], where
tag 0 = tensor chunk, 1 = flag, 2 = control. Payloads of the ring
collectives start [step: u32][origin rank: u32]. Tensor chunk:
[step][origin][count: u32][FP32 little-endian elements]; flag:
[step][origin][flag: u8]. Each rank sends K-1 frames per collective, to the
next rank only.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autodiff import Variable, backward
from .blocks import Batch, DataLayer, Seq2SeqModel
from .mixed_precision import (
    RegularizerRegistry,
    StaticScale,
    apply_update,
    check_finite_all,
    init_master,
    unscale_to_f32,
)
from .optim import LRPolicy, Optimizer
from .tensor import DType, Tensor

TAG_TENSOR_CHUNK = 0
TAG_FLAG = 1
TAG_CONTROL = 2

_ORIGIN = struct.Struct("<II")  # [step][origin rank], the head of every ring payload
_FLAG = struct.Struct("<IIB")
_CHUNK = struct.Struct("<III")  # [step][origin][count]


class TransportError(RuntimeError):
    pass


class GroupAborted(TransportError):
    """Raised by a transport after another worker failed and aborted the group."""

    def __init__(self):
        super().__init__("group aborted")


def frame(tag: int, payload: bytes) -> bytes:
    return struct.pack("<IB", len(payload), tag) + payload


def unframe(message) -> tuple[int, memoryview]:
    """Tag and payload of a frame; the payload is a view, not a copy."""
    view = memoryview(message)
    length, tag = struct.unpack_from("<IB", view)
    if len(view) - 5 != length:
        raise TransportError("corrupt frame")
    return tag, view[5:]


def chunk_payload(step: int, origin: int, arr: np.ndarray) -> bytes:
    return _CHUNK.pack(step, origin, arr.size) + arr.astype("<f4", copy=False).tobytes()


def parse_chunk(payload) -> tuple[int, int, np.ndarray]:
    step, origin, count = _CHUNK.unpack_from(payload)
    arr = np.frombuffer(payload, dtype="<f4", offset=_CHUNK.size)
    if arr.size != count:
        raise TransportError(f"chunk payload carries {arr.size} elements, header says {count}")
    return step, origin, arr


class InProcessTransport:
    """One FIFO per ring edge (rank r to rank r+1), shared by worker threads.

    Like TcpTransport, it carries ring-neighbor traffic only. Each rank waits
    only on its own edge; nothing else orders the ranks. abort puts a wake-up
    item on every edge, so that a waiting recv raises GroupAborted at once,
    and from then on every send and recv raises it too.
    """

    def __init__(self, num_workers: int, timeout: float = 60.0):
        self.num_workers = num_workers
        self.timeout = timeout
        self.aborted = False
        self._edges = {(r, (r + 1) % num_workers): queue.SimpleQueue()
                       for r in range(num_workers)}

    def abort(self):
        self.aborted = True
        for frames in self._edges.values():
            frames.put(None)

    def close(self):
        """Nothing to release: the edges are plain queues."""

    def _edge(self, src: int, dst: int) -> queue.SimpleQueue:
        edge = self._edges.get((src, dst))
        if edge is None:
            raise TransportError(
                f"in-process transport only carries ring-neighbor traffic, not {src}->{dst}")
        return edge

    def send(self, src: int, dst: int, message: bytes) -> None:
        frames = self._edge(src, dst)
        if self.aborted:
            raise GroupAborted()
        frames.put(message)

    def recv(self, src: int, dst: int) -> bytes:
        frames = self._edge(src, dst)
        if self.aborted:  # another recv may have taken this edge's wake-up item
            raise GroupAborted()
        try:
            message = frames.get(timeout=self.timeout)
        except queue.Empty:
            raise TransportError(f"recv timeout on edge {src}->{dst}") from None
        if self.aborted:
            raise GroupAborted()
        return message


class TcpTransport:
    """Ring edges over TCP sockets; one process per rank.

    Each rank listens on its roster address, accepts one connection from the
    previous rank, and connects to the next. Ring collectives only ever use
    these two edges.

    send() queues the message for a writer thread and returns, so a rank
    that sends a frame larger than the socket buffers still goes on to read
    its previous rank's frame; with a blocking send every rank of the ring
    would wait in sendall for a peer that is itself waiting in sendall.
    close() lets the writer finish what is queued; abort() does not.
    """

    def __init__(self, rank: int, addresses: list[str], timeout: float = 60.0):
        self.rank = rank
        self.num_workers = len(addresses)
        self.addresses = list(addresses)
        self.timeout = timeout
        self._next = (rank + 1) % self.num_workers
        self._prev = (rank - 1) % self.num_workers
        self._next_sock = None
        self._prev_sock = None
        self._outbox: queue.SimpleQueue = queue.SimpleQueue()
        self._writer = None
        self._send_error: OSError | None = None
        if self.num_workers > 1:
            self._connect_ring()
            self._writer = threading.Thread(target=self._write_loop, daemon=True,
                                            name=f"tcp-writer-{rank}")
            self._writer.start()
            try:
                self._validate_roster()
            except TransportError:
                self.abort()
                raise

    def _parse(self, addr: str) -> tuple[str, int]:
        host, port = addr.rsplit(":", 1)
        return host, int(port)

    def _connect_ring(self):
        host, port = self._parse(self.addresses[self.rank])
        server = socket.create_server((host, port))
        server.settimeout(self.timeout)
        nxt_host, nxt_port = self._parse(self.addresses[self._next])
        deadline = time.monotonic() + self.timeout
        sock = None
        while sock is None:
            try:
                sock = socket.create_connection((nxt_host, nxt_port), timeout=1.0)
            except OSError:
                if time.monotonic() > deadline:
                    server.close()
                    raise TransportError(f"rank {self.rank}: cannot reach rank {self._next} "
                                         f"at {nxt_host}:{nxt_port}")
                time.sleep(0.05)
        self._next_sock = sock
        self._next_sock.settimeout(self.timeout)
        try:
            self._prev_sock, _ = server.accept()
        except socket.timeout:
            raise TransportError(f"rank {self.rank}: no connection from rank {self._prev}") from None
        finally:
            server.close()
        self._prev_sock.settimeout(self.timeout)

    def _validate_roster(self):
        digest = hashlib.sha256(json.dumps(self.addresses).encode()).digest()
        if self.rank == 0:
            self.send(self.rank, self._next, frame(TAG_CONTROL, digest))
        tag, payload = unframe(self.recv(self._prev, self.rank))
        if tag != TAG_CONTROL or payload != digest:
            raise TransportError(f"rank {self.rank}: roster mismatch with rank {self._prev}")
        if self.rank != 0:
            self.send(self.rank, self._next, frame(TAG_CONTROL, digest))

    def _write_loop(self):
        while (message := self._outbox.get()) is not None:
            try:
                self._next_sock.sendall(message)
            except OSError as e:
                self._send_error = e
                return

    def abort(self):
        self._close(flush=False)

    def send(self, src: int, dst: int, message) -> None:
        """Queue ``message`` for the next rank; it must not change until written."""
        if dst != self._next:
            raise TransportError(f"rank {self.rank}: tcp transport only carries ring-neighbor "
                                 f"traffic, not to rank {dst}")
        if self._send_error is not None:
            raise TransportError(f"rank {self.rank}: send to rank {dst} failed: "
                                 f"{self._send_error}")
        self._outbox.put(message)

    def recv(self, src: int, dst: int) -> memoryview:
        """The next frame from the previous rank, as a read-only view."""
        if src != self._prev:
            raise TransportError(f"rank {self.rank}: tcp transport only carries ring-neighbor "
                                 f"traffic, not from rank {src}")
        try:
            header = bytearray(5)
            self._read_exact(memoryview(header))
            length, _tag = struct.unpack("<IB", header)
            message = bytearray(5 + length)
            message[:5] = header
            self._read_exact(memoryview(message)[5:])
        except OSError as e:
            raise TransportError(f"rank {self.rank}: recv from rank {src} failed: {e}") from e
        return memoryview(message).toreadonly()

    def _read_exact(self, view: memoryview) -> None:
        while len(view):
            n = self._prev_sock.recv_into(view)
            if n == 0:
                raise TransportError(f"rank {self.rank}: rank {self._prev} closed the connection")
            view = view[n:]

    def close(self):
        self._close(flush=True)

    def _close(self, flush: bool):
        if self._writer is not None:
            self._outbox.put(None)
            if flush:
                self._writer.join(timeout=self.timeout)
        for s in (self._next_sock, self._prev_sock):
            if s is not None:
                try:
                    s.shutdown(socket.SHUT_RDWR)  # wakes a thread blocked on the socket
                except OSError:
                    pass
                s.close()


# -- collectives -----------------------------------------------------------------


def rank_order_sum(contributions: list[np.ndarray]) -> np.ndarray:
    """Elementwise FP32 sum of equal-length vectors, added in list (rank) order."""
    acc = np.zeros(len(contributions[0]), dtype=np.float32)
    for contrib in contributions:
        acc += np.asarray(contrib, dtype=np.float32)
    return acc


def ring_allgather(transport, rank: int, num_workers: int, tag: int, payload: bytes,
                   step: int) -> list:
    """Every rank's payload, in rank order, on every rank.

    ``payload`` must start [step][origin rank] (see the module docstring). In
    K-1 exchanges each rank sends the frame it received last (first its own)
    to the next rank and receives one from the previous rank; a received
    frame is forwarded as the same bytes object, and the gathered payloads
    are views into the frames. Every frame's tag, step and origin rank are
    checked against the ring position it arrived at.
    """
    k = num_workers
    nxt, prv = (rank + 1) % k, (rank - 1) % k
    parts = [None] * k
    parts[rank] = payload
    message = frame(tag, payload)
    for hop in range(1, k):
        transport.send(rank, nxt, message)
        message = transport.recv(prv, rank)
        msg_tag, view = unframe(message)
        if msg_tag != tag:
            raise TransportError(f"tag mismatch: expected {tag}, got {msg_tag}")
        msg_step, origin = _ORIGIN.unpack_from(view)
        if msg_step != step:
            raise TransportError(f"step mismatch: expected {step}, got {msg_step}")
        expected = (rank - hop) % k
        if origin != expected:
            raise TransportError(f"origin mismatch: expected rank {expected}, got rank {origin}")
        parts[origin] = view
    return parts


def ring_allreduce(transport, rank: int, num_workers: int, vector: np.ndarray,
                   step: int = 0) -> np.ndarray:
    """Elementwise FP32 sum across workers; every worker returns identical bytes.

    Every worker gathers all K float32 vectors and adds them with
    rank_order_sum. Any other dtype is refused.
    """
    if vector.dtype != np.float32:
        raise TypeError(f"ring_allreduce reduces float32 vectors, not {vector.dtype}")
    if num_workers == 1:
        return vector.copy()
    payloads = ring_allgather(transport, rank, num_workers, TAG_TENSOR_CHUNK,
                              chunk_payload(step, rank, vector), step)
    parts = [parse_chunk(p)[2] for p in payloads]
    for origin, part in enumerate(parts):
        if part.size != vector.size:
            raise TransportError(f"mismatched lengths: rank {origin} sent {part.size} "
                                 f"elements, rank {rank} has {vector.size}")
    return rank_order_sum(parts)


def allreduce_flag_or(transport, rank: int, num_workers: int, flag: bool,
                      step: int = 0) -> bool:
    """Logical OR of all workers' flags; identical result everywhere."""
    if num_workers == 1:
        return bool(flag)
    payloads = ring_allgather(transport, rank, num_workers, TAG_FLAG,
                              _FLAG.pack(step, rank, int(flag)), step)
    return any(_FLAG.unpack(p)[2] for p in payloads)


# -- replicas and worker groups ----------------------------------------------------


class ReduceBucket:
    """Fixed name-sorted concatenation of all gradients into one vector."""

    def __init__(self, variables):
        self.order = sorted(
            (name, v.value.size) for name, v in variables.items() if v.trainable)
        self.total = sum(extent for _, extent in self.order)

    def flatten(self, grads: dict[str, Tensor]) -> np.ndarray:
        out = np.empty(self.total, dtype=np.float32)
        pos = 0
        for name, extent in self.order:
            out[pos:pos + extent] = grads[name].f32().reshape(-1)
            pos += extent
        return out

    def unflatten(self, vec: np.ndarray, shapes: dict[str, tuple]) -> dict[str, Tensor]:
        out = {}
        pos = 0
        for name, extent in self.order:
            arr = vec[pos:pos + extent].reshape(shapes[name]).astype(np.float32)
            out[name] = Tensor(arr, DType.F32)
            pos += extent
        return out


@dataclass
class StepMetrics:
    """One step's outcome; WorkerGroup.run_step sets the group's tokens and seconds."""

    step: int
    loss: float
    applied: bool
    scale: float
    grad_norm: float | None
    lr: float | None
    tokens: float
    seconds: float = 0.0


class Replica:
    """One worker's model, optimizer, precision state, and data shard."""

    def __init__(self, model: Seq2SeqModel, data: DataLayer, optimizer: Optimizer,
                 lr_policy: LRPolicy, scale_state: StaticScale | None = None,
                 registry: RegularizerRegistry | None = None, batch_size: int = 32):
        self.model = model
        self.data = data
        self.optimizer = optimizer
        self.lr_policy = lr_policy
        self.batch_size = batch_size
        self.state = init_master(model.variables, scale_state, registry)
        self.bucket = ReduceBucket(model.variables)
        self.shapes = {n: v.value.shape for n, v in model.variables.items() if v.trainable}
        self.grad_tap = None  # test hook: mutates raw gradients before the finite check

    @property
    def scale(self) -> float:
        return self.state.scale_state.scale

    def forward_backward(self, step: int):
        """Forward on this shard's batch, scaled backward, local finite check."""
        tape, loss, grads, tokens = forward_backward_all([self], step)[0]
        return (tape, loss, *self.check(step, grads), tokens)

    def check(self, step: int, grads: dict[str, Tensor]) -> tuple[dict[str, Tensor], bool]:
        """The raw gradients after grad_tap, and whether they are all finite."""
        if self.grad_tap is not None:
            grads = self.grad_tap(step, grads)
        return grads, check_finite_all(grads)

    def unscale(self, grads: dict[str, Tensor]) -> dict[str, Tensor]:
        return unscale_to_f32(grads, self.scale)

    def apply(self, grads32: dict[str, Tensor], step: int) -> tuple[float, float]:
        """The shared update (mixed_precision.apply_update) at this step's lr."""
        lr = self.lr_policy.lr_at(self.optimizer.t)
        return apply_update(self.state, self.optimizer, self.model.variables, grads32, lr), lr

    def apply_mean(self, summed: np.ndarray, num_workers: int, step: int) -> tuple[float, float]:
        """Apply a rank-order sum of flattened gradients, averaged over the workers."""
        mean = (summed / np.float32(num_workers)).astype(np.float32)
        return self.apply(self.bucket.unflatten(mean, self.shapes), step)

    def on_overflow(self):
        self.state.scale_state.on_overflow()

    def parameter_digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.model.variables):
            h.update(self.model.variables[name].value.data.tobytes())
        return h.hexdigest()

    def copy_parameters_from(self, other: "Replica"):
        """Share ``other``'s variables, master weights, loss-scale state and
        regularizer registry: from then on an update to either replica is an
        update to both. The data shard, bucket and grad_tap stay this one's."""
        self.model.variables = other.model.variables
        self.state = other.state


def forward_backward_all(replicas: list[Replica], step: int) -> list[tuple]:
    """Each replica's (tape, loss, raw scaled gradients, tokens) at ``step``.

    Replicas whose batches share a shape share one tape, whose leaves are their
    own weights stacked on a leading replica axis and whose backward seeds
    slice k with replica k's scale: slice k has the bits of replica k's own
    tape. A lone replica's tape has no replica axis."""
    batches = [r.data.batch(step, r.batch_size) for r in replicas]
    by_shape: dict[tuple, list[int]] = {}
    for k, b in enumerate(batches):
        by_shape.setdefault((b.source_ids.shape, b.target_ids.shape), []).append(k)
    out = [None] * len(replicas)
    for ks in by_shape.values():
        model, lone = replicas[ks[0]].model, len(ks) == 1
        if lone:
            loss, tape = model.forward(batches[ks[0]])
        else:
            stacked = {name: Variable(name, Tensor(np.stack(
                [replicas[k].model.variables[name].value.data for k in ks]), v.value.dtype),
                v.trainable) for name, v in model.variables.items()}
            loss, tape = model.forward(Batch(*map(np.stack, zip(
                *(vars(batches[k]).values() for k in ks)))), stacked)
        grads = backward(tape, loss_seed=np.reshape([replicas[k].scale for k in ks], loss.shape))
        for i, k in enumerate(ks):
            own = grads if lone else {n: Tensor(g.data[i], g.dtype) for n, g in grads.items()}
            out[k] = (tape, float(loss.f32()[i]), own, float(batches[k].target_mask.sum()))
    return out


def distributed_train_step(replica: Replica, transport, rank: int, num_workers: int,
                           step: int, computed: tuple) -> StepMetrics:
    """One synchronous data-parallel step (allreduce mode), run per worker from
    its share of forward_backward_all, ``computed``; the tokens are this worker's."""
    _, loss, grads, tokens = computed
    grads, finite = replica.check(step, grads)
    any_overflow = allreduce_flag_or(transport, rank, num_workers, not finite, step)
    if any_overflow:
        replica.on_overflow()
        return StepMetrics(step, loss, False, replica.scale, None, None, tokens)
    vec = replica.bucket.flatten(replica.unscale(grads))
    summed = ring_allreduce(transport, rank, num_workers, vec, step)
    grad_norm, lr = replica.apply_mean(summed, num_workers, step)
    return StepMetrics(step, loss, True, replica.scale, grad_norm, lr, tokens)


def tower_train_step(replicas: list[Replica], step: int, computed: list[tuple]) -> StepMetrics:
    """Single-process aggregation over towers that share one parameter store:
    from every tower's share of forward_backward_all, ``computed``, the
    rank-order sum of their flattened grads averaged and applied once, or on
    any overflow one back-off of the scale. The tokens are all the towers'."""
    checked = [r.check(step, grads) for r, (_, _, grads, _) in zip(replicas, computed)]
    tokens = sum(tok for *_, tok in computed)
    mean_loss = float(np.mean([loss for _, loss, _, _ in computed]))
    if not all(finite for _, finite in checked):
        replicas[0].on_overflow()
        return StepMetrics(step, mean_loss, False, replicas[0].scale, None, None, tokens)
    summed = rank_order_sum([r.bucket.flatten(r.unscale(grads))
                             for r, (grads, _) in zip(replicas, checked)])
    grad_norm, lr = replicas[0].apply_mean(summed, len(replicas), step)
    return StepMetrics(step, mean_loss, True, replicas[0].scale, grad_norm, lr, tokens)


def _rank_step(replica: Replica, transport: InProcessTransport, rank: int,
               num_workers: int, step: int, computed: tuple) -> StepMetrics:
    """One rank's share of an allreduce step on a pool thread.

    A failure aborts the transport so that the other ranks stop waiting.
    """
    try:
        return distributed_train_step(replica, transport, rank, num_workers, step, computed)
    except BaseException:
        transport.abort()
        raise


def _pin_thread(cpu: int):
    """Pool initializer: bind the calling thread (only, on Linux) to ``cpu``, if allowed."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass


class WorkerGroup:
    """The ranks of a data-parallel group that live in this process: by
    default all K = len(replicas) over an InProcessTransport, or, given a
    TcpTransport, that transport's one rank (K is then the transport's).
    run_step alone picks how they step, totals the group's tokens and times
    the step.

    Every step starts with one forward_backward_all over the local ranks, in
    the calling thread. Mode "allreduce" with K > 1 in process then runs the
    K ranks' per-rank phases on a pool of K threads, created on the first
    step, where each rank waits only on its own ring edge and the ranks meet
    in the ring collectives. The phase is short and mostly hand-offs, so the
    pool's threads are pinned to the caller's lowest allowed CPU, where a
    hand-off wakes the next rank on a warm core; the caller's thread stays
    unpinned. close() stops the threads, and so does dropping the group: a
    pool thread runs the module-level _rank_step and holds no reference to
    the group. mode "tower" makes replicas 1..K-1 share rank 0's parameter
    store once, here, and steps the K towers in the calling thread
    (tower_train_step).
    """

    def __init__(self, replicas: list[Replica], mode: str = "allreduce",
                 transport: TcpTransport | None = None):
        if mode not in ("allreduce", "tower"):
            raise ValueError(f"unknown group mode {mode!r}")
        if mode == "tower":
            for r in replicas[1:]:
                r.copy_parameters_from(replicas[0])
        self.replicas = replicas
        self.mode = mode
        self.transport = transport or InProcessTransport(len(replicas))
        self.rank = getattr(transport, "rank", 0)
        self.num_workers = self.transport.num_workers
        self._pool: ThreadPoolExecutor | None = None

    def close(self):
        """Stop the pool's threads (a later step starts new ones); close the transport."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self.transport.close()

    def run_step(self, step: int) -> StepMetrics:
        """One group step: rank 0's metrics after the consensus checks (this
        rank's, on TCP), with the group's tokens and the step's wall time."""
        t0 = time.perf_counter()
        computed = forward_backward_all(self.replicas, step)
        if self.mode == "tower":
            metrics = tower_train_step(self.replicas, step, computed)
        else:
            if len(self.replicas) == 1:
                results = [distributed_train_step(self.replicas[0], self.transport, self.rank,
                                                  self.num_workers, step, computed[0])]
            else:
                if self.transport.aborted:
                    raise TransportError(
                        f"step {step}: the group was aborted by an earlier failure")
                if self._pool is None:
                    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else ()
                    pin = ({"initializer": _pin_thread, "initargs": (min(cpus),)}
                           if len(cpus) > 1 else {})
                    self._pool = ThreadPoolExecutor(self.num_workers,
                                                    thread_name_prefix="miniseq-worker", **pin)
                futures = [self._pool.submit(_rank_step, replica, self.transport, rank,
                                             self.num_workers, step, part)
                           for rank, (replica, part) in enumerate(zip(self.replicas, computed))]
                errors = [f.exception() for f in futures]  # waits for every rank
                failures = [(rank, e) for rank, e in enumerate(errors) if e is not None]
                if failures:
                    # the cause, not a rank that only saw the abort it triggered
                    rank, err = next(((r, e) for r, e in failures
                                      if not isinstance(e, GroupAborted)), failures[0])
                    raise TransportError(f"rank {rank} failed at step {step}: {err}") from err
                results = [f.result() for f in futures]
            if len({m.applied for m in results}) != 1:
                raise RuntimeError("flag consensus violated: mixed applied/skipped outcomes")
            metrics = results[0]
            # a lone rank counts every rank's shard as its own
            metrics.tokens = sum(m.tokens for m in results) * self.num_workers / len(results)
        metrics.seconds = time.perf_counter() - t0
        return metrics

    def parameter_digests(self) -> list[str]:
        return [r.parameter_digest() for r in self.replicas]


def throughput_probe(make_group, worker_counts=(1, 4), steps: int = 20,
                     warmup: int = 3) -> dict[int, float]:
    """steps/sec at each worker count; report-only, no thresholds.

    scaling factor at K = (steps/sec at K) / (K * steps/sec at 1).
    """
    rates: dict[int, float] = {}
    for k in worker_counts:
        group = make_group(k)
        for s in range(warmup):
            group.run_step(s)
        t0 = time.perf_counter()
        for s in range(warmup, warmup + steps):
            group.run_step(s)
        rates[k] = steps / (time.perf_counter() - t0)
        group.close()
    return rates
