"""Data-parallel training: replicas, transports, and ring collectives.

A WorkerGroup runs K replicas over disjoint data shards. In allreduce mode
every worker owns a full replica and the group agrees on each step through
two collectives: a flag-OR (did anyone overflow?) and a ring allreduce of
the unscaled FP32 gradients. In tower mode a single process steps all
replicas against one shared parameter store.

In-process allreduce workers are persistent threads, started once per group,
and they take turns: a worker computes only while it holds the transport's
turn and lends it out while it waits for a message, so one thread runs
Python at a time instead of K threads contending for the GIL. That buys no
parallelism; one OS process per rank over TcpTransport is the path to
using more than one core.

The ring keeps the classic two-phase shape (K-1 reduce-scatter exchanges,
then K-1 allgather exchanges, chunk size ceil(n/K)), but contributions ride
raw to each chunk's finalizer, which sums them in ascending rank order in
FP32. That costs some bandwidth at desk scale and buys bit-reproducible
results: the reduced vector equals a gather-then-sum in rank order exactly,
on every worker.

Wire format (both transports): [length: u32 LE][tag: u8][payload], where
tag 0 = tensor chunk, 1 = flag, 2 = control. Tensor-chunk payload:
[step: u32][chunk index: u32][dtype byte (0=F16, 1=F32)][count: u32]
[raw little-endian elements].
"""

from __future__ import annotations

import hashlib
import json
import queue
import socket
import struct
import threading
import time
import weakref
from contextlib import contextmanager

import numpy as np

from .autodiff import Tape, backward
from .blocks import DataLayer, Seq2SeqModel
from .mixed_precision import (
    LossScaleState,
    MixedPrecisionState,
    RegularizerRegistry,
    StaticScale,
    apply_regularizer_grads,
    check_finite_all,
    global_grad_norm,
    init_master,
    unscale_to_f32,
)
from .optim import LRPolicy, Optimizer
from .tensor import DType, Tensor, cast

TAG_TENSOR_CHUNK = 0
TAG_FLAG = 1
TAG_CONTROL = 2

_DTYPE_BYTE = {DType.F16: 0, DType.F32: 1}
_BYTE_NP = {0: "<f2", 1: "<f4"}


class TransportError(RuntimeError):
    pass


class GroupAborted(TransportError):
    """Raised by a transport after another worker failed and aborted the group."""

    def __init__(self):
        super().__init__("group aborted")


def frame(tag: int, payload: bytes) -> bytes:
    return struct.pack("<IB", len(payload), tag) + payload


def chunk_payload(step: int, chunk_index: int, dtype: DType, arr: np.ndarray) -> bytes:
    raw = np.ascontiguousarray(arr).astype(_BYTE_NP[_DTYPE_BYTE[dtype]], copy=False).tobytes()
    return struct.pack("<IIBI", step, chunk_index, _DTYPE_BYTE[dtype], arr.size) + raw


def parse_chunk(payload: bytes) -> tuple[int, int, DType, np.ndarray]:
    step, chunk_index, dtype_byte, count = struct.unpack("<IIBI", payload[:13])
    wire = _BYTE_NP[dtype_byte]
    arr = np.frombuffer(payload[13:], dtype=wire)
    if arr.size != count:
        raise TransportError(f"chunk payload carries {arr.size} elements, header says {count}")
    dtype = DType.F16 if dtype_byte == 0 else DType.F32
    return step, chunk_index, dtype, arr


class InProcessTransport:
    """Per-(sender, receiver) FIFO queues shared by worker threads.

    The transport also carries a turn: a lock that at most one worker holds
    while it computes. A turn holder that blocks in ``recv`` on an empty
    queue gives the turn up for the wait and takes it back before it
    returns. Threads that never take the turn are not affected by it.
    """

    kind = "in_process"

    def __init__(self, num_workers: int, timeout: float = 60.0):
        self.num_workers = num_workers
        self.timeout = timeout
        self._queues = {
            (s, d): queue.Queue()
            for s in range(num_workers) for d in range(num_workers) if s != d
        }
        self._abort = threading.Event()
        self._turn = threading.Lock()
        self._turn_holder = None

    def abort(self):
        self._abort.set()

    @property
    def aborted(self) -> bool:
        return self._abort.is_set()

    @contextmanager
    def turn(self):
        """Hold the turn for the body (lent out only while ``recv`` waits)."""
        self._take_turn()
        try:
            yield
        finally:
            self._give_turn()

    def _take_turn(self):
        self._turn.acquire()
        self._turn_holder = threading.get_ident()

    def _give_turn(self):
        self._turn_holder = None
        self._turn.release()

    def send(self, src: int, dst: int, message: bytes) -> None:
        if self._abort.is_set():
            raise GroupAborted()
        self._queues[(src, dst)].put(message)

    def recv(self, src: int, dst: int) -> bytes:
        deadline = time.monotonic() + self.timeout
        q = self._queues[(src, dst)]
        if self._abort.is_set():
            raise GroupAborted()
        try:
            return q.get_nowait()
        except queue.Empty:
            pass
        lends_turn = self._turn_holder == threading.get_ident()
        if lends_turn:
            self._give_turn()
        try:
            while True:
                if self._abort.is_set():
                    raise GroupAborted()
                try:
                    return q.get(timeout=0.05)
                except queue.Empty:
                    if time.monotonic() > deadline:
                        raise TransportError(f"recv timeout on edge {src}->{dst}") from None
        finally:
            if lends_turn:
                self._take_turn()

    def close(self):
        pass


class TcpTransport:
    """Ring edges over TCP sockets; one process per rank.

    Each rank listens on its roster address, accepts one connection from the
    previous rank, and connects to the next. Ring collectives only ever use
    these two edges.
    """

    kind = "tcp"

    def __init__(self, rank: int, addresses: list[str], timeout: float = 60.0):
        self.rank = rank
        self.num_workers = len(addresses)
        self.addresses = list(addresses)
        self.timeout = timeout
        self._next_sock = None
        self._prev_sock = None
        if self.num_workers > 1:
            self._connect_ring()
            self._validate_roster()

    def _parse(self, addr: str) -> tuple[str, int]:
        host, port = addr.rsplit(":", 1)
        return host, int(port)

    def _connect_ring(self):
        host, port = self._parse(self.addresses[self.rank])
        server = socket.create_server((host, port))
        server.settimeout(self.timeout)
        nxt = (self.rank + 1) % self.num_workers
        nxt_host, nxt_port = self._parse(self.addresses[nxt])
        deadline = time.monotonic() + self.timeout
        sock = None
        while sock is None:
            try:
                sock = socket.create_connection((nxt_host, nxt_port), timeout=1.0)
            except OSError:
                if time.monotonic() > deadline:
                    server.close()
                    raise TransportError(f"rank {self.rank}: cannot reach {nxt_host}:{nxt_port}")
                time.sleep(0.05)
        self._next_sock = sock
        self._next_sock.settimeout(self.timeout)
        try:
            self._prev_sock, _ = server.accept()
        except socket.timeout:
            raise TransportError(f"rank {self.rank}: no connection from previous rank") from None
        finally:
            server.close()
        self._prev_sock.settimeout(self.timeout)

    def _validate_roster(self):
        digest = hashlib.sha256(json.dumps(self.addresses).encode()).digest()
        if self.rank == 0:
            self.send(self.rank, (self.rank + 1) % self.num_workers, frame(TAG_CONTROL, digest))
            tag, payload = read_message(self, (self.rank - 1) % self.num_workers, self.rank)
            if tag != TAG_CONTROL or payload != digest:
                raise TransportError("worker roster mismatch")
        else:
            tag, payload = read_message(self, (self.rank - 1) % self.num_workers, self.rank)
            if tag != TAG_CONTROL or payload != digest:
                raise TransportError(f"rank {self.rank}: roster mismatch with rank 0")
            self.send(self.rank, (self.rank + 1) % self.num_workers, frame(TAG_CONTROL, payload))

    def abort(self):
        self.close()

    def send(self, src: int, dst: int, message: bytes) -> None:
        if dst != (self.rank + 1) % self.num_workers:
            raise TransportError("tcp transport only carries ring-neighbor traffic")
        try:
            self._next_sock.sendall(message)
        except OSError as e:
            raise TransportError(f"send failed: {e}") from e

    def recv(self, src: int, dst: int) -> bytes:
        if src != (self.rank - 1) % self.num_workers:
            raise TransportError("tcp transport only carries ring-neighbor traffic")
        try:
            header = self._read_exact(5)
            length, _tag = struct.unpack("<IB", header)
            return header + self._read_exact(length)
        except OSError as e:
            raise TransportError(f"recv failed: {e}") from e

    def _read_exact(self, n: int) -> bytes:
        buf = b""
        while len(buf) < n:
            part = self._prev_sock.recv(n - len(buf))
            if not part:
                raise TransportError("peer closed connection")
            buf += part
        return buf

    def close(self):
        for s in (self._next_sock, self._prev_sock):
            if s is not None:
                try:
                    s.close()
                except OSError:
                    pass


def read_message(transport, src: int, dst: int) -> tuple[int, bytes]:
    msg = transport.recv(src, dst)
    length, tag = struct.unpack("<IB", msg[:5])
    payload = msg[5:]
    if len(payload) != length:
        raise TransportError("corrupt frame")
    return tag, payload


# -- collectives -----------------------------------------------------------------


def _chunk_bounds(n: int, k: int) -> list[tuple[int, int]]:
    size = -(-n // k) if n else 0
    return [(min(c * size, n), min((c + 1) * size, n)) for c in range(k)]


def ring_allreduce(transport, rank: int, num_workers: int, vector: np.ndarray,
                   step: int = 0) -> np.ndarray:
    """Elementwise sum across workers; every worker returns identical bytes.

    Accepts float32 or float16 vectors. Contributions are widened to FP32 and
    combined in ascending rank order at each chunk's finalizer, then the
    result is stored back in the payload dtype and broadcast.
    """
    k = num_workers
    vector = np.ascontiguousarray(vector)
    if vector.dtype == np.float16:
        dtype = DType.F16
    elif vector.dtype == np.float32:
        dtype = DType.F32
    else:
        raise TypeError(f"unsupported reduce dtype {vector.dtype}")
    if k == 1:
        acc = vector.astype(np.float32)
        return acc.astype(vector.dtype)
    n = vector.size
    bounds = _chunk_bounds(n, k)
    my_chunks = [vector[a:b] for a, b in bounds]
    nxt, prv = (rank + 1) % k, (rank - 1) % k

    # reduce-scatter: bundles of raw contributions travel the ring; the
    # bundle for chunk c starts at rank c and grows by one contribution per hop
    bundle = [my_chunks[rank]]
    bundle_index = rank
    for s in range(k - 1):
        for contrib in bundle:
            transport.send(rank, nxt, frame(TAG_TENSOR_CHUNK,
                                            chunk_payload(step, bundle_index, dtype, contrib)))
        recv_index = (rank - s - 1) % k
        received = []
        for _ in range(s + 1):
            tag, payload = read_message(transport, prv, rank)
            if tag != TAG_TENSOR_CHUNK:
                raise TransportError(f"unexpected tag {tag} during reduce-scatter")
            msg_step, msg_chunk, msg_dtype, arr = parse_chunk(payload)
            if msg_step != step:
                raise TransportError(f"step mismatch: got {msg_step}, expected {step}")
            if msg_chunk != recv_index:
                raise TransportError(f"chunk mismatch: got {msg_chunk}, expected {recv_index}")
            a, b = bounds[recv_index]
            if arr.size != b - a:
                raise TransportError(
                    f"mismatched lengths: chunk {recv_index} carries {arr.size}, local is {b - a}")
            received.append(arr)
        received.append(my_chunks[recv_index])
        bundle = received
        bundle_index = recv_index

    # bundle now holds chunk (rank+1)%k contributions in path order
    # [c, c+1, ..., c+k-1 (mod k)]; rotate to rank order and sum ascending
    final_index = (rank + 1) % k
    acc = np.zeros(bounds[final_index][1] - bounds[final_index][0], dtype=np.float32)
    for j in range(k):
        acc += np.asarray(bundle[(j - final_index) % k], dtype=np.float32)
    finalized = {final_index: acc.astype(vector.dtype)}

    # allgather: rotate finalized chunks around the ring
    send_index = final_index
    for s in range(k - 1):
        transport.send(rank, nxt, frame(TAG_TENSOR_CHUNK,
                                        chunk_payload(step, send_index, dtype,
                                                      finalized[send_index])))
        tag, payload = read_message(transport, prv, rank)
        if tag != TAG_TENSOR_CHUNK:
            raise TransportError(f"unexpected tag {tag} during allgather")
        msg_step, msg_chunk, _, arr = parse_chunk(payload)
        if msg_step != step:
            raise TransportError(f"step mismatch in allgather: {msg_step} != {step}")
        finalized[msg_chunk] = arr.astype(vector.dtype)
        send_index = msg_chunk

    if len(finalized) != k:
        raise TransportError(f"allgather incomplete: {len(finalized)} of {k} chunks")
    out = np.empty(n, dtype=vector.dtype)
    for c, (a, b) in enumerate(bounds):
        out[a:b] = finalized[c]
    return out


def allreduce_flag_or(transport, rank: int, num_workers: int, flag: bool,
                      step: int = 0) -> bool:
    """Logical OR of all workers' flags; identical result everywhere."""
    k = num_workers
    if k == 1:
        return bool(flag)
    nxt, prv = (rank + 1) % k, (rank - 1) % k
    acc = bool(flag)
    current = bool(flag)
    for _ in range(k - 1):
        transport.send(rank, nxt, frame(TAG_FLAG, struct.pack("<IB", step, int(current))))
        tag, payload = read_message(transport, prv, rank)
        if tag != TAG_FLAG:
            raise TransportError(f"unexpected tag {tag} during flag reduce")
        msg_step, value = struct.unpack("<IB", payload)
        if msg_step != step:
            raise TransportError(f"flag step mismatch: {msg_step} != {step}")
        current = bool(value)
        acc = acc or current
    return acc


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


class StepMetrics:
    def __init__(self, step, loss, applied, scale, grad_norm, lr, tokens, seconds):
        self.step = step
        self.loss = loss
        self.applied = applied
        self.scale = scale
        self.grad_norm = grad_norm
        self.lr = lr
        self.tokens = tokens
        self.seconds = seconds


class Replica:
    """One worker's model, optimizer, precision state, and data shard."""

    def __init__(self, model: Seq2SeqModel, data: DataLayer, optimizer: Optimizer,
                 lr_policy: LRPolicy, scale_state: LossScaleState | None = None,
                 registry: RegularizerRegistry | None = None, batch_size: int = 32):
        self.model = model
        self.data = data
        self.optimizer = optimizer
        self.lr_policy = lr_policy
        self.batch_size = batch_size
        self.mode = model.mode
        registry = registry or RegularizerRegistry()
        if self.mode == "mixed":
            self.state = init_master(model.variables, scale_state or StaticScale(1.0), registry)
        else:
            # FP32 mode: the "master" aliases the working weights, no copy
            master = {n: v.value for n, v in model.variables.items() if v.trainable}
            self.state = MixedPrecisionState(master, scale_state or StaticScale(1.0), registry)
        self.bucket = ReduceBucket(model.variables)
        self.shapes = {n: v.value.shape for n, v in model.variables.items() if v.trainable}
        self.grad_tap = None  # test hook: mutates raw gradients before the finite check

    @property
    def scale(self) -> float:
        return self.state.scale_state.scale

    def forward_backward(self, step: int):
        """Forward on this shard's batch, scaled backward, local finite check."""
        batch = self.data.batch(step, self.batch_size)
        loss_node, tape = self.model.forward(batch)
        grads = backward(tape, loss_seed=self.scale)
        if self.grad_tap is not None:
            grads = self.grad_tap(step, grads)
        finite = check_finite_all(grads)
        tokens = float(batch.target_mask.sum())
        return tape, loss_node.value.item(), grads, finite, tokens

    def unscale(self, grads: dict[str, Tensor]) -> dict[str, Tensor]:
        return unscale_to_f32(grads, self.scale)

    def apply(self, grads32: dict[str, Tensor], step: int) -> tuple[float, float]:
        """Regularizers, inner optimizer on master, weight refresh, policy."""
        grads32 = apply_regularizer_grads(self.state, grads32)
        lr = self.lr_policy.lr_at(self.optimizer.t)
        self.optimizer.step(self.state.master, grads32, lr)
        if self.mode == "mixed":
            for name in self.state.master:
                self.model.variables[name].value = cast(self.state.master[name], DType.F16)
        else:
            for name in self.state.master:
                self.model.variables[name].value = self.state.master[name]
        observed = max((float(np.max(np.abs(g.f32()), initial=0.0)) for g in grads32.values()),
                       default=0.0)
        self.state.scale_state.on_good_step(observed)
        return global_grad_norm(grads32), lr

    def on_overflow(self):
        self.state.scale_state.on_overflow()

    def parameter_digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.model.variables):
            h.update(self.model.variables[name].value.data.tobytes())
        return h.hexdigest()

    def copy_parameters_from(self, other: "Replica"):
        for name, v in other.model.variables.items():
            self.model.variables[name].value = v.value
        if self.mode == "mixed":
            self.state.master = other.state.master
        else:
            self.state.master = {n: v.value for n, v in self.model.variables.items()
                                 if v.trainable}


def distributed_train_step(replica: Replica, transport, rank: int, num_workers: int,
                           step: int) -> StepMetrics:
    """One synchronous data-parallel step (allreduce mode), run per worker."""
    t0 = time.perf_counter()
    tape, loss, grads, finite, tokens = replica.forward_backward(step)
    any_overflow = allreduce_flag_or(transport, rank, num_workers, not finite, step)
    if any_overflow:
        replica.on_overflow()
        return StepMetrics(step, loss, False, replica.scale, None,
                           None, tokens, time.perf_counter() - t0)
    grads32 = replica.unscale(grads)
    vec = replica.bucket.flatten(grads32)
    reduced = ring_allreduce(transport, rank, num_workers, vec, step)
    reduced = (reduced / np.float32(num_workers)).astype(np.float32)
    avg = replica.bucket.unflatten(reduced, replica.shapes)
    grad_norm, lr = replica.apply(avg, step)
    return StepMetrics(step, loss, True, replica.scale, grad_norm, lr, tokens,
                       time.perf_counter() - t0)


def tower_train_step(replicas: list[Replica], step: int) -> StepMetrics:
    """Single-process aggregation: per-replica grads averaged in rank order,
    one shared parameter store (rank 0) updated once, replicas refreshed."""
    t0 = time.perf_counter()
    results = [r.forward_backward(step) for r in replicas]
    losses = [loss for _, loss, _, _, _ in results]
    tokens = sum(tok for *_, tok in results)
    mean_loss = float(np.mean(losses))
    if not all(finite for _, _, _, finite, _ in results):
        for r in replicas:
            r.on_overflow()
        return StepMetrics(step, mean_loss, False, replicas[0].scale, None, None,
                           tokens, time.perf_counter() - t0)
    summed: dict[str, np.ndarray] = {}
    for r, (_, _, grads, _, _) in zip(replicas, results):
        for name, g in r.unscale(grads).items():
            if name in summed:
                summed[name] = summed[name] + g.f32()
            else:
                summed[name] = g.f32().copy()
    k = np.float32(len(replicas))
    avg = {name: Tensor((arr / k).astype(np.float32), DType.F32)
           for name, arr in summed.items()}
    grad_norm, lr = replicas[0].apply(avg, step)
    for r in replicas[1:]:
        r.copy_parameters_from(replicas[0])
        r.state.scale_state.load_dict(replicas[0].state.scale_state.to_dict())
    return StepMetrics(step, mean_loss, True, replicas[0].scale, grad_norm, lr,
                       tokens, time.perf_counter() - t0)


def _pool_worker(rank: int, replica: Replica, transport: InProcessTransport,
                 num_workers: int, inbox: queue.SimpleQueue, outbox: queue.SimpleQueue):
    """Persistent allreduce worker: one step per step number received, until None.

    Puts ``(rank, StepMetrics | exception)`` on ``outbox`` after every step; a
    failure aborts the transport so that the other ranks stop waiting.
    """
    while (step := inbox.get()) is not None:
        try:
            with transport.turn():
                result = distributed_train_step(replica, transport, rank, num_workers, step)
        except Exception as e:  # noqa: BLE001 - reported to the group, which aborts
            transport.abort()
            result = e
        outbox.put((rank, result))


def _stop_pool(inboxes: list[queue.SimpleQueue], threads: list[threading.Thread]):
    for inbox in inboxes:
        inbox.put(None)
    for t in threads:
        if t is not threading.current_thread():
            t.join()


class WorkerGroup:
    """K replicas stepping in lockstep inside one process.

    mode "allreduce" with K > 1 steps K persistent worker threads, started on
    the first step, that take turns on the in-process transport (see
    InProcessTransport) and meet in the ring collectives; close() stops them,
    and so does dropping the group. mode "tower" steps all replicas
    sequentially against a shared store.
    """

    def __init__(self, replicas: list[Replica], mode: str = "allreduce",
                 transport: InProcessTransport | None = None):
        if mode not in ("allreduce", "tower"):
            raise ValueError(f"unknown group mode {mode!r}")
        self.replicas = replicas
        self.mode = mode
        self.num_workers = len(replicas)
        self.transport = transport or InProcessTransport(self.num_workers)
        self._inboxes: list[queue.SimpleQueue] = []
        self._outbox: queue.SimpleQueue = queue.SimpleQueue()
        self._stop = None

    def _start_workers(self):
        self._inboxes = [queue.SimpleQueue() for _ in range(self.num_workers)]
        threads = [threading.Thread(target=_pool_worker, name=f"miniseq-rank-{rank}",
                                    args=(rank, replica, self.transport, self.num_workers,
                                          self._inboxes[rank], self._outbox),
                                    daemon=True)
                   for rank, replica in enumerate(self.replicas)]
        for t in threads:
            t.start()
        # the workers hold no reference to the group, so dropping it stops them
        self._stop = weakref.finalize(self, _stop_pool, self._inboxes, threads)
        self._stop.atexit = False

    def close(self):
        """Stop and join the worker threads; a later step starts new ones."""
        if self._stop is not None:
            self._stop()
            self._stop = None

    def run_step(self, step: int) -> StepMetrics:
        """One group step: rank-0 metrics after consensus checks, with the
        token count of the whole group."""
        if self.mode == "tower":
            return tower_train_step(self.replicas, step)
        if self.num_workers == 1:
            return distributed_train_step(self.replicas[0], self.transport, 0, 1, step)
        if self.transport.aborted:
            raise TransportError(f"step {step}: the group was aborted by an earlier failure")
        if self._stop is None:
            self._start_workers()
        t0 = time.perf_counter()
        for inbox in self._inboxes:
            inbox.put(step)
        results: list[StepMetrics | None] = [None] * self.num_workers
        failures: list[tuple[int, Exception]] = []
        for _ in range(self.num_workers):
            rank, out = self._outbox.get()
            if isinstance(out, Exception):
                failures.append((rank, out))
            else:
                results[rank] = out
        if failures:
            # the cause, not a rank that only saw the abort it triggered
            rank, err = next(((r, e) for r, e in failures if not isinstance(e, GroupAborted)),
                             failures[0])
            raise TransportError(f"rank {rank} failed at step {step}: {err}") from err
        applied = {m.applied for m in results}
        if len(applied) != 1:
            raise RuntimeError("flag consensus violated: mixed applied/skipped outcomes")
        metrics = results[0]
        metrics.tokens = sum(m.tokens for m in results)
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
