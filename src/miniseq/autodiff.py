"""Tape-based reverse-mode autodiff over the tensor kernels.

A Tape records eager forward operations; backward() replays them in exact
reverse order. Under "mixed" mode every intermediate lives in F16 (one
rounding per op, FP32 accumulation inside matrix products), while the loss
op and its internals stay FP32 so that the loss-scale multiply cannot
itself overflow. Under "float32" everything is FP32.

The tape's nodes are the Tensors themselves: an op takes Tensors and
returns the Tensor it stored, a leaf is its variable's value and a constant
is the tensor handed in. An F16 tensor widens to FP32 once (Tensor.f32), and
every op that reads it shares that array. Backward rounds each node's
gradient once: every op returns its input gradients unrounded, in FP32 (an
op that passes its output gradient through hands on the tensor it received),
and backward() rounds a node's gradient into the node's dtype when the op
that produced the node consumes it, or when it becomes a variable's
gradient. When a node receives more than one contribution, they are summed
in FP32, in the order backward() meets them, before that one rounding.

The backward seed is where loss scaling enters: seeding with S instead of 1
multiplies every gradient by S before it is rounded into the gradient dtype.

Every op also accepts a leading axis: K replicas' operands stacked on axis 0
(weights [K, n, m], a bias [K, n], a table [K, V, E], activations [K, b, ...])
give slice k of each output and input gradient the bits that the op gives
replica k alone. Cross entropy gives one loss per leading index, and a seed
with one value per slice scales each replica by its own loss scale.

A tape built with ``record=False`` is for evaluation and decoding: every op
computes and rounds its output exactly as on a recording tape and builds its
backward closure, which Tape._emit, the one place that reads ``record``,
drops instead of appending to ``ops``. Arrays that only backward reads (the
cross-entropy probabilities, the relu mask) are made inside the closure, so
such a tape never makes them. backward() refuses it, as its ``ops`` stay empty.
"""

from __future__ import annotations

import numpy as np

from .tensor import DType, ShapeError, Tensor, cast, store

MODES = ("float32", "mixed")

# Ops round their FP32 results through tensor.store, a module function rather
# than a Tape method, so backward closures never reference their tape: a
# closure holding ``self`` would put every tape in a reference cycle that only
# the garbage collector can free.


def _unrounded(g32: np.ndarray) -> Tensor:
    """An op's input gradient: FP32 until backward() rounds it, once."""
    return Tensor(g32, DType.F32)


class Variable:
    """Named, optionally trainable parameter; dtype follows the model mode."""

    __slots__ = ("name", "value", "trainable")

    def __init__(self, name: str, value: Tensor, trainable: bool = True):
        self.name = name
        self.value = value
        self.trainable = trainable

    def __repr__(self):
        return f"Variable({self.name!r}, shape={self.value.shape}, dtype={self.value.dtype.name})"


class _Op:
    __slots__ = ("kind", "inputs", "output", "backward", "is_loss")

    def __init__(self, kind, inputs, output, backward, is_loss=False):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.backward = backward
        self.is_loss = is_loss


class Tape:
    """Execution trace of differentiable ops for one forward pass."""

    def __init__(self, mode: str = "float32", record: bool = True):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.mode = mode
        self.record = record
        self.model_dtype = DType.F16 if mode == "mixed" else DType.F32
        self.ops: list[_Op] = []
        self.variables: dict[str, Variable] = {}
        self._leaves: dict[str, Tensor] = {}
        self._constants: dict[int, Tensor] = {}

    def activation_bytes(self) -> int:
        """Bytes held by recorded intermediate tensors (loss scalars excluded)."""
        return sum(op.output.nbytes for op in self.ops if not op.is_loss)

    # -- graph construction --------------------------------------------------

    def leaf(self, var: Variable) -> Tensor:
        """``var.value``, recorded the first time this tape meets ``var``."""
        if self.variables.setdefault(var.name, var) is not var:
            raise ValueError(f"duplicate variable name {var.name!r}")
        return self._leaves.setdefault(var.name, var.value)

    def constant(self, t: Tensor) -> Tensor:
        """``t``, kept so that ops can tell it needs no gradient."""
        self._constants[id(t)] = t
        return t

    def _emit(self, kind, inputs, out: Tensor, backward, is_loss=False) -> Tensor:
        """``out``; a recording tape first appends it to ``ops`` as ``kind`` of
        ``inputs`` with its ``backward`` closure. Every op ends here, so this
        is the one place that reads ``record``."""
        if self.record:
            self.ops.append(_Op(kind, inputs, out, backward, is_loss))
        return out

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """Matrix product with FP32 accumulation; inputs may be F16 or F32.

        Both operands are widened to FP32 (exact for F16), the inner-dimension
        sum accumulates in FP32 and is rounded once into the model dtype. The
        backward reuses the same widened operands, and gives ``None`` as the
        gradient of a constant operand.
        """
        sa, sb = a.data.shape, b.data.shape
        if len(sa) < 2 or sa[:-2] != sb[:-2] or sa[-1:] != sb[-2:-1]:
            raise ShapeError(f"matmul: {a.shape} x {b.shape} are not matrices that multiply")
        a32, b32 = a.f32(), b.f32()
        out = store(np.matmul(a32, b32), self.model_dtype)
        a_const, b_const = id(a) in self._constants, id(b) in self._constants

        def backward(g: Tensor):
            g32 = g.f32()
            return [None if a_const else _unrounded(g32 @ b32.swapaxes(-1, -2)),
                    None if b_const else _unrounded(a32.swapaxes(-1, -2) @ g32)]

        return self._emit("matmul", [a, b], out, backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"add: shapes {a.shape} vs {b.shape}")
        out = store(a.f32() + b.f32(), self.model_dtype)

        def backward(g: Tensor):
            return [g, g]

        return self._emit("add", [a, b], out, backward)

    def bias_add(self, x: Tensor, b: Tensor) -> Tensor:
        """x [..., n] + b [n], or a stacked x [K, b, n] + b [K, n] slice by slice."""
        stacked = b.data.ndim == 2
        if x.shape[-1] != b.shape[-1] or x.data.ndim < 2 or b.data.ndim > 2 or (
                stacked and (x.data.ndim, x.shape[0]) != (3, b.shape[0])):
            raise ShapeError(f"bias_add: shapes {x.shape} vs {b.shape}")
        out = store(x.f32() + b.f32()[..., None, :], self.model_dtype)

        def backward(g: Tensor):
            g32 = g.f32() if stacked else g.f32().reshape(-1, g.shape[-1])
            return [g, _unrounded(g32.sum(axis=-2, dtype=np.float32))]

        return self._emit("bias_add", [x, b], out, backward)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"mul: shapes {a.shape} vs {b.shape}")
        a32, b32 = a.f32(), b.f32()
        out = store(a32 * b32, self.model_dtype)

        def backward(g: Tensor):
            g32 = g.f32()
            return [_unrounded(g32 * b32), _unrounded(g32 * a32)]

        return self._emit("mul", [a, b], out, backward)

    def scale(self, x: Tensor, c: float) -> Tensor:
        c32 = np.float32(c)
        out = store(x.f32() * c32, self.model_dtype)

        def backward(g: Tensor):
            return [_unrounded(g.f32() * c32)]

        return self._emit("scale", [x], out, backward)

    def tanh(self, x: Tensor) -> Tensor:
        y32 = np.tanh(x.f32())
        out = store(y32, self.model_dtype)

        def backward(g: Tensor):
            return [_unrounded(g.f32() * (1.0 - y32 * y32))]

        return self._emit("tanh", [x], out, backward)

    def sigmoid(self, x: Tensor) -> Tensor:
        y32 = 1.0 / (1.0 + np.exp(-x.f32()))
        out = store(y32, self.model_dtype)

        def backward(g: Tensor):
            return [_unrounded(g.f32() * y32 * (1.0 - y32))]

        return self._emit("sigmoid", [x], out, backward)

    def relu(self, x: Tensor) -> Tensor:
        x32 = x.f32()
        out = store(np.maximum(x32, 0.0), self.model_dtype)

        def backward(g: Tensor):
            return [_unrounded(g.f32() * (x32 > 0))]

        return self._emit("relu", [x], out, backward)

    def embedding_gather(self, table: Tensor, ids: np.ndarray) -> Tensor:
        """Rows of a [V, E] table, or of a stacked [K, V, E] one by ids [K, ...]."""
        ids = np.asarray(ids)
        rows, (vocab, emb) = table.data, table.shape[-2:]
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= vocab:
            raise ShapeError("embedding ids out of range")
        if rows.ndim == 3:  # slice k's ids index rows k*V.. of the [K*V, E] table
            ids = ids + vocab * np.arange(len(rows)).reshape(-1, *[1] * (ids.ndim - 1))
            rows = rows.reshape(-1, emb)
        out = Tensor(rows[ids], table.dtype)

        def backward(g: Tensor):
            acc = np.zeros(table.shape, dtype=np.float32)
            np.add.at(acc.reshape(-1, emb), ids.reshape(-1), g.f32().reshape(-1, emb))
            return [_unrounded(acc)]

        return self._emit("embedding_gather", [table], out, backward)

    def concat_last_axis(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape[:-1] != b.shape[:-1]:
            raise ShapeError(f"concat: shapes {a.shape} vs {b.shape}")
        out = Tensor(np.concatenate([a.data, b.data], axis=-1), a.dtype)

        def backward(g: Tensor):
            split = a.shape[-1]
            ga = Tensor(np.ascontiguousarray(g.data[..., :split]), g.dtype)
            gb = Tensor(np.ascontiguousarray(g.data[..., split:]), g.dtype)
            return [ga, gb]

        return self._emit("concat_last_axis", [a, b], out, backward)

    def stack_steps(self, steps: list[Tensor]) -> Tensor:
        """Stack per-step [..., batch, h] nodes into [..., batch, time, h]."""
        out = Tensor(np.stack([s.data for s in steps], axis=-2), steps[0].dtype)

        def backward(g: Tensor):
            return [Tensor(np.ascontiguousarray(g.data[..., t, :]), g.dtype)
                    for t in range(len(steps))]

        return self._emit("stack_steps", list(steps), out, backward)

    def attn_scores(self, query: Tensor, states: Tensor) -> Tensor:
        """Dot-product scores: [...,b,h] x [...,b,t,h] -> [...,b,t], FP32-accumulated."""
        q32, s32 = query.f32(), states.f32()
        if q32.shape[-1] != s32.shape[-1]:
            raise ShapeError(f"attn_scores: hidden {q32.shape} vs {s32.shape}")
        out = store(np.einsum("...h,...th->...t", q32, s32, dtype=np.float32), self.model_dtype)

        def backward(g: Tensor):
            g32 = g.f32()
            return [_unrounded(np.einsum("...t,...th->...h", g32, s32)),
                    _unrounded(np.einsum("...t,...h->...th", g32, q32))]

        return self._emit("attn_scores", [query, states], out, backward)

    def attn_weights(self, scores: Tensor, valid_mask: np.ndarray) -> Tensor:
        """Masked softmax over source positions, FP32 math.

        Invalid positions get exactly zero weight; valid weights are
        renormalized so each row sums to one before storage rounding.
        """
        m = np.asarray(valid_mask, dtype=np.float32)
        x = scores.f32()
        shifted = x - np.max(np.where(m > 0, x, -np.inf), axis=-1, keepdims=True)
        e = np.exp(shifted, dtype=np.float32) * m
        w32 = (e / np.sum(e, axis=-1, keepdims=True, dtype=np.float32)).astype(np.float32)
        out = store(w32, self.model_dtype)

        def backward(g: Tensor):
            g32 = g.f32()
            dot = np.sum(g32 * w32, axis=-1, keepdims=True, dtype=np.float32)
            return [_unrounded((g32 - dot) * w32)]

        return self._emit("attn_weights", [scores], out, backward)

    def attn_context(self, weights: Tensor, states: Tensor) -> Tensor:
        """Convex combination of states: [...,b,t] x [...,b,t,h] -> [...,b,h]."""
        w32, s32 = weights.f32(), states.f32()
        out = store(np.einsum("...t,...th->...h", w32, s32, dtype=np.float32), self.model_dtype)

        def backward(g: Tensor):
            g32 = g.f32()
            return [_unrounded(np.einsum("...h,...th->...t", g32, s32)),
                    _unrounded(np.einsum("...t,...h->...th", w32, g32))]

        return self._emit("attn_context", [weights, states], out, backward)

    def softmax_cross_entropy_with_mask(self, logits: Tensor, targets: np.ndarray,
                                        mask: np.ndarray) -> Tensor:
        """Mean token-level cross-entropy over unmasked positions, FP32 only.

        logits: [..., batch, time, vocab]; targets: [..., batch, time] int ids;
        mask: [..., batch, time], zero exactly at padding; one loss per ``...``.
        """
        targets = np.asarray(targets)
        m = np.asarray(mask, dtype=np.float32)
        if logits.shape[:-1] != targets.shape or targets.shape != m.shape:
            raise ShapeError("cross entropy: logits/targets/mask shapes disagree")
        lead = targets.shape[:-2]
        n_valid = m.reshape(*lead, -1).sum(axis=-1, dtype=np.float32)
        if not n_valid.all():
            raise ValueError("cross entropy over an all-padding batch")
        x = logits.f32()
        shifted = x - np.max(x, axis=-1, keepdims=True)
        logz = np.log(np.sum(np.exp(shifted, dtype=np.float32), axis=-1, dtype=np.float32))
        picked = (*np.indices(targets.shape), targets)
        ce = (logz - shifted[picked]).astype(np.float32)
        loss = (ce * m).reshape(*lead, -1).sum(axis=-1, dtype=np.float32) / n_valid
        out = Tensor(np.asarray(loss, dtype=np.float32), DType.F32)

        def backward(g: Tensor):
            seed = g.f32().reshape(lead)
            d = np.exp(shifted - logz[..., None], dtype=np.float32)  # the probabilities
            d[picked] -= 1.0
            d *= (m * (seed / n_valid)[..., None, None])[..., None]
            return [_unrounded(d)]

        return self._emit("softmax_cross_entropy", [logits], out, backward, is_loss=True)

    def reduce_mean(self, x: Tensor) -> Tensor:
        out = Tensor(np.asarray(np.mean(x.f32(), dtype=np.float32), dtype=np.float32),
                     DType.F32)

        def backward(g: Tensor):
            seed = g.f32().reshape(())
            return [_unrounded(np.full(x.shape, seed / np.float32(x.size), dtype=np.float32))]

        return self._emit("reduce_mean", [x], out, backward, is_loss=True)

    def reduce_sum(self, x: Tensor) -> Tensor:
        out = Tensor(np.asarray(np.sum(x.f32(), dtype=np.float32), dtype=np.float32),
                     DType.F32)

        def backward(g: Tensor):
            seed = g.f32().reshape(())
            return [_unrounded(np.full(x.shape, seed, dtype=np.float32))]

        return self._emit("reduce_sum", [x], out, backward, is_loss=True)


def backward(tape: Tape, loss_seed: float = 1.0, loss: Tensor | None = None) -> dict[str, Tensor]:
    """Gradients of (loss_seed * loss) for every trainable variable on the tape.

    Non-finite values propagate without warnings; detection is the caller's
    job. Gradient dtype equals the variable dtype, so in mixed mode this is
    where small values die (or survive, if the seed carried a loss scale).
    """
    if not tape.ops:
        raise ValueError("backward on an empty tape")
    root = loss if loss is not None else tape.ops[-1].output
    # A node's only contribution so far, as the op returned it ...
    grads: dict[int, Tensor] = {
        id(root): Tensor(np.full(root.shape, np.float32(loss_seed), dtype=np.float32),
                         DType.F32)
    }
    # ... or, from its second contribution on, a private FP32 running sum.
    sums: dict[int, np.ndarray] = {}

    def accumulate(node: Tensor, g: Tensor):
        key = id(node)
        acc = sums.get(key)
        if acc is not None:
            acc += g.f32()
        elif key in grads:
            # a fresh buffer: contributions may be shared (add hands one tensor
            # to both inputs, bias_add passes its own gradient through)
            sums[key] = grads.pop(key).f32() + g.f32()
        else:
            grads[key] = g

    def gradient(node: Tensor) -> Tensor | None:
        acc = sums.pop(id(node), None)
        if acc is not None:
            return store(acc, node.dtype)
        g = grads.pop(id(node), None)
        return None if g is None else cast(g, node.dtype)

    result: dict[str, Tensor] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for op in reversed(tape.ops):
            out_grad = gradient(op.output)
            if out_grad is None:
                continue
            for node, g in zip(op.inputs, op.backward(out_grad)):
                if g is not None:
                    accumulate(node, g)
        for name, node in tape._leaves.items():
            if tape.variables[name].trainable:
                g = gradient(node)
                if g is not None:
                    result[name] = g
    return result
