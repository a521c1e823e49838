"""Composable seq2seq building blocks and synthetic tasks.

The contract between parts is small: a DataLayer yields Batches, an Encoder
turns a Batch into a Representation (states [batch, time, hidden] plus the
source mask), a Decoder turns a Representation back into per-token logits,
and a Loss reduces logits to a scalar. Any registered encoder composes with
any registered decoder through Representation.

Synthetic tasks (copy, reverse) are seeded and indexable: token t of
example i is a counter-based hash of (seed, split, i, t) (SplitMix64's
finaliser; Salmon et al. 2011, "Parallel Random Numbers: As Easy as 1, 2,
3"), so example i is the same bytes no matter which worker consumes it or
when - that is what makes sharding, resume, and the distributed-equivalence
checks exact - and a whole batch is a few array operations.

Evaluation and greedy decoding run on tapes that record nothing. Greedy
decoding steps all rows of a batch together and cuts each row at its first
eos; given the Representation of a teacher-forced pass over the same
sources, it skips the encoder, so an eval batch is encoded once.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .autodiff import MODES, Tape, Variable
from .tensor import DType, Tensor

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
NUM_RESERVED = 4

_RESERVED = {"<pad>": PAD_ID, "<s>": BOS_ID, "</s>": EOS_ID, "<unk>": UNK_ID}


class Vocabulary:
    """Token <-> id map with fixed reserved ids (pad=0, bos=1, eos=2, unk=3)."""

    def __init__(self, tokens: list[str]):
        self.token_to_id = dict(_RESERVED)
        for tok in tokens:
            if tok in self.token_to_id:
                raise ValueError(f"duplicate or reserved token {tok!r}")
            self.token_to_id[tok] = len(self.token_to_id)
        self.id_to_token = {i: t for t, i in self.token_to_id.items()}
        self.unk_count = 0

    @staticmethod
    def symbols(size: int) -> "Vocabulary":
        """Numeric vocabulary of `size` total ids (reserved ones included)."""
        if size <= NUM_RESERVED:
            raise ValueError(f"vocab size must exceed {NUM_RESERVED}")
        return Vocabulary([str(i) for i in range(NUM_RESERVED, size)])

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    def encode(self, tokens: list[str]) -> list[int]:
        ids = []
        for tok in tokens:
            i = self.token_to_id.get(tok)
            if i is None:
                self.unk_count += 1
                i = UNK_ID
            ids.append(i)
        return ids

    def decode(self, ids) -> list[str]:
        return [self.id_to_token.get(int(i), "<unk>") for i in ids]


@dataclass
class Batch:
    source_ids: np.ndarray      # [b, src_len] int
    source_mask: np.ndarray     # [b, src_len] float32, 0 exactly at padding
    source_lengths: np.ndarray  # [b] int
    target_ids: np.ndarray      # [b, tgt_len] int, eos-terminated, pad-filled
    target_mask: np.ndarray     # [b, tgt_len] float32

    @property
    def size(self) -> int:
        return self.source_ids.shape[0]

    def decoder_inputs(self) -> np.ndarray:
        bos = np.full((*self.target_ids.shape[:-1], 1), BOS_ID, dtype=self.target_ids.dtype)
        return np.concatenate([bos, self.target_ids[..., :-1]], axis=-1)


@dataclass
class Representation:
    states: Tensor              # [b, time, hidden], computed on a tape
    mask: np.ndarray            # [b, time] float32


def make_batch(examples: list[tuple[list[int], list[int]]], vocab_size: int) -> Batch:
    """Pad a list of (source ids, target ids) into one Batch; targets gain eos."""
    for src, tgt in examples:
        if any(i >= vocab_size for i in src + tgt):
            raise ValueError("token id out of vocabulary range")
    src_len = max(len(s) for s, _ in examples)
    tgt_len = max(len(t) for _, t in examples) + 1  # room for eos
    b = len(examples)
    source = np.full((b, src_len), PAD_ID, dtype=np.int64)
    smask = np.zeros((b, src_len), dtype=np.float32)
    slen = np.zeros(b, dtype=np.int64)
    target = np.full((b, tgt_len), PAD_ID, dtype=np.int64)
    tmask = np.zeros((b, tgt_len), dtype=np.float32)
    for i, (src, tgt) in enumerate(examples):
        source[i, : len(src)] = src
        smask[i, : len(src)] = 1.0
        slen[i] = len(src)
        target[i, : len(tgt)] = tgt
        target[i, len(tgt)] = EOS_ID
        tmask[i, : len(tgt) + 1] = 1.0
    return Batch(source, smask, slen, target, tmask)


# -- data layers ---------------------------------------------------------------


class DataLayer:
    """Deterministic, indexable example stream packed into batches on demand."""

    vocab: Vocabulary
    examples_per_epoch: int | None = None

    def example(self, index: int) -> tuple[list[int], list[int]]:
        raise NotImplementedError

    def take(self, indices: np.ndarray) -> Batch:
        """The Batch of the examples at these global indices, in order."""
        return make_batch([self.example(int(i)) for i in indices], self.vocab.size)

    def batch(self, step: int, batch_size: int) -> Batch:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return self.take(step * batch_size + np.arange(batch_size, dtype=np.int64))

    def shard(self, worker_index: int, num_workers: int) -> "DataLayer":
        if not 0 <= worker_index < num_workers:
            raise ValueError("worker_index out of range")
        if num_workers == 1:
            return self
        return _Shard(self, worker_index, num_workers)


class _Shard(DataLayer):
    """View taking every num_workers-th example of the base stream."""

    def __init__(self, base: DataLayer, worker_index: int, num_workers: int):
        self.base = base
        self.worker_index = worker_index
        self.num_workers = num_workers
        self.vocab = base.vocab
        self.examples_per_epoch = base.examples_per_epoch

    def take(self, indices: np.ndarray) -> Batch:
        return self.base.take(self.worker_index + self.num_workers * np.asarray(indices))


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment: 2^64 / golden ratio


def _mix64(z):
    """SplitMix64's finaliser on a Python int or elementwise on a uint64 array.

    Both wrap mod 2^64: the mask does it for ints, and uint64 array
    arithmetic wraps silently. A numpy uint64 scalar would warn on overflow,
    so arrays stay arrays (``_ids`` never passes a 0-d one).
    """
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class CopyTask(DataLayer):
    """Targets equal sources; fixed-length sequences over a numeric vocab."""

    reverse = False

    def __init__(self, vocab_size: int = 16, seq_len: int = 8, seed: int = 0,
                 split: str = "train"):
        self.vocab = Vocabulary.symbols(vocab_size)
        self.seq_len = int(seq_len)
        self.seed = int(seed)
        self.split = split
        # zlib.crc32 keeps the per-split stream stable across processes
        # (str hash is salted per interpreter)
        self._key = _mix64(_mix64(self.seed & _MASK64) ^ zlib.crc32(split.encode()))
        self._positions = np.arange(1, self.seq_len + 1, dtype=np.uint64) * _GAMMA

    def _ids(self, indices) -> np.ndarray:
        """[len(indices), seq_len] int64 source ids: token t of example i is
        mix(mix(key + i * gamma) + (t + 1) * gamma) over the non-reserved ids."""
        counters = np.asarray(indices, dtype=np.int64).astype(np.uint64)
        rows = _mix64(counters * _GAMMA + self._key)
        cells = _mix64(rows[:, None] + self._positions)
        span = np.uint64(self.vocab.size - NUM_RESERVED)
        return (cells % span).astype(np.int64) + NUM_RESERVED

    def example(self, index: int):
        src = self._ids([index])[0]
        tgt = src[::-1] if self.reverse else src
        return src.tolist(), tgt.tolist()

    def take(self, indices: np.ndarray) -> Batch:
        source = self._ids(indices)
        b, n = source.shape
        target = np.empty((b, n + 1), dtype=np.int64)
        target[:, :n] = source[:, ::-1] if self.reverse else source
        target[:, n] = EOS_ID
        return Batch(source, np.ones((b, n), dtype=np.float32),
                     np.full(b, n, dtype=np.int64), target,
                     np.ones((b, n + 1), dtype=np.float32))


class ReverseTask(CopyTask):
    """Targets are reversed sources."""

    reverse = True


def _read_parallel(source_file: str, target_file: str) -> list[tuple[list[str], list[str]]]:
    with open(source_file, encoding="utf-8") as f:
        src_lines = [line.split() for line in f.read().splitlines()]
    with open(target_file, encoding="utf-8") as f:
        tgt_lines = [line.split() for line in f.read().splitlines()]
    if len(src_lines) != len(tgt_lines):
        raise ValueError(
            f"misaligned files: {len(src_lines)} source vs {len(tgt_lines)} target lines")
    if not src_lines:
        raise ValueError("empty parallel corpus")
    return list(zip(src_lines, tgt_lines))


class ParallelText(DataLayer):
    """Line-aligned source/target text files, whitespace tokenized.

    The vocabulary comes from the training files. The ``eval`` split reads
    the held-out pair ``eval_source_file``/``eval_target_file`` and encodes it
    with that vocabulary.
    """

    def __init__(self, source_file: str, target_file: str, max_vocab: int = 50_000,
                 split: str = "train", eval_source_file: str | None = None,
                 eval_target_file: str | None = None):
        lines = _read_parallel(source_file, target_file)
        counts: dict[str, int] = {}
        for src, tgt in lines:
            for tok in src + tgt:
                counts[tok] = counts.get(tok, 0) + 1
        ordered = sorted(counts, key=lambda t: (-counts[t], t))[: max_vocab - NUM_RESERVED]
        self.vocab = Vocabulary(ordered)
        if split == "eval":
            if eval_source_file is None or eval_target_file is None:
                raise ValueError("the eval split of parallel_text needs both "
                                 "'eval_source_file' and 'eval_target_file'")
            lines = _read_parallel(eval_source_file, eval_target_file)
        self.pairs = [(self.vocab.encode(s), self.vocab.encode(t)) for s, t in lines]
        self.examples_per_epoch = len(self.pairs)
        self.split = split

    def example(self, index: int):
        return self.pairs[index % len(self.pairs)]


DATA_LAYERS = {
    "copy_task": CopyTask,
    "reverse_task": ReverseTask,
    "parallel_text": ParallelText,
}


# -- model blocks ----------------------------------------------------------------


def _glorot(rng, fan_in, fan_out, shape=None):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out)).astype(np.float32)


class RNNEncoder:
    """Embedding plus stacked vanilla tanh-RNN layers."""

    def __init__(self, layers: int = 1, hidden: int = 64, emb_size: int = 32):
        if layers < 1 or hidden < 1 or emb_size < 1:
            raise ValueError("encoder params must be positive")
        self.layers = layers
        self.hidden = hidden
        self.emb_size = emb_size

    def build_params(self, rng, vocab_size: int) -> dict[str, np.ndarray]:
        p = {"enc/emb": _glorot(rng, vocab_size, self.emb_size)}
        in_size = self.emb_size
        for l in range(self.layers):
            p[f"enc/l{l}/w"] = _glorot(rng, in_size, self.hidden)
            p[f"enc/l{l}/u"] = _glorot(rng, self.hidden, self.hidden)
            p[f"enc/l{l}/b"] = np.zeros(self.hidden, dtype=np.float32)
            in_size = self.hidden
        return p

    def encode(self, tape: Tape, params: dict[str, Tensor], batch: Batch) -> Representation:
        *rows, src_len = batch.source_ids.shape
        steps = [tape.embedding_gather(params["enc/emb"], batch.source_ids[..., t])
                 for t in range(src_len)]
        for l in range(self.layers):
            w, u, bias = params[f"enc/l{l}/w"], params[f"enc/l{l}/u"], params[f"enc/l{l}/b"]
            h = tape.constant(Tensor.from_array(np.zeros((*rows, self.hidden)), tape.model_dtype))
            outs = []
            for x in steps:
                h = tape.tanh(tape.bias_add(tape.add(tape.matmul(x, w), tape.matmul(h, u)), bias))
                outs.append(h)
            steps = outs
        states = tape.stack_steps(steps)
        return Representation(states, batch.source_mask)


class AttentionDecoder:
    """Single-layer tanh-RNN with dot-product attention over encoder states.

    Teacher forced during training; per step t the query is the fresh RNN
    state, the context is the attention-weighted sum of encoder states, and
    logits come from the projected [state; context] pair.
    """

    def __init__(self, hidden: int = 64, emb_size: int = 32):
        if hidden < 1 or emb_size < 1:
            raise ValueError("decoder params must be positive")
        self.hidden = hidden
        self.emb_size = emb_size

    def build_params(self, rng, vocab_size: int) -> dict[str, np.ndarray]:
        return {
            "dec/emb": _glorot(rng, vocab_size, self.emb_size),
            "dec/w": _glorot(rng, self.emb_size, self.hidden),
            "dec/u": _glorot(rng, self.hidden, self.hidden),
            "dec/b": np.zeros(self.hidden, dtype=np.float32),
            "dec/w_out": _glorot(rng, 2 * self.hidden, vocab_size),
            "dec/b_out": np.zeros(vocab_size, dtype=np.float32),
        }

    def _cell(self, tape, params, x: Tensor, h: Tensor) -> Tensor:
        pre = tape.add(tape.matmul(x, params["dec/w"]), tape.matmul(h, params["dec/u"]))
        return tape.tanh(tape.bias_add(pre, params["dec/b"]))

    def _step_logits(self, tape, params, rep: Representation, h: Tensor) -> Tensor:
        scores = tape.attn_scores(h, rep.states)
        weights = tape.attn_weights(scores, rep.mask)
        context = tape.attn_context(weights, rep.states)
        joined = tape.concat_last_axis(h, context)
        return tape.bias_add(tape.matmul(joined, params["dec/w_out"]), params["dec/b_out"])

    def initial_state(self, tape: Tape, *rows: int) -> Tensor:
        """Zero states for ``rows`` rows, or for a stacked batch's [K, b]."""
        zeros = np.zeros((*rows, self.hidden), dtype=np.float32)
        return tape.constant(Tensor.from_array(zeros, tape.model_dtype))

    def decode_teacher_forced(self, tape: Tape, params: dict[str, Tensor],
                              rep: Representation, batch: Batch) -> Tensor:
        if rep.states.shape[-1] != self.hidden:
            raise ValueError(
                f"decoder hidden {self.hidden} != encoder hidden {rep.states.shape[-1]}")
        inputs = batch.decoder_inputs()
        h = self.initial_state(tape, *inputs.shape[:-1])
        logits_steps = []
        for t in range(inputs.shape[-1]):
            x = tape.embedding_gather(params["dec/emb"], inputs[..., t])
            h = self._cell(tape, params, x, h)
            logits_steps.append(self._step_logits(tape, params, rep, h))
        return tape.stack_steps(logits_steps)


def basic_sequence_loss(tape: Tape, logits: Tensor, batch: Batch) -> Tensor:
    """Mean over non-pad target positions of token cross-entropy (FP32)."""
    return tape.softmax_cross_entropy_with_mask(logits, batch.target_ids, batch.target_mask)


ENCODERS = {"rnn": RNNEncoder}
DECODERS = {"attention_rnn": AttentionDecoder}
LOSSES = {"basic_sequence": basic_sequence_loss}


@dataclass
class ModelSpec:
    encoder: str = "rnn"
    encoder_params: dict = field(default_factory=dict)
    decoder: str = "attention_rnn"
    decoder_params: dict = field(default_factory=dict)
    loss: str = "basic_sequence"
    dtype: str = "float32"

    def validate(self) -> tuple:
        """Checks the kinds and dtype; returns the built (encoder, decoder, loss)."""
        if self.encoder not in ENCODERS:
            raise ValueError(f"unknown encoder {self.encoder!r}")
        if self.decoder not in DECODERS:
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.dtype not in MODES:
            raise ValueError(f"dtype must be one of {MODES}, got {self.dtype!r}")
        return (ENCODERS[self.encoder](**self.encoder_params),
                DECODERS[self.decoder](**self.decoder_params), LOSSES[self.loss])


class Seq2SeqModel:
    """Encoder/decoder pair with named parameters; one instance per replica."""

    def __init__(self, spec: ModelSpec, vocab_size: int, seed: int = 0):
        self.encoder, self.decoder, self.loss_fn = spec.validate()
        self.vocab_size = vocab_size
        self.mode = spec.dtype
        dtype = DType.F16 if spec.dtype == "mixed" else DType.F32
        rng = np.random.default_rng((seed, 0x5EED))
        arrays = {}
        arrays.update(self.encoder.build_params(rng, vocab_size))
        arrays.update(self.decoder.build_params(rng, vocab_size))
        self.variables = {
            name: Variable(name, Tensor.from_array(arr, dtype))
            for name, arr in sorted(arrays.items())
        }

    def _leaves(self, tape: Tape, variables=None) -> dict[str, Tensor]:
        return {name: tape.leaf(v) for name, v in (variables or self.variables).items()}

    def teacher_forced(self, tape: Tape, batch: Batch, variables=None
                       ) -> tuple[Tensor, Tensor, Representation]:
        """(loss, logits, representation) of one batch, computed on ``tape``
        from ``variables`` (the model's own by default)."""
        params = self._leaves(tape, variables)
        rep = self.encoder.encode(tape, params, batch)
        logits = self.decoder.decode_teacher_forced(tape, params, rep, batch)
        return self.loss_fn(tape, logits, batch), logits, rep

    def forward(self, batch: Batch, variables=None) -> tuple[Tensor, Tape]:
        """Teacher-forced loss for one batch; returns (loss tensor, tape). With
        ``variables`` and batch stacked on a leading replica axis, one loss each."""
        tape = Tape(self.mode)
        return self.teacher_forced(tape, batch, variables)[0], tape

    def greedy_decode(self, source_ids: np.ndarray, source_mask: np.ndarray,
                      max_len: int = 32, *, rep: Representation | None = None
                      ) -> list[list[int]]:
        """Argmax decoding from bos until eos or the length bound, on a tape
        that records nothing.

        ``rep`` is the encoding of these sources when the caller already has
        it (the eval pass takes it from its teacher-forced forward); without
        it the sources are encoded here. Every row steps until all rows have
        emitted eos; each is cut at its first eos at the end. np.argmax
        resolves ties toward the lowest token id, which keeps decoding
        deterministic.
        """
        tape = Tape(self.mode, record=False)
        params = self._leaves(tape)
        b = source_ids.shape[0]
        if rep is None:
            lengths = source_mask.sum(axis=1).astype(np.int64)
            rep = self.encoder.encode(
                tape, params,
                Batch(source_ids, source_mask.astype(np.float32), lengths,
                      np.zeros((b, 1), dtype=np.int64), np.ones((b, 1), dtype=np.float32)))
        h = self.decoder.initial_state(tape, b)
        prev = np.full(b, BOS_ID, dtype=np.int64)
        done = np.zeros(b, dtype=bool)
        # one column past max_len stays eos, so every row has an eos to cut at
        ids = np.full((b, max(max_len, 0) + 1), EOS_ID, dtype=np.int64)
        for t in range(max_len):
            x = tape.embedding_gather(params["dec/emb"], prev)
            h = self.decoder._cell(tape, params, x, h)
            logits = self.decoder._step_logits(tape, params, rep, h)
            prev = ids[:, t] = np.argmax(logits.f32(), axis=-1)
            done |= prev == EOS_ID
            if done.all():
                break
        cut = np.argmax(ids == EOS_ID, axis=1)
        return [row[:n] for row, n in zip(ids.tolist(), cut.tolist())]


def token_accuracy(logits: Tensor, batch: Batch) -> float:
    """Fraction of non-pad target positions predicted exactly."""
    pred = np.argmax(logits.f32(), axis=-1)
    hits = (pred == batch.target_ids) * batch.target_mask
    return float(hits.sum() / batch.target_mask.sum())
