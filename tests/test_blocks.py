import zlib

import numpy as np
import pytest

from miniseq.autodiff import Tape, backward
from miniseq.blocks import (
    BOS_ID,
    DATA_LAYERS,
    DECODERS,
    ENCODERS,
    EOS_ID,
    NUM_RESERVED,
    PAD_ID,
    CopyTask,
    ModelSpec,
    ParallelText,
    ReverseTask,
    Seq2SeqModel,
    Vocabulary,
    basic_sequence_loss,
    make_batch,
    token_accuracy,
)
from miniseq.tensor import DType, Tensor


def small_spec(**kw):
    spec = ModelSpec(
        encoder_params={"layers": kw.pop("layers", 1), "hidden": kw.pop("hidden", 8),
                        "emb_size": kw.pop("emb_size", 6)},
        decoder_params={"hidden": kw.pop("dec_hidden", 8), "emb_size": 6},
        **kw,
    )
    return spec


class TestVocabulary:
    def test_reserved_ids(self):
        v = Vocabulary.symbols(16)
        assert v.token_to_id["<pad>"] == PAD_ID
        assert v.token_to_id["<s>"] == BOS_ID
        assert v.token_to_id["</s>"] == EOS_ID
        assert v.size == 16

    def test_bijective_over_non_reserved(self):
        v = Vocabulary(["a", "b", "c"])
        for tok in ["a", "b", "c"]:
            assert v.id_to_token[v.token_to_id[tok]] == tok

    def test_unknown_mapped_and_counted(self):
        v = Vocabulary(["a"])
        ids = v.encode(["a", "zzz", "qqq"])
        assert ids == [4, 3, 3]
        assert v.unk_count == 2

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a"])


class TestDataLayers:
    def test_copy_targets_equal_sources(self):
        layer = CopyTask(vocab_size=16, seq_len=8, seed=3)
        for i in range(10):
            src, tgt = layer.example(i)
            assert tgt == src
            assert all(NUM_RESERVED <= t < 16 for t in src)

    def test_reverse_targets_reversed(self):
        layer = ReverseTask(vocab_size=16, seq_len=8, seed=3)
        src, tgt = layer.example(5)
        assert tgt == src[::-1]

    def test_deterministic_and_split_disjoint(self):
        a = CopyTask(seed=1).example(7)
        b = CopyTask(seed=1).example(7)
        assert a == b
        assert CopyTask(seed=1, split="eval").example(7) != a
        assert CopyTask(seed=2).example(7) != a

    def test_shard_partitions_stream(self):
        layer = CopyTask(vocab_size=16, seq_len=4, seed=9)
        shards = [layer.shard(w, 2) for w in range(2)]
        window = 12
        base = [layer.example(i) for i in range(2 * window)]
        seen = []
        for w, s in enumerate(shards):
            got = [s.example(i) for i in range(window)]
            assert got == base[w::2][:window]
            seen.extend(got)
        # disjoint + full coverage of the window
        assert sorted(map(str, seen)) == sorted(map(str, base))

    def test_golden_tokens_pin_the_stream(self):
        train = CopyTask(seed=0)
        assert [train.example(i)[0] for i in range(3)] == [
            [12, 15, 7, 9, 6, 6, 13, 10],
            [8, 6, 9, 10, 5, 9, 5, 14],
            [13, 14, 6, 11, 5, 7, 12, 8]]
        held_out = CopyTask(seed=0, split="eval")
        assert [held_out.example(i)[0] for i in range(3)] == [
            [11, 7, 7, 4, 13, 9, 14, 13],
            [8, 5, 15, 9, 11, 13, 6, 4],
            [7, 6, 9, 5, 15, 12, 15, 12]]

    @pytest.mark.parametrize("layer", [
        CopyTask(vocab_size=16, seq_len=8, seed=3),
        ReverseTask(vocab_size=16, seq_len=8, seed=3),
        ReverseTask(vocab_size=16, seq_len=8, seed=3).shard(2, 4),
    ], ids=["copy", "reverse", "reverse-shard-2-of-4"])
    def test_take_equals_per_example_make_batch(self, layer):
        fast = layer.batch(3, 8)
        slow = make_batch([layer.example(3 * 8 + j) for j in range(8)], layer.vocab.size)
        for name in ("source_ids", "source_mask", "source_lengths", "target_ids",
                     "target_mask"):
            got, want = getattr(fast, name), getattr(slow, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_shard_batches_interleave_to_the_global_batch(self):
        layer, k, per_worker, step = ReverseTask(vocab_size=16, seq_len=5, seed=2), 4, 8, 6
        whole = layer.batch(step, k * per_worker)
        shards = [layer.shard(r, k).batch(step, per_worker) for r in range(k)]
        # global row r + k*j is shard r's row j
        for name in ("source_ids", "target_ids", "source_lengths"):
            joined = np.stack([getattr(b, name) for b in shards], axis=1)
            np.testing.assert_array_equal(joined.reshape(getattr(whole, name).shape),
                                          getattr(whole, name), err_msg=name)

    def test_symbols_are_uniform(self):
        vocab = 16
        ids = CopyTask(vocab_size=vocab, seq_len=10, seed=5).batch(0, 10_000).source_ids
        counts = np.bincount(ids.ravel(), minlength=vocab)
        assert counts[:NUM_RESERVED].sum() == 0
        expected = ids.size / (vocab - NUM_RESERVED)
        assert np.all(np.abs(counts[NUM_RESERVED:] / expected - 1.0) < 0.05), counts

    def test_matches_a_python_int_reference(self):
        """The uint64 array arithmetic wraps exactly like mod-2^64 integers,
        for negative and 64-bit seeds and for indices past 2^32."""
        mask = (1 << 64) - 1
        gamma = 0x9E3779B97F4A7C15

        def mix(z):
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        for seed, split in [(0, "train"), (-1, "eval"), (2**64 - 3, "dev")]:
            key = mix(mix(seed & mask) ^ zlib.crc32(split.encode()))
            layer = CopyTask(vocab_size=23, seq_len=5, seed=seed, split=split)
            indices = [0, 1, 2**33 + 7, 2**62 + 11]
            want = [[NUM_RESERVED + mix((mix((key + i * gamma) & mask) + (t + 1) * gamma)
                                        & mask) % (23 - NUM_RESERVED)
                     for t in range(5)] for i in indices]
            np.testing.assert_array_equal(layer.take(np.array(indices)).source_ids, want)

    def test_generation_raises_no_warning(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (0, -1, 2**63 + 5):
                layer = ReverseTask(vocab_size=16, seq_len=8, seed=seed)
                layer.example(0)
                layer.shard(1, 4).batch(2**40, 32)

    def test_batch_shapes_and_eos(self):
        layer = CopyTask(vocab_size=16, seq_len=5, seed=0)
        batch = layer.batch(0, 4)
        assert batch.source_ids.shape == (4, 5)
        assert batch.target_ids.shape == (4, 6)
        assert np.all(batch.target_ids[:, -1] == EOS_ID)
        assert np.all(batch.target_mask == 1.0)

    def test_parallel_text_round_trip(self, tmp_path):
        src = tmp_path / "s.txt"
        tgt = tmp_path / "t.txt"
        src.write_text("a b c\nd e\n", encoding="utf-8")
        tgt.write_text("c b a\ne d\n", encoding="utf-8")
        layer = ParallelText(str(src), str(tgt))
        assert layer.examples_per_epoch == 2
        s0, t0 = layer.example(0)
        assert layer.vocab.decode(s0) == ["a", "b", "c"]
        assert layer.vocab.decode(t0) == ["c", "b", "a"]
        # wraps around
        assert layer.example(2) == layer.example(0)

    def test_parallel_text_misaligned_rejected(self, tmp_path):
        src = tmp_path / "s.txt"
        tgt = tmp_path / "t.txt"
        src.write_text("a\nb\n", encoding="utf-8")
        tgt.write_text("a\n", encoding="utf-8")
        with pytest.raises(ValueError):
            ParallelText(str(src), str(tgt))

    def test_padding_mask_zero_exactly_at_pads(self, tmp_path):
        src = tmp_path / "s.txt"
        tgt = tmp_path / "t.txt"
        src.write_text("a b c\nd\n", encoding="utf-8")
        tgt.write_text("x\ny z\n", encoding="utf-8")
        layer = ParallelText(str(src), str(tgt))
        batch = layer.batch(0, 2)
        assert batch.source_mask[1, 1] == 0.0
        assert batch.source_ids[1, 1] == PAD_ID


class TestEncoder:
    def test_zero_weights_give_tanh_bias(self):
        model = Seq2SeqModel(small_spec(), vocab_size=16, seed=0)
        for name, v in model.variables.items():
            if name.startswith("enc/"):
                v.value = Tensor.from_array(np.zeros(v.value.shape), v.value.dtype)
        model.variables["enc/l0/b"].value = Tensor.from_array(
            np.full(8, 0.3, dtype=np.float32), DType.F32)
        batch = CopyTask(vocab_size=16, seq_len=3, seed=0).batch(0, 2)
        tape = Tape("float32")
        params = model._leaves(tape)
        rep = model.encoder.encode(tape, params, batch)
        assert np.allclose(rep.states.value.f32(), np.tanh(0.3), atol=1e-7)

    def test_length_one_sequences(self):
        model = Seq2SeqModel(small_spec(), vocab_size=16, seed=0)
        batch = CopyTask(vocab_size=16, seq_len=1, seed=0).batch(0, 3)
        tape = Tape("float32")
        rep = model.encoder.encode(tape, model._leaves(tape), batch)
        assert rep.states.value.shape == (3, 1, 8)

    def test_matches_step_by_step_recurrence_oracle(self):
        model = Seq2SeqModel(small_spec(layers=2), vocab_size=16, seed=11)
        batch = CopyTask(vocab_size=16, seq_len=3, seed=4).batch(0, 2)
        tape = Tape("float32")
        rep = model.encoder.encode(tape, model._leaves(tape), batch)

        # independent recurrence in float64
        p = {k: v.value.f32().astype(np.float64) for k, v in model.variables.items()}
        x = p["enc/emb"][batch.source_ids]
        for l in range(2):
            h = np.zeros((2, 8))
            outs = []
            for t in range(3):
                h = np.tanh(x[:, t] @ p[f"enc/l{l}/w"] + h @ p[f"enc/l{l}/u"] + p[f"enc/l{l}/b"])
                outs.append(h)
            x = np.stack(outs, axis=1)
        assert np.max(np.abs(rep.states.value.f32() - x)) < 1e-6


class TestDecoder:
    def _rep_and_batch(self, model, seq_len=3, b=2):
        batch = CopyTask(vocab_size=16, seq_len=seq_len, seed=4).batch(0, b)
        tape = Tape("float32")
        params = model._leaves(tape)
        rep = model.encoder.encode(tape, params, batch)
        return tape, params, rep, batch

    def test_single_source_position_gets_full_attention(self):
        model = Seq2SeqModel(small_spec(), vocab_size=16, seed=2)
        tape, params, rep, batch = self._rep_and_batch(model, seq_len=1)
        h = model.decoder.initial_state(tape, batch.size)
        x = tape.embedding_gather(params["dec/emb"], np.full(batch.size, BOS_ID))
        h = model.decoder._cell(tape, params, x, h)
        scores = tape.attn_scores(h, rep.states)
        weights = tape.attn_weights(scores, rep.mask)
        assert np.allclose(weights.value.f32(), 1.0)

    def test_uniform_states_make_context_independent_of_query(self):
        model = Seq2SeqModel(small_spec(), vocab_size=16, seed=2)
        tape = Tape("float32")
        params = model._leaves(tape)
        state_row = np.linspace(-0.5, 0.5, 8).astype(np.float32)
        states = tape.constant(Tensor.from_array(np.tile(state_row, (2, 4, 1))))
        mask = np.ones((2, 4), dtype=np.float32)
        for q_arr in [np.zeros((2, 8)), np.full((2, 8), 3.0)]:
            q = tape.constant(Tensor.from_array(q_arr))
            w = tape.attn_weights(tape.attn_scores(q, states), mask)
            ctx = tape.attn_context(w, states)
            assert np.allclose(ctx.value.f32(), state_row, atol=1e-6)

    def test_matches_step_by_step_oracle(self):
        model = Seq2SeqModel(small_spec(), vocab_size=16, seed=5)
        batch = CopyTask(vocab_size=16, seq_len=3, seed=1).batch(0, 2)
        loss_node, tape = model.forward(batch)
        logits_node = tape.ops[-1].inputs[0]

        p = {k: v.value.f32().astype(np.float64) for k, v in model.variables.items()}
        # encoder oracle
        x = p["enc/emb"][batch.source_ids]
        h = np.zeros((2, 8))
        enc = []
        for t in range(3):
            h = np.tanh(x[:, t] @ p["enc/l0/w"] + h @ p["enc/l0/u"] + p["enc/l0/b"])
            enc.append(h)
        enc = np.stack(enc, axis=1)
        # decoder oracle
        inputs = batch.decoder_inputs()
        h = np.zeros((2, 8))
        logits = []
        for t in range(inputs.shape[1]):
            xt = p["dec/emb"][inputs[:, t]]
            h = np.tanh(xt @ p["dec/w"] + h @ p["dec/u"] + p["dec/b"])
            scores = np.einsum("bh,bsh->bs", h, enc)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            w = e / e.sum(axis=-1, keepdims=True)
            ctx = np.einsum("bs,bsh->bh", w, enc)
            logits.append(np.concatenate([h, ctx], axis=-1) @ p["dec/w_out"] + p["dec/b_out"])
        logits = np.stack(logits, axis=1)
        assert np.max(np.abs(logits_node.value.f32() - logits)) < 1e-6

    def test_hidden_size_mismatch_rejected(self):
        spec = small_spec(dec_hidden=4)
        model = Seq2SeqModel(spec, vocab_size=16, seed=0)
        batch = CopyTask(vocab_size=16, seq_len=2, seed=0).batch(0, 2)
        with pytest.raises(ValueError):
            model.forward(batch)

    def test_attention_rows_sum_to_one_and_zero_at_invalid(self, tmp_path):
        src = tmp_path / "s.txt"
        tgt = tmp_path / "t.txt"
        src.write_text("a b c\nd\n", encoding="utf-8")
        tgt.write_text("x\ny z\n", encoding="utf-8")
        layer = ParallelText(str(src), str(tgt))
        model = Seq2SeqModel(small_spec(), vocab_size=layer.vocab.size, seed=0)
        batch = layer.batch(0, 2)
        tape = Tape("float32")
        params = model._leaves(tape)
        rep = model.encoder.encode(tape, params, batch)
        h = model.decoder.initial_state(tape, 2)
        x = tape.embedding_gather(params["dec/emb"], np.full(2, BOS_ID))
        h = model.decoder._cell(tape, params, x, h)
        w = tape.attn_weights(tape.attn_scores(h, rep.states), rep.mask).value.f32()
        assert np.all(np.abs(w.sum(axis=-1) - 1.0) < 1e-6)
        assert w[1, 1] == 0.0 and w[1, 2] == 0.0


class TestLoss:
    def test_perfect_logits_near_zero_loss(self):
        batch = CopyTask(vocab_size=16, seq_len=3, seed=0).batch(0, 2)
        onehot = np.zeros((2, 4, 16), dtype=np.float32)
        b_idx, t_idx = np.indices(batch.target_ids.shape)
        onehot[b_idx, t_idx, batch.target_ids] = 50.0
        tape = Tape("float32")
        node = tape.constant(Tensor.from_array(onehot))
        loss = basic_sequence_loss(tape, node, batch)
        assert loss.value.item() < 1e-3

    def test_uniform_logits_log_vocab(self):
        batch = CopyTask(vocab_size=16, seq_len=3, seed=0).batch(0, 2)
        tape = Tape("float32")
        node = tape.constant(Tensor.from_array(np.zeros((2, 4, 16))))
        loss = basic_sequence_loss(tape, node, batch)
        assert loss.value.item() == pytest.approx(np.log(16), rel=1e-6)

    def test_all_pad_batch_rejected(self):
        batch = CopyTask(vocab_size=16, seq_len=2, seed=0).batch(0, 1)
        batch.target_mask[:] = 0.0
        tape = Tape("float32")
        node = tape.constant(Tensor.from_array(np.zeros((1, 3, 16))))
        with pytest.raises(ValueError):
            basic_sequence_loss(tape, node, batch)

    def test_random_case_vs_high_precision_oracle(self):
        rng = np.random.default_rng(0)
        batch = CopyTask(vocab_size=16, seq_len=3, seed=0).batch(0, 2)
        arr = rng.normal(size=(2, 4, 16)).astype(np.float32)
        tape = Tape("float32")
        loss = basic_sequence_loss(tape, tape.constant(Tensor.from_array(arr)), batch)
        x = arr.astype(np.float64)
        z = x - x.max(axis=-1, keepdims=True)
        logz = np.log(np.exp(z).sum(axis=-1))
        b_idx, t_idx = np.indices(batch.target_ids.shape)
        ce = logz - z[b_idx, t_idx, batch.target_ids]
        expect = (ce * batch.target_mask).sum() / batch.target_mask.sum()
        assert loss.value.item() == pytest.approx(expect, abs=1e-6)


class TestModel:
    def test_loss_at_random_init_near_log_vocab(self):
        model = Seq2SeqModel(small_spec(hidden=64, emb_size=32, dec_hidden=64),
                             vocab_size=16, seed=0)
        batch = CopyTask(vocab_size=16, seq_len=8, seed=0).batch(0, 32)
        loss, _ = model.forward(batch)
        assert abs(loss.value.item() - np.log(16)) < 0.1 * np.log(16)

    def test_composability_registry(self):
        layer = CopyTask(vocab_size=12, seq_len=3, seed=0)
        batch = layer.batch(0, 2)
        for enc_kind in ENCODERS:
            for dec_kind in DECODERS:
                spec = ModelSpec(encoder=enc_kind, decoder=dec_kind,
                                 encoder_params={"hidden": 8, "emb_size": 4},
                                 decoder_params={"hidden": 8, "emb_size": 4})
                model = Seq2SeqModel(spec, vocab_size=12, seed=0)
                loss, tape = model.forward(batch)
                grads = backward(tape, 1.0)
                assert np.isfinite(loss.value.item())
                assert set(grads) == set(model.variables)

    def test_mask_perturbation_invariance(self, tmp_path):
        src = tmp_path / "s.txt"
        tgt = tmp_path / "t.txt"
        src.write_text("a b\nc\n", encoding="utf-8")
        tgt.write_text("b a\nc c c\n", encoding="utf-8")
        layer = ParallelText(str(src), str(tgt))
        model = Seq2SeqModel(small_spec(), vocab_size=layer.vocab.size, seed=1)
        batch = layer.batch(0, 2)
        loss_a, tape_a = model.forward(batch)
        grads_a = backward(tape_a, 1.0)
        # Perturbing the target ids at padded positions changes nothing.
        batch.target_ids[0, -1] = 5
        loss_b, tape_b = model.forward(batch)
        grads_b = backward(tape_b, 1.0)
        assert loss_a.value.item() == loss_b.value.item()
        for k in grads_a:
            assert np.array_equal(grads_a[k].f32(), grads_b[k].f32())

    def test_greedy_decode_always_eos_gives_empty(self):
        model = Seq2SeqModel(small_spec(), vocab_size=16, seed=0)
        b_out = model.variables["dec/b_out"].value.f32().copy()
        b_out[EOS_ID] = 100.0
        model.variables["dec/b_out"].value = Tensor.from_array(b_out, DType.F32)
        layer = CopyTask(vocab_size=16, seq_len=3, seed=0)
        batch = layer.batch(0, 2)
        outs = model.greedy_decode(batch.source_ids, batch.source_mask, max_len=5)
        assert outs == [[], []]

    def test_greedy_ties_break_to_lowest_id(self):
        model = Seq2SeqModel(small_spec(), vocab_size=16, seed=0)
        for name, v in model.variables.items():
            if name in ("dec/w_out", "dec/b_out"):
                model.variables[name].value = Tensor.from_array(
                    np.zeros(v.value.shape), v.value.dtype)
        batch = CopyTask(vocab_size=16, seq_len=2, seed=0).batch(0, 1)
        outs = model.greedy_decode(batch.source_ids, batch.source_mask, max_len=3)
        # all logits tie, argmax picks id 0 (pad), never eos: length bound hit
        assert outs == [[PAD_ID, PAD_ID, PAD_ID]]

    def test_token_accuracy(self):
        batch = CopyTask(vocab_size=16, seq_len=2, seed=0).batch(0, 1)
        onehot = np.zeros((1, 3, 16), dtype=np.float32)
        b_idx, t_idx = np.indices(batch.target_ids.shape)
        onehot[b_idx, t_idx, batch.target_ids] = 5.0
        assert token_accuracy(Tensor.from_array(onehot), batch) == 1.0
        onehot[0, 0, :] = 0.0
        onehot[0, 0, (batch.target_ids[0, 0] + 1) % 16] = 5.0
        assert token_accuracy(Tensor.from_array(onehot), batch) == pytest.approx(2 / 3)

    def test_registry_names(self):
        assert set(DATA_LAYERS) == {"copy_task", "reverse_task", "parallel_text"}
        spec = ModelSpec(encoder="missing")
        with pytest.raises(ValueError):
            spec.validate()
