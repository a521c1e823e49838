import json
import math
from collections import Counter
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from miniseq import runner
from miniseq.blocks import DATA_LAYERS, CopyTask
from miniseq.checkpoint import (CheckpointError, checkpoint_exists, load_checkpoint,
                                save_checkpoint)
from miniseq.distrib import WorkerGroup
from miniseq.config import Config, ConfigError, load_config, parse_config
from miniseq.metrics import CSV_HEADER, MetricsLog, MetricsRow, bleu4, wer
from miniseq.runner import build_replica, evaluate, run


def reference_bleu(hypotheses, references):
    """Independent corpus BLEU: greedy clipped matching against mutable
    reference n-gram pools, log-domain geometric mean."""
    match, total = [0, 0, 0, 0], [0, 0, 0, 0]
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    for hyp, ref in zip(hypotheses, references):
        for n in range(1, 5):
            pool = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
            for i in range(len(hyp) - n + 1):
                total[n - 1] += 1
                gram = tuple(hyp[i:i + n])
                if gram in pool:
                    pool.remove(gram)
                    match[n - 1] += 1
    if hyp_len == 0 or 0 in match:
        return 0.0
    log_p = sum(math.log(m / t) for m, t in zip(match, total)) / 4
    bp = 1.0 if hyp_len > ref_len else math.exp(1 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_p)


def oracle_bleu(hypotheses, references):
    """Corpus BLEU sentence by sentence with Counters, in the float formula
    that metrics.bleu4 must reproduce exactly."""
    matched, total = [0] * 4, [0] * 4
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    for hyp, ref in zip(hypotheses, references):
        for n in range(1, 5):
            hyp_counts = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
            ref_counts = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            total[n - 1] += max(len(hyp) - n + 1, 0)
            matched[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    if hyp_len == 0 or any(m == 0 for m in matched):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matched, total)) / 4.0
    brevity = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return 100.0 * brevity * math.exp(log_precision)


def oracle_wer(hypotheses, references):
    """Word error rate from one Levenshtein table per sentence pair."""
    edits = 0
    for hyp, ref in zip(hypotheses, references):
        previous = list(range(len(ref) + 1))
        for i, tok_h in enumerate(hyp, start=1):
            current = [i] + [0] * len(ref)
            for j, tok_r in enumerate(ref, start=1):
                current[j] = min(previous[j] + 1, current[j - 1] + 1,
                                 previous[j - 1] + (tok_h != tok_r))
            previous = current
        edits += previous[len(ref)]
    return 100.0 * edits / sum(len(r) for r in references)


def random_corpus(rng, pairs, vocab_size, max_len):
    """References of 1..max_len tokens, and hypotheses made from them by random
    deletions, substitutions and repeats; about one in ten is empty."""
    vocab = [f"w{i}" for i in range(vocab_size)]
    hyps, refs = [], []
    for _ in range(pairs):
        ref = [vocab[i] for i in rng.integers(0, vocab_size, size=rng.integers(1, max_len + 1))]
        hyp = []
        for tok in ref:
            u = rng.random()
            if u < 0.15:
                continue
            hyp.append(vocab[rng.integers(vocab_size)] if u < 0.3 else tok)
            if u > 0.9:
                hyp.append(tok)
        hyps.append([] if rng.random() < 0.1 else hyp)
        refs.append(ref)
    return hyps, refs


def base_config(tmp_path, **kw):
    cfg = {
        "data_layer": "copy_task",
        "data_layer_params": {"vocab_size": 12, "seq_len": 4, "seed": 3},
        "encoder_params": {"layers": 1, "hidden": 16, "emb_size": 8},
        "decoder_params": {"hidden": 16, "emb_size": 8},
        "optimizer": "Adam",
        "lr_policy": "constant",
        "lr_policy_params": {"learning_rate": 0.002},
        "batch_size_per_gpu": 8,
        "max_steps": 30,
        "eval_every": 10,
        "eval_batches": 2,
        "seed": 11,
        "checkpoint_dir": str(tmp_path / "ckpt"),
    }
    cfg.update(kw)
    return parse_config(json.dumps(cfg))


class TestConfig:
    def test_defaults_filled(self):
        cfg = parse_config(b'{"max_steps": 5}')
        assert cfg.dtype == "float32"
        assert cfg.batch_size_per_gpu == 32
        assert cfg.num_workers == 1

    def test_static_scaling_key(self):
        cfg = parse_config(json.dumps({"dtype": "mixed", "loss_scale": 10.0}))
        assert cfg.loss_scale == 10.0
        assert cfg.loss_scaling is None

    def test_lr_policy_params(self):
        cfg = parse_config(json.dumps(
            {"lr_policy": "exp_decay", "lr_policy_params": {"learning_rate": 0.0008}}))
        assert cfg.lr_policy_params["learning_rate"] == 0.0008

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(json.dumps({"optimzer": "adam"}))

    def test_loss_params_rejected(self):
        # no loss takes parameters, so label smoothing must not be accepted and ignored
        with pytest.raises(ConfigError, match="loss_params"):
            parse_config(json.dumps({"loss_params": {"label_smoothing": 0.1}}))

    def test_static_and_dynamic_scaling_conflict(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config(json.dumps(
                {"dtype": "mixed", "loss_scale": 8.0, "loss_scaling": "Backoff"}))

    def test_json_error_reports_position(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(b"{broken")

    def test_unknown_kinds_rejected(self):
        for key, value in [("encoder", "transformer"), ("data_layer", "wmt"),
                           ("optimizer", "lamb"), ("loss_scaling", "Adaptive")]:
            with pytest.raises(ConfigError):
                parse_config(json.dumps({"dtype": "mixed", key: value}))

    def test_round_trip_identity(self, tmp_path):
        cfg = base_config(tmp_path, dtype="mixed", loss_scaling="Backoff")
        again = parse_config(cfg.to_json())
        assert again == cfg
        assert again.content_hash() == cfg.content_hash()

    def test_tcp_needs_matching_roster(self):
        with pytest.raises(ConfigError, match="one worker address per worker"):
            parse_config(json.dumps(
                {"transport": "tcp", "num_workers": 2,
                 "worker_addresses": ["127.0.0.1:1"]}))

    def test_batch_size_validated(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"batch_size_per_gpu": 0}))


class TestBleu:
    def test_identity_corpus_scores_100(self):
        corpus = [["the", "cat", "sat"], ["a", "b", "c", "d", "e"]]
        assert bleu4(corpus, corpus) == pytest.approx(100.0)

    def test_clipping_zeroes_degenerate_hypothesis(self):
        assert bleu4([["the"] * 4], [["the", "cat", "sat"]]) == 0.0

    def test_brevity_penalty_hand_value(self):
        # all precisions 1, hyp 4 tokens vs ref 5: BP = exp(1 - 5/4)
        got = bleu4([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
        assert got == pytest.approx(100.0 * math.exp(1 - 5 / 4), abs=1e-9)

    def test_three_sentence_fixture_vs_independent_implementation(self):
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
        assert bleu4(hyps, refs) == pytest.approx(reference_bleu(hyps, refs), abs=0.1)

    def test_random_corpora_vs_independent_implementation(self):
        rng = np.random.default_rng(0)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(25):
            hyps, refs = [], []
            for _ in range(int(rng.integers(1, 6))):
                hyps.append([vocab[i] for i in rng.integers(0, 12, size=rng.integers(1, 12))])
                refs.append([vocab[i] for i in rng.integers(0, 12, size=rng.integers(1, 12))])
            ours = bleu4(hyps, refs)
            assert 0.0 <= ours <= 100.0
            assert ours == pytest.approx(reference_bleu(hyps, refs), abs=0.1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        hyps = [["a", "b", "c"], ["b", "c"], ["a", "a", "b", "c"]]
        refs = [["a", "b", "c"], ["c", "b"], ["a", "b", "b", "c"]]
        base = bleu4(hyps, refs)
        order = [2, 0, 1]
        assert bleu4([hyps[i] for i in order], [refs[i] for i in order]) == pytest.approx(base)

    def test_errors(self):
        with pytest.raises(ValueError):
            bleu4([], [])
        with pytest.raises(ValueError):
            bleu4([["a"]], [[]])
        with pytest.raises(ValueError):
            bleu4([["a"]], [["a"], ["b"]])


class TestMetricsEqualOracles:
    @pytest.mark.parametrize("pairs, vocab_size, max_len", [
        (1, 3, 5), (5, 2, 3), (40, 4, 9), (200, 12, 14), (300, 500, 6)])
    def test_bleu_and_wer_equal_the_sentence_loops(self, pairs, vocab_size, max_len):
        rng = np.random.default_rng(pairs * 1000 + vocab_size)
        for _ in range(10):
            hyps, refs = random_corpus(rng, pairs, vocab_size, max_len)
            assert bleu4(hyps, refs) == oracle_bleu(hyps, refs)
            assert wer(hyps, refs) == oracle_wer(hyps, refs)

    def test_hand_cases_equal_the_sentence_loops(self):
        cases = [
            ([["a", "a", "a", "a", "a"]], [["a", "a", "b", "a"]]),  # clipping
            ([[], ["x"], ["a", "b"]], [["a"], ["x", "y", "z"], ["b", "a"]]),  # short, empty
            ([list("abcdabcd"), list("abc")], [list("abcd"), list("abcabcabc")]),
            ([list("the cat")], [list("the cat")]),
            ([[]], [["a", "b", "c"]]),
        ]
        for hyps, refs in cases:
            assert bleu4(hyps, refs) == oracle_bleu(hyps, refs)
            assert wer(hyps, refs) == oracle_wer(hyps, refs)
        # a non-zero score with every n-gram order matched, and clipped 1-grams
        hyps, refs = [list("abcdeabcde")], [list("abcdefgh")]
        assert 0.0 < bleu4(hyps, refs) == oracle_bleu(hyps, refs) < 100.0


class TestWer:
    def test_identical_zero(self):
        assert wer([["a", "b"]], [["a", "b"]]) == 0.0

    def test_one_substitution_of_three(self):
        assert wer([["a", "x", "c"]], [["a", "b", "c"]]) == pytest.approx(100 / 3)

    def test_empty_hypothesis_all_deletions(self):
        assert wer([[]], [["a", "b", "c"]]) == pytest.approx(100.0)

    def test_corpus_pooling(self):
        # 1 edit over 5 reference words
        assert wer([["a"], ["x", "y"]], [["a"], ["x", "z", "y", "w"]]) == pytest.approx(40.0)

    def test_empty_references_rejected(self):
        with pytest.raises(ValueError):
            wer([["a"]], [[]])


class TestMetricsLog:
    def test_csv_header_and_rows(self, tmp_path):
        log = MetricsLog()
        log.append(MetricsRow(0, 0, "train", 2.5, 0.001, 1.0, 0.5, False, 100.0))
        log.append(MetricsRow(1, 0, "train", 2.4, 0.001, 1.0, None, True, 90.0))
        path = tmp_path / "m.csv"
        log.write_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("0,0,train,2.5,0.001,1.0,0.5,0,100.0,,")
        skipped = lines[2].split(",")
        assert skipped[7] == "1" and skipped[6] == ""

    def test_empty_log_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        MetricsLog().write_csv(path)
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"

    def test_step_monotonicity_per_stream(self):
        log = MetricsLog()
        log.append(MetricsRow(3, 0, "train", 1.0, None, 1.0, None, False, None))
        with pytest.raises(ValueError):
            log.append(MetricsRow(3, 0, "train", 1.0, None, 1.0, None, False, None))
        # same step is fine for a different metric stream
        log.append(MetricsRow(3, 0, "eval", 1.0, None, 1.0, None, False, None,
                              metric_name="token_accuracy", metric_value=0.5))
        log.append(MetricsRow(3, 0, "eval", None, None, 1.0, None, False, None,
                              metric_name="bleu", metric_value=10.0))

    def test_skipped_rows_reject_grad_metrics(self):
        log = MetricsLog()
        with pytest.raises(ValueError):
            log.append(MetricsRow(0, 0, "train", 1.0, None, 1.0, 0.7, True, None))


class TestCheckpoint:
    def test_round_trip_exact_bytes(self, tmp_path):
        cfg = base_config(tmp_path, dtype="mixed", loss_scaling="Backoff")
        replica = build_replica(cfg, 0, 1)
        from miniseq.distrib import WorkerGroup
        group = WorkerGroup([replica], mode="allreduce")
        for s in range(3):
            group.run_step(s)
        save_checkpoint(cfg.checkpoint_dir, replica, 3, cfg.content_hash())
        fresh = build_replica(cfg, 0, 1)
        manifest = load_checkpoint(cfg.checkpoint_dir, fresh)
        assert manifest["step"] == 3
        assert fresh.parameter_digest() == replica.parameter_digest()
        for name in replica.state.master:
            assert np.array_equal(fresh.state.master[name].f32(),
                                  replica.state.master[name].f32())
        assert fresh.optimizer.t == replica.optimizer.t
        assert fresh.state.scale_state.to_dict() == replica.state.scale_state.to_dict()

    def test_fp32_round_trip_restores_master_as_the_weights(self, tmp_path):
        cfg = base_config(tmp_path)
        replica = build_replica(cfg, 0, 1)
        replica.apply(replica.unscale(replica.forward_backward(0)[2]), 0)
        save_checkpoint(cfg.checkpoint_dir, replica, 1, cfg.content_hash())
        fresh = build_replica(cfg, 0, 1)
        load_checkpoint(cfg.checkpoint_dir, fresh)
        assert fresh.parameter_digest() == replica.parameter_digest()
        assert set(fresh.state.master) == set(replica.state.master)
        for name, master in fresh.state.master.items():
            assert master is fresh.model.variables[name].value
            assert np.array_equal(master.f32(), replica.state.master[name].f32())

    def test_weights_stored_once_and_older_var_records_ignored(self, tmp_path):
        from miniseq.tensor import read_named_tensor, write_named_tensor
        cfg = base_config(tmp_path, dtype="mixed", loss_scaling="Backoff")
        replica = build_replica(cfg, 0, 1)
        replica.apply(replica.unscale(replica.forward_backward(0)[2]), 0)
        save_checkpoint(cfg.checkpoint_dir, replica, 1, cfg.content_hash())
        path = os.path.join(cfg.checkpoint_dir, "weights.bin")
        with open(path, "rb") as f:
            names = [name for name, _ in iter(lambda: read_named_tensor(f), None)]
        assert sorted(n for n in names if not n.startswith("opt:")) == \
            sorted(f"master:{name}" for name in replica.model.variables)
        # an older checkpoint also held the parameters as var: records
        with open(path, "ab") as f:
            for name, v in replica.model.variables.items():
                write_named_tensor(f, f"var:{name}", v.value)
        fresh = build_replica(cfg, 0, 1)
        load_checkpoint(cfg.checkpoint_dir, fresh)
        assert fresh.parameter_digest() == replica.parameter_digest()

    def test_checkpoint_of_the_other_dtype_mode_raises(self, tmp_path):
        cfg = base_config(tmp_path, dtype="mixed")
        save_checkpoint(cfg.checkpoint_dir, build_replica(cfg, 0, 1), 0, cfg.content_hash())
        with pytest.raises(CheckpointError, match="'mixed' model"):
            load_checkpoint(cfg.checkpoint_dir, build_replica(base_config(tmp_path), 0, 1))

    @pytest.mark.parametrize("damage", ["dropped", "reshaped"])
    def test_missing_or_mismatched_master_records_raise(self, tmp_path, damage):
        from miniseq.tensor import Tensor, read_named_tensor, write_named_tensor
        cfg = base_config(tmp_path)
        replica = build_replica(cfg, 0, 1)
        save_checkpoint(cfg.checkpoint_dir, replica, 0, cfg.content_hash())
        path = os.path.join(cfg.checkpoint_dir, "weights.bin")
        with open(path, "rb") as f:
            records = list(iter(lambda: read_named_tensor(f), None))
        with open(path, "wb") as f:
            for name, t in records:
                if name.startswith("master:") and damage == "reshaped":
                    t = Tensor(t.data.reshape(-1)[:1].copy(), t.dtype)
                if not name.startswith("master:") or damage == "reshaped":
                    write_named_tensor(f, name, t)
        with pytest.raises(CheckpointError, match="master"):
            load_checkpoint(cfg.checkpoint_dir, build_replica(cfg, 0, 1))

    def test_missing_checkpoint_raises(self, tmp_path):
        cfg = base_config(tmp_path)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "nowhere"), build_replica(cfg, 0, 1))

    def test_resume_is_bit_identical_fp32(self, tmp_path):
        straight = base_config(tmp_path, max_steps=10,
                               checkpoint_dir=str(tmp_path / "a"))
        run(straight, "train")
        resumed = base_config(tmp_path, max_steps=5, checkpoint_dir=str(tmp_path / "b"))
        run(resumed, "train")
        resumed2 = base_config(tmp_path, max_steps=10, checkpoint_dir=str(tmp_path / "b"))
        run(resumed2, "train")
        a = (tmp_path / "a" / "weights.bin").read_bytes()
        b = (tmp_path / "b" / "weights.bin").read_bytes()
        assert a == b

    def test_resume_keeps_metrics_history(self, tmp_path):
        for steps in (5, 10):
            result = run(base_config(tmp_path, max_steps=steps, eval_every=5), "train_eval")
        with open(result.artifacts["metrics_csv"], encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert lines[0] == CSV_HEADER and CSV_HEADER not in lines[1:]
        fields = [line.split(",") for line in lines[1:]]
        assert [int(f[0]) for f in fields if f[2] == "train"] == list(range(10))
        assert [int(f[0]) for f in fields if f[-2] == "token_accuracy"] == [4, 9]

    def test_k4_resume_reads_weights_once_and_matches_an_unbroken_run(self, tmp_path,
                                                                      monkeypatch):
        from miniseq import checkpoint
        from miniseq.distrib import WorkerGroup
        from miniseq.runner import _resume

        def digests_after(cfg, steps):
            replicas = [build_replica(cfg, r, 4) for r in range(4)]
            start = _resume(cfg, replicas)
            group = WorkerGroup(replicas, mode="allreduce")
            try:
                for step in range(start, steps):
                    group.run_step(step)
                return group.parameter_digests()
            finally:
                group.close()

        def config(directory, steps):
            return base_config(tmp_path, dtype="mixed", loss_scaling="Backoff", num_workers=4,
                               use_allreduce=True, batch_size_per_gpu=2, max_steps=steps,
                               checkpoint_dir=str(tmp_path / directory))

        unbroken = digests_after(config("a", 6), 6)
        run(config("b", 3), "train")
        decodes = []
        read = checkpoint.read_named_tensor

        def counting_read(f):
            record = read(f)
            if record is None:
                decodes.append(f.name)
            return record

        monkeypatch.setattr(checkpoint, "read_named_tensor", counting_read)
        resumed = digests_after(config("b", 6), 6)
        assert len(decodes) == 1
        assert resumed == unbroken


class TestRunModes:
    def test_train_writes_checkpoint_and_full_csv(self, tmp_path):
        cfg = base_config(tmp_path, max_steps=12)
        result = run(cfg, "train")
        assert result.status == 0
        with open(result.artifacts["metrics_csv"], encoding="utf-8") as f:
            lines = f.read().splitlines()
        train_rows = [l for l in lines[1:] if l.split(",")[2] == "train"]
        assert len(train_rows) == 12
        assert os.path.exists(os.path.join(cfg.checkpoint_dir, "weights.bin"))

    def test_train_eval_row_groups(self, tmp_path):
        cfg = base_config(tmp_path, max_steps=30, eval_every=10)
        result = run(cfg, "train_eval")
        with open(result.artifacts["metrics_csv"], encoding="utf-8") as f:
            lines = f.read().splitlines()
        eval_acc_rows = [l for l in lines[1:]
                         if l.split(",")[2] == "eval" and "token_accuracy" in l]
        assert len(eval_acc_rows) == 3

    def test_eval_layer_built_once_per_run(self, tmp_path, monkeypatch):
        built = []

        class Counted(CopyTask):
            def __init__(self, **params):
                built.append(params.get("split", "train"))
                super().__init__(**params)

        monkeypatch.setitem(DATA_LAYERS, "copy_task", Counted)
        evaluated = []
        real_evaluate = runner.evaluate
        monkeypatch.setattr(runner, "evaluate",
                            lambda *args: evaluated.append(args[3]) or real_evaluate(*args))
        cfg = base_config(tmp_path, max_steps=30, eval_every=10)
        assert run(cfg, "train_eval").status == 0
        assert evaluated == [9, 19, 29]
        assert built.count("eval") == 1

    def test_missing_eval_split_fails_before_the_first_step(self, tmp_path, monkeypatch):
        src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
        src.write_text("a b c\nd e\n", encoding="utf-8")
        tgt.write_text("c b a\ne d\n", encoding="utf-8")
        cfg = base_config(
            tmp_path, data_layer="parallel_text",
            data_layer_params={"source_file": str(src), "target_file": str(tgt)},
            max_steps=6, eval_every=3, batch_size_per_gpu=2)
        steps = []
        real_run_step = WorkerGroup.run_step
        monkeypatch.setattr(WorkerGroup, "run_step",
                            lambda self, step: steps.append(step) or real_run_step(self, step))
        with pytest.raises(ValueError, match="eval_source_file"):
            run(cfg, "train_eval")
        assert steps == []
        assert not os.path.exists(os.path.join(cfg.checkpoint_dir, "metrics.csv"))
        assert not checkpoint_exists(cfg.checkpoint_dir)

    def test_eval_requires_checkpoint(self, tmp_path):
        cfg = base_config(tmp_path)
        with pytest.raises(CheckpointError):
            run(cfg, "eval")

    def test_evaluate_summary_fields(self, tmp_path):
        cfg = base_config(tmp_path, max_steps=5)
        run(cfg, "train")
        result = run(cfg, "eval")
        for key in ("loss", "token_accuracy", "bleu", "wer", "exact_match"):
            assert key in result.summary

    def test_infer_requires_paths(self, tmp_path):
        cfg = base_config(tmp_path, max_steps=2)
        run(cfg, "train")
        with pytest.raises(ValueError):
            run(cfg, "infer")

    def test_infer_writes_one_line_per_sequence(self, tmp_path):
        cfg = base_config(tmp_path, max_steps=2)
        run(cfg, "train")
        inp = tmp_path / "in.txt"
        inp.write_text("4 5 6 7\n8 9 10 11\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        result = run(cfg, "infer", infer_input=str(inp), infer_output=str(out))
        assert result.status == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2

    def test_infer_decodes_an_empty_line_to_an_empty_line(self, tmp_path):
        cfg = base_config(tmp_path, max_steps=20)
        run(cfg, "train")
        lines = ["4 5", "", "6 7"]
        inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
        inp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = run(cfg, "infer", infer_input=str(inp), infer_output=str(out))
        assert result.summary == {"sequences": 3}
        decoded = out.read_text(encoding="utf-8").splitlines()
        assert decoded[1] == ""
        assert [decoded[0], decoded[2]] == self.per_line_decodes(cfg, ["4 5", "6 7"])

    def per_line_decodes(self, cfg, lines):
        replica = build_replica(cfg, 0, 1)
        load_checkpoint(cfg.checkpoint_dir, replica)
        vocab = replica.data.vocab
        out = []
        for line in lines:
            ids = np.array([vocab.encode(line.split())], dtype=np.int64)
            decoded = replica.model.greedy_decode(ids, np.ones(ids.shape, dtype=np.float32),
                                                  max_len=cfg.infer_max_len)
            out.append(" ".join(vocab.decode(decoded[0])))
        return out

    @pytest.mark.parametrize("fixture", ["reverse-eval-200", "mixed-lengths"])
    def test_infer_batches_equal_per_line_decoding(self, tmp_path, fixture):
        if fixture == "reverse-eval-200":  # the held-out lines of the CLI acceptance test
            cfg = base_config(tmp_path, data_layer="reverse_task", max_steps=40,
                              data_layer_params={"vocab_size": 16, "seq_len": 8, "seed": 12},
                              batch_size_per_gpu=32, infer_max_len=12)
            layer = DATA_LAYERS["reverse_task"](vocab_size=16, seq_len=8, seed=12,
                                                 split="eval")
            lines = [" ".join(layer.vocab.decode(layer.example(i)[0])) for i in range(200)]
        else:  # lengths 1..9 in random order; batches of 3 split each length group
            cfg = base_config(tmp_path, max_steps=40, batch_size_per_gpu=3, infer_max_len=10)
            rng = np.random.default_rng(6)
            lines = [" ".join(str(t) for t in rng.integers(4, 12, size=rng.integers(1, 10)))
                     for _ in range(60)]
        run(cfg, "train")
        inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
        inp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = run(cfg, "infer", infer_input=str(inp), infer_output=str(out))
        assert result.summary == {"sequences": len(lines)}
        assert out.read_text(encoding="utf-8").splitlines() == self.per_line_decodes(cfg, lines)

    def test_mixed_config_selects_policy(self, tmp_path):
        cfg = base_config(tmp_path, dtype="mixed", loss_scaling="LogMax", max_steps=3)
        replica = build_replica(cfg, 0, 1)
        from miniseq.mixed_precision import LogMaxScale
        assert isinstance(replica.state.scale_state, LogMaxScale)

    def test_regularizer_patterns_register(self, tmp_path):
        cfg = base_config(tmp_path, regularizers=[
            {"pattern": "enc/*", "kind": "l2_weight_decay", "lambda": 1e-4}])
        replica = build_replica(cfg, 0, 1)
        names = [n for n, _, _ in replica.state.registry.entries]
        assert names and all(n.startswith("enc/") for n in names)

    def test_mixed_logmax_training_end_to_end(self, tmp_path):
        cfg = base_config(tmp_path, dtype="mixed", loss_scaling="LogMax", max_steps=25)
        result = run(cfg, "train")
        assert result.status == 0
        replica = build_replica(cfg, 0, 1)
        manifest = load_checkpoint(cfg.checkpoint_dir, replica)
        scale = manifest["loss_scale_state"]["scale"]
        assert 1.0 <= scale <= 2.0 ** 24
        assert manifest["loss_scale_state"]["kind"] == "logmax"

    def test_parallel_text_through_runner(self, tmp_path):
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        pairs = [("a b c", "c b a"), ("d e", "e d"), ("a c e", "e c a"), ("b d", "d b")]
        src.write_text("\n".join(s for s, _ in pairs) + "\n", encoding="utf-8")
        tgt.write_text("\n".join(t for _, t in pairs) + "\n", encoding="utf-8")
        cfg = base_config(
            tmp_path, data_layer="parallel_text",
            data_layer_params={"source_file": str(src), "target_file": str(tgt)},
            max_steps=8, batch_size_per_gpu=4)
        result = run(cfg, "train")
        assert result.status == 0
        with open(result.artifacts["metrics_csv"], encoding="utf-8") as f:
            rows = f.read().splitlines()[1:]
        # batch 4 over a 4-line corpus: the epoch column advances every step
        assert rows[0].split(",")[1] == "1"
        assert rows[-1].split(",")[1] == "8"
        inp = tmp_path / "in.txt"
        inp.write_text("a b zzz\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        result = run(cfg, "infer", infer_input=str(inp), infer_output=str(out))
        assert result.status == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1


class TestCli:
    def test_missing_config_exits_2(self):
        from miniseq.cli import main
        assert main(["--config_file", "/nonexistent.json", "--mode", "train"]) == 2

    def test_cli_train_and_eval(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg = base_config(tmp_path, max_steps=5)
        cfg_path.write_text(cfg.to_json(), encoding="utf-8")
        from miniseq.cli import main
        assert main(["--config_file", str(cfg_path), "--mode", "train"]) == 0
        assert main(["--config_file", str(cfg_path), "--mode", "eval"]) == 0

    def test_cli_subprocess_smoke(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg = base_config(tmp_path, max_steps=3)
        cfg_path.write_text(cfg.to_json(), encoding="utf-8")
        r = subprocess.run(
            [sys.executable, "-m", "miniseq.cli", "--config_file", str(cfg_path),
             "--mode", "train", "--enable_logs"],
            capture_output=True, text=True, timeout=120)
        assert r.returncode == 0, r.stderr
        assert "step 0" in r.stdout

    def test_cli_eval_without_checkpoint_fails(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg = base_config(tmp_path, checkpoint_dir=str(tmp_path / "none"))
        cfg_path.write_text(cfg.to_json(), encoding="utf-8")
        from miniseq.cli import main
        assert main(["--config_file", str(cfg_path), "--mode", "eval"]) == 1



def _free_ports(n):
    socks = [socket.socket() for _ in range(n)]
    for s in socks:
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def test_tcp_run_from_the_python_api_matches_in_process(tmp_path):
    """run() starts a TCP group from a Config alone, with no config file, and
    writes the same weights.bin bytes as the in-process ring."""
    common = dict(max_steps=6, eval_every=0, num_workers=2, use_allreduce=True)
    tcp = base_config(tmp_path, **common, transport="tcp",
                      worker_addresses=[f"127.0.0.1:{p}" for p in _free_ports(2)],
                      checkpoint_dir=str(tmp_path / "tcp"))
    in_process = base_config(tmp_path, **common, checkpoint_dir=str(tmp_path / "in_process"))
    assert run(tcp, "train").status == 0
    assert run(in_process, "train").status == 0
    assert ((tmp_path / "tcp" / "weights.bin").read_bytes()
            == (tmp_path / "in_process" / "weights.bin").read_bytes())


def test_tcp_launch_stops_the_group_and_names_a_killed_rank(tmp_path, capfd):
    """Kill rank 1 of a 3-process TCP run mid-training: the launcher must stop
    ranks 0 and 2 and return non-zero within seconds, naming rank 1."""
    cfg = base_config(tmp_path, max_steps=1_000_000, eval_every=0, num_workers=3,
                      use_allreduce=True, transport="tcp",
                      worker_addresses=[f"127.0.0.1:{p}" for p in _free_ports(3)])
    ranks, killed_at = [], []

    def kill_rank_1_after_step_3():
        deadline = time.monotonic() + 120
        out = ""
        while "step 3 " not in out:  # rank 0 prints one line per step
            if time.monotonic() > deadline:
                return
            time.sleep(0.02)
            out += capfd.readouterr().out
        ranks.extend(p for p in multiprocessing.active_children()
                     if p.name.startswith("miniseq-rank-"))
        next(p for p in ranks if p.name == "miniseq-rank-1").kill()
        killed_at.append(time.monotonic())

    killer = threading.Thread(target=kill_rank_1_after_step_3, daemon=True)
    killer.start()
    result = run(cfg, "train", enable_logs=True)
    returned_at = time.monotonic()
    killer.join(timeout=10)
    assert killed_at, "rank 0 never reached step 3"
    assert returned_at - killed_at[0] < 10.0
    assert result.status != 0
    assert result.summary["failed_rank"] == 1
    assert len(ranks) == 3 and all(p.exitcode is not None for p in ranks)
    assert "worker rank 1 exited" in capfd.readouterr().err


EXAMPLE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "example_configs")


@pytest.mark.parametrize("name", sorted(os.listdir(EXAMPLE_DIR)))
def test_example_config_trains_two_steps(name, tmp_path):
    config = load_config(os.path.join(EXAMPLE_DIR, name))
    config.max_steps = 2
    config.checkpoint_dir = str(tmp_path / "ckpt")
    assert run(config, "train").status == 0
