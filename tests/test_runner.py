import itertools
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
        # a static scale has no bounds to keep
        big = parse_config(json.dumps({"dtype": "mixed", "loss_scale": 2.0 ** 30}))
        assert big.loss_scale == 2.0 ** 30

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

    @pytest.mark.parametrize("scale", [-4.0, 0.0])
    def test_non_positive_static_scale_rejected(self, scale):
        # caught at parse time, before a TCP launch spawns any rank
        with pytest.raises(ConfigError, match="loss_scale must be positive"):
            parse_config(json.dumps({"dtype": "mixed", "loss_scale": scale}))

    @pytest.mark.parametrize("policy,params", [
        ("LogMax", {"scale_min": 0.0}),  # log2(0) on the first clean step
        ("Backoff", {"scale": 4.0, "scale_min": 8.0}),  # an overflow would raise the scale
        ("Backoff", {"scale": 2.0 ** 25}),  # a clean streak would lower it
        ("LogMax", {"scale_min": 4.0, "scale_max": 2.0}),
    ], ids=["logmax-min-zero", "backoff-min-above-scale", "backoff-above-max",
            "logmax-min-above-max"])
    def test_dynamic_scale_outside_its_bounds_rejected(self, policy, params):
        with pytest.raises(ConfigError,
                           match="loss_scaling: a .* scale needs 0 < scale_min <= scale"):
            parse_config(json.dumps({"dtype": "mixed", "loss_scaling": policy,
                                     "loss_scaling_params": params}))

    @pytest.mark.parametrize("doc,problem", [
        # 0/0 in Adam's bias correction: NaN losses from step 1
        ({"optimizer_params": {"beta1": 1.0}}, "optimizer: beta1 must lie in [0, 1), got 1.0"),
        ({"optimizer_params": {"beta2": 1.0}}, "optimizer: beta2 must lie in [0, 1), got 1.0"),
        ({"optimizer_params": {"beta1": -0.5}},
         "optimizer: beta1 must lie in [0, 1), got -0.5"),
        # 0/0 where m = v = 0: NaN in the embedding rows no batch touches
        ({"optimizer_params": {"epsilon": 0.0}}, "optimizer: epsilon must be positive, got 0.0"),
        # a ZeroDivisionError at the first step
        ({"lr_policy": "exp_decay", "lr_policy_params": {"decay_steps": 0}},
         "lr_policy: decay_steps must be >= 1, got 0"),
        # the rate doubles every step
        ({"lr_policy": "exp_decay", "lr_policy_params": {"decay_steps": -1}},
         "lr_policy: decay_steps must be >= 1, got -1"),
    ], ids=["adam-beta1-one", "adam-beta2-one", "adam-beta1-negative", "adam-epsilon-zero",
            "decay-steps-zero", "decay-steps-negative"])
    def test_update_breaking_optimizer_and_lr_params_rejected(self, doc, problem):
        with pytest.raises(ConfigError) as e:
            parse_config(json.dumps(doc))
        assert str(e.value) == problem

    @pytest.mark.parametrize("policy,params,problem", [
        ("Backoff", {"backoff_factor": 0.5}, "backoff_factor must be > 1, got 0.5"),  # grows
        ("Backoff", {"backoff_factor": 1.0}, "backoff_factor must be > 1, got 1.0"),  # stays
        ("Backoff", {"growth_factor": 0.5}, "growth_factor must be >= 1, got 0.5"),  # shrinks
        ("Backoff", {"growth_interval": 0}, "growth_interval must be >= 1, got 0"),  # never grows
        ("LogMax", {"decay": 1.5}, "decay must lie in [0, 1), got 1.5"),  # negative variance
    ], ids=["backoff-factor-half", "backoff-factor-one", "growth-factor-half",
            "growth-interval-zero", "logmax-decay-above-one"])
    def test_scale_policy_moving_the_wrong_way_rejected(self, policy, params, problem):
        with pytest.raises(ConfigError) as e:
            parse_config(json.dumps({"dtype": "mixed", "loss_scaling": policy,
                                     "loss_scaling_params": params}))
        assert str(e.value) == f"loss_scaling: {problem}"

    @pytest.mark.parametrize("doc,key", [
        ({"optimizer": "sgd", "optimizer_params": {"beta1": 0.5}}, "'beta1'"),
        ({"optimizer": "Momentum", "optimizer_params": {"epsilon": 1e-6}}, "'epsilon'"),
        ({"lr_policy": "constant", "lr_policy_params": {"decay_rate": 0.5}}, "'decay_rate'"),
        ({"dtype": "mixed", "loss_scaling_params": {"growth_interval": 10}},
         "loss_scaling_params"),
    ])
    def test_params_key_the_kind_never_reads_rejected(self, doc, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(json.dumps(doc))

    def test_json_error_reports_position(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(b"{broken")

    def test_unknown_kinds_rejected(self):
        for key, value in [("encoder", "transformer"), ("data_layer", "wmt"),
                           ("optimizer", "lamb"), ("loss_scaling", "Adaptive"),
                           ("transport", "udp")]:
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

    def test_tcp_needs_use_allreduce(self):
        # TCP ranks always run the ring, so a tower request would be silently ignored
        with pytest.raises(ConfigError, match="transport 'tcp'.*use_allreduce"):
            parse_config(json.dumps(
                {"transport": "tcp", "num_workers": 2, "use_allreduce": False,
                 "worker_addresses": ["127.0.0.1:1", "127.0.0.1:2"]}))

    @pytest.mark.parametrize("key,value", [
        ("loss_scale", 128.0), ("loss_scaling", "Backoff"),
        ("loss_scaling_params", {"growth_interval": 5})])
    def test_fp32_refuses_every_loss_scaling_key(self, key, value):
        with pytest.raises(ConfigError, match="loss_scaling: float32 reads no"):
            parse_config(json.dumps({"dtype": "float32", key: value}))

    @pytest.mark.parametrize("regularizers,problem", [
        ([{"pattern": "*", "lambda": -1.0}], "coefficient must be positive"),
        ([{"pattern": "*", "kind": "l1", "lambda": 1e-4}], "unknown regularizer kind 'l1'"),
        ([{"pattern": "enc/typo*", "lambda": 1e-4}], "matches no trainable variable"),
        ([{"pattern": "enc/*", "lambda": 1e-4}, {"pattern": "*/emb", "lambda": 1e-5}],
         "'enc/emb' already registered"),
    ])
    def test_regularizer_entries_checked_at_parse_time(self, regularizers, problem):
        with pytest.raises(ConfigError) as e:
            parse_config(json.dumps({"regularizers": regularizers}))
        assert str(e.value).startswith(f"regularizers: pattern {regularizers[-1]['pattern']!r}")
        assert problem in str(e.value)

    def test_malformed_regularizer_entry_rejected(self):
        for entry in ({"pattern": "*"}, {"pattern": "*", "lambda": 1e-4, "lamda": 1e-4}):
            with pytest.raises(ConfigError, match="regularizers: entry .* needs 'pattern'"):
                parse_config(json.dumps({"regularizers": [entry]}))

    def test_batch_size_validated(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"batch_size_per_gpu": 0}))
        with pytest.raises(ConfigError, match="max_steps must be >= 1"):
            parse_config(json.dumps({"max_steps": 0}))

    def test_eval_batches_validated(self):
        # no eval batch would average an empty list into NaN metrics
        with pytest.raises(ConfigError, match="eval_batches must be >= 1"):
            parse_config(json.dumps({"eval_batches": 0}))

    @pytest.mark.parametrize("key,doc,typo", [
        ("optimizer_params", {"optimizer": "momentum", "optimizer_params": {"momentun": 0.5}},
         "momentun"),
        ("lr_policy_params", {"lr_policy_params": {"learning_rat": 0.1}}, "learning_rat"),
        ("loss_scaling_params", {"dtype": "mixed", "loss_scaling": "Backoff",
                                 "loss_scaling_params": {"growth_intervall": 10}},
         "growth_intervall"),
        ("encoder_params", {"encoder_params": {"hiden": 8}}, "hiden"),
        ("decoder_params", {"decoder_params": {"emb": 8}}, "emb"),
        ("data_layer_params", {"data_layer_params": {"vocab_sise": 12}}, "vocab_sise"),
    ])
    def test_misspelt_params_key_is_a_config_error(self, key, doc, typo):
        if key == "data_layer_params":
            # the data layer may read files, so it is built with the replica
            cfg = parse_config(json.dumps(doc))
            with pytest.raises(ConfigError, match=f"{key}: .*'{typo}'"):
                build_replica(cfg, 0, 1)
        else:
            with pytest.raises(ConfigError, match=f"'{typo}'"):
                parse_config(json.dumps(doc))

    def test_params_values_checked_at_parse_time(self):
        for doc in ({"lr_policy_params": {"learning_rate": -1.0}},
                    {"encoder_params": {"hidden": 0}},
                    {"dtype": "float16"}, {"loss": "hinge"}, {"decoder": "transformer"},
                    [{"max_steps": 5}]):  # the root must be an object
            with pytest.raises(ConfigError):
                parse_config(json.dumps(doc))


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

    def test_failed_restore_changes_nothing(self, tmp_path):
        from miniseq.tensor import read_named_tensor, write_named_tensor
        cfg = base_config(tmp_path, dtype="mixed", loss_scaling="Backoff")
        source, replica = build_replica(cfg, 0, 1), build_replica(cfg, 0, 1)
        for steps, r in ((3, source), (1, replica)):
            group = WorkerGroup([r])
            for s in range(steps):
                group.run_step(s)
        save_checkpoint(cfg.checkpoint_dir, source, 3, cfg.content_hash())
        path = os.path.join(cfg.checkpoint_dir, "weights.bin")
        with open(path, "rb") as f:
            records = list(iter(lambda: read_named_tensor(f), None))
        last = max(name for name, _ in records if name.startswith("master:"))
        assert last == "master:enc/l0/w"
        with open(path, "wb") as f:
            for name, t in records:
                if name != last:
                    write_named_tensor(f, name, t)

        def state():
            return (replica.parameter_digest(), replica.state.scale_state.to_dict(),
                    {n: m.data.tobytes() for n, m in replica.state.master.items()},
                    {(v, k): a.tobytes() for v, d in replica.optimizer.slots.items()
                     for k, a in d.items()}, replica.optimizer.t)

        before = state()
        assert before[1] != source.state.scale_state.to_dict()
        with pytest.raises(CheckpointError, match="'enc/l0/w'"):
            load_checkpoint(cfg.checkpoint_dir, replica)
        assert state() == before

    @pytest.mark.parametrize("damage", ["stripped", "misshapen", "stray"])
    def test_optimizer_records_other_than_the_slots_are_refused(self, tmp_path, damage):
        from miniseq.tensor import Tensor, read_named_tensor, write_named_tensor
        cfg = base_config(tmp_path, dtype="mixed", loss_scaling="Backoff", max_steps=3,
                          eval_every=0)
        run(cfg, "train")
        path = os.path.join(cfg.checkpoint_dir, "weights.bin")
        with open(path, "rb") as f:
            records = list(iter(lambda: read_named_tensor(f), None))
        slots = [name for name, _ in records if name.startswith("opt:")]
        assert len(slots) == 2 * len(build_replica(cfg, 0, 1).state.master)  # Adam's m and v
        with open(path, "wb") as f:
            for name, t in records:
                if name == "opt:enc/l0/w:m" and damage == "misshapen":
                    t = Tensor(t.data.reshape(-1)[:-1].copy(), t.dtype)
                if not name.startswith("opt:") or damage != "stripped":
                    write_named_tensor(f, name, t)
            if damage == "stray":
                write_named_tensor(f, "opt:enc/l0/w:u", Tensor.from_array(np.zeros(1)))
        files = {name: (tmp_path / "ckpt" / name).read_bytes()
                 for name in ("weights.bin", "manifest.json", "metrics.csv")}

        replica = build_replica(cfg, 0, 1)
        WorkerGroup([replica]).run_step(0)

        def state():
            return (replica.parameter_digest(), replica.optimizer.t,
                    {(v, k): a.tobytes() for v, d in replica.optimizer.slots.items()
                     for k, a in d.items()}, replica.state.scale_state.to_dict())

        before = state()
        first = {"stripped": "'opt:dec/b:m'", "misshapen": "'opt:enc/l0/w:m'",
                 "stray": "'opt:enc/l0/w:u'"}[damage]
        with pytest.raises(CheckpointError, match=first):
            load_checkpoint(cfg.checkpoint_dir, replica)
        assert state() == before
        with pytest.raises(CheckpointError, match=first):
            run(base_config(tmp_path, dtype="mixed", loss_scaling="Backoff", max_steps=6,
                            eval_every=0), "train")
        assert {name: (tmp_path / "ckpt" / name).read_bytes() for name in files} == files

    def test_a_checkpoint_before_the_first_step_resumes_without_slots(self, tmp_path):
        cfg = base_config(tmp_path, max_steps=2, eval_every=0)
        save_checkpoint(cfg.checkpoint_dir, build_replica(cfg, 0, 1), 0, cfg.content_hash())
        run(cfg, "train")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert (manifest["step"], manifest["optimizer_t"]) == (2, 2)

    def test_scale_state_without_a_field_restores_nothing(self, tmp_path):
        from miniseq.mixed_precision import BackoffScale
        policy = BackoffScale(scale=2.0 ** 20)
        with pytest.raises(ValueError, match="'good_steps'"):
            policy.load_dict({"kind": "backoff", "scale": 262144.0})
        assert policy.to_dict() == {"kind": "backoff", "scale": 2.0 ** 20, "good_steps": 0}

        cfg = base_config(tmp_path, dtype="mixed", loss_scaling="Backoff",
                          loss_scaling_params={"scale": 2.0 ** 20, "growth_interval": 2})
        source, replica = build_replica(cfg, 0, 1), build_replica(cfg, 0, 1)
        for steps, r in ((3, source), (1, replica)):
            group = WorkerGroup([r])
            for s in range(steps):
                group.run_step(s)
        save_checkpoint(cfg.checkpoint_dir, source, 3, cfg.content_hash())
        path = os.path.join(cfg.checkpoint_dir, "manifest.json")
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
        del manifest["loss_scale_state"]["good_steps"]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(manifest, f)

        def state():
            return (replica.parameter_digest(), replica.state.scale_state.to_dict(),
                    {n: m.data.tobytes() for n, m in replica.state.master.items()},
                    replica.optimizer.t)

        before = state()
        assert before[1]["scale"] != manifest["loss_scale_state"]["scale"]
        with pytest.raises(CheckpointError, match="'good_steps'"):
            load_checkpoint(cfg.checkpoint_dir, replica)
        assert state() == before

    def test_resume_at_or_past_max_steps_keeps_the_checkpoint(self, tmp_path):
        def config(directory, steps):
            return base_config(tmp_path, max_steps=steps, eval_every=0,
                               checkpoint_dir=str(tmp_path / directory))

        run(config("unbroken", 8), "train")
        run(config("b", 6), "train")
        weights = (tmp_path / "b" / "weights.bin").read_bytes()
        for steps in (3, 6):
            assert run(config("b", steps), "train").summary == {}
            manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
            assert (manifest["step"], manifest["optimizer_t"]) == (6, 6)
            assert (tmp_path / "b" / "weights.bin").read_bytes() == weights
        run(config("b", 8), "train")
        assert ((tmp_path / "b" / "weights.bin").read_bytes()
                == (tmp_path / "unbroken" / "weights.bin").read_bytes())
        lines = (tmp_path / "b" / "metrics.csv").read_text().splitlines()[1:]
        assert [int(line.split(",")[0]) for line in lines] == list(range(8))

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

    @pytest.mark.parametrize("saved,current",
                             list(itertools.permutations([None, "Backoff", "LogMax"], 2)))
    def test_resume_refuses_another_policys_scale_state(self, tmp_path, saved, current):
        kind = {None: "static", "Backoff": "backoff", "LogMax": "logmax"}

        def stepped(scaling, directory):
            cfg = base_config(tmp_path, dtype="mixed", loss_scaling=scaling,
                              checkpoint_dir=str(tmp_path / directory))
            replica = build_replica(cfg, 0, 1)
            group = WorkerGroup([replica], mode="allreduce")
            for s in range(2):
                group.run_step(s)
            group.close()
            return cfg, replica

        def state(replica):
            slots = {(v, k): a.tobytes() for v, d in replica.optimizer.slots.items()
                     for k, a in d.items()}
            return (replica.parameter_digest(), replica.state.scale_state.to_dict(),
                    replica.optimizer.t, slots)

        cfg, source = stepped(saved, "saved")
        save_checkpoint(cfg.checkpoint_dir, source, 2, cfg.content_hash())
        _, replica = stepped(current, "current")
        before = state(replica)
        with pytest.raises(CheckpointError, match=f"'{kind[saved]}'.*'{kind[current]}'"):
            load_checkpoint(cfg.checkpoint_dir, replica)
        assert state(replica) == before

    def test_resume_is_bit_identical_mixed_logmax(self, tmp_path):
        def config(directory, steps):
            return base_config(tmp_path, dtype="mixed", loss_scaling="LogMax", max_steps=steps,
                               eval_every=0, checkpoint_dir=str(tmp_path / directory))

        run(config("a", 6), "train")
        run(config("b", 3), "train")
        run(config("b", 6), "train")
        digests, scale_states = [], []
        for directory in ("a", "b"):
            replica = build_replica(config(directory, 6), 0, 1)
            manifest = load_checkpoint(str(tmp_path / directory), replica)
            digests.append(replica.parameter_digest())
            scale_states.append(manifest["loss_scale_state"])
        assert digests[0] == digests[1]
        assert scale_states[0] == scale_states[1]
        assert scale_states[0]["mean"] is not None
        assert ((tmp_path / "a" / "weights.bin").read_bytes()
                == (tmp_path / "b" / "weights.bin").read_bytes())


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

    def test_eval_rows_carry_the_epoch_of_their_train_step(self, tmp_path):
        # 10 training pairs and 3 eval pairs: the epoch counts training
        # examples, not eval ones
        pairs = [(f"a{i} b", f"b a{i}") for i in range(10)]
        files = {}
        for name, lines in (("src", [p[0] for p in pairs]), ("tgt", [p[1] for p in pairs]),
                            ("eval_src", [p[0] for p in pairs[:3]]),
                            ("eval_tgt", [p[1] for p in pairs[:3]])):
            files[name] = tmp_path / f"{name}.txt"
            files[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = base_config(
            tmp_path, data_layer="parallel_text",
            data_layer_params={"source_file": str(files["src"]),
                               "target_file": str(files["tgt"]),
                               "eval_source_file": str(files["eval_src"]),
                               "eval_target_file": str(files["eval_tgt"])},
            max_steps=10, eval_every=5, eval_batches=1, batch_size_per_gpu=2)
        result = run(cfg, "train_eval")
        with open(result.artifacts["metrics_csv"], encoding="utf-8") as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        train_epoch = {int(r[0]): r[1] for r in rows if r[2] == "train"}
        eval_rows = [r for r in rows if r[2] == "eval"]
        assert [int(r[0]) for r in eval_rows] == [4] * 3 + [9] * 3
        assert [train_epoch[4], train_epoch[9]] == ["1", "2"]
        for r in eval_rows:
            assert r[1] == train_epoch[int(r[0])]

    def test_enable_logs_prints_one_line_per_step(self, tmp_path, capsys):
        cfg = base_config(tmp_path, dtype="mixed", loss_scaling="Backoff",
                          loss_scaling_params={"scale": 2.0 ** 20, "growth_interval": 4},
                          max_steps=6, eval_every=0)
        run(cfg, "train", enable_logs=True)
        lines = capsys.readouterr().out.splitlines()
        with open(os.path.join(cfg.checkpoint_dir, "metrics.csv"), encoding="utf-8") as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        assert lines == [f"step {r[0]} loss {float(r[3]):.6f} scale {float(r[5]):g} "
                         f"{'skipped' if r[7] == '1' else 'applied'}" for r in rows]
        assert [int(r[0]) for r in rows] == list(range(6))
        assert {line.split()[-1] for line in lines} == {"applied", "skipped"}

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

    def test_evaluate_scores_ids_as_their_decoded_tokens(self, tmp_path, monkeypatch):
        from miniseq.blocks import UNK_ID, Seq2SeqModel
        train = ["a b c d e", "e d c b a", "b c d e a", "c a e b d"]
        # "zz" is not in the training vocabulary: its reference id is UNK_ID
        evals = ["a b c d e", "b zz d e a", "e d c zz a b", "c d e a", "d a zz b c", "a e b d c"]
        files = {}
        for name, lines in (("src", train), ("tgt", train), ("esrc", evals), ("etgt", evals)):
            files[name] = tmp_path / f"{name}.txt"
            files[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = base_config(
            tmp_path, data_layer="parallel_text",
            data_layer_params={"source_file": str(files["src"]),
                               "target_file": str(files["tgt"]),
                               "eval_source_file": str(files["esrc"]),
                               "eval_target_file": str(files["etgt"])},
            eval_batches=3, batch_size_per_gpu=2)
        layer = runner._eval_layer(cfg)
        assert UNK_ID in layer.pairs[1][1]
        rows = itertools.count()
        decodes = []

        def echo(self, source_ids, source_mask, max_len=32, *, rep=None):
            """Each reference, with one word changed in every row but every third."""
            out = []
            for _ in range(len(source_ids)):
                i = next(rows)
                ids = list(layer.pairs[i][1])
                if i % 3:
                    j = i % len(ids)
                    ids[j] = layer.vocab.token_to_id["a"] if ids[j] == UNK_ID else UNK_ID
                out.append(ids)
            decodes.extend(out)
            return out

        monkeypatch.setattr(Seq2SeqModel, "greedy_decode", echo)
        summary = evaluate(cfg, build_replica(cfg, 0, 1), MetricsLog(), 0, layer)
        hyps = [layer.vocab.decode(ids) for ids in decodes]
        refs = [layer.vocab.decode(t) for _, t in layer.pairs]
        assert "<unk>" in refs[1]
        assert 0 < summary["bleu"] < 100
        assert summary["bleu"] == bleu4(hyps, refs)
        assert summary["wer"] == wer(hyps, refs)
        assert summary["exact_match"] == float(np.mean([h == r for h, r in zip(hyps, refs)]))
        assert 0 < summary["exact_match"] < 1

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
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        r = subprocess.run(
            [sys.executable, "-m", "miniseq.cli", "--config_file", str(cfg_path),
             "--mode", "train", "--enable_logs"],
            capture_output=True, text=True, timeout=120, env=env)
        assert r.returncode == 0, r.stderr
        assert "step 0" in r.stdout

    def test_cli_reports_a_misspelt_params_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"optimizer": "momentum",
                                        "optimizer_params": {"momentun": 0.5}}),
                            encoding="utf-8")
        from miniseq.cli import main
        assert main(["--config_file", str(cfg_path), "--mode", "train"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: optimizer: ") and "'momentun'" in err
        assert "Traceback" not in err

    def test_cli_worker_overrides_equal_the_config_values(self, tmp_path):
        from miniseq.cli import main
        paths = {}
        for name, kw in (("flags", {}), ("keys", {"num_workers": 2, "use_allreduce": True})):
            paths[name] = tmp_path / f"{name}.json"
            cfg = base_config(tmp_path, max_steps=4, eval_every=0,
                              checkpoint_dir=str(tmp_path / name), **kw)
            paths[name].write_text(cfg.to_json(), encoding="utf-8")
        assert main(["--config_file", str(paths["flags"]), "--mode", "train",
                     "--num_workers", "2", "--use_allreduce", "true"]) == 0
        assert main(["--config_file", str(paths["keys"]), "--mode", "train"]) == 0
        assert ((tmp_path / "flags" / "weights.bin").read_bytes()
                == (tmp_path / "keys" / "weights.bin").read_bytes())

    @pytest.mark.parametrize("text,value", [("true", True), ("YES", True), ("1", True),
                                            ("False", False), ("no", False), ("0", False)])
    def test_cli_bool_spellings(self, text, value):
        from miniseq.cli import build_parser
        args = build_parser().parse_args(["--config_file", "c.json", "--mode", "train",
                                          "--use_allreduce", text])
        assert args.use_allreduce is value

    def test_cli_rejects_a_non_bool_use_allreduce(self, tmp_path, capsys):
        from miniseq.cli import main
        with pytest.raises(SystemExit) as e:
            main(["--config_file", str(tmp_path / "c.json"), "--mode", "train",
                  "--use_allreduce", "maybe"])
        assert e.value.code == 2
        assert "expected true or false, got 'maybe'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,flags,key", [
        ({}, ["--num_workers", "0"], "num_workers"),
        ({"transport": "tcp", "num_workers": 2, "use_allreduce": True,
          "worker_addresses": ["127.0.0.1:1", "127.0.0.1:2"]},
         ["--use_allreduce", "false"], "use_allreduce"),
    ])
    def test_cli_override_validated(self, tmp_path, capsys, doc, flags, key):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({**doc, "checkpoint_dir": str(tmp_path / "ckpt")}),
                            encoding="utf-8")
        from miniseq.cli import main
        assert main(["--config_file", str(cfg_path), "--mode", "train", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "ckpt").exists()

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


def test_tcp_resume_matches_an_unbroken_in_process_run(tmp_path):
    """Two TCP ranks trained for 3 steps and resumed to 6 write the weights.bin
    bytes of an unbroken in-process run, and one metrics row per step."""
    common = dict(eval_every=0, num_workers=2, use_allreduce=True)
    for steps in (3, 6):
        tcp = base_config(tmp_path, **common, max_steps=steps, transport="tcp",
                          worker_addresses=[f"127.0.0.1:{p}" for p in _free_ports(2)],
                          checkpoint_dir=str(tmp_path / "tcp"))
        assert run(tcp, "train").status == 0
    in_process = base_config(tmp_path, **common, max_steps=6,
                             checkpoint_dir=str(tmp_path / "in_process"))
    assert run(in_process, "train").status == 0
    assert ((tmp_path / "tcp" / "weights.bin").read_bytes()
            == (tmp_path / "in_process" / "weights.bin").read_bytes())
    lines = (tmp_path / "tcp" / "metrics.csv").read_text().splitlines()[1:]
    assert [int(line.split(",")[0]) for line in lines] == list(range(6))


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
