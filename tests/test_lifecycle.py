"""Model-based test of the run lifecycle.

A state machine trains one drawn config in one checkpoint directory through
``runner.run``: it trains on to later steps (resumes), reruns with
``max_steps`` at or below the checkpoint's step, and attempts resumes that
must be refused. The model is the step the checkpoint has reached. After
every rule, ``weights.bin`` and the train rows of ``metrics.csv`` must equal
those of an unbroken run to that step, and the manifest must name that step.
"""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule)

from miniseq.checkpoint import CheckpointError
from miniseq.config import ConfigError, parse_config
from miniseq.runner import run

# Backoff from 2^20 skips steps on this model: 4 of the first 12, at K=1 and K=2.
SCALING = {
    "float32": {"dtype": "float32"},
    "backoff": {"dtype": "mixed", "loss_scaling": "Backoff",
                "loss_scaling_params": {"scale": 2.0 ** 20, "growth_interval": 4}},
    "logmax": {"dtype": "mixed", "loss_scaling": "LogMax"},
}
MAX_STEP = 9
TOKENS_PER_SEC = 8  # the one column that depends on the clock


def config_doc(scaling: dict, workers: int, allreduce: bool, steps: int, directory: str) -> dict:
    return {
        "data_layer": "copy_task",
        "data_layer_params": {"vocab_size": 10, "seq_len": 3, "seed": 5},
        "encoder_params": {"layers": 1, "hidden": 4, "emb_size": 4},
        "decoder_params": {"hidden": 4, "emb_size": 4},
        "optimizer": "Adam",
        "lr_policy_params": {"learning_rate": 0.01},
        "batch_size_per_gpu": 4, "num_workers": workers, "use_allreduce": allreduce,
        "max_steps": steps, "eval_every": 0, "seed": 2, "checkpoint_dir": directory,
        **scaling,
    }


def refusal(precision: str, change: str) -> dict:
    """The scaling keys of a resume that a ``precision`` checkpoint must refuse."""
    if change == "policy" and precision != "float32":
        return SCALING["logmax" if precision == "backoff" else "backoff"]
    if change == "stale keys":  # float32 reads no loss-scaling key
        return {**SCALING["backoff"], "dtype": "float32"}
    return SCALING["backoff" if precision == "float32" else "float32"]


def train_rows(directory: str) -> list[list[str]]:
    with open(os.path.join(directory, "metrics.csv"), encoding="utf-8") as f:
        rows = [line.split(",") for line in f.read().splitlines()[1:]]
    return [row[:TOKENS_PER_SEC] + row[TOKENS_PER_SEC + 1:] for row in rows if row[2] == "train"]


def read(directory: str, name: str) -> bytes:
    with open(os.path.join(directory, name), "rb") as f:
        return f.read()


_UNBROKEN: dict = {}


def unbroken(kind: tuple, steps: int) -> tuple[bytes, list]:
    """weights.bin and the train rows of one uninterrupted run to ``steps``."""
    if (kind, steps) not in _UNBROKEN:
        precision, workers, allreduce = kind
        with tempfile.TemporaryDirectory(prefix="miniseq-unbroken-") as d:
            doc = config_doc(SCALING[precision], workers, allreduce, steps, d)
            run(parse_config(json.dumps(doc)), "train")
            _UNBROKEN[kind, steps] = read(d, "weights.bin"), train_rows(d)
    return _UNBROKEN[kind, steps]


class RunLifecycle(RuleBasedStateMachine):
    @initialize(precision=st.sampled_from(sorted(SCALING)), workers=st.sampled_from([1, 2]),
                allreduce=st.booleans())
    def start(self, precision, workers, allreduce):
        self.directory = tempfile.mkdtemp(prefix="miniseq-lifecycle-")
        self.kind = (precision, workers, allreduce)
        self.step = 0  # the step the checkpoint has reached; 0 before the first run

    def teardown(self):
        if hasattr(self, "directory"):
            shutil.rmtree(self.directory, ignore_errors=True)

    def _run(self, steps: int, scaling: dict | None = None):
        precision, workers, allreduce = self.kind
        doc = config_doc(scaling or SCALING[precision], workers, allreduce, steps,
                         self.directory)
        return run(parse_config(json.dumps(doc)), "train")

    def _files(self) -> dict:
        return {name: read(self.directory, name)
                for name in ("weights.bin", "manifest.json", "metrics.csv")}

    @precondition(lambda self: self.step < MAX_STEP)
    @rule(more=st.integers(1, 3))
    def train_on(self, more):
        self._run(min(self.step + more, MAX_STEP))
        self.step = min(self.step + more, MAX_STEP)

    @precondition(lambda self: self.step > 0)
    @rule(back=st.integers(0, 3))
    def rerun_at_or_below_the_checkpoint(self, back):
        self._run(max(self.step - back, 1))

    @precondition(lambda self: self.step > 0)
    @rule(change=st.sampled_from(["dtype", "policy", "stale keys"]))
    def refused_resume(self, change):
        before = self._files()
        with pytest.raises((ConfigError, CheckpointError)):
            self._run(self.step + 1, refusal(self.kind[0], change))
        assert self._files() == before

    @invariant()
    def checkpoint_equals_an_unbroken_run(self):
        if self.step == 0:
            assert not os.path.exists(os.path.join(self.directory, "manifest.json"))
            return
        weights, rows = unbroken(self.kind, self.step)
        assert read(self.directory, "weights.bin") == weights
        assert train_rows(self.directory) == rows
        assert json.loads(read(self.directory, "manifest.json"))["step"] == self.step


RunLifecycle.TestCase.settings = settings(
    derandomize=True, database=None, max_examples=25, stateful_step_count=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestRunLifecycle = RunLifecycle.TestCase
