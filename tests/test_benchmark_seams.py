"""Every benchmark workload still calls each seam that its traced run times.

A traced run (perfbench/run.py --trace 1) reports a seam that a workload
should call but did not as an error, so a change that stops calling a tower
or ring seam would break the benchmark; these short traced trials catch it.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import harness  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_traced_trial_calls_every_seam(name, tmp_path):
    workload = harness.WORKLOADS[name]
    rec = tracing.Recorder()
    trial = harness.run_trial(workload, 1, str(tmp_path), steps=2, eval_batches=1,
                              recorder=rec)
    assert trial.errors == []
    assert harness.unused_seams(workload, rec.spans) == []


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_one_tape_of_159_ops_per_group_step(name, tmp_path):
    # K=4 ranks share one stacked tape per step; a tape per rank would show
    # here as four backward calls per step, with the same bits
    rec = tracing.Recorder()
    trial = harness.run_trial(harness.WORKLOADS[name], 1, str(tmp_path), steps=2,
                              eval_batches=1, recorder=rec)
    assert trial.errors == []
    tapes = [(s.step, s.count) for s in rec.spans
             if s.name == "autodiff.backward" and s.step is not None]
    assert tapes == [(0, 159), (1, 159)]
