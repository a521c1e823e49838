"""Tests of the benchmark's own logic: python -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def test_p95_needs_ten_samples_beyond_it():
    samples = list(range(1, 201))  # shuffled order must not matter
    samples.reverse()
    assert stats.percentile(samples, 95) == 190
    with pytest.raises(ValueError, match="9 beyond"):
        stats.percentile(range(199), 95)
    assert stats.min_samples(95) == 200
    assert stats.min_samples(50) == 20
    assert stats.percentile(range(20), 50) == 9


def test_quartile_spread_is_iqr_over_median():
    assert stats.quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    q1, q2, q3 = 8.5, 10.0, 11.5  # statistics.quantiles, exclusive method
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


def test_self_time_of_nested_spans_on_concurrent_threads():
    rec = tracing.Recorder()
    inner = rec.wrap("inner")(lambda: time.sleep(0.1))

    def outer_body(rank):
        time.sleep(0.02)
        inner()

    outer = rec.wrap("outer", context=lambda b: (b["rank"], 7))(outer_body)
    start = threading.Barrier(2)

    def worker(rank):
        start.wait()
        outer(rank)

    threads = [threading.Thread(target=worker, args=(r,)) for r in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)

    outers = {s.rank: s for s in rec.spans if s.name == "outer"}
    inners = {s.rank: s for s in rec.spans if s.name == "inner"}
    assert sorted(outers) == sorted(inners) == [1, 2]
    for rank in (1, 2):
        o, i = outers[rank], inners[rank]
        assert i.parent is o and i.step == 7
        # the other thread's overlapping inner span is not this span's child
        assert o.self_time == o.duration - i.duration
        assert 0.02 <= o.self_time < 0.1
        assert i.self_time == i.duration >= 0.1
    totals = tracing.self_times(rec.spans)
    assert totals["outer"] == pytest.approx(sum(o.self_time for o in outers.values()))


def _bindings():
    seams = set(harness.LAYER_SEAMS)
    seams |= set(harness._probe_wrappers(harness.Trial(), False)[1])
    return {seam: [(owner, key, original) for owner, key, original in tracing.resolve(*seam)]
            for seam in seams}


def test_traced_trial_restores_every_wrapped_attribute(tmp_path):
    before = _bindings()
    rec = tracing.Recorder()
    trial = harness.run_trial(harness.WORKLOADS["reverse-k4-allreduce"], 3, str(tmp_path),
                              steps=2, eval_batches=1, recorder=rec)
    assert trial.errors == []
    assert {s.rank for s in rec.spans if s.name == "distrib.distributed_train_step"} == {
        0, 1, 2, 3}
    after = _bindings()
    assert after.keys() == before.keys()
    for seam, found in before.items():
        assert found, seam
        for owner, key, original in found:
            assert vars(owner)[key] is original, seam


def test_wrappers_come_off_when_a_step_raises():
    from miniseq import distrib

    original = distrib.__dict__["ring_allreduce"]

    def boom(fn):
        def wrapper(*args, **kwargs):
            raise RuntimeError("step failed")
        return wrapper

    with pytest.raises(RuntimeError, match="step failed"):
        with tracing.patched({("miniseq.distrib", "ring_allreduce"): boom}):
            distrib.ring_allreduce(None, 0, 1, None)
    assert distrib.__dict__["ring_allreduce"] is original


def test_missing_seam_is_named_and_nothing_is_wrapped():
    from miniseq import distrib

    original = vars(distrib.Replica)["apply"]
    factory = tracing.Recorder().wrap("x")
    with pytest.raises(tracing.MissingSeam) as err:
        with tracing.patched({("miniseq.distrib", "Replica.apply"): factory,
                              ("miniseq.distrib", "merged_train_step"): factory,
                              ("miniseq.distrib", "Replica.no_such_method"): factory}):
            pass
    assert err.value.names == ["distrib.merged_train_step", "distrib.Replica.no_such_method"]
    assert vars(distrib.Replica)["apply"] is original


def test_traced_counts_repeat_and_match_the_model(tmp_path):
    workload = harness.WORKLOADS["copy-mixed-backoff"]
    figures = []
    for _ in range(2):
        rec = tracing.Recorder()
        trial = harness.run_trial(workload, 5, str(tmp_path), steps=3, eval_batches=1,
                                  recorder=rec)
        assert trial.errors == []
        assert harness.unused_seams(workload, rec.spans) == []
        figures.append(harness.layer_metrics(rec.spans, trial))
    for name in harness.EXACT_COUNTS:
        assert figures[0][name] == figures[1][name], name
    # encoder 8 x (gather + 2 matmul + add + bias_add + tanh) + stack, decoder
    # 9 x (gather + 5-op cell + 6-op attention/projection) + stack, loss
    assert figures[0]["autodiff.tape_ops"][0] == 8 * 6 + 1 + 9 * 12 + 1 + 1
    assert figures[0]["halffloat.narrow_calls"][0] > 0


def test_unused_seam_is_reported():
    workload = harness.WORKLOADS["copy-fp32"]
    unused = harness.unused_seams(workload, [])
    assert "distrib.distributed_train_step" in unused
    assert "halffloat.narrow_host" not in unused


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "copy-fp32",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{")
    assert "no program source" in proc.stderr


def test_benchmark_json_matches_the_harness(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in harness.WORKLOADS.values()
                                 if w.name in {s["name"] for s in spec["workloads"]}]
    assert len(spec["workloads"]) >= 2

    trial = harness.Trial(steps=200, step_s=[0.01] * 200, losses=[1.0] * 200,
                          eval_s=1.0, eval_seqs=10)
    e2e = harness.end_to_end([trial], [0.001], harness.peak_rss_mb())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()]

    rec = tracing.Recorder()
    trial = harness.run_trial(harness.WORKLOADS["copy-fp32"], 1, str(tmp_path), steps=2,
                              eval_batches=1, recorder=rec)
    layers = harness.layer_metrics(rec.spans, trial)
    overhead = ["trace.untraced_tokens_per_s", "trace.traced_tokens_per_s",
                "trace.tokens_per_s_delta"]
    assert [m["name"] for m in spec["per_layer"]] == list(layers) + overhead
    assert [m["unit"] for m in spec["per_layer"][:len(layers)]] == [u for _, u in layers.values()]
