"""Smoke test of the benchmark harness at tiny scale.

    python3 -m pytest perfbench/tests -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
in both the untraced and the traced run, that the output check catches a
corrupted shard snapshot, and that a paced phase which cannot keep its
rate fails the run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run as bench  # noqa: E402
from perfbench.workloads import WORKLOADS, run_workload, make_inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny(name: str):
    w = WORKLOADS[name]
    batch = 1 << 12 if w.wide else 1 << 10
    return dataclasses.replace(
        w, batch=batch, stream_len=1 << 14, queries_per_batch=min(w.queries_per_batch, 20)
    )


def test_benchmark_json_names_the_gated_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name, w in WORKLOADS.items() if w.gated
    ]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items() if w.gated
    }
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    metrics, lines, res = bench.run(tiny(name), 3, 0.4, trace, out_dir=str(tmp_path))
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: unit for k, (value, unit) in metrics.items()
    }
    assert res.failed == 0
    assert (tmp_path / "history.jsonl").read_text().count("\n") == 1
    if trace:
        assert (tmp_path / "out" / f"{name}.spans.jsonl").stat().st_size > 0


@pytest.mark.parametrize("name", ["engine-fold", "engine-wide"])
def test_engine_check_catches_a_corrupted_shard_snapshot(name):
    from repro.engine import save_state

    w = tiny(name)
    res = run_workload(w, make_inputs(w, 5), 5, 0.2)
    assert res.check() == []
    engine = res.output
    engine.restore_shard(0, save_state(engine.samplers[1]))
    assert "shard 0 snapshot" in res.check()


def test_engine_check_covers_every_finished_episode():
    w = dataclasses.replace(tiny("engine-wide"), episode=2)
    res = run_workload(w, make_inputs(w, 5), 5, 0.3)
    assert res.episodes and res.check() == []
    blobs, sample = res.episodes[0]
    res.episodes[0] = (blobs[1:] + blobs[:1], sample)
    assert "episode 0 shard 0 snapshot" in res.check()


def test_served_check_catches_a_corrupted_shard_snapshot():
    w = tiny("serve-thread")
    res = run_workload(w, make_inputs(w, 5), 5, 0.3)
    assert res.check() == []
    res.output[2] = res.output[3]
    assert res.check() == ["shard 2 snapshot"]


def test_unsustainable_paced_rate_fails_the_run(monkeypatch, capsys):
    # Far above what the service can take: submits block under
    # backpressure and the generator falls ever further behind.
    w = dataclasses.replace(tiny("serve-thread"), paced_rate=1e10)
    monkeypatch.setitem(WORKLOADS, w.name, w)
    code = bench.main(["--workload", w.name, "--seed", "3", "--seconds", "3"])
    out, err = capsys.readouterr()
    assert code != 0
    assert '"correct"' not in out
    assert "fell behind" in err
