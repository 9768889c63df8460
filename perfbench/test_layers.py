"""Self-tests of the benchmark: layer attribution and the output contract.

    python3 -m pytest perfbench -q      (about two minutes)
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import pytest
from repro.events.engine import Engine
from repro.slurm.scheduler import SlurmController

from perfbench import run
from perfbench.hostspeed import SpeedSampler, clock
from perfbench.layers import LAYERS, instances_of
from perfbench.workloads import CHAOS_SEEDS, WORKLOADS, load_references

SPEC = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
EXAMON = [layer for layer in LAYERS if layer.startswith("examon.")]
NODE_MODEL = ["hardware", "cluster", "power", "thermal"]


def traced(name: str, seed: int = 0) -> dict:
    """A shortest traced run of a workload: its per-layer metric values."""
    workload = WORKLOADS[name](seed, load_references())
    tally = run.Tally()
    step = Engine.step
    metrics = run.per_layer(workload, 1e-3, tally)
    assert Engine.step is step, "tracer left a wrapper installed"
    assert tally.attempted > 0 and tally.failed == 0
    return {key: value for key, (value, _unit) in metrics.items()}


def share(metrics: dict, layers: list) -> float:
    return sum(metrics[f"{layer}.self_share"] for layer in layers)


def largest_other(metrics: dict, group: list) -> float:
    return max(metrics[f"{layer}.self_share"]
               for layer in LAYERS if layer not in group)


@pytest.fixture(scope="module")
def fig6() -> dict:
    return traced("fig6_runaway")


@pytest.fixture(scope="module")
def job_trace() -> dict:
    return traced("job_trace")


def test_fig6_examon_holds_the_largest_share(fig6: dict) -> None:
    assert share(fig6, EXAMON) > largest_other(fig6, EXAMON)
    assert fig6["thermal.trips"] == 1


def test_fig6_dashboard_calls_feed_the_query_latencies(fig6: dict) -> None:
    assert fig6["examon.query.requests"] == 2
    assert 0 < fig6["examon.query.p50_ms"] <= fig6["examon.query.p99_ms"]


def test_setup_only_pass_stops_before_the_first_job() -> None:
    workload = WORKLOADS["fig6_runaway"](0, load_references())
    with instances_of(SlurmController) as controllers:
        state, setup_s = workload.setup()
    assert state is None and setup_s > 0
    assert len(controllers) == 1 and not controllers[0].jobs


def test_job_trace_node_model_holds_the_largest_share(job_trace: dict) -> None:
    assert share(job_trace, NODE_MODEL) > largest_other(job_trace, NODE_MODEL)


def test_job_trace_bypasses_examon(job_trace: dict) -> None:
    counts = {name: value for name, value in job_trace.items()
              if name.startswith("examon.")
              and not name.endswith(("_s", "_share", "_ratio"))}
    assert counts and not any(counts.values()), counts


def test_examon_query_reads_the_tsdb() -> None:
    metrics = traced("examon_query")
    assert metrics["examon.tsdb.queries"] > 0
    assert metrics["examon.query.requests"] > 0


def test_layers_claim_the_traced_wall(job_trace: dict) -> None:
    assert 0.0 <= job_trace["unattributed.self_share"] < 0.1


def test_traced_run_reports_every_per_layer_metric(capsys) -> None:
    assert run.main(["--workload", "chaos_campaign", "--seed", "1",
                     "--seconds", "0.1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["chaos.faults"]["value"] > 0
    assert result["metrics"]["network.retries"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric(capsys) -> None:
    assert run.main(["--workload", "chaos_campaign", "--seed", "2",
                     "--seconds", "0.1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 5 * CHAOS_SEEDS
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_a_wrong_output_is_counted_as_failed() -> None:
    references = load_references()
    references["job_trace"]["3"]["makespan_s"] += 1.0
    workload = WORKLOADS["job_trace"](3, references)
    tally = run.Tally()
    run.one_pass(workload, tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_clock_leaves_out_host_speed_sampling() -> None:
    start, wall_start = clock(), perf_counter()
    with SpeedSampler() as speed:
        pass
    assert len(speed.samples) == 2 and speed.scale() > 0
    assert clock() - start < (perf_counter() - wall_start) / 10
