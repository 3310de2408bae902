"""Fast self-test of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload at a tiny size with the checking pass on, shows that
the checks catch a corrupted link bitmap and a missed path, and that the
speed gauge scales each stretch of work by its own reference samples.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load_package()
import checking  # noqa: E402
from eonprotect.rsa import LightpathRequest, ProvisionResult  # noqa: E402
from eonprotect.sim import Simulation  # noqa: E402

TINY = 300
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload: str, seed: int = 3):
    return dataclasses.replace(run.scenarios(workload, seed)[0], n_requests=TINY)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_checking_pass_holds_on_a_tiny_round(workload):
    out = checking.checking_run(tiny(workload), pause_points=3)
    assert out.arrivals == TINY
    assert out.failed_arrivals == 0, out.arrival_problems
    assert out.state_problems == []


def test_checks_catch_a_corrupted_link_bitmap():
    sim = Simulation(tiny("shared-backup"))
    sim.run(max_arrivals=TINY // 2)
    assert checking.check_state(sim) == []
    link = sim.graph.links[sorted(sim.graph.links)[0]]
    link.bitmap.bits &= link.bitmap.bits - 1  # mark the lowest free slot busy
    assert any("busy bits" in p for p in checking.check_state(sim))


def test_checks_catch_a_block_that_misses_a_free_path():
    sim = Simulation(tiny("route-only"))
    oracle = checking.PathOracle(sim.graph)
    snap = {lid: link.bitmap.bits for lid, link in sim.graph.links.items()}
    lr = LightpathRequest("1", "14", 4)
    problems = checking.check_provision(oracle, snap, lr, 0.99, ProvisionResult(blocked=True), [])
    assert problems == ["blocked although a feasible path exists"]


def test_reported_metric_names_match_benchmark_json(tmp_path):
    sc = tiny("cycles")
    end_to_end, timed = run.timed_rounds([sc], seconds=0.01)
    per_layer, traced = run.traced_rounds([sc], seconds=0.01, trace_path=tmp_path / "spans.json")
    assert list(end_to_end) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(per_layer) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for metrics, kind in ((end_to_end, "end_to_end"), (per_layer, "per_layer")):
        units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert all(unit == units[name] for name, (_, unit) in metrics.items())
    assert timed[0] == traced[0]
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]


def test_speed_gauge_scales_each_segment_by_its_own_samples(monkeypatch):
    monkeypatch.setattr(run, "SCALE_WINDOW", 0)
    gauge = run.SpeedGauge()
    ms = 1_000_000
    # Samples 1, 3 and 2 ms long starting at 0, 10 and 20 ms; two latencies
    # were recorded before the second sample and three before the third.
    for start, length, mark in ((0, 1, 0), (10, 3, 2), (20, 2, 3)):
        gauge.starts.append(start * ms)
        gauge.ends.append((start + length) * ms)
        gauge.marks.append(mark)
    segments, scaled = gauge.settle(30 * ms, [ms, 2 * ms, 3 * ms, 4 * ms])
    ref_ms = run.REFERENCE_LOOP_S * 1e3
    assert segments == pytest.approx([9e-3 * ref_ms, 7e-3 * ref_ms / 3, 8e-3 * ref_ms / 2])
    assert scaled == pytest.approx([ms * ref_ms, 2 * ms * ref_ms, 3 * ms * ref_ms / 3, 4 * ms * ref_ms / 2])
    assert not gauge.starts and not gauge.ends and not gauge.marks
