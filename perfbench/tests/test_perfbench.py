"""The benchmark's own tests, at tiny size.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import tracing
from reference import Reference, apply_mods
from repro.core.eswitch import ESwitch
from repro.openflow.flow_table import FlowTable
from repro.packet.parser import parse
from repro.usecases import gateway
from workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = tuple(WORKLOADS)


def _run(workload, trace, tmp_path, seed=3):
    return harness.run(workload, seed, 0.3, trace, size=TINY, out_dir=tmp_path)


@pytest.mark.parametrize("workload", NAMES)
def test_every_end_to_end_metric_with_its_unit(workload, tmp_path):
    result, meta = _run(workload, False, tmp_path)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert meta["seed"] == 3 and meta["cpu_count"] and meta["calibration_loops_per_s"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_every_per_layer_metric_with_its_unit(workload, tmp_path):
    result, meta = _run(workload, True, tmp_path)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] and metrics["check.failed_frac"] == 0
    assert metrics["trace.tree_problems"] == 0
    assert metrics["simcpu.modeled_cycles_per_pkt"] > 0
    if workload == "gateway":
        assert metrics["core.fuse_count"] == 0
        assert metrics["controller.packet_ins"] == 0
        # The sharded pass: the parallel layer, measured on gateway's inputs.
        assert metrics["parallel.pps"] > 0 and metrics["parallel.collect_us"] > 0
        assert metrics["parallel.decode_us"] > 0 and metrics["parallel.rss_us"] > 0
    if workload == "gateway-churn":
        assert metrics["core.fuse_count"] > 0
        assert metrics["controller.packet_ins"] > 0
        assert metrics["churn.joins"] > 0 and metrics["churn.mods_per_s"] > 0
        assert metrics["parallel.pps"] == 0


@pytest.mark.parametrize("workload", ("gateway", "gateway-churn"))
def test_planted_wrong_verdict_is_counted(workload, tmp_path, monkeypatch):
    original = ESwitch.process_burst
    planted = []

    def wrong(self, pkts, meter=harness.NULL_METER):
        verdicts = original(self, pkts, meter)
        if not planted and verdicts and verdicts[0].forwarded:
            verdicts[0].output_ports.append(99)
            planted.append(True)
        return verdicts

    monkeypatch.setattr(ESwitch, "process_burst", wrong)
    result, meta = _run(workload, False, tmp_path)
    assert planted
    assert result["failed"] >= 1 and not result["correct"]
    assert meta["failed_frac"] > 0


def test_span_tree_is_well_formed(tmp_path):
    _run("gateway-churn", True, tmp_path)
    spans = [json.loads(line) for line in (tmp_path / "gateway-churn-seed3-spans.jsonl").open()]
    assert spans
    child_time = [0.0] * len(spans)
    for s in spans:
        assert s["end_us"] >= s["start_us"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start_us"] <= s["start_us"] and s["end_us"] <= parent["end_us"]
            child_time[s["parent"]] += s["end_us"] - s["start_us"]
    for s, covered in zip(spans, child_time):
        assert s["end_us"] - s["start_us"] - covered >= -1e-3
    names = {s["name"] for s in spans}
    assert {"driver.round", "core.process_burst", "core.fuse", "controller.handle"} <= names
    table = (tmp_path / "gateway-churn-seed3-selftime.txt").read_text()
    for layer in ("core", "controller", "openflow", "driver"):
        assert f"\n{layer} " in table


def test_check_tree_flags_a_child_outside_its_parent():
    spans = [["driver.round", 0.0, 1.0, -1, 1], ["core.fuse", 0.5, 1.5, 0, 1]]
    assert tracing.check_tree(spans)
    inside = [["driver.round", 0.0, 1.0, -1, 1], ["core.fuse", 0.2, 0.4, 0, 1]]
    assert not tracing.check_tree(inside)


def test_tracer_restores_what_it_wrapped():
    tracer = tracing.Tracer()
    before = [getattr(owner, attr) for owner, attr, _ in harness.TRACE_POINTS]
    for owner, attr, name in harness.TRACE_POINTS:
        tracer.wrap(owner, attr, name)
    tracer.restore()
    assert [getattr(owner, attr) for owner, attr, _ in harness.TRACE_POINTS] == before


@pytest.mark.parametrize("workload", ("gateway", "gateway-churn"))
def test_counting_passes_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        wl = WORKLOADS[workload](TINY, 5)
        wl.inputs()
        wl.setup()
        wl.warm()
        counts.append(harness.counting_passes(wl))
        wl.close()
    assert counts[0] == counts[1]


def test_indexed_reference_lookup_equals_linear_scan():
    pipeline, fib = gateway.build(
        n_ce=2, users_per_ce=4, n_prefixes=300, provision_users=False, seed=7
    )
    templates = list(gateway.traffic(fib, 200, n_ce=2, users_per_ce=4, seed=8))
    ref = Reference(pipeline, templates)
    assert ref.indexes, "the RIB should be indexed"
    rng = random.Random(9)
    for _ in range(3):
        ce, user = rng.randrange(2), rng.randrange(4)
        apply_mods(pipeline, gateway.nat_flow_mods(ce, user))
        for pkt in templates:
            view = parse(pkt.copy())
            for lookup in ref.indexes:
                assert lookup(view) is FlowTable.lookup(lookup.table, view)
    assert not ref.self_check(range(len(templates)))


def test_command_line_offers_the_benchmark_workloads():
    import run

    assert run.WORKLOADS == tuple(WORKLOADS) == tuple(w["name"] for w in SPEC["workloads"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gateway", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
