"""One benchmark run: set-up, warm-up, timed passes, the check, metrics.

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` gives the per-layer metrics: an untraced pass and a traced
pass of half the run each (their ratio is ``trace.overhead``), the
standalone layer timings, three counting passes of fixed length on a
fresh set-up (modeled cycles, Python calls, allocated bytes), and on
``gateway`` the sharded pass that measures the ``parallel`` layer.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import repro.core.eswitch as eswitch_mod
import repro.core.fuse as fuse_mod
import repro.parallel.engine as engine_mod
import repro.parallel.frames as frames_mod
from repro.controller.gateway_controller import GatewayController
from repro.controller.session import ControllerSession
from repro.core.eswitch import ESwitch
from repro.openflow.flow_table import FlowTable
from repro.parallel.engine import ShardedESwitch
from repro.simcpu.platform import XEON_E5_2620
from repro.simcpu.recorder import CycleMeter, NULL_METER

import layers
import tracing
from workloads import BURST, FULL, WORKLOADS, GatewaySharded, Size, Workload

#: (owner, attribute, span name): every layer entry point the traced pass
#: wraps. Each is replaced where its caller looks it up.
TRACE_POINTS = (
    (ESwitch, "process_burst", "core.process_burst"),
    (ESwitch, "admit_flow_mods", "core.admit"),
    (ESwitch, "apply_flow_mods", "core.apply"),
    (eswitch_mod, "compile_table", "core.compile_table"),
    (fuse_mod, "fuse_datapath", "core.fuse"),
    (FlowTable, "add", "openflow.table_add"),
    (FlowTable, "remove", "openflow.table_remove"),
    (ControllerSession, "process_burst", "controller.session"),
    (ControllerSession, "submit_flow_mods", "controller.send"),
    (ControllerSession, "pump", "controller.pump"),
    (GatewayController, "handle", "controller.handle"),
    (ShardedESwitch, "submit_burst", "parallel.submit"),
    (ShardedESwitch, "collect", "parallel.collect"),
    (ShardedESwitch, "_absorb_counters", "parallel.absorb"),
    (frames_mod, "request_from_packets", "parallel.pack"),
    (frames_mod, "unpack_reply", "parallel.unpack"),
    (engine_mod, "decode_verdicts", "parallel.decode"),
)

#: metric -> span whose mean duration (µs per call) it reports.
MEAN_US = {
    "core.admit_us": "core.admit",
    "core.apply_us": "core.apply",
    "core.compile_table_us": "core.compile_table",
    "openflow.table_add_us": "openflow.table_add",
    "openflow.table_remove_us": "openflow.table_remove",
    "controller.handle_us": "controller.handle",
    "controller.pump_us": "controller.pump",
    "parallel.submit_us": "parallel.submit",
    "parallel.collect_us": "parallel.collect",
    "parallel.pack_us": "parallel.pack",
    "parallel.unpack_us": "parallel.unpack",
    "parallel.decode_us": "parallel.decode",
    "parallel.absorb_us": "parallel.absorb",
}

UPDATE_FIELDS = ("incremental", "rebuilds", "kind_stable_skips", "noop_mods")
ENGINE_FIELDS = ("retries", "respawns", "faults_detected")
#: layers whose self time the traced run reports as a share of wall time.
LAYERS = ("driver", "core", "controller", "openflow", "parallel")

#: every end-to-end metric, with its unit.
END_TO_END = {
    "pps_p5": "1/s",
    "burst_p99_us": "us",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}

#: every per-layer metric of a traced run, with its unit. A layer that
#: a workload leaves idle reports 0.
PER_LAYER = {
    "packet.parse_ns": "ns",
    "core.fastpath_ns_per_pkt": "ns",
    "core.fuse_count": "count",
    "core.fuse_ms_p50": "ms",
    "core.fuse_share": "ratio",
    "core.admit_us": "us",
    "core.apply_us": "us",
    "core.compile_table_us": "us",
    "core.compile_table_count": "count",
    **{f"core.update.{f}": "count" for f in UPDATE_FIELDS},
    "openflow.table_add_us": "us",
    "openflow.table_remove_us": "us",
    "openflow.compactions": "count",
    "openflow.tombstones": "count",
    "dpdk.lpm_lookup_ns": "ns",
    "dpdk.hash_get_ns": "ns",
    "controller.handle_us": "us",
    "controller.pump_us": "us",
    "controller.packet_ins": "count",
    "controller.install_failures": "count",
    "controller.punt_queue_drops": "count",
    "parallel.pps": "1/s",
    "parallel.vs_fused": "ratio",
    "parallel.failed_frac": "ratio",
    "parallel.submit_us": "us",
    "parallel.collect_us": "us",
    "parallel.pack_us": "us",
    "parallel.unpack_us": "us",
    "parallel.decode_us": "us",
    "parallel.absorb_us": "us",
    "parallel.rss_us": "us",
    **{f"parallel.{f}": "count" for f in ENGINE_FIELDS},
    "simcpu.modeled_cycles_per_pkt": "cycles",
    "work.calls_per_pkt": "count",
    "work.alloc_bytes_per_pkt": "B",
    "churn.mods_per_s": "1/s",
    "churn.admit_p50_ms": "ms",
    "churn.admit_p99_ms": "ms",
    "churn.joins": "count",
    "driver.burst_p50_us": "us",
    "driver.burst_samples": "count",
    "check.failed_frac": "ratio",
    "trace.overhead": "ratio",
    "trace.accounted": "ratio",
    **{f"trace.self_share.{layer}": "ratio" for layer in LAYERS},
    "trace.tree_problems": "count",
}


#: seconds of timed wall time per packet-rate sample (``pps_p5``).
SLICE_S = 0.1


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def pps_p5(wl: Workload, window: float) -> float:
    """The packet rate held in 95 of 100 ``SLICE_S`` slices of the timed
    pass; the whole window's rate when it is shorter than a slice."""
    return percentile(wl.slice_pps, 5) if wl.slice_pps else wl.packets / window


# -- host facts ---------------------------------------------------------------


def calibration_loops_per_s() -> float:
    """Rate of a fixed pure-Python loop, best of three (host speed)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return 200_000 / best


def source_id(root: Path) -> dict:
    """The git sha when the checkout is a repository, and always a digest
    of the program's source files."""
    sha = None
    if (root / ".git").exists():  # git would otherwise search the parents
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            )
            if done.returncode == 0:
                sha = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def rss_peak_mb() -> float:
    """Peak resident memory of this process (the workloads start none)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- passes ------------------------------------------------------------------


def timed_pass(wl: Workload, seconds: float, tracer=None) -> float:
    """Closed-loop rounds until ``seconds`` of timed wall time are spent;
    returns the wall time. The clock stops for each chunk's check.

    The packet rate of every ``SLICE_S`` of timed wall time goes to
    ``wl.slice_pps``."""
    wl.reset_window()
    wl.tracer = tracer
    window = 0.0
    slice_start, slice_packets = 0.0, 0
    try:
        while window < seconds:
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.active = True
            for _ in range(wl.chunk):
                wl.round()
            wl.drain()
            if tracer is not None:
                tracer.active = False
            window += time.perf_counter() - t0
            if window - slice_start >= SLICE_S:
                wl.slice_pps.append((wl.packets - slice_packets) / (window - slice_start))
                slice_start, slice_packets = window, wl.packets
            wl.check()
    finally:
        wl.tracer = None
    return window


def traced_pass(wl: Workload, seconds: float) -> "tuple[list, float, dict]":
    """A timed pass with every trace point wrapped; returns the spans,
    the wall time, and the program counters' movement over the pass."""
    counters = Counters(wl)
    tracer = tracing.Tracer()
    for owner, attr, name in TRACE_POINTS:
        tracer.wrap(owner, attr, name)
    try:
        wall = timed_pass(wl, seconds, tracer)
    finally:
        tracer.restore()
    return tracer.spans, wall, counters.deltas()


def counting_passes(wl: Workload) -> dict[str, float]:
    """Modeled cycles, Python calls and allocated bytes per packet, each
    over ``count_rounds`` rounds from the same deterministic state."""
    rounds = wl.size.count_rounds
    out = {}

    def run(probe=None, meter=NULL_METER) -> int:
        before = wl.packets
        wl.probe, wl.meter = probe, meter
        try:
            for _ in range(rounds):
                wl.round()
            wl.drain()
        finally:
            wl.probe, wl.meter = None, NULL_METER
        wl.check()
        return wl.packets - before

    wl.reset_window()
    meter = CycleMeter(XEON_E5_2620)
    run(meter=meter)
    out["simcpu.modeled_cycles_per_pkt"] = meter.mean_cycles_per_packet
    calls = layers.CallCounter()
    packets = run(probe=calls)
    out["work.calls_per_pkt"] = calls.calls / packets if packets else 0.0
    with layers.AllocCounter() as alloc:
        packets = run(probe=alloc)
    out["work.alloc_bytes_per_pkt"] = alloc.bytes / packets if packets else 0.0
    return out


# -- metrics -----------------------------------------------------------------


def churn_metrics(wl: Workload, window: float) -> dict:
    admits = wl.admit_latencies
    return {
        "churn.mods_per_s": wl.mods_accepted / window,
        "churn.admit_p50_ms": percentile(admits, 50) * 1e3,
        "churn.admit_p99_ms": percentile(admits, 99) * 1e3,
        "churn.joins": float(len(admits)),
    }


class Counters:
    """Program counters, read when made and again by :meth:`deltas`."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.start = self.read()

    def read(self) -> dict[str, float]:
        wl = self.wl
        switch = wl.switch
        stats = switch.update_stats
        out = {f"core.update.{f}": getattr(stats, f) for f in UPDATE_FIELDS}
        out["openflow.compactions"] = sum(t.compactions for t in switch.pipeline)
        controller = getattr(wl, "controller", None)
        session = getattr(wl, "session", None)
        out["controller.packet_ins"] = controller.packet_ins if controller else 0
        out["controller.install_failures"] = controller.install_failures if controller else 0
        out["controller.punt_queue_drops"] = session.punt_queue_drops if session else 0
        engine = getattr(wl, "engine", None)
        for f in ENGINE_FIELDS:
            out[f"parallel.{f}"] = getattr(engine, f) if engine else 0
        return out

    def deltas(self) -> dict[str, float]:
        end = self.read()
        out = {k: float(end[k] - self.start[k]) for k in end}
        # Tombstones are a level, not a flow.
        out["openflow.tombstones"] = float(sum(t.tombstones for t in self.wl.switch.pipeline))
        return out


def span_metrics(rows: dict, packets: int, wall: float) -> dict:
    """Per-layer metrics from one traced pass's spans, grouped by name."""
    fuse = rows.get("core.fuse")
    fastpath = rows.get("core.process_burst")
    compiles = rows.get("core.compile_table")
    out = {
        name: rows[span]["total_s"] / rows[span]["count"] * 1e6 if span in rows else 0.0
        for name, span in MEAN_US.items()
    }
    out.update({
        "core.fastpath_ns_per_pkt": (
            fastpath["self_s"] / packets * 1e9 if fastpath and packets else 0.0
        ),
        "core.fuse_count": float(fuse["count"]) if fuse else 0.0,
        "core.fuse_ms_p50": statistics.median(fuse["durations"]) * 1e3 if fuse else 0.0,
        "core.fuse_share": fuse["total_s"] / wall if fuse else 0.0,
        "core.compile_table_count": float(compiles["count"]) if compiles else 0.0,
    })
    return out


def write_trace(out_dir: "Path | None", wl: Workload, spans: list, table: dict) -> None:
    """The span tree (JSON lines) and the self-time table of one run."""
    if out_dir is None:
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{wl.seed}"
    t0 = spans[0][tracing.START] if spans else 0.0
    tracing.write_spans(out_dir / f"{stem}-spans.jsonl", spans, t0)
    (out_dir / f"{stem}-selftime.txt").write_text(tracing.format_table(wl.name, table))
    (out_dir / f"{stem}-selftime.json").write_text(json.dumps(table, indent=1) + "\n")


# -- the run ----------------------------------------------------------------------


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: Size = FULL,
    out_dir: "Path | None" = None,
    root: "Path | None" = None,
) -> "tuple[dict, dict]":
    """One run; returns ``(result, meta)``: the result line's object and
    the run's metadata (used in no metric)."""
    wl = WORKLOADS[workload](size, seed)
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "calibration_loops_per_s": calibration_loops_per_s(),
    }
    if root is not None:
        meta.update(source_id(root))
    try:
        wl.inputs()
        # The reference and the inputs live as long as the run. Frozen, a
        # full collection skips them and costs what the program's own
        # heap costs.
        gc.collect()
        gc.freeze()
        # ``setup_s`` is the median of set-ups made before and after the
        # timed pass, so that it samples the host at both ends of the run.
        # A traced run reports no set-up time and sets up once.
        first = 1 if trace else size.setup_repeats // 2 + 1
        setups = [wl.setup() for _ in range(first)]
        wl.warm()
        if trace:
            values = per_layer(wl, seconds, meta, out_dir)
            units = PER_LAYER
        else:
            window = timed_pass(wl, seconds)
            setups += [wl.setup() for _ in range(size.setup_repeats - first)]
            values = {
                "pps_p5": pps_p5(wl, window),
                "burst_p99_us": percentile(wl.latencies, 99) * 1e6,
                "setup_s": statistics.median(setups),
                "rss_peak_mb": rss_peak_mb(),
            }
            units = END_TO_END
            meta["samples"] = {
                "pps_mean": wl.packets / window,
                "pps_slices": len(wl.slice_pps),
                "bursts": len(wl.latencies),
                "burst_us": {
                    f"p{q}": percentile(wl.latencies, q) * 1e6 for q in (10, 25, 50, 75, 90, 99)
                },
                "setups_s": setups,
            }
            if workload == "gateway-churn":
                meta["churn"] = churn_metrics(wl, window)
        meta["errors"] = wl.errors[:8]
    finally:
        wl.close()
    result = {
        "correct": wl.mismatched == 0 and wl.rejected == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    meta["failed_frac"] = wl.failed / wl.attempted if wl.attempted else 0.0
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(
            json.dumps({"meta": meta, "result": result}, indent=1) + "\n"
        )
    return result, meta


def per_layer(wl: Workload, seconds: float, meta: dict, out_dir: "Path | None") -> dict:
    half = seconds / 2
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(layers.standalone(wl.switch, wl.templates))

    plain_window = timed_pass(wl, half)
    plain_pps = wl.packets / plain_window
    out.update(churn_metrics(wl, plain_window))
    out["driver.burst_p50_us"] = percentile(wl.latencies, 50) * 1e6
    out["driver.burst_samples"] = float(len(wl.latencies))

    spans, wall, moved = traced_pass(wl, half)
    out.update(moved)
    rows = tracing.by_name(spans)
    out.update(span_metrics(rows, wl.packets, wall))
    table = tracing.self_time_table(spans, wall)
    out["trace.accounted"] = table["accounted"]
    for layer in LAYERS:
        out[f"trace.self_share.{layer}"] = table["layers"].get(layer, {}).get("share", 0.0)
    out["trace.overhead"] = (wl.packets / wall) / plain_pps
    problems = tracing.check_tree(spans)
    out["trace.tree_problems"] = float(len(problems))
    meta["tree_problems"] = problems[:8]
    write_trace(out_dir, wl, spans, table)
    del spans, rows
    # Only the check counts are needed from here on: free the program and
    # the reference before the passes below build their own.
    wl.close()
    wl.ref = None

    if wl.name == "gateway":
        out.update(sharded_pass(wl, seconds / 4, plain_pps, meta, out_dir))

    # Counting passes on a fresh set-up, so their state depends only on
    # the seed.
    fresh = type(wl)(wl.size, wl.seed)
    try:
        fresh.inputs()
        fresh.setup()
        fresh.warm()
        out.update(counting_passes(fresh))
    finally:
        fresh.close()
    wl.absorb_check(fresh)
    out["check.failed_frac"] = wl.failed / wl.attempted if wl.attempted else 0.0
    return out


def sharded_pass(
    wl: Workload, seconds: float, fused_pps: float, meta: dict, out_dir: "Path | None"
) -> dict:
    """The ``parallel`` layer: ``wl``'s inputs through
    ``ShardedESwitch(workers=1)``, an untraced and a traced half.

    Lost packets (transport faults) count as failed; each fault's engine
    health snapshot goes into ``meta["sharded_faults"]``."""
    sh = GatewaySharded(wl.size, wl.seed)
    try:
        sh.inputs()
        sh.setup()
        sh.warm()
        out = {"parallel.rss_us": layers.rss_us(sh.templates, BURST)}
        window = timed_pass(sh, seconds / 2)
        out["parallel.pps"] = sh.packets / window
        out["parallel.vs_fused"] = out["parallel.pps"] / fused_pps
        spans, wall, moved = traced_pass(sh, seconds / 2)
        rows = tracing.by_name(spans)
        moved.update(span_metrics(rows, sh.packets, wall))
        out.update({k: v for k, v in moved.items() if k.startswith("parallel.")})
        write_trace(out_dir, sh, spans, tracing.self_time_table(spans, wall))
        meta["sharded_faults"] = sh.faults
    finally:
        sh.close()
    out["parallel.failed_frac"] = sh.failed / sh.attempted if sh.attempted else 0.0
    wl.absorb_check(sh)
    return out
