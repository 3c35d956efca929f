"""Per-layer measurements that spans cannot give.

The fused driver binds the parser and the hash/LPM lookups into its
generated code when it is compiled, so no wrapper can sit in front of
them. Those layers are timed standalone, on the workload's own packets
and keys: :func:`standalone`, and :func:`rss_us` for the sharded
engine's RSS scatter.

The counting probes measure work rather than time and repeat exactly
from run to run: :class:`CallCounter` (Python calls, ``sys.setprofile``)
and :class:`AllocCounter` (bytes allocated above the level at the start
of each call into the program, ``tracemalloc``).
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc

from repro.core.analysis import TemplateKind
from repro.openflow.fields import field_by_name
from repro.packet.parser import parse_l3
from repro.parallel.rss import RssIndirection
from repro.usecases import gateway

REPEATS = 5


def _median_ns(fn, args: list, repeats: int = REPEATS) -> float:
    """Median over ``repeats`` passes of ns per ``fn(arg)`` call."""
    if not args:
        return 0.0
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for arg in args:
            fn(arg)
        per_call.append((time.perf_counter_ns() - t0) / len(args))
    return statistics.median(per_call)


def standalone(switch, templates) -> dict[str, float]:
    """parse, DIR-24-8 and hash lookups, ns per call, on the workload's
    packets and the keys they carry."""
    pkts = [t.copy() for t in templates]
    out = {"packet.parse_ns": _median_ns(parse_l3, pkts)}

    views = [parse_l3(p) for p in pkts]
    dst = field_by_name("ipv4_dst").extract
    src = field_by_name("ipv4_src").extract
    vlan = field_by_name("vlan_vid").extract
    rib = switch.datapath.trampoline.get(gateway.ROUTING_TABLE)
    if rib is not None and rib.kind is TemplateKind.LPM:
        out["dpdk.lpm_lookup_ns"] = _median_ns(rib.lpm_store.lookup, [dst(v) for v in views])

    # Per-CE NAT tables: keyed on the masked private source address.
    keys: dict[int, list] = {}
    for v in views:
        ce = vlan(v) - gateway.ce_vlan(0)
        keys.setdefault(gateway.CE_TABLE_BASE + ce, []).append(src(v))
    total = count = 0.0
    for tid, values in keys.items():
        table = switch.datapath.trampoline.get(tid)
        if table is not None and table.kind is TemplateKind.HASH:
            mask = table.hash_masks[0]
            total += _median_ns(table.hash_store.get, [x & mask for x in values]) * len(values)
            count += len(values)
    if count:
        out["dpdk.hash_get_ns"] = total / count
    return out


def rss_us(templates, burst: int) -> float:
    """µs per burst of ``RssIndirection.shard_for`` over the packets.

    With one worker the engine sends every packet to it without hashing;
    this is what the scatter pays per burst once a second worker exists.
    """
    shard_for = RssIndirection(2).shard_for
    datas = [t.data for t in templates]
    bursts = [datas[i : i + burst] for i in range(0, len(datas) - burst + 1, burst)]

    def scatter(chunk):
        for data in chunk:
            shard_for(data)

    return _median_ns(scatter, bursts) / 1e3


class CallCounter:
    """Python function calls made inside the program (``'call'`` events)."""

    def __init__(self) -> None:
        self.calls = 0

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self.calls += 1

    def start(self) -> None:
        sys.setprofile(self._profile)

    def stop(self) -> None:
        sys.setprofile(None)
        self.calls -= 1  # the call of stop() itself


class AllocCounter:
    """Peak bytes allocated during each call, above the level at its start.

    Use it as a context manager: ``tracemalloc`` traces inside."""

    def __init__(self) -> None:
        self.bytes = 0
        self._base = 0

    def start(self) -> None:
        tracemalloc.reset_peak()
        self._base = tracemalloc.get_traced_memory()[0]

    def stop(self) -> None:
        self.bytes += tracemalloc.get_traced_memory()[1] - self._base

    def __enter__(self) -> "AllocCounter":
        tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        tracemalloc.stop()
