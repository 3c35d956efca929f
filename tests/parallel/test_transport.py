"""The transport contract: zero pickle per burst, parity with one switch.

Bursts cross the shard boundary as packed binary frames over each
worker's one pipe, sharing it with the pickled control messages. As
executable checks:

* a storm of bursts crosses the shard boundary with **zero** pickle
  calls on the datapath, on both backends (pickle remains only for the
  one-time snapshot at spawn and rare control messages);
* every backend and worker count matches a sequential :class:`ESwitch`
  in verdicts, flow counters, and burst telemetry — including a
  two-process run of mixed 60–3000 B packets with a flow-mod batch
  mid-stream, where the workers and the engine really race;
* a packet the frame columns cannot hold is rejected with a typed
  :class:`FrameError` before anything is sent — not mistaken for a
  dead worker;
* the double-buffered path (``submit_burst``/``collect``) returns
  exactly what the sequential path returns, in order, and large
  pipelined bursts cannot deadlock the pipe;
* the thread backend's by-reference channel is unobservable: caller
  packets are never mutated, replies never alias worker state;
* closing or respawning never leaks worker processes.
"""

import multiprocessing
import os
import pickle
import random

import pytest

from repro.core import ESwitch
from repro.openflow.actions import Output
from repro.openflow.instructions import ApplyActions
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.parallel import FaultInjector, FaultSpec, ShardedESwitch, frames
from repro.simcpu.platform import XEON_E5_2620
from repro.simcpu.recorder import CycleMeter
from repro.usecases import gateway

from test_sharded import summarize


def scenario():
    pipeline, fib = gateway.build(n_ce=2, users_per_ce=8, n_prefixes=16)
    pkts = gateway.traffic(fib, 96, n_ce=2, users_per_ce=8)
    return pipeline, pkts


def bursts_of(pkts, size=16):
    return [pkts[i:i + size] for i in range(0, len(pkts), size)]


def mixed_sizes(pkts, seed=7):
    """Pad each packet with random payload to a random 60–3000 B size."""
    rng = random.Random(seed)
    out = []
    for pkt in pkts:
        pkt = pkt.copy()
        pad = max(0, rng.randint(60, 3000) - len(pkt.data))
        pkt.data += rng.randbytes(pad)
        out.append(pkt)
    return out


def route_batch(pipeline):
    """Withdraw one FIB route and re-point another: changes some verdicts."""
    routes = pipeline.get_or_create(110).entries
    return [
        FlowMod(FlowModCommand.DELETE, 110, routes[0].match,
                priority=routes[0].priority, strict=True),
        FlowMod(FlowModCommand.ADD, 110, routes[1].match,
                priority=routes[1].priority,
                instructions=(ApplyActions([Output(9)]),)),
    ]


def flow_counters(pipeline):
    return {
        (t.table_id, i): (e.counters.packets, e.counters.bytes)
        for t in pipeline for i, e in enumerate(t.entries)
    }


def shard_processes():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("repro-shard-")]


class _PickleTap:
    """Counts every route into pickle the transports can take: the
    stdlib module functions, and ``multiprocessing.reduction.
    ForkingPickler`` — the class ``Connection.send``/``recv`` actually
    ride (its ``dumps``/``loads`` class attributes are looked up at
    call time, so patching the class intercepts every pipe message)."""

    def __init__(self, monkeypatch):
        from multiprocessing import reduction

        self.calls = 0

        def count(fn):
            def wrapped(*a, **k):
                self.calls += 1
                return fn(*a, **k)
            return wrapped

        monkeypatch.setattr(pickle, "dumps", count(pickle.dumps))
        monkeypatch.setattr(pickle, "loads", count(pickle.loads))
        monkeypatch.setattr(
            reduction.ForkingPickler, "dumps",
            count(reduction.ForkingPickler.dumps),
        )
        monkeypatch.setattr(
            reduction.ForkingPickler, "loads",
            staticmethod(count(reduction.ForkingPickler.loads)),
        )


class TestZeroPickleDatapath:
    def test_burst_storm_never_pickles(self, monkeypatch):
        """The thread backend puts both halves of the conversation in
        this process: if either the scatter or the gather side touched
        pickle, the tap would see it."""
        pipeline, pkts = scenario()
        with ShardedESwitch(pipeline, workers=2, backend="thread") as eng:
            eng.process_burst([p.copy() for p in pkts[:16]])  # warm lanes
            tap = _PickleTap(monkeypatch)
            for burst in bursts_of(pkts):
                eng.process_burst([p.copy() for p in burst])
            assert tap.calls == 0, (
                f"{tap.calls} pickle call(s) on the per-burst datapath"
            )

    def test_process_engine_side_never_pickles(self, monkeypatch):
        """Process backend: the engine half of the pipe conversation
        (this process) stays pickle-free per burst too."""
        pipeline, pkts = scenario()
        with ShardedESwitch(pipeline, workers=2, backend="process") as eng:
            eng.process_burst([p.copy() for p in pkts[:16]])
            tap = _PickleTap(monkeypatch)
            for burst in bursts_of(pkts):
                eng.process_burst([p.copy() for p in burst])
            assert tap.calls == 0


class TestTransportParity:
    @pytest.mark.parametrize("backend,workers,mixed", [
        pytest.param("thread", 2, False, id="thread-2"),
        pytest.param("process", 2, False, id="process-2"),
        pytest.param("process", 1, False, id="process-1"),
        pytest.param("process", 2, True, id="process-2-mixed-race"),
    ])
    def test_matches_sequential(self, backend, workers, mixed):
        """Depth-2 pipelined bursts with a flow-mod batch mid-stream equal
        a sequential switch. The mixed case runs two unpinned worker
        processes on 60–3000 B packets: frames of every size cross the
        pipes while both workers and the engine run at once."""
        if mixed and (os.cpu_count() or 1) < 2:
            pytest.skip("needs >= 2 CPUs to race")
        pipeline, pkts = scenario()
        if mixed:
            pkts = mixed_sizes([pkts[i % len(pkts)] for i in range(384)])
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        sm, em = CycleMeter(XEON_E5_2620), CycleMeter(XEON_E5_2620)
        batch = route_batch(pipeline)
        phases = []
        with ShardedESwitch(pipeline, workers=workers, backend=backend) as eng:
            assert eng.backend == backend
            for phase in range(2):
                if phase:
                    seq.apply_flow_mods(batch)
                    eng.apply_flow_mods(batch)
                want, handles = [], []
                for burst in bursts_of(pkts, 24):
                    want.append(summarize(
                        seq.process_burst([p.copy() for p in burst], sm),
                        seq.pipeline,
                    ))
                    handles.append(eng.submit_burst(
                        [p.copy() for p in burst], em
                    ))
                    if len(handles) > 1:  # keep two in flight
                        eng.collect(handles[-2])
                got = [summarize(eng.collect(h), eng.pipeline) for h in handles]
                assert got == want
                phases.append(got)
                assert eng.last_gather_epochs == (phase,) * len(
                    eng.last_gather_epochs
                )
            assert phases[0] != phases[1], "the batch must move some verdicts"
            eng.sync_flow_stats()
            assert flow_counters(eng.pipeline) == flow_counters(seq.pipeline)
            merged, ref = eng.merged_burst_stats(), seq.burst_stats
            assert merged.packets == ref.packets
            assert (eng.burst_stats.bursts, eng.burst_stats.histogram) == (
                ref.bursts, ref.histogram
            )
            if workers == 1:  # one replica: telemetry and cycles bit-exact
                assert (merged.bursts, merged.histogram, merged.cycles) == (
                    ref.bursts, ref.histogram, ref.cycles
                )
                assert em.total_cycles == sm.total_cycles
            assert eng.health().faults_detected == 0


class TestUnencodablePacket:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_frame_error_is_caller_error_not_fault(self, backend):
        """An in_port past the u32 frame column is the caller's error:
        typed FrameError from submit_burst, nothing in flight, no fault
        counted, and the engine keeps serving."""
        pipeline, pkts = scenario()
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        with ShardedESwitch(pipeline, workers=2, backend=backend) as eng:
            bad = [p.copy() for p in pkts[:16]]
            bad[5].in_port = 2**32
            with pytest.raises(frames.FrameError):
                eng.submit_burst(bad)
            with pytest.raises(frames.FrameError):
                eng.process_burst(bad)
            health = eng.health()
            assert health.faults_detected == 0
            assert health.respawns == 0 and health.retries == 0
            assert eng.merged_burst_stats().packets == 0
            burst = pkts[16:32]
            got = eng.process_burst([p.copy() for p in burst])
            want = seq.process_burst([p.copy() for p in burst])
            assert summarize(got, eng.pipeline) == summarize(want, seq.pipeline)
            assert eng.health().faults_detected == 0


class TestDoubleBuffer:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_submit_collect_matches_sequential(self, backend):
        """Depth-2 pipelining (submit N+1 before collecting N) returns
        the same verdicts in the same order as one-at-a-time."""
        pipeline, pkts = scenario()
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        want = [
            summarize(seq.process_burst([p.copy() for p in b]), seq.pipeline)
            for b in bursts_of(pkts)
        ]
        with ShardedESwitch(pipeline, workers=2, backend=backend) as eng:
            handles = []
            got = []
            for burst in bursts_of(pkts):
                handle = eng.submit_burst([p.copy() for p in burst])
                handles.append(handle)
                if len(handles) > 1:  # keep two in flight
                    got.append(summarize(
                        eng.collect(handles.pop(0)), eng.pipeline
                    ))
            while handles:
                got.append(summarize(eng.collect(handles.pop(0)), eng.pipeline))
            assert got == want
            eng.sync_flow_stats()
        assert flow_counters(eng.pipeline) == flow_counters(seq.pipeline)

    def test_collect_is_idempotent_and_out_of_order(self):
        pipeline, pkts = scenario()
        with ShardedESwitch(pipeline, workers=2, backend="thread") as eng:
            h1 = eng.submit_burst([p.copy() for p in pkts[:16]])
            h2 = eng.submit_burst([p.copy() for p in pkts[16:32]])
            v2 = eng.collect(h2)      # out of order: forces FIFO drain of h1
            v1 = eng.collect(h1)
            assert eng.collect(h1) is v1   # idempotent
            assert eng.collect(h2) is v2
            assert len(v1) == 16 and len(v2) == 16

    def test_large_pipelined_bursts_do_not_deadlock(self):
        """Two in-flight bursts whose request and reply frames both
        outgrow the socket buffers: the worker blocks writing reply 1,
        so request 2 must wait for the gather instead of blocking the
        engine on a write nobody reads."""
        pipeline, pkts = scenario()
        big = [pkts[i % len(pkts)] for i in range(6000)]
        with ShardedESwitch(pipeline, workers=1, backend="process",
                            rpc_deadline=60) as eng:
            h1 = eng.submit_burst([p.copy() for p in big])
            h2 = eng.submit_burst([p.copy() for p in big])
            v1, v2 = eng.collect(h1), eng.collect(h2)
            assert summarize(v1, eng.pipeline) == summarize(v2, eng.pipeline)
            assert eng.health().faults_detected == 0


class TestThreadByReference:
    def test_caller_packets_never_mutated(self):
        """The thread channel hands frames across by reference; the
        worker runs them through replicas that rewrite headers — the
        caller's own packets must come back byte-identical anyway."""
        pipeline, pkts = scenario()
        with ShardedESwitch(pipeline, workers=2, backend="thread") as eng:
            originals = [bytes(p.data) for p in pkts]
            for burst in bursts_of(pkts):
                eng.process_burst(burst)   # no defensive copies by caller
            assert [bytes(p.data) for p in pkts] == originals

    def test_thread_matches_process_backend(self):
        pipeline, pkts = scenario()
        results = {}
        for backend in ("thread", "process"):
            eng = ShardedESwitch(
                pickle.loads(pickle.dumps(pipeline)), workers=2,
                backend=backend,
            )
            try:
                meter = CycleMeter(XEON_E5_2620)
                sums = [
                    summarize(
                        eng.process_burst([p.copy() for p in b], meter),
                        eng.pipeline,
                    )
                    for b in bursts_of(pkts)
                ]
                results[backend] = (sums, meter.total_cycles)
            finally:
                eng.close()
        assert results["thread"] == results["process"]


class TestTeardownHygiene:
    def test_close_reaps_every_worker(self):
        pipeline, pkts = scenario()
        eng = ShardedESwitch(pipeline, workers=2, backend="process")
        procs = [slot.shard.proc for slot in eng._slots]
        assert all(p.is_alive() for p in procs)
        eng.process_burst([p.copy() for p in pkts])
        eng.close()
        assert not any(p.is_alive() for p in procs)
        assert not any(p in shard_processes() for p in procs)

    def test_respawn_does_not_accumulate_workers(self):
        """Kill a worker repeatedly: each respawn reaps the dead
        generation, so the live worker count never grows."""
        pipeline, pkts = scenario()
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        inj = FaultInjector(
            FaultSpec(shard=0, cmd="burst", when="before", generation=0),
            FaultSpec(shard=0, cmd="burst", when="before", generation=1),
        )
        before = set(shard_processes())
        eng = ShardedESwitch(pipeline, workers=2, backend="process",
                             fault_injector=inj, retry_backoff=0.001)
        try:
            for i in range(4):
                burst = [p.copy() for p in pkts[i * 12:(i + 1) * 12]]
                want = summarize(
                    seq.process_burst([p.copy() for p in burst]),
                    seq.pipeline,
                )
                got = summarize(eng.process_burst(burst), eng.pipeline)
                assert got == want
                assert len(set(shard_processes()) - before) == 2
            assert eng.health().respawns == 2
            assert not eng.health().degraded
        finally:
            eng.close()
        assert set(shard_processes()) <= before
