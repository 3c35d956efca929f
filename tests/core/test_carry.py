"""Carrying the fused driver across data-only flow-mods (Section 3.4).

A hash or LPM keyed-slot write changes table data, not code. The fused
driver shares the hash store, the LPM store and its outcome list by
reference, so when it already covers the written outcome
(:meth:`FusedPipeline.covers`) it is carried into the new generation
instead of re-fused. Every other update re-fuses lazily, as before.
Each test counts ``fuse_datapath`` calls and checks verdicts, rewritten
bytes and modeled cycles against the reference interpreter or the
trampoline.
"""

import pytest

import repro.core.fuse as fuse_mod
from repro.core import CompileConfig, ESwitch
from repro.core.analysis import TemplateKind
from repro.openflow.actions import DecTtl, Output, SetField
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import (
    ApplyActions,
    GotoTable,
    WriteActions,
    WriteMetadata,
)
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.meters import MeterInstruction
from repro.openflow.pipeline import Pipeline
from repro.packet import PacketBuilder
from repro.parallel.engine import ShardedESwitch
from repro.simcpu.platform import XEON_E5_2620
from repro.simcpu.recorder import CycleMeter
from repro.usecases import gateway

MAC0 = 0x0200_0000_0100
HASH, LPM, SINK = 0, 1, 2


@pytest.fixture
def fuses(monkeypatch):
    """Every ``fuse_datapath`` call, in order."""
    calls = []
    real = fuse_mod.fuse_datapath

    def counting(dp):
        calls.append(dp)
        return real(dp)

    monkeypatch.setattr(fuse_mod, "fuse_datapath", counting)
    return calls


def _keyed_pipeline() -> Pipeline:
    """Table 0 hashes on eth_dst (odd MACs go on to table 1), table 1 is
    an LPM on ipv4_dst (/16s and /24s), table 2 is reached by no goto."""
    t0 = FlowTable(HASH)
    for i in range(8):
        instructions = [ApplyActions([Output(1 + i % 2)])]
        if i % 2:
            instructions.append(GotoTable(LPM))
        t0.add(FlowEntry(Match(eth_dst=MAC0 + i), priority=10,
                         instructions=tuple(instructions)))
    t1 = FlowTable(LPM)
    for i in range(8):
        t1.add(FlowEntry(Match(ipv4_dst=f"10.{i}.0.0/16"), priority=16,
                         actions=[Output(3)]))
        t1.add(FlowEntry(Match(ipv4_dst=f"10.{i}.1.0/24"), priority=24,
                         actions=[Output(4)]))
    t2 = FlowTable(SINK)
    t2.add(FlowEntry(Match(), priority=0, actions=[Output(4)]))
    pipeline = Pipeline([t0, t1, t2])
    pipeline.meters.add(1, rate_pps=1.0, burst=1e9)  # never fires
    return pipeline


def _pkt(mac_index: int, dst: str = "10.1.2.3", ttl: int = 64):
    return (
        PacketBuilder(in_port=1)
        .eth(dst=MAC0 + mac_index)
        .ipv4(dst=dst, ttl=ttl)
        .tcp(dst_port=80)
        .build()
    )


def _probe_pkts():
    return [_pkt(i, f"10.{i % 9}.{i % 3}.1") for i in range(10)]


def _add(table_id, match, priority, instructions):
    return FlowMod(FlowModCommand.ADD, table_id, match, priority=priority,
                   instructions=tuple(instructions))


def _delete(table_id, match, priority):
    return FlowMod(FlowModCommand.DELETE, table_id, match, priority=priority,
                   strict=True)


def _submit(sw, mods):
    reply = sw.submit_flow_mods(mods)
    assert reply, reply.errors


def _check(sw, pkts):
    """The fused burst agrees with ``Pipeline.process`` on the switch's
    own logical tables: verdicts and rewritten bytes."""
    got = [p.copy() for p in pkts]
    want = [p.copy() for p in pkts]
    verdicts = sw.process_burst(got)
    for pkt_got, pkt_want, verdict in zip(got, want, verdicts):
        assert verdict.summary() == sw.pipeline.process(pkt_want).summary()
        assert pkt_got.data == pkt_want.data


def _warm(sw, fuses):
    _check(sw, _probe_pkts())
    assert len(fuses) == 1
    return sw.datapath.fused


class TestCarry:
    """Covered slot writes keep the standing driver."""

    def test_kinds(self):
        sw = ESwitch(_keyed_pipeline())
        assert sw.compiled_table(HASH).kind is TemplateKind.HASH
        assert sw.compiled_table(LPM).kind is TemplateKind.LPM

    @pytest.mark.parametrize("mods", [
        # hash insert: a known op and the table's existing goto edge
        [_add(HASH, Match(eth_dst=MAC0 + 9), 10,
              [ApplyActions([Output(2)]), GotoTable(LPM)])],
        # hash replace (slot rebind) and strict delete
        [_add(HASH, Match(eth_dst=MAC0 + 1), 10, [ApplyActions([Output(1)])])],
        [_delete(HASH, Match(eth_dst=MAC0 + 3), 10)],
        # LPM add, rebind and delete
        [_add(LPM, Match(ipv4_dst="10.8.0.0/16"), 16, [ApplyActions([Output(2)])])],
        [_add(LPM, Match(ipv4_dst="10.1.0.0/16"), 16, [ApplyActions([Output(1)])])],
        [_delete(LPM, Match(ipv4_dst="10.5.0.0/16"), 16)],
    ], ids=["hash-insert", "hash-rebind", "hash-delete",
            "lpm-add", "lpm-rebind", "lpm-delete"])
    def test_covered_write_keeps_driver(self, fuses, mods):
        sw = ESwitch(_keyed_pipeline())
        fused = _warm(sw, fuses)
        generation = sw.datapath.generation
        _submit(sw, mods)
        assert sw.datapath.generation == generation + len(mods)
        assert sw.datapath.fused is fused and fused.is_current(sw.datapath)
        assert sw.health().carried_generations == len(mods)
        _check(sw, _probe_pkts())
        assert len(fuses) == 1

    def test_gateway_hash_churn_never_refuses(self, fuses):
        """Subscribers leave and rejoin through ``submit_flow_mods``: every
        mod is a hash-slot write the driver covers."""
        pipeline, fib = gateway.build(n_ce=2, users_per_ce=8, n_prefixes=64)
        sw = ESwitch(pipeline)
        pkts = list(gateway.traffic(fib, 32, n_ce=2, users_per_ce=8))
        _check(sw, pkts)
        fused = sw.datapath.fused
        for ce, user in [(0, 3), (1, 5), (0, 7), (1, 0)]:
            leave = [_delete(m.table_id, m.match, m.priority)
                     for m in gateway.nat_flow_mods(ce, user)]
            _submit(sw, leave)
            _check(sw, pkts)
            _submit(sw, gateway.nat_flow_mods(ce, user))
            _check(sw, pkts)
        assert len(fuses) == 1
        assert sw.datapath.fused is fused
        assert sw.health().carried_generations == 16

    def test_lpm_tbl8_growth_seen_by_carried_driver(self, fuses):
        """Adds that grow the DIR-24-8 TBL8 pool past its initial size,
        then deletes, all served by the one standing driver."""
        sw = ESwitch(_keyed_pipeline())
        fused = _warm(sw, fuses)
        store = sw.compiled_table(LPM).lpm_store
        capacity = store.tbl8_capacity
        hosts = [f"172.{16 + i // 256}.{i % 256}.1" for i in range(capacity + 44)]
        _submit(sw, [
            _add(LPM, Match(ipv4_dst=f"{host}/32"), 32,
                 [ApplyActions([Output(1 + i % 4)])])
            for i, host in enumerate(hosts)
        ])
        assert store.tbl8_capacity > capacity
        probes = [_pkt(1, host) for host in hosts[::37]] + [_pkt(1, "172.16.0.2")]
        _check(sw, probes)
        _submit(sw, [_delete(LPM, Match(ipv4_dst=f"{host}/32"), 32)
                     for host in hosts[::2]])
        _check(sw, probes)
        assert len(fuses) == 1 and sw.datapath.fused is fused

    def test_metered_cycles_match_trampoline_after_carry(self, fuses):
        fused_sw = ESwitch(_keyed_pipeline())
        tramp_sw = ESwitch(_keyed_pipeline(), config=CompileConfig(fuse=False))
        mods = [
            _add(HASH, Match(eth_dst=MAC0 + 9), 10,
                 [ApplyActions([Output(2)]), GotoTable(LPM)]),
            _add(LPM, Match(ipv4_dst="10.9.0.0/16"), 16, [ApplyActions([Output(2)])]),
            _delete(HASH, Match(eth_dst=MAC0 + 2), 10),
        ]
        pkts = _probe_pkts() + [_pkt(9, "10.9.1.1")]
        results = []
        for sw in (fused_sw, tramp_sw):
            meter = CycleMeter(XEON_E5_2620)
            sw.process_burst([p.copy() for p in pkts], meter)
            _submit(sw, mods)
            verdicts = sw.process_burst([p.copy() for p in pkts], meter)
            results.append(([v.summary() for v in verdicts], meter.total_cycles))
        assert fused_sw.health().carried_generations == len(mods)
        assert fused_sw.datapath.fused.process is not None  # metered ran fused
        assert results[0] == results[1]  # cycles exact, not approx
        assert len(fuses) == 1


class TestRefuse:
    """Everything the standing driver cannot serve still re-fuses."""

    @pytest.mark.parametrize("instructions", [
        lambda p: (ApplyActions([DecTtl(), Output(1)]),),
        lambda p: (ApplyActions([Output(1)]), GotoTable(SINK)),
        lambda p: (WriteActions([Output(2)]),),
        lambda p: (MeterInstruction(p.meters, 1), ApplyActions([Output(1)])),
        lambda p: (WriteMetadata(5, 0xFF), ApplyActions([Output(1)])),
    ], ids=["new-opcode", "new-goto-edge", "write-actions", "meter",
            "metadata-write"])
    @pytest.mark.parametrize("table_id", [HASH, LPM])
    def test_uncovered_write_refuses(self, fuses, instructions, table_id):
        sw = ESwitch(_keyed_pipeline())
        fused = _warm(sw, fuses)
        assert fused.acyclic
        if table_id == HASH:
            match, priority, probe = Match(eth_dst=MAC0 + 9), 10, _pkt(9, ttl=7)
        else:
            match, priority = Match(ipv4_dst="10.9.0.0/16"), 16
            probe = _pkt(1, "10.9.0.1", ttl=7)
        # apply_flow_mods: admission turns mods with a MeterInstruction away.
        sw.apply_flow_mods([_add(table_id, match, priority, instructions(sw.pipeline))])
        assert not fused.is_current(sw.datapath)
        assert sw.health().carried_generations == 0
        _check(sw, _probe_pkts() + [probe])
        assert len(fuses) == 2 and sw.datapath.fused is not fused

    def test_catch_all_change_refuses(self, fuses):
        sw = ESwitch(_keyed_pipeline())
        fused = _warm(sw, fuses)
        _submit(sw, [_add(HASH, Match(), 0, [ApplyActions([Output(1)])])])
        compiled = sw.compiled_table(HASH)
        assert compiled.kind is TemplateKind.HASH
        assert compiled.miss is compiled.namespace["_MISS"]
        _check(sw, _probe_pkts() + [_pkt(40)])
        assert len(fuses) == 2 and sw.datapath.fused is not fused

    def test_parser_layer_change_refuses(self, fuses):
        """The one entry that writes an L3 field leaves: the parser is
        re-planned down to L2, so the driver's inline parser must go."""
        t0 = FlowTable(0)
        for i in range(8):
            actions = [Output(1)]
            if i == 7:
                actions = [SetField("ipv4_dst", 0x0A000001), Output(2)]
            t0.add(FlowEntry(Match(eth_dst=MAC0 + i), priority=10, actions=actions))
        sw = ESwitch(Pipeline([t0]))
        assert sw.datapath.parser_layer == 3
        fused = _warm(sw, fuses)
        _submit(sw, [_delete(0, Match(eth_dst=MAC0 + 7), 10)])
        assert sw.datapath.parser_layer == 2
        _check(sw, _probe_pkts())
        assert len(fuses) == 2 and sw.datapath.fused is not fused

    def test_rebuild_refuses(self, fuses):
        sw = ESwitch(_keyed_pipeline())
        fused = _warm(sw, fuses)
        _submit(sw, [_add(HASH, Match(eth_src=0x0200_0000_0001), 10,
                          [ApplyActions([Output(1)])])])
        assert sw.compiled_table(HASH).kind is not TemplateKind.HASH
        _check(sw, _probe_pkts())
        assert len(fuses) == 2 and sw.datapath.fused is not fused


class TestFusedResume:
    """A punt mid-burst only queues a PacketIn: the burst stays fused."""

    def _switches(self, handler_log):
        """A fused and a trampoline gateway, six of eight users admitted
        per CE, both punting into ``handler_log``."""
        switches = []
        for config in (CompileConfig(fuse=True), CompileConfig(fuse=False)):
            pipeline, fib = gateway.build(n_ce=2, users_per_ce=8, n_prefixes=64,
                                          provision_users=False)
            for ce in range(2):
                for user in range(6):
                    for mod in gateway.nat_flow_mods(ce, user):
                        pipeline.table(mod.table_id).add(mod.to_entry())
            switches.append(ESwitch(pipeline, config=config,
                                    packet_in_handler=handler_log.append))
        pkts = list(gateway.traffic(fib, 32, n_ce=2, users_per_ce=8))
        return switches[0], switches[1], pkts

    def test_punts_do_not_leave_fused_driver(self, monkeypatch):
        punts = []
        fused_sw, tramp_sw, pkts = self._switches(punts)

        def no_trampoline(*args, **kwargs):
            raise AssertionError("burst left the fused driver")

        monkeypatch.setattr(fused_sw.datapath, "_trampoline_burst", no_trampoline)
        results = []
        for sw in (fused_sw, tramp_sw):
            meter = CycleMeter(XEON_E5_2620)
            verdicts = sw.process_burst([p.copy() for p in pkts], meter)
            results.append(([v.summary() for v in verdicts], meter.total_cycles))
        assert any(v[2] for v in results[0][0])  # some packets punted
        assert results[0] == results[1]  # metered resume: cycles exact
        before = len(punts)
        verdicts = fused_sw.process_burst([p.copy() for p in pkts])
        assert len(punts) > before
        assert [v.summary() for v in verdicts] == results[0][0]


class TestSharded:
    def test_hash_slot_batch_keeps_worker_drivers(self, fuses):
        pipeline, fib = gateway.build(n_ce=2, users_per_ce=8, n_prefixes=64)
        pkts = list(gateway.traffic(fib, 32, n_ce=2, users_per_ce=8))
        with ShardedESwitch(pipeline, workers=2, backend="thread") as engine:
            engine.process_burst([p.copy() for p in pkts])
            assert len(fuses) == 2  # one driver per worker
            leave = [_delete(m.table_id, m.match, m.priority)
                     for m in gateway.nat_flow_mods(1, 2)]
            for batch in (leave, gateway.nat_flow_mods(1, 2), leave):
                assert engine.submit_flow_mods(batch)
                verdicts = engine.process_burst([p.copy() for p in pkts])
                reference = engine.shadow.pipeline
                assert [v.summary() for v in verdicts] == [
                    reference.process(p.copy()).summary() for p in pkts
                ]
            # The shadow fuses once, at its first warm(); workers never again.
            shadow = engine.shadow.datapath
            assert [dp is shadow for dp in fuses] == [False, False, True]
