"""Tests for whole-pipeline fusion (repro.core.fuse).

The contract under test is the one the module banner promises: the fused
driver is an *optimization*, never a semantic — verdicts are identical to
the trampoline's and modeled cycles are **bit-identical**, across random
pipelines, mid-stream flow-mods (which force a lazy re-fuse), and
transactional rollback.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts

from repro.core import CompileConfig, ESwitch
from repro.core.datapath import CompiledDatapath
from repro.core.fuse import FuseError, fuse_datapath
from repro.core.outcome import OP_DEC_TTL, OP_GENERIC, OP_POP_VLAN
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.packet import PacketBuilder
from repro.simcpu.platform import XEON_E5_2620
from repro.simcpu.recorder import CycleMeter
from repro.usecases import gateway, l2


FUSED = CompileConfig(fuse=True)
TRAMPOLINE = CompileConfig(fuse=False)


def _pair(pipeline):
    """(fused switch, trampoline switch) over the same logical pipeline."""
    return (
        ESwitch.from_pipeline(pipeline, config=FUSED),
        ESwitch.from_pipeline(pipeline, config=TRAMPOLINE),
    )


def _run_metered(sw, pkts):
    """Verdict summaries + exact modeled cycles for a packet sequence."""
    meter = CycleMeter(XEON_E5_2620)
    summaries = []
    for pkt in pkts:
        meter.begin_packet()
        summaries.append(sw.process(pkt.copy(), meter).summary())
        meter.end_packet()
    return summaries, meter.total_cycles


class TestParity:
    """Fused ≡ trampoline: verdicts and bit-identical modeled cycles."""

    @settings(max_examples=60, deadline=None)
    @given(sts.pipelines(), st.lists(sts.packets(), min_size=1, max_size=6))
    def test_verdicts_and_cycles_match(self, pipeline, pkts):
        sw_f, sw_t = _pair(pipeline)
        got_f, cycles_f = _run_metered(sw_f, pkts)
        got_t, cycles_t = _run_metered(sw_t, pkts)
        assert got_f == got_t
        assert cycles_f == cycles_t  # exact, not approx: the model may not drift
        # The parity must come from the fused driver actually running.
        assert sw_f.datapath.fused is not None
        assert sw_t.datapath.fused is None

    @settings(max_examples=40, deadline=None)
    @given(sts.pipelines(), st.lists(sts.packets(), min_size=1, max_size=8))
    def test_null_meter_verdicts_match(self, pipeline, pkts):
        sw_f, sw_t = _pair(pipeline)
        got_f = [sw_f.process(pkt.copy()).summary() for pkt in pkts]
        got_t = [sw_t.process(pkt.copy()).summary() for pkt in pkts]
        assert got_f == got_t

    @settings(max_examples=30, deadline=None)
    @given(sts.pipelines(), st.lists(sts.packets(), min_size=1, max_size=8))
    def test_burst_parity(self, pipeline, pkts):
        sw_f, sw_t = _pair(pipeline)
        meter_f = CycleMeter(XEON_E5_2620)
        meter_t = CycleMeter(XEON_E5_2620)
        got_f = [
            v.summary()
            for v in sw_f.process_burst([p.copy() for p in pkts], meter_f)
        ]
        got_t = [
            v.summary()
            for v in sw_t.process_burst([p.copy() for p in pkts], meter_t)
        ]
        assert got_f == got_t
        assert meter_f.total_cycles == meter_t.total_cycles

    def test_gateway_packet_rewrites_match(self):
        """Fusion must also leave identical bytes on the wire."""
        p1, fib = gateway.build(n_ce=2, users_per_ce=4, n_prefixes=64)
        p2, _ = gateway.build(n_ce=2, users_per_ce=4, n_prefixes=64)
        sw_f = ESwitch.from_pipeline(p1, config=FUSED)
        sw_t = ESwitch.from_pipeline(p2, config=TRAMPOLINE)
        for base in gateway.traffic(fib, 64, n_ce=2, users_per_ce=4):
            a, b = base.copy(), base.copy()
            assert sw_f.process(a).summary() == sw_t.process(b).summary()
            assert a.data == b.data


class TestFlowModsAndRollback:
    """Re-fuse after updates; rollback leaves a consistent fused driver."""

    def _gateway_pair(self):
        p1, fib = gateway.build(n_ce=2, users_per_ce=2, n_prefixes=32)
        p2, _ = gateway.build(n_ce=2, users_per_ce=2, n_prefixes=32)
        sw_f = ESwitch.from_pipeline(p1, config=FUSED)
        sw_t = ESwitch.from_pipeline(p2, config=TRAMPOLINE)
        pkts = gateway.traffic(fib, 48, n_ce=2, users_per_ce=2)
        return sw_f, sw_t, pkts

    def _assert_parity(self, sw_f, sw_t, pkts):
        got_f, cycles_f = _run_metered(sw_f, pkts)
        got_t, cycles_t = _run_metered(sw_t, pkts)
        assert got_f == got_t
        assert cycles_f == cycles_t

    def test_mid_stream_flow_mods_refuse(self):
        sw_f, sw_t, pkts = self._gateway_pair()
        self._assert_parity(sw_f, sw_t, pkts)
        gen_before = sw_f.datapath.fused.generation
        # Admit a user that build() did not provision: both tables mutate
        # (one incrementally, in place), so the fused driver must be
        # invalidated and rebuilt before the next packet.
        for mod in gateway.nat_flow_mods(ce=1, user=3):
            sw_f.apply_flow_mod(mod)
            sw_t.apply_flow_mod(mod)
        assert sw_f.datapath.generation > gen_before
        self._assert_parity(sw_f, sw_t, pkts)
        assert sw_f.datapath.fused.generation > gen_before

    def test_flow_mod_between_bursts(self):
        """The lazy re-fuse happens off the update path, on the next packet."""
        sw_f, sw_t, pkts = self._gateway_pair()
        batch = [p.copy() for p in pkts[:16]]
        assert [v.summary() for v in sw_f.process_burst(batch)] == [
            v.summary() for v in sw_t.process_burst([p.copy() for p in pkts[:16]])
        ]
        for mod in gateway.nat_flow_mods(ce=0, user=2):
            sw_f.apply_flow_mod(mod)
            sw_t.apply_flow_mod(mod)
        # No packet has run yet: the stale driver is still cached but no
        # longer matches the generation, so it must not be used.
        assert sw_f.datapath.fused.generation != sw_f.datapath.generation
        self._assert_parity(sw_f, sw_t, pkts)
        assert sw_f.datapath.fused.generation == sw_f.datapath.generation

    def test_transactional_rollback_keeps_parity(self):
        sw_f, sw_t, pkts = self._gateway_pair()
        self._assert_parity(sw_f, sw_t, pkts)
        good = gateway.nat_flow_mods(ce=0, user=3)
        bad = FlowMod(
            FlowModCommand.ADD,
            gateway.REVERSE_TABLE,
            Match(eth_dst=1),
            priority=-1,  # invalid: the batch must roll back atomically
        )
        for sw in (sw_f, sw_t):
            with pytest.raises(ValueError):
                sw.apply_flow_mods([*good, bad])
        self._assert_parity(sw_f, sw_t, pkts)
        # The rolled-back user must not have become reachable.
        probe = (
            PacketBuilder(in_port=gateway.NETWORK_PORT)
            .eth()
            .ipv4(dst=gateway.public_ip(0, 3))
            .tcp(dst_port=80)
            .build()
        )
        assert sw_f.process(probe.copy()).summary() == sw_t.process(
            probe.copy()
        ).summary()


class TestGenerationContract:
    """install/uninstall/set_parser_layer/bump_generation invalidate."""

    def _switch(self):
        p, _macs = l2.build(16)
        return ESwitch.from_pipeline(p, config=FUSED)

    def _pkt(self):
        return PacketBuilder().eth(dst=0x0200_0000_0001).ipv4().build()

    def test_lazy_fuse_on_first_packet(self):
        sw = self._switch()
        dp = sw.datapath
        assert dp.fused is None  # nothing fused before traffic
        sw.process(self._pkt())
        assert dp.fused is not None
        assert dp.fused.generation == dp.generation

    def test_fused_driver_cached_across_packets(self):
        sw = self._switch()
        sw.process(self._pkt())
        first = sw.datapath.fused
        sw.process(self._pkt())
        assert sw.datapath.fused is first

    def test_bump_generation_forces_refuse(self):
        sw = self._switch()
        sw.process(self._pkt())
        stale = sw.datapath.fused
        sw.datapath.bump_generation()
        sw.process(self._pkt())
        assert sw.datapath.fused is not stale

    def test_set_parser_layer_bumps(self):
        sw = self._switch()
        gen = sw.datapath.generation
        sw.datapath.set_parser_layer(4)
        assert sw.datapath.generation == gen + 1

    def test_install_uninstall_bump(self):
        dp = CompiledDatapath(first_table=0)
        gen = dp.generation
        table = FlowTable(0)
        table.add(
            FlowEntry(Match(), priority=1, instructions=(ApplyActions([Output(1)]),))
        )
        sw = ESwitch.from_pipeline(Pipeline([table]))
        compiled = sw.compiled_table(0)
        dp.install(compiled)
        assert dp.generation == gen + 1
        dp.uninstall(0)
        assert dp.generation == gen + 2

    def test_fusion_disabled_never_fuses(self):
        p, _macs = l2.build(16)
        sw = ESwitch.from_pipeline(p, config=TRAMPOLINE)
        for _ in range(3):
            sw.process(self._pkt())
        assert sw.datapath.fused is None

    def test_metered_variant_compiles_on_first_metered_packet(self):
        sw = self._switch()
        sw.process(self._pkt())
        fused = sw.datapath.fused
        assert fused.process is None and "_process" not in fused.namespace
        sw.process(self._pkt(), CycleMeter(XEON_E5_2620))
        assert sw.datapath.fused is fused
        assert fused.process is fused.namespace["_process"]

    def test_metered_variant_load_failure_degrades_to_trampoline(self, monkeypatch):
        import repro.core.fuse as fuse_mod

        sw = self._switch()
        expected = sw.process(self._pkt()).summary()
        real_compile = compile

        def bad_compile(src, name, mode):
            if "fused-metered" in name:
                raise SyntaxError("synthetic codegen corruption")
            return real_compile(src, name, mode)

        monkeypatch.setattr(fuse_mod, "compile", bad_compile, raising=False)
        got = sw.process(self._pkt(), CycleMeter(XEON_E5_2620)).summary()
        assert got == expected
        assert sw.datapath.fused is None
        assert sw.datapath.fuse_failures == 1
        assert "synthetic codegen corruption" in sw.datapath.last_fuse_error

    def test_empty_datapath_fuse_fails_and_memoizes(self):
        dp = CompiledDatapath(first_table=0)
        with pytest.raises(FuseError):
            fuse_datapath(dp)
        # The lazy path memoizes the failure for this generation instead of
        # retrying the fuse on every packet.
        assert dp._fused_fresh() is None
        assert dp._fuse_failed_gen == dp.generation


class TestSpecialization:
    """The fused source really is specialized to the pipeline's facts."""

    def _fused_source(self, pipeline):
        sw = ESwitch.from_pipeline(pipeline, config=FUSED)
        sw.process(PacketBuilder().eth(dst=0x0200_0000_0001).ipv4().build())
        assert sw.datapath.fused is not None
        return sw, sw.datapath.fused.source

    def test_acyclic_pipeline_drops_hop_guard(self):
        p, _macs = l2.build(16)
        _, source = self._fused_source(p)
        assert "hops" not in source

    def test_machinery_elided_when_unreachable(self):
        """l2 outcomes carry no write-sets, metadata, or flow meters."""
        p, _macs = l2.build(16)
        _, source = self._fused_source(p)
        assert "write_set" not in source
        assert "metadata_write" not in source
        assert "out.meter" not in source

    def test_stock_pipeline_inlines_parser_and_actions(self):
        """The gateway's extractor and actions are all stock templates: the
        fused source neither calls the generic parser nor builds a
        ParsedPacket, and emits only the op branches its outcomes use."""
        p, _fib = gateway.build(n_ce=1, users_per_ce=1, n_prefixes=16)
        _, source = self._fused_source(p)
        assert "_parse(" not in source
        assert "_view(" not in source
        assert "ParsedPacket" not in source
        assert "etype = (data[12] << 8) | data[13]" in source
        assert f"op == {OP_POP_VLAN}:" in source
        assert f"op == {OP_DEC_TTL}:" not in source
        assert f"op == {OP_GENERIC}:" not in source

    def test_null_variant_has_no_charges(self):
        p, _fib = gateway.build(n_ce=1, users_per_ce=1, n_prefixes=16)
        _, source = self._fused_source(p)
        null_part = source.split("def _run_n", 1)[1].split("def _process", 1)[0]
        assert "meter.charge" not in null_part
        assert "meter.touch" not in null_part

    def test_gateway_tables_inlined(self):
        """Hash and LPM templates inline; every gateway table qualifies."""
        p, _fib = gateway.build(n_ce=2, users_per_ce=2, n_prefixes=16)
        sw, _ = self._fused_source(p)
        fused = sw.datapath.fused
        assert set(fused.inlined_ids) == set(fused.table_ids)
