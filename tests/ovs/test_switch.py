"""Tests for the assembled OVS switch: hierarchy, stats, invalidation."""

from repro.openflow.flow_table import FlowTable, TableMissPolicy
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.ovs import OvsSwitch
from repro.packet import PacketBuilder
from repro.usecases import firewall


def http_pkt(sport=1000):
    return (PacketBuilder(in_port=firewall.EXTERNAL).eth()
            .ipv4(src="198.51.100.9", dst=firewall.SERVER_IP)
            .tcp(src_port=sport, dst_port=80).build())


class TestHierarchy:
    def test_first_packet_upcalls(self):
        sw = OvsSwitch(firewall.build_single_stage())
        sw.process(http_pkt())
        assert sw.stats.vswitchd_hits == 1
        assert len(sw.megaflow) == 1
        assert len(sw.emc) == 1

    def test_second_packet_hits_microflow(self):
        sw = OvsSwitch(firewall.build_single_stage())
        sw.process(http_pkt())
        sw.process(http_pkt())
        assert sw.stats.microflow_hits == 1

    def test_ttl_change_misses_microflow_hits_megaflow(self):
        sw = OvsSwitch(firewall.build_single_stage())
        sw.process(http_pkt())
        changed = http_pkt()
        changed.data[14 + 8] = 17  # different TTL: EMC key changes
        sw.process(changed)
        assert sw.stats.microflow_hits == 0
        assert sw.stats.megaflow_hits == 1

    def test_different_sport_same_megaflow(self):
        # No rule matches tcp_src, so one megaflow covers all source ports.
        sw = OvsSwitch(firewall.build_single_stage())
        sw.process(http_pkt(1000))
        sw.process(http_pkt(2000))
        assert len(sw.megaflow) == 1
        assert sw.stats.megaflow_hits == 1

    def test_verdicts_identical_across_levels(self):
        sw = OvsSwitch(firewall.build_single_stage())
        reference = firewall.build_single_stage()
        verdicts = [sw.process(http_pkt()).summary() for _ in range(3)]
        expected = reference.process(http_pkt()).summary()
        assert all(v == expected for v in verdicts)

    def test_emc_thrash_falls_back_to_megaflow(self):
        sw = OvsSwitch(firewall.build_single_stage(), emc_capacity=4)
        for sport in range(1000, 1020):
            sw.process(http_pkt(sport))
        # Second pass: EMC (size 4) can't hold 20 microflows, but the one
        # megaflow covers them all.
        before = sw.stats.megaflow_hits
        for sport in range(1000, 1020):
            sw.process(http_pkt(sport))
        assert sw.stats.megaflow_hits > before
        assert sw.vswitchd.upcalls == 1


class TestControllerPath:
    def test_miss_to_controller_not_cached(self):
        t = FlowTable(0, miss_policy=TableMissPolicy.CONTROLLER)
        punted = []
        sw = OvsSwitch(Pipeline([t]), packet_in_handler=punted.append)
        sw.process(http_pkt())
        sw.process(http_pkt())
        assert len(punted) == 2  # every packet punts; nothing cached
        assert len(sw.megaflow) == 0
        assert sw.stats.controller_hits == 2


class TestInvalidation:
    def test_flow_mod_flushes_both_caches(self):
        sw = OvsSwitch(firewall.build_single_stage())
        sw.process(http_pkt())
        assert len(sw.megaflow) == 1
        sw.apply_flow_mod(
            FlowMod(FlowModCommand.ADD, 0, Match(tcp_dst=22), priority=25)
        )
        assert len(sw.megaflow) == 0
        assert len(sw.emc) == 0

    def test_flow_mod_changes_behavior_immediately(self):
        sw = OvsSwitch(firewall.build_single_stage())
        assert sw.process(http_pkt()).forwarded
        sw.apply_flow_mod(
            FlowMod(
                FlowModCommand.DELETE,
                0,
                Match(in_port=firewall.EXTERNAL, ipv4_dst=firewall.SERVER_IP,
                      tcp_dst=80),
            )
        )
        assert not sw.process(http_pkt()).forwarded

    def test_delete_command(self):
        sw = OvsSwitch(firewall.build_single_stage())
        before = len(sw.pipeline.table(0))
        sw.apply_flow_mod(
            FlowMod(FlowModCommand.DELETE, 0, Match(in_port=firewall.INTERNAL))
        )
        assert len(sw.pipeline.table(0)) == before - 1


class TestStats:
    def test_rates_sum_to_one(self):
        sw = OvsSwitch(firewall.build_single_stage())
        for sport in range(1000, 1050):
            sw.process(http_pkt(sport))
        rates = sw.stats.rates()
        assert abs(sum(rates.values()) - 1.0) < 1e-9

    def test_reset(self):
        sw = OvsSwitch(firewall.build_single_stage())
        sw.process(http_pkt())
        sw.stats.reset()
        assert sw.stats.packets == 0


def test_cached_replay_counts_bytes_after_earlier_vlan_push():
    """A megaflow replay credits each rule with the frame length that rule
    saw: after table 0 pushes a VLAN tag, table 1's rule counts 4 bytes
    more per packet on the cached path, as on the slow path."""
    from repro.openflow.actions import Output, PushVlan
    from repro.openflow.flow_entry import FlowEntry
    from repro.openflow.instructions import ApplyActions, GotoTable

    t0 = FlowTable(0)
    t0.add(FlowEntry(Match(in_port=1), priority=1,
                     instructions=(ApplyActions([PushVlan(vid=7)]), GotoTable(1))))
    t1 = FlowTable(1)
    t1.add(FlowEntry(Match(), priority=0, actions=[Output(2)]))
    sw = OvsSwitch(Pipeline([t0, t1]))
    pkt = PacketBuilder(in_port=1).eth().ipv4().tcp().build()
    for _ in range(3):  # one upcall, then cached replays
        sw.process(pkt.copy())
    first, second = sw.pipeline.table(0).entries[0], sw.pipeline.table(1).entries[0]
    assert sw.stats.vswitchd_hits == 1
    assert first.counters.bytes == 3 * len(pkt)
    assert second.counters.bytes == 3 * (len(pkt) + 4)
