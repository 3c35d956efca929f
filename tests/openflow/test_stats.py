"""Tests for statistics collection."""

from fractions import Fraction

from repro.core import ESwitch
from repro.openflow.match import Match
from repro.openflow.stats import (
    aggregate_stats,
    collect_flow_stats,
    collect_table_stats,
)
from repro.ovs import OvsSwitch
from repro.packet import PacketBuilder
from repro.usecases import firewall


def drive(switch, n=5):
    admit = (PacketBuilder(in_port=firewall.EXTERNAL).eth()
             .ipv4(dst=firewall.SERVER_IP).tcp(dst_port=80).build())
    out = (PacketBuilder(in_port=firewall.INTERNAL).eth()
           .ipv4(src=firewall.SERVER_IP).tcp(src_port=80).build())
    for _ in range(n):
        switch.process(admit.copy())
    for _ in range(2 * n):
        switch.process(out.copy())


class TestFlowStats:
    def test_counts_after_traffic(self):
        pipeline = firewall.build_single_stage()
        drive(ESwitch.from_pipeline(pipeline))
        stats = collect_flow_stats(pipeline)
        by_priority = {s.priority: s for s in stats}
        assert by_priority[30].packets == 10   # internal -> external
        assert by_priority[20].packets == 5    # admitted HTTP
        assert by_priority[0].packets == 0     # nothing dropped
        assert by_priority[20].bytes == 5 * 64

    def test_ovs_cached_hits_counted(self):
        pipeline = firewall.build_single_stage()
        sw = OvsSwitch(pipeline)
        drive(sw)
        assert sw.stats.microflow_hits > 0  # cached path really used
        by_priority = {s.priority: s for s in collect_flow_stats(pipeline)}
        assert by_priority[30].packets == 10
        assert by_priority[20].packets == 5

    def test_match_filter_covers_semantics(self):
        pipeline = firewall.build_single_stage()
        drive(ESwitch.from_pipeline(pipeline))
        filtered = collect_flow_stats(pipeline, match=Match(in_port=firewall.EXTERNAL))
        assert [s.priority for s in filtered] == [20]

    def test_table_filter(self):
        pipeline = firewall.build_multi_stage()
        assert all(
            s.table_id == 1 for s in collect_flow_stats(pipeline, table_id=1)
        )

    def test_cookie_filter(self):
        from repro.openflow.flow_entry import FlowEntry
        from repro.openflow.flow_table import FlowTable
        from repro.openflow.pipeline import Pipeline
        from repro.openflow.actions import Output

        t = FlowTable(0)
        t.add(FlowEntry(Match(tcp_dst=80), priority=1, actions=[Output(1)],
                        cookie=0xAB))
        t.add(FlowEntry(Match(tcp_dst=443), priority=1, actions=[Output(1)]))
        stats = collect_flow_stats(Pipeline([t]), cookie=0xAB)
        assert len(stats) == 1 and stats[0].cookie == 0xAB


class TestTableAndAggregate:
    def test_table_stats(self):
        pipeline = firewall.build_single_stage()
        drive(ESwitch.from_pipeline(pipeline))
        (table,) = collect_table_stats(pipeline)
        assert table.active_entries == 3
        assert table.packets == 15

    def test_aggregate(self):
        pipeline = firewall.build_single_stage()
        drive(ESwitch.from_pipeline(pipeline))
        flows, packets, nbytes = aggregate_stats(pipeline)
        assert flows == 3 and packets == 15 and nbytes == 15 * 64


class TestBurstStatsMerge:
    """Exact, associative accumulation — the sharded gather's prerequisite."""

    def make(self, records):
        from repro.openflow.stats import BurstStats

        stats = BurstStats()
        for size, cycles in records:
            stats.record(size, cycles)
        return stats

    def test_merge_folds_everything(self):
        from repro.openflow.stats import BurstStats

        a = self.make([(32, 100.0), (16, 50.0)])
        b = self.make([(32, 25.0)])
        merged = BurstStats.merged([a, b])
        assert merged.bursts == 3
        assert merged.packets == 80
        assert merged.cycles == 175.0
        assert merged.histogram == {32: 2, 16: 1}
        assert a.bursts == 2 and b.bursts == 1  # inputs untouched

    def test_merge_is_order_independent(self):
        import itertools

        from repro.openflow.stats import BurstStats

        # Values chosen so a naive float += accumulator is order-dependent:
        # (1e16 + 1.0) == 1e16 in float arithmetic, so summing the small
        # burst before or after the huge one used to change the total.
        shards = [
            self.make([(8, 1e16)]),
            self.make([(8, 1.0)]),
            self.make([(8, -1e16)]),
        ]
        totals = {
            BurstStats.merged(perm).cycles
            for perm in itertools.permutations(shards)
        }
        assert totals == {1.0}

    def test_record_does_not_drift(self):
        # The float += accumulator silently lost small bursts once the
        # running total dwarfed them; the exact accumulator cannot.
        stats = self.make([(1, 1e16)] + [(1, 1.0)] * 64 + [(1, -1e16)])
        assert stats.cycles == 64.0

    def test_merge_is_associative(self):
        import itertools

        from repro.openflow.stats import BurstStats

        # Zero-cycle bursts (every NullMeter burst) skip the exact add;
        # mixed with metered ones, every grouping still sums bit-identically.
        shards = [
            self.make([(4, 0.1)]),
            self.make([(4, 0.2), (32, 0.0)]),
            self.make([(4, 0.3)]),
            self.make([(8, 0.0), (1, -0.0)]),
        ]
        snapshots = set()
        for a, b, c, d in itertools.permutations(shards):
            left = BurstStats.merged([BurstStats.merged([a, b]), BurstStats.merged([c, d])])
            right = BurstStats.merged([a, BurstStats.merged([b, BurstStats.merged([c, d])])])
            assert left.cycles == right.cycles
            assert left.snapshot() == right.snapshot()
            snapshots.add(repr(left.snapshot()))
        assert len(snapshots) == 1
        assert left.bursts == 6 and left.packets == 53
        assert left.cycles == float(Fraction(0.1) + Fraction(0.2) + Fraction(0.3))

    def test_reset_clears_exactly(self):
        stats = self.make([(8, 123.5)])
        stats.reset()
        assert stats.bursts == 0 and stats.packets == 0
        assert stats.cycles == 0.0 and stats.histogram == {}
