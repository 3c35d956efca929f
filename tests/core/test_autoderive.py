"""Tests for automatic performance-model derivation (Section 5 extension)."""

import pytest

from repro.core import ESwitch
from repro.core.autoderive import derive_model
from repro.simcpu.model import gateway_model
from repro.traffic import measure
from repro.usecases import firewall, gateway, l2, l3


class TestDeriveModel:
    def test_l2_model_matches_measurement(self):
        p, macs = l2.build(100)
        sw = ESwitch.from_pipeline(p)
        model = derive_model(sw)
        m = measure(sw, l2.traffic(macs, 50), n_packets=2_000, warmup=500)
        lo, hi = model.cycle_bounds()
        assert lo * 0.95 <= m.cycles_per_packet <= hi * 1.1

    def test_l3_model_has_two_lpm_accesses(self):
        p, _fib = l3.build(100)
        model = derive_model(ESwitch.from_pipeline(p))
        lpm_stages = [s for s in model.stages if s.name.startswith("LPM")]
        assert len(lpm_stages) == 1
        assert lpm_stages[0].mem_accesses == 2

    def test_gateway_derived_close_to_handwritten(self):
        """The auto-derived gateway model must land near the paper's
        hand-built Fig. 20 model (within the runtime-dispatch margin)."""
        p, _fib = gateway.build(n_ce=10, users_per_ce=20, n_prefixes=1000)
        sw = ESwitch.from_pipeline(p)
        derived = derive_model(sw)
        hand = gateway_model()
        # The derived model honestly counts what the hand model folds away
        # (runtime dispatch, goto trampolines, Table 0's access treated as
        # variable rather than pinned to L1), so allow a 20% envelope.
        for level in (1, 2, 3):
            assert derived.cycles(level) == pytest.approx(
                hand.cycles(level), rel=0.20
            )

    def test_gateway_bounds_bracket_measurement(self):
        p, fib = gateway.build(n_ce=10, users_per_ce=20, n_prefixes=1000)
        sw = ESwitch.from_pipeline(p)
        model = derive_model(sw)
        m = measure(sw, gateway.traffic(fib, 500), n_packets=4_000, warmup=1_500)
        lo, hi = model.cycle_bounds()
        assert lo * 0.9 <= m.cycles_per_packet <= hi * 1.1

    def test_explicit_path_selection(self):
        p, _fib = gateway.build(n_ce=2, users_per_ce=2, n_prefixes=100)
        sw = ESwitch.from_pipeline(p)
        reverse = derive_model(sw, path=[0, gateway.REVERSE_TABLE])
        names = [s.name for s in reverse.stages]
        assert any(str(gateway.REVERSE_TABLE) in n for n in names)
        assert not any("LPM" in n for n in names)

    def test_requote_after_update(self):
        """Updates change the model: a fallen-back table costs more."""
        from repro.openflow.instructions import ApplyActions
        from repro.openflow.actions import Output
        from repro.openflow.match import Match
        from repro.openflow.messages import FlowMod, FlowModCommand
        from repro.core import CompileConfig

        p, _macs = l2.build(50)
        sw = ESwitch.from_pipeline(p, config=CompileConfig(decompose=False))
        before = derive_model(sw).cycles(1)
        sw.apply_flow_mod(
            FlowMod(FlowModCommand.ADD, 0, Match(tcp_dst=80), priority=5,
                    instructions=(ApplyActions([Output(1)]),))
        )
        sw.process(l2.traffic(_macs, 1)[0].copy())  # flush lazy rebuilds
        after = derive_model(sw).cycles(1)
        assert after > before  # hash -> linked list fallback is costlier

    def test_firewall_direct_model(self):
        sw = ESwitch.from_pipeline(firewall.build_single_stage())
        model = derive_model(sw)
        assert any(s.name.startswith("direct code") for s in model.stages)
        lb, ub = model.bounds()
        assert 0 < lb <= ub


@pytest.mark.parametrize("lpm", [False, True], ids=["hash", "lpm"])
def test_catch_all_replacement_retires_goto_edge(lpm):
    """Replacing a keyed table's catch-all in place moves
    ``CompiledTable.miss`` with the generated code's ``_MISS``, so the
    goto chain no longer follows the dead edge."""
    from repro.core.analysis import TemplateKind
    from repro.core.autoderive import _longest_goto_chain
    from repro.openflow.actions import Output
    from repro.openflow.flow_entry import FlowEntry
    from repro.openflow.flow_table import FlowTable
    from repro.openflow.instructions import ApplyActions, GotoTable
    from repro.openflow.match import Match
    from repro.openflow.messages import FlowMod, FlowModCommand
    from repro.openflow.pipeline import Pipeline

    t0 = FlowTable(0)
    for i in range(8):
        match = (Match(ipv4_dst=f"10.{i}.0.0/{16 + 8 * (i % 2)}") if lpm
                 else Match(eth_dst=0x0200_0000_0100 + i))
        priority = 16 + 8 * (i % 2) if lpm else 10
        t0.add(FlowEntry(match, priority=priority, actions=[Output(1)]))
    t0.add(FlowEntry(Match(), priority=0, instructions=(GotoTable(1),)))
    t1 = FlowTable(1)
    t1.add(FlowEntry(Match(), priority=0, actions=[Output(2)]))
    sw = ESwitch.from_pipeline(Pipeline([t0, t1]))
    compiled = sw.compiled_table(0)
    assert compiled.kind is (TemplateKind.LPM if lpm else TemplateKind.HASH)
    assert _longest_goto_chain(sw) == [0, 1]
    sw.apply_flow_mods([
        FlowMod(FlowModCommand.ADD, 0, Match(), priority=0,
                instructions=(ApplyActions([Output(4)]),))
    ])
    assert sw.compiled_table(0) is compiled  # absorbed in place
    assert compiled.miss is compiled.namespace["_MISS"]
    assert compiled.miss.goto is None
    assert _longest_goto_chain(sw) == [0]
