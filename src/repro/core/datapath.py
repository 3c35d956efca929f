"""The compiled datapath: trampoline, driver loop, and parser dispatch.

After per-table specialization, linking combines the tables into a running
datapath (Section 3.3):

* within-table jumps are already Python control flow inside the generated
  functions;
* ``goto_table`` jumps go **via a trampoline** — here a mutable dict from
  table id to compiled table — so that a table rebuilt side-by-side can be
  inserted "by atomically redirecting all referring goto_table jumps to the
  address of the new code" (Section 3.4): one dict-slot assignment.

The driver also embodies the parser templates: pipelines that match only
L2 fields never parse L3/L4 headers ("for pure L2 MAC forwarding it is
completely superfluous to parse L3 and L4 header fields", Section 3.1),
and the cost model charges only the parser layers actually composed.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.codegen import CompiledTable
from repro.core.outcome import Outcome
from repro.openflow.actions import Action, Output
from repro.openflow.fields import field_by_name, max_layer
from repro.openflow.pipeline import MAX_TABLE_HOPS, Pipeline, PipelineError, Verdict
from repro.packet import parser as pp
from repro.packet.packet import Packet
from repro.simcpu.costs import CostBook, DEFAULT_COSTS
from repro.simcpu.recorder import Meter, NULL_METER


def required_layer(pipeline: Pipeline) -> int:
    """Deepest protocol layer the pipeline's matches *and actions* need.

    Reads each table's :meth:`~repro.openflow.flow_table.FlowTable.
    feature_counts` fingerprint multiset — one key per distinct entry
    *shape* — instead of rescanning every entry's actions. Flow-mod
    handling calls this once per update, so at million-entry tables the
    O(entries) walk was the update bottleneck; this is O(shapes).
    """
    deepest = 2
    names: set[str] = set()
    for table in pipeline:
        for (_prio, sig, set_names, depth) in table.feature_counts():
            if depth > deepest:
                deepest = depth
            names.update(n for n, _m in sig)
            names.update(set_names)
    if names:
        deepest = max(deepest, max_layer(names))
    return deepest


_PARSERS = {2: pp.parse_l2, 3: pp.parse_l3, 4: pp.parse}


class CompiledDatapath:
    """Executes compiled tables over packets; the ESWITCH fast path.

    Two execution engines share the same compiled tables:

    * the **trampoline** — goto_table resolved through a mutable dict, so
      any single table can be swapped atomically (always correct, always
      available);
    * the **fused driver** (:mod:`repro.core.fuse`) — the whole pipeline
      linked into one code object, valid for one value of
      :attr:`generation`.

    ``generation`` is the invalidation contract: every ``install``/
    ``uninstall``/``set_parser_layer`` bumps it (callers that mutate a
    compiled table's namespace in place must call :meth:`bump_generation`
    themselves — :class:`~repro.core.eswitch.ESwitch` does). ``process``/
    ``process_burst`` run the fused driver while it matches the current
    generation and lazily re-fuse on the first packet after a change —
    the compile happens off the update critical path, with the trampoline
    serving packets in the window and for shapes the fuser rejects. A
    data-only hash/LPM slot write the standing driver covers carries that
    driver into the new generation instead (:meth:`bump_generation`).
    """

    def __init__(
        self,
        first_table: int,
        parser_layer: int = 4,
        use_etype: bool = True,
        costs: CostBook = DEFAULT_COSTS,
        enable_fusion: bool = True,
        fuse_source_budget: "int | None" = None,
    ):
        if parser_layer not in _PARSERS:
            raise ValueError(f"parser layer must be 2, 3, or 4, not {parser_layer}")
        self.trampoline: dict[int, CompiledTable] = {}
        self.first_table = first_table
        self.parser_layer = parser_layer
        self.use_etype = use_etype
        self.costs = costs
        self.enable_fusion = enable_fusion
        #: cumulative chars of table bodies the fuser may textually inline;
        #: tables past it are linked by closure call (None = unbounded).
        self.fuse_source_budget = fuse_source_budget
        self.generation = 0
        self._fused = None
        self._fuse_failed_gen = -1
        #: fusion attempts that degraded to the trampoline (fail-static
        #: accounting: a fuse failure is a health event, never a crash).
        self.fuse_failures = 0
        self.last_fuse_error = ""
        #: generation bumps the standing fused driver was carried across.
        self.carried_generations = 0
        self._extract_etype = field_by_name("eth_type").extract
        self.set_parser_layer(parser_layer)

    def set_parser_layer(self, parser_layer: int) -> None:
        """Re-plan the parser templates (updates can deepen match fields)."""
        if parser_layer not in _PARSERS:
            raise ValueError(f"parser layer must be 2, 3, or 4, not {parser_layer}")
        self.parser_layer = parser_layer
        costs = self.costs
        self._parser_cost = costs.parser_l2
        if parser_layer >= 3:
            self._parser_cost += costs.parser_l3
        if parser_layer >= 4:
            self._parser_cost += costs.parser_l4
        self.generation += 1

    # -- linking ------------------------------------------------------------

    def bump_generation(self, writes=None) -> None:
        """Advance the generation after an in-place table mutation.

        ``writes`` lists the ``(table_id, outcome)`` pairs a keyed-slot
        update wrote (``outcome`` None for an emptied slot). The fused
        driver reads hash and LPM slots live, through the stores it
        shares by reference, so when it was current and
        :meth:`~repro.core.fuse.FusedPipeline.covers` every pair it is
        carried into the new generation. Anything else (``writes`` None)
        re-fuses lazily on the next packet.
        """
        fused = self._fused
        carry = (
            writes is not None
            and fused is not None
            and fused.generation == self.generation
            and all(fused.covers(tid, outcome) for tid, outcome in writes)
        )
        self.generation += 1
        if carry:
            fused.generation = self.generation
            self.carried_generations += 1

    def install(self, compiled: CompiledTable) -> None:
        """Atomically (re)link one table into the trampoline."""
        self.trampoline[compiled.table_id] = compiled
        self.generation += 1

    def uninstall(self, table_id: int) -> None:
        self.trampoline.pop(table_id, None)
        self.generation += 1

    def table(self, table_id: int) -> CompiledTable:
        return self.trampoline[table_id]

    # -- fusion ------------------------------------------------------------

    @property
    def fused(self):
        """The current fused driver, or None (inspection only)."""
        return self._fused

    def ensure_fused(self):
        """Force the lazy re-fuse now; returns the driver or None.

        Normally fusion runs on the first packet after a generation bump
        (off the update critical path). Replica orchestration wants the
        opposite trade: the sharded engine's epoch barrier calls this so
        a worker only acknowledges an update after its new fused
        datapath is actually standing (see :meth:`ESwitch.warm`).
        """
        return self._fused_fresh()

    def _fused_fresh(self):
        """The fused driver if valid for this generation, fusing lazily."""
        if not self.enable_fusion:
            return None
        fused = self._fused
        generation = self.generation
        if fused is not None and fused.generation == generation:
            return fused
        if self._fuse_failed_gen == generation:
            return None
        from repro.core.fuse import fuse_datapath

        try:
            fused = fuse_datapath(self)
        except Exception as exc:
            # Containment: *any* fusion failure — an unfusable shape
            # (FuseError) or an unexpected codegen bug — degrades to the
            # trampoline, which is always correct. The failure is recorded
            # for health reporting and retried only on the next generation.
            self.force_fuse_failure(f"{type(exc).__name__}: {exc}")
            return None
        self._fused = fused
        return fused

    def _fused_metered(self):
        """The fused driver with its metered variant loaded, or None.

        The metered variant compiles on the first metered packet of a
        generation; a failure to load it is contained exactly like a
        fusion failure.
        """
        fused = self._fused_fresh()
        if fused is None or fused.process is not None:
            return fused
        try:
            fused.load_metered()
        except Exception as exc:
            self.force_fuse_failure(f"{type(exc).__name__}: {exc}")
            return None
        return fused

    def force_fuse_failure(self, reason: str = "forced degradation") -> None:
        """Degrade this generation to the trampoline, as a real fusion
        failure would. Drops any standing fused driver and pins the
        *current* generation as failed — the next update (generation
        bump) retries fusion normally. The differential fuzzer uses this
        to hold a backend in the middle rung of the fallback chain;
        production code paths reach the same state through
        :meth:`_fused_fresh`'s containment."""
        self._fused = None
        self._fuse_failed_gen = self.generation
        self.fuse_failures += 1
        self.last_fuse_error = reason

    # -- the fast path -----------------------------------------------------------

    def process(self, pkt: Packet, meter: Meter = NULL_METER) -> Verdict:
        null = meter is NULL_METER
        fused = self._fused_fresh() if null else self._fused_metered()
        if fused is not None:
            if null:
                return fused.process_null(pkt)
            return fused.process(pkt, meter)
        costs = self.costs
        meter.charge(costs.pkt_in + costs.es_dispatch + self._parser_cost)
        return self._forward(pkt, meter, _PARSERS[self.parser_layer], self.trampoline)

    def process_burst(
        self,
        pkts: "Sequence[Packet]",
        meter: Meter = NULL_METER,
        on_verdict=None,
    ) -> list[Verdict]:
        """Run one IO burst through the datapath (Section 4.2's batching).

        The per-burst framework cost (PMD poll, doorbells, descriptor ring
        maintenance) is charged **once**, before the first packet; each
        packet then pays the scalar per-packet cost minus the
        reference-burst amortization already baked into ``pkt_in`` — a
        burst of ``costs.reference_burst`` packets costs exactly what that
        many scalar :meth:`process` calls cost.

        Parser dispatch, the trampoline, and the cost-book loads are
        hoisted out of the per-packet loop. Per-packet meter windows
        (``begin_packet``/``end_packet``) are driven here when the meter
        supports them, so the per-burst cost lands in the burst's first
        window — the packet that really pays for the poll.

        ``on_verdict(pkt, verdict)``, if given, runs after each packet
        (packet-in delivery, deferred rebuild flushes); a truthy return
        signals that datapath state may have changed and the hoisted
        dispatch is re-read.

        While a fused driver is fresh the whole burst runs inside it. After
        a truthy ``on_verdict`` the rest of the burst stays in the fused
        driver if that driver is still current (the control work only
        queued a punt, or wrote slots the driver covers); otherwise it
        goes back to the trampoline, which re-reads the live datapath,
        and the next burst re-fuses lazily.
        """
        if not pkts:
            return []
        null = meter is NULL_METER
        fused = self._fused_fresh() if null else self._fused_metered()
        if fused is None:
            return self._trampoline_burst(pkts, meter, on_verdict)
        verdicts = None
        resume = 0
        while fused.generation == self.generation:
            if null:
                verdicts, resume = fused.burst_null(pkts, on_verdict, verdicts, resume)
            else:
                verdicts, resume = fused.burst(pkts, meter, on_verdict, verdicts, resume)
            if resume < 0:
                return verdicts
        return self._trampoline_burst(
            pkts, meter, on_verdict, verdicts=verdicts, start=resume,
            charge_io=False,
        )

    def _trampoline_burst(
        self,
        pkts: "Sequence[Packet]",
        meter: Meter,
        on_verdict,
        verdicts: "list[Verdict] | None" = None,
        start: int = 0,
        charge_io: bool = True,
    ) -> list[Verdict]:
        """The dict-dispatch burst loop (also the fused driver's resume
        path: ``start > 0`` picks up mid-burst with the per-burst IO cost
        already charged)."""
        verdicts = [] if verdicts is None else verdicts
        costs = self.costs
        begin = getattr(meter, "begin_packet", None)
        end = getattr(meter, "end_packet", None)
        if charge_io:
            meter.charge(costs.io_burst_cost)
        parse = _PARSERS[self.parser_layer]
        trampoline = self.trampoline
        per_pkt = (
            costs.pkt_in + costs.es_dispatch + self._parser_cost
            - costs.io_burst_share
        )
        for pkt in pkts[start:] if start else pkts:
            if begin is not None:
                begin()
            meter.charge(per_pkt)
            verdict = self._forward(pkt, meter, parse, trampoline)
            if end is not None:
                end()
            verdicts.append(verdict)
            if on_verdict is not None and on_verdict(pkt, verdict):
                # Control work ran between packets: re-hoist the dispatch.
                parse = _PARSERS[self.parser_layer]
                trampoline = self.trampoline
                per_pkt = (
                    costs.pkt_in + costs.es_dispatch + self._parser_cost
                    - costs.io_burst_share
                )
        return verdicts

    def _forward(self, pkt: Packet, meter: Meter, parse, trampoline) -> Verdict:
        costs = self.costs
        view = parse(pkt)
        data = pkt.data
        l3, l4, proto = view.l3, view.l4, view.proto
        nxt = view.l4_proto
        etype = (self._extract_etype(view) or 0) if self.use_etype else 0

        verdict = Verdict()
        write_set: list[Action] = []
        tid = self.first_table
        did_work = False
        hops = 0
        while True:
            hops += 1
            if hops > MAX_TABLE_HOPS:
                raise PipelineError("compiled pipeline loop detected")
            compiled = trampoline.get(tid)
            if compiled is None:
                raise PipelineError(f"goto_table to unlinked table {tid}")
            out: Outcome = compiled.fn(data, pkt, l3, l4, proto, etype, nxt, meter)
            verdict.path.append((tid, out.entry))

            if out.is_miss:
                verdict.table_miss = True
                if out.to_controller:
                    verdict.to_controller = True
                else:
                    verdict.dropped = True
                meter.charge(costs.table_miss)
                return verdict

            if out.entry is not None:
                out.entry.counters.record(len(data))
            if out.meter is not None and not out.meter.allow():
                verdict.dropped = True
                return verdict
            if out.apply_actions:
                did_work = True
                for action in out.apply_actions:
                    action.apply(view, verdict)
                    if verdict.reparse_needed:
                        view = parse(pkt)
                        data = pkt.data
                        l3, l4, proto = view.l3, view.l4, view.proto
                        nxt = view.l4_proto
                        if self.use_etype:
                            etype = self._extract_etype(view) or 0
                        verdict.reparse_needed = False
            if out.clear_actions:
                write_set.clear()
            if out.write_actions:
                write_set.extend(out.write_actions)
            if out.metadata_write is not None:
                value, mask = out.metadata_write
                pkt.metadata = (pkt.metadata & ~mask) | (value & mask)
            if verdict.dropped:
                break
            if out.goto is None:
                break
            meter.charge(costs.goto_trampoline)
            tid = out.goto

        if write_set and not verdict.dropped:
            did_work = True
            ordered = [a for a in write_set if not isinstance(a, Output)] + [
                a for a in write_set if isinstance(a, Output)
            ]
            for action in ordered:
                action.apply(view, verdict)
                if verdict.reparse_needed:
                    view = parse(pkt)
                    verdict.reparse_needed = False

        if did_work:
            meter.charge(costs.action_set)
        if verdict.forwarded:
            meter.charge(costs.pkt_out)
        return verdict
