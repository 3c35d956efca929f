"""The ESWITCH facade: compile a pipeline, run packets, apply updates.

Ties together analysis → (optional) decomposition → specialization →
linking, and implements the update semantics of Section 3.4:

* templates that support it (compound hash, LPM, linked list) are updated
  **non-destructively** in place;
* the direct code template is rebuilt unconditionally, and any update that
  violates the current template's prerequisite triggers a **fallback
  rebuild** — both built side by side and linked in atomically through the
  trampoline;
* batches are **transactional**: a failing flow-mod rolls the whole batch
  back, logical tables and compiled artifacts alike.

Unlike OVS, no update invalidates any datapath state beyond the single
table it touches — the property Fig. 18 measures.

Fail-static guardrails (ISSUE 5) sit on top of the update semantics:

* **admission control** (:meth:`ESwitch.admit_flow_mods` /
  :meth:`ESwitch.submit_flow_mods`): malformed mods, out-of-space table
  ids, dangling or backward goto targets, and per-table ``max_entries``
  overflows are answered with typed
  :class:`~repro.openflow.messages.ErrorMsg` s (``TABLE_FULL``,
  ``BAD_TABLE_ID``, …) *before any switch state is touched* — a rejected
  batch is bit-invisible: logical tables, compiled artifacts, the fused
  driver object, counters, and modeled cycles are all exactly as if it
  had never been sent;
* **compile-failure containment**: template selection or codegen raising
  does not crash the control path — the offending table is *quarantined*
  onto the linked-list universal representation (the template with no
  prerequisite, Fig. 4's bottom rung) and the degradation is reported
  through :meth:`ESwitch.health`; whole-pipeline fusion failures already
  degrade to the trampoline (:mod:`repro.core.datapath`), completing the
  paper's fallback chain fused → trampoline → linked list;
* a **per-batch compile budget** (``CompileConfig.compile_budget``)
  bounds how many table compilations one batch may spend on its critical
  path; past it, rebuilds defer to the side-by-side path and the old
  compiled tables keep serving until the next packet's flush.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.analysis import (
    CompileConfig,
    DEFAULT_CONFIG,
    TemplateKind,
    select_template,
)
from repro.core.codegen import CompiledTable, compile_table, _build_sig_matcher
from repro.core.datapath import CompiledDatapath, required_layer
from repro.core.decompose import decomposable, decompose_table
from repro.core.outcome import miss_outcome, outcome_of
from repro.dpdk.lpm import LpmFullError
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import GotoTable
from repro.openflow.match import Match
from repro.openflow.messages import (
    ErrorMsg,
    ErrorType,
    FlowMod,
    FlowModCommand,
    FlowModFailed,
    FlowModFailedCode,
    FlowModReply,
    validate_flow_mod,
)
from repro.openflow.pipeline import MAX_TABLES, Pipeline, Verdict
from repro.openflow.stats import BurstStats
from repro.packet.packet import Packet
from repro.simcpu.costs import CostBook, DEFAULT_COSTS
from repro.simcpu.recorder import Meter, NULL_METER


def _lpm_hazard(classes: "set[tuple[int, tuple]]") -> bool:
    """Any pair of distinct shape classes that *could* hide a duplicate-
    prefix or ancestor-priority conflict, regardless of entry values.

    A class is ``(priority, match signature)``; prefix depth is the mask
    popcount (a catch-all counts as depth 0). Distinct classes with
    ``d1 <= d2`` and ``p1 >= p2`` are hazardous: equal depths admit the
    same prefix at two priorities, and a shallower prefix at >= priority
    can shadow a descendant — exactly the two conditions
    ``lpm_applicable`` walks the value set to rule out.
    """
    flat = [
        (prio, sum(int(m).bit_count() for _n, m in sig))
        for prio, sig in classes
    ]
    for i, (p1, d1) in enumerate(flat):
        for j, (p2, d2) in enumerate(flat):
            if i != j and d1 <= d2 and p1 >= p2:
                return True
    return False


@dataclass
class UpdateStats:
    """How updates were absorbed (Fig. 18's mechanism)."""

    incremental: int = 0
    rebuilds: int = 0
    fallbacks: int = 0
    group_rebuilds: int = 0
    #: template re-selections skipped by the shape-class stability proof
    #: (the O(entries) scan never ran for these mods).
    kind_stable_skips: int = 0
    #: mods that provably changed nothing (a DELETE matching no live
    #: entry — including predicates that would only have hit tombstoned
    #: slots): no version bump, no re-fuse, no template re-selection.
    noop_mods: int = 0
    cycles: float = 0.0


@dataclass(frozen=True)
class SwitchHealth:
    """Control-plane degradation report of one switch (read-only snapshot).

    Attributes:
        quarantined: ``(table_id, reason)`` pairs for tables pinned to the
            linked-list universal template after a compile failure; healed
            (removed) by the next clean rebuild of that table.
        compile_failures: total template-compile failures contained so far.
        budget_deferrals: rebuilds pushed off a batch's critical path by
            ``CompileConfig.compile_budget``.
        fuse_failures: whole-pipeline fusion attempts that degraded to the
            trampoline.
        carried_generations: generation bumps (hash/LPM slot writes) the
            standing fused driver was carried across without a re-fuse.
        last_fuse_error: message of the most recent fusion failure, or "".
        fused_active: the current generation is served by a fused driver
            (False = trampoline dispatch, the middle rung of the chain).
        generation: the datapath's update generation counter.
        data_driven: compiled table ids on the source-budget fallback rung
            (keys in closure arrays instead of generated source) — planned
            degradation of code size, bit-identical semantics and cycles.
        footprint_bytes: estimated resident bytes across every compiled
            table (stores, generated source, outcome lists).
    """

    quarantined: tuple[tuple[int, str], ...] = ()
    compile_failures: int = 0
    budget_deferrals: int = 0
    fuse_failures: int = 0
    carried_generations: int = 0
    last_fuse_error: str = ""
    fused_active: bool = False
    generation: int = 0
    data_driven: tuple[int, ...] = ()
    footprint_bytes: int = 0

    @property
    def degraded(self) -> bool:
        # Trampoline dispatch counts as degradation only when a fusion
        # attempt actually failed — a freshly built (or freshly updated)
        # switch is merely *lazy*: its fuse runs on the next packet.
        return bool(self.quarantined) or (
            self.fuse_failures > 0 and not self.fused_active
        )

    def as_dict(self) -> dict:
        return {
            "quarantined": {tid: reason for tid, reason in self.quarantined},
            "compile_failures": self.compile_failures,
            "budget_deferrals": self.budget_deferrals,
            "fuse_failures": self.fuse_failures,
            "carried_generations": self.carried_generations,
            "last_fuse_error": self.last_fuse_error,
            "fused_active": self.fused_active,
            "generation": self.generation,
            "data_driven": list(self.data_driven),
            "footprint_bytes": self.footprint_bytes,
        }


@dataclass
class _Group:
    """One logical table's compiled representation."""

    logical_id: int
    compiled_ids: list[int]
    decomposed: bool = False


class ESwitch:
    """An OpenFlow switch with a fully compiled, specialized datapath."""

    def __init__(
        self,
        pipeline: Pipeline,
        config: CompileConfig = DEFAULT_CONFIG,
        costs: CostBook = DEFAULT_COSTS,
        packet_in_handler=None,
    ):
        pipeline.validate()
        self.pipeline = pipeline
        self.config = config
        self.costs = costs
        self.packet_in_handler = packet_in_handler
        self.update_stats = UpdateStats()
        self.burst_stats = BurstStats()
        self._groups: dict[int, _Group] = {}
        #: decomposed groups whose rebuild is deferred to the next packet —
        #: the "constructed side by side with the running datapath"
        #: semantics of Section 3.4: the control path returns immediately,
        #: the old compiled tables keep processing until the swap.
        self._dirty_groups: set[int] = set()
        self._next_internal_id = (
            max((t.table_id for t in pipeline.tables), default=0) + 1
        )
        #: tables whose preferred template failed to compile and are pinned
        #: to the linked-list universal representation: id -> reason.
        self.quarantined: dict[int, str] = {}
        self.compile_failures = 0
        self.budget_deferrals = 0
        #: table compilations spent by the current flow-mod batch; compared
        #: against ``config.compile_budget`` to defer over-budget rebuilds.
        self._batch_compiles = 0
        self._in_batch = False
        #: memoized LPM hazard verdicts: table id -> (shapes_version,
        #: hazard-free). The hazard scan is O(classes²) over the shape
        #: set alone, and ``shapes_version`` moves whenever that set may
        #: have changed — so churn within existing classes answers from
        #: the cache instead of re-scanning every ADD.
        self._lpm_hazard_free: dict[int, tuple[int, bool]] = {}
        self.datapath = CompiledDatapath(
            first_table=pipeline.first_table.table_id,
            parser_layer=required_layer(pipeline),
            use_etype=True,
            costs=costs,
            enable_fusion=config.fuse,
            fuse_source_budget=config.fuse_source_budget,
        )
        for table in pipeline.tables:
            self._compile_group(table)

    @classmethod
    def from_pipeline(
        cls,
        pipeline: Pipeline,
        config: CompileConfig = DEFAULT_CONFIG,
        costs: CostBook = DEFAULT_COSTS,
        packet_in_handler=None,
    ) -> "ESwitch":
        return cls(pipeline, config, costs, packet_in_handler)

    # -- the fast path ----------------------------------------------------

    def process(self, pkt: Packet, meter: Meter = NULL_METER) -> Verdict:
        """Run one packet through the compiled datapath."""
        if self._dirty_groups:
            self._flush_rebuilds()
        verdict = self.datapath.process(pkt, meter)
        if verdict.to_controller and self.packet_in_handler is not None:
            from repro.openflow.messages import PacketIn

            table_id = verdict.path[-1][0] if verdict.path else 0
            self.packet_in_handler(PacketIn(pkt=pkt, table_id=table_id))
        return verdict

    def process_burst(
        self, pkts: "Sequence[Packet]", meter: Meter = NULL_METER
    ) -> list[Verdict]:
        """Run one IO burst through the compiled datapath.

        Semantically identical to calling :meth:`process` on each packet in
        order — packet-ins fire and deferred rebuilds flush *between*
        packets, so a reactive controller's flow-mods take effect for the
        rest of the burst exactly as they would scalar-wise. The per-burst
        IO framework cost is charged once (see
        :meth:`CompiledDatapath.process_burst`).
        """
        if not pkts:
            return []
        if self._dirty_groups:
            self._flush_rebuilds()
        cycles_before = getattr(meter, "total_cycles", 0.0)
        # Without a packet-in handler no between-packet control work can
        # arise mid-burst (deferred rebuilds were flushed above, and only
        # packet-ins can queue new ones), so skip the per-packet callback.
        on_verdict = (
            self._burst_packet_done if self.packet_in_handler is not None else None
        )
        verdicts = self.datapath.process_burst(pkts, meter, on_verdict=on_verdict)
        self.burst_stats.record(
            len(pkts), getattr(meter, "total_cycles", 0.0) - cycles_before
        )
        return verdicts

    def _burst_packet_done(self, pkt: Packet, verdict: Verdict) -> bool:
        """Between-packet control work inside a burst; True = state mutated."""
        mutated = False
        if verdict.to_controller and self.packet_in_handler is not None:
            from repro.openflow.messages import PacketIn

            table_id = verdict.path[-1][0] if verdict.path else 0
            self.packet_in_handler(PacketIn(pkt=pkt, table_id=table_id))
            mutated = True
        if self._dirty_groups:
            self._flush_rebuilds()
            mutated = True
        return mutated

    def warm(self) -> bool:
        """Stand the current pipeline generation up, off the packet path.

        Flushes any deferred side-by-side rebuilds and forces the lazy
        re-fuse now, so the *next* packet runs the fused driver
        immediately instead of paying the compile. This is the epoch-
        barrier hook of the sharded engine: a replica acks a broadcast
        flow-mod batch only after ``warm()`` returns, guaranteeing every
        shard serves the same fused generation before any burst of the
        new epoch is scattered. Returns True when a fused driver is up
        (False means the trampoline serves this shape).
        """
        if self._dirty_groups:
            self._flush_rebuilds()
        for table in self.pipeline:
            table.prime()  # lazy rule indexes, off the first-mod path
        return self.datapath.ensure_fused() is not None

    # -- inspection -----------------------------------------------------------

    def table_kinds(self) -> dict[int, str]:
        """Logical table id -> template kind (or 'decomposed[n]')."""
        if self._dirty_groups:
            self._flush_rebuilds()
        out: dict[int, str] = {}
        for logical_id, group in self._groups.items():
            if group.decomposed:
                out[logical_id] = f"decomposed[{len(group.compiled_ids)}]"
            else:
                out[logical_id] = self.datapath.table(logical_id).kind.value
        return out

    def compiled_table(self, table_id: int) -> CompiledTable:
        if self._dirty_groups:
            self._flush_rebuilds()
        return self.datapath.table(table_id)

    def compiled_sources(self) -> dict[int, str]:
        """All generated sources, keyed by compiled table id."""
        return {
            tid: ct.source for tid, ct in sorted(self.datapath.trampoline.items())
        }

    @property
    def compiled_table_count(self) -> int:
        return len(self.datapath.trampoline)

    def health(self) -> SwitchHealth:
        """Degradation snapshot: quarantines, contained failures, fusion
        state. Read-only — computing it never triggers a rebuild or fuse."""
        dp = self.datapath
        fused = dp._fused
        footprints = [ct.footprint() for ct in dp.trampoline.values()]
        return SwitchHealth(
            quarantined=tuple(sorted(self.quarantined.items())),
            compile_failures=self.compile_failures,
            budget_deferrals=self.budget_deferrals,
            fuse_failures=dp.fuse_failures,
            carried_generations=dp.carried_generations,
            last_fuse_error=dp.last_fuse_error,
            fused_active=fused is not None and fused.generation == dp.generation,
            generation=dp.generation,
            data_driven=tuple(
                sorted(fp["table_id"] for fp in footprints if fp["data_driven"])
            ),
            footprint_bytes=sum(fp["bytes"] for fp in footprints),
        )

    def footprint(self) -> dict:
        """Per-rung memory telemetry: every compiled table's estimated
        resident bytes (see :meth:`CompiledTable.footprint`), plus the
        total. Flushes deferred rebuilds first so the report reflects the
        structures the next packet would actually probe."""
        if self._dirty_groups:
            self._flush_rebuilds()
        tables = {
            tid: ct.footprint()
            for tid, ct in sorted(self.datapath.trampoline.items())
        }
        return {
            "total_bytes": sum(fp["bytes"] for fp in tables.values()),
            "tables": tables,
        }

    # -- compilation ---------------------------------------------------------------

    def _take_ids(self, count: int) -> int:
        start = self._next_internal_id
        self._next_internal_id += count
        return start

    def _compile_group(self, table: FlowTable) -> _Group:
        """Compile one logical table, containing any compile failure.

        Template selection, decomposition, or codegen raising must never
        crash the control path: the failing table is *quarantined* onto the
        linked-list universal template (the one with no prerequisite) and
        reported through :meth:`health`. A later clean rebuild heals it.
        """
        try:
            group = self._compile_group_preferred(table)
        except Exception as exc:  # containment boundary, deliberately broad
            self.compile_failures += 1
            self.quarantined[table.table_id] = f"{type(exc).__name__}: {exc}"
            self._batch_compiles += 1
            self.datapath.install(
                compile_table(
                    table, self.config, self.costs, kind=TemplateKind.LINKED_LIST
                )
            )
            group = _Group(
                logical_id=table.table_id, compiled_ids=[table.table_id]
            )
        else:
            self.quarantined.pop(table.table_id, None)
        self._groups[table.table_id] = group
        return group

    def force_quarantine(self, table_id: int, reason: str = "forced") -> None:
        """Drive one logical table into the quarantine state on demand.

        Exactly the containment path of :meth:`_compile_group`, minus the
        triggering exception: the table is pinned to the linked-list
        universal template, the quarantine is reported through
        :meth:`health`, and the next clean rebuild (e.g. a flow-mod whose
        template re-selection succeeds) heals it. The differential fuzzer
        uses this to hold backends in the degraded state and assert they
        still agree packet-for-packet.
        """
        table = self.pipeline.table(table_id)
        old = self._groups.get(table_id)
        self.compile_failures += 1
        self.quarantined[table_id] = reason
        self.datapath.install(
            compile_table(table, self.config, self.costs,
                          kind=TemplateKind.LINKED_LIST)
        )
        self._groups[table_id] = _Group(
            logical_id=table_id, compiled_ids=[table_id]
        )
        self._dirty_groups.discard(table_id)
        if old is not None:
            for tid in old.compiled_ids:
                if tid != table_id:
                    self.datapath.uninstall(tid)

    def _compile_group_preferred(self, table: FlowTable) -> _Group:
        kind = select_template(table.entries, self.config)
        if (
            kind is TemplateKind.LINKED_LIST
            and self.config.decompose
            and decomposable(table)
        ):
            tables = decompose_table(table, self._next_internal_id)
            assert tables is not None
            self._next_internal_id = max(
                self._next_internal_id, max(t.table_id for t in tables) + 1
            )
            # Compile every sub-table *before* installing any, so a failure
            # partway through leaks no trampoline entries for the
            # containment path to clean up.
            self._batch_compiles += len(tables)
            compiled = [
                compile_table(sub, self.config, self.costs) for sub in tables
            ]
            for ct in compiled:
                self.datapath.install(ct)
            return _Group(
                logical_id=table.table_id,
                compiled_ids=[t.table_id for t in tables],
                decomposed=True,
            )
        self._batch_compiles += 1
        self.datapath.install(
            compile_table(table, self.config, self.costs, kind=kind)
        )
        return _Group(logical_id=table.table_id, compiled_ids=[table.table_id])

    def _flush_rebuilds(self) -> None:
        for logical_id in sorted(self._dirty_groups):
            self._rebuild_group(logical_id)
        self._dirty_groups.clear()

    def _rebuild_group(self, logical_id: int) -> None:
        """Side-by-side rebuild of one logical table, then atomic swap."""
        self._dirty_groups.discard(logical_id)
        old = self._groups.get(logical_id)
        table = self.pipeline.table(logical_id)
        new_group = self._compile_group(table)  # installs over/new ids
        if old is not None:
            for tid in old.compiled_ids:
                if tid not in new_group.compiled_ids:
                    self.datapath.uninstall(tid)

    # -- updates ----------------------------------------------------------------------

    def apply_flow_mod(self, mod: FlowMod) -> float:
        """Apply one flow-mod; returns the estimated update cost in cycles.

        Raises :class:`~repro.openflow.messages.FlowModFailed` (a typed
        ``TABLE_FULL``) when an ADD would exceed the table's advertised
        ``max_entries``; inside :meth:`apply_flow_mods` the transactional
        rollback makes the whole batch invisible. Prefer
        :meth:`submit_flow_mods`, which answers with error replies instead
        of raising and never mutates on reject.
        """
        if not self._in_batch:
            self._batch_compiles = 0
        table = self.pipeline.get_or_create(mod.table_id)
        new_table = mod.table_id not in self._groups
        len_before = len(table)
        shapes_before = table.shapes_version
        pre_class_exists = False
        if not new_table and mod.command is not FlowModCommand.DELETE:
            # Does the mod's (priority, match-shape) class already exist?
            # Answered *before* the mutation from the O(shapes) feature
            # multiset; the add below then maintains it incrementally.
            sig = tuple((n, m) for n, (_v, m) in mod.match.items())
            pre_class_exists = any(
                k[0] == mod.priority and k[1] == sig
                for k in table.feature_counts()
            )
        if mod.command is FlowModCommand.DELETE:
            # Only a *strict* delete constrains the priority; priority 0 is
            # a legitimate strict target, not a wildcard (the falsy-zero
            # bug used to delete matching entries at every priority).
            removed = table.remove(mod.match, mod.priority if mod.strict else None)
            if not removed and not new_table:
                # Nothing matched: logical and compiled state are already
                # consistent, and touching the template (e.g. a phantom
                # hash-store removal) would desynchronize them. The table
                # did not bump its version either, so no re-fuse or
                # template re-selection follows — count the no-op.
                self.update_stats.noop_mods += 1
                return 0.0
        else:
            # ADD replacing an existing rule does not grow the table, so it
            # is exempt from the capacity check (OF 1.3: overlap replace).
            if table.full and not table.has_rule(mod.match, mod.priority):
                raise FlowModFailed(
                    ErrorMsg(
                        ErrorType.FLOW_MOD_FAILED,
                        FlowModFailedCode.TABLE_FULL,
                        f"table {mod.table_id} at capacity "
                        f"({table.max_entries} entries)",
                        data=mod,
                    )
                )
            table.add(mod.to_entry())
        # Updates can deepen (or shallow) the fields in play: re-plan the
        # parser templates before the next packet. Only this table mutated,
        # so when its shape *set* provably did not move (steady-state churn
        # inside existing classes) the pipeline-wide answer cannot have
        # changed either — skip the O(tables × shapes) recompute.
        if new_table or table.shapes_version != shapes_before:
            layer = required_layer(self.pipeline)
            if layer != self.datapath.parser_layer:
                self.datapath.set_parser_layer(layer)
        kind_stable = self._kind_stable(table, mod, len_before, pre_class_exists)
        cycles, slot_write = self._recompile_after_update(
            table, mod, new_table, kind_stable
        )
        # Incremental updates mutate compiled-table namespaces in place
        # (hash store, LPM slots, linked list entries, _MISS rebinds)
        # without touching the trampoline, so the generation moves here;
        # rebuilds already moved it via install(). A hash/LPM slot write
        # is data the standing fused driver reads live: it is carried
        # when it covers the written outcome. Anything else re-fuses
        # lazily, on the next packet, not here.
        self.datapath.bump_generation(
            None if slot_write is None else (slot_write,)
        )
        self.update_stats.cycles += cycles
        return cycles

    def apply_flow_mods(self, mods: Sequence[FlowMod]) -> float:
        """Transactional batch: either every mod applies or none does."""
        affected = {mod.table_id for mod in mods}
        snapshots: dict[int, "list | None"] = {}
        for tid in affected:
            try:
                snapshots[tid] = list(self.pipeline.table(tid).entries)
            except Exception:
                snapshots[tid] = None  # table does not exist yet
        cycles_before = self.update_stats.cycles
        total = 0.0
        self._in_batch = True
        self._batch_compiles = 0
        try:
            for mod in mods:
                total += self.apply_flow_mod(mod)
        except Exception:
            for tid, entries in snapshots.items():
                if entries is None:
                    # Roll back a table created inside this transaction.
                    self.pipeline._tables.pop(tid, None)
                    group = self._groups.pop(tid, None)
                    if group is not None:
                        for cid in group.compiled_ids:
                            self.datapath.uninstall(cid)
                    # A deferred rebuild queued for the vanished table must
                    # die with it, or the next packet's flush crashes
                    # looking up a table the rollback removed.
                    self._dirty_groups.discard(tid)
                    self.quarantined.pop(tid, None)
                    continue
                table = self.pipeline.table(tid)
                # One version bump; every derived structure (rule indexes,
                # feature multiset, tombstone store) resyncs together.
                table.restore_entries(entries)
                self._rebuild_group(tid)
            # The rolled-back mods must leave no trace in the modeled cost
            # accounting (the cycles half of batch invisibility); the
            # mechanism counters stand — they record work that really ran.
            self.update_stats.cycles = cycles_before
            raise
        finally:
            self._in_batch = False
        return total

    # -- admission control ------------------------------------------------------

    def admit_flow_mods(self, mods: Sequence[FlowMod]) -> list[ErrorMsg]:
        """Validate a batch against the live switch *without touching it*.

        Returns every typed error the batch would provoke (empty = the
        batch is admissible): the static checks of
        :func:`~repro.openflow.messages.validate_flow_mod`, goto targets
        resolving against the pipeline's tables plus those the batch
        itself creates, and per-table ``max_entries`` capacity — simulated
        over ``(match, priority)`` rule keys so ADD-replaces, MODIFYs and
        interleaved DELETEs count exactly as :meth:`apply_flow_mods`
        would apply them.
        """
        errors: list[ErrorMsg] = []
        statically_ok: list[FlowMod] = []
        for mod in mods:
            err = validate_flow_mod(mod, max_tables=MAX_TABLES)
            if err is not None:
                errors.append(err)
            else:
                statically_ok.append(mod)

        existing = set(self.pipeline._tables)
        # Any mod addressing a table creates it (get_or_create semantics),
        # so goto targets may resolve to tables minted later in the batch.
        will_exist = existing | {mod.table_id for mod in statically_ok}
        occupancy: dict[int, set[tuple[Match, int]]] = {}
        capacity: dict[int, "int | None"] = {}

        def _table_state(tid: int) -> tuple[set, "int | None"]:
            if tid not in occupancy:
                if tid in existing:
                    table = self.pipeline.table(tid)
                    occupancy[tid] = {
                        (e.match, e.priority) for e in table.entries
                    }
                    capacity[tid] = table.max_entries
                else:
                    occupancy[tid] = set()
                    capacity[tid] = None  # batch-created: unbounded
            return occupancy[tid], capacity[tid]

        for mod in statically_ok:
            for instr in mod.instructions:
                if (
                    isinstance(instr, GotoTable)
                    and instr.table_id not in will_exist
                ):
                    errors.append(
                        ErrorMsg(
                            ErrorType.BAD_INSTRUCTION,
                            "OFPBIC_BAD_TABLE_ID",
                            f"goto target {instr.table_id} does not exist "
                            "and is not created by this batch",
                            data=mod,
                        )
                    )
            rules, cap = _table_state(mod.table_id)
            key = (mod.match, mod.priority)
            if mod.command is FlowModCommand.DELETE:
                if mod.strict:
                    rules.discard(key)
                else:
                    rules.difference_update(
                        {k for k in rules if k[0] == mod.match}
                    )
            elif key in rules:
                pass  # replaces in place: no growth, always admissible
            elif cap is not None and len(rules) >= cap:
                errors.append(
                    ErrorMsg(
                        ErrorType.FLOW_MOD_FAILED,
                        FlowModFailedCode.TABLE_FULL,
                        f"table {mod.table_id} at capacity ({cap} entries)",
                        data=mod,
                    )
                )
            else:
                rules.add(key)
        return errors

    def submit_flow_mods(self, mods: Sequence[FlowMod]) -> FlowModReply:
        """Admission-controlled batch apply: the control-plane entry point.

        A rejected batch is answered with the full list of typed errors
        and is **bit-invisible**: admission runs before any mutation, so
        logical tables, compiled artifacts, the fused driver object,
        update accounting, and the datapath generation are exactly as if
        the batch had never been sent. An accepted batch applies
        transactionally and reports its modeled switch-side cycles.
        """
        errors = self.admit_flow_mods(mods)
        if errors:
            return FlowModReply(accepted=False, errors=tuple(errors))
        try:
            cycles = self.apply_flow_mods(mods)
        except FlowModFailed as exc:
            # Admission simulates capacity exactly, so this is belt and
            # braces: the transactional rollback already undid the batch.
            return FlowModReply(accepted=False, errors=(exc.error,))
        except Exception as exc:  # never let apply failures escape
            return FlowModReply(
                accepted=False,
                errors=(
                    ErrorMsg(
                        ErrorType.FLOW_MOD_FAILED,
                        FlowModFailedCode.UNKNOWN,
                        f"{type(exc).__name__}: {exc}",
                    ),
                ),
            )
        return FlowModReply(accepted=True, cycles=cycles)

    def _kind_stable(
        self,
        table: FlowTable,
        mod: FlowMod,
        len_before: int,
        pre_class_exists: bool,
    ) -> bool:
        """True when this mod provably cannot change the selected template.

        ``select_template`` is O(entries) — ran per flow-mod it turns
        million-entry churn into a template-reselection benchmark. But
        template applicability depends almost entirely on the table's
        *shape classes* ``(priority, match signature)``, of which there
        are a handful, so most mods can prove stability from the
        :meth:`~repro.openflow.flow_table.FlowTable.feature_counts`
        multiset alone:

        * HASH applicability is shape-only. An ADD into an existing class
          (or any strict DELETE that leaves a keyed class standing)
          cannot change it.
        * LPM applicability is value-dependent only through *hazard
          pairs* — distinct classes ``(p1, d1)``, ``(p2, d2)`` with
          ``d1 <= d2`` and ``p1 >= p2``, the shape of both duplicate-
          prefix-at-different-priority and ancestor-priority conflicts.
          A hazard-free class set is consistent for *any* values; strict
          DELETE from a consistent set always stays consistent.

        Everything value- or mode-sensitive falls through to the full
        recompute: wildcard deletes, range/linked-list modes, tables near
        the direct-code threshold, new shape classes.
        """
        config = self.config
        if config.force_linked_list or config.enable_range:
            return False
        if min(len(table), len_before) <= config.direct_threshold:
            return False
        if mod.command is FlowModCommand.DELETE and not mod.strict:
            return False
        group = self._groups.get(table.table_id)
        if group is None or group.decomposed:
            return False
        compiled = self.datapath.trampoline.get(table.table_id)
        if compiled is None:
            return False
        is_delete = mod.command is FlowModCommand.DELETE
        counts = table.feature_counts()  # post-mod
        if compiled.kind is TemplateKind.HASH:
            if not is_delete and not pre_class_exists:
                return False
            # A delete may extinguish the last keyed class, leaving only
            # catch-alls — no longer hash material.
            return any(k[1] for k in counts)
        if compiled.kind is TemplateKind.LPM:
            if is_delete:
                return True
            if not pre_class_exists:
                return False
            shapes = table.shapes_version
            cached = self._lpm_hazard_free.get(table.table_id)
            if cached is not None and cached[0] == shapes:
                return cached[1]
            classes = {(k[0], k[1]) for k in counts}
            free = not _lpm_hazard(classes)
            self._lpm_hazard_free[table.table_id] = (shapes, free)
            return free
        return False

    def _recompile_after_update(
        self,
        table: FlowTable,
        mod: FlowMod,
        new_table: bool,
        kind_stable: bool = False,
    ) -> "tuple[float, tuple | None]":
        """Absorb one applied mod into the compiled datapath.

        Returns the modeled cycles and, for a hash/LPM keyed-slot write,
        the ``(table_id, outcome)`` it wrote (None otherwise).
        """
        costs = self.costs
        stats = self.update_stats

        if new_table:
            self._compile_group(table)
            stats.rebuilds += 1
            return self._rebuild_cycles(table), None

        group = self._groups[table.table_id]
        if group.decomposed:
            # Queue a side-by-side rebuild; the control path pays only the
            # enqueue, the compile runs off the update's critical path.
            self._dirty_groups.add(table.table_id)
            stats.group_rebuilds += 1
            return costs.es_update_incremental, None

        compiled = self.datapath.table(table.table_id)
        if kind_stable:
            new_kind = compiled.kind
            stats.kind_stable_skips += 1
        else:
            new_kind = select_template(table.entries, self.config)
        if new_kind is not compiled.kind:
            # Prerequisite changed: fall back (or upgrade) with a rebuild.
            stats.fallbacks += 1
            if self._budget_spent():
                return self._defer_rebuild(table.table_id), None
            self._rebuild_group(table.table_id)
            return self._rebuild_cycles(table), None

        absorbed = self._try_incremental(compiled, table, mod)
        if absorbed:
            stats.incremental += 1
            slot_write = None if absorbed is True else absorbed
            return costs.es_update_incremental, slot_write

        stats.rebuilds += 1
        if self._budget_spent():
            return self._defer_rebuild(table.table_id), None
        self._rebuild_group(table.table_id)
        return self._rebuild_cycles(table), None

    def _rebuild_cycles(self, table: FlowTable) -> float:
        costs = self.costs
        return costs.es_update_rebuild_base + costs.es_update_rebuild_per_entry * len(
            table
        )

    def _budget_spent(self) -> bool:
        budget = self.config.compile_budget
        return budget is not None and self._batch_compiles >= budget

    def _defer_rebuild(self, table_id: int) -> float:
        """The batch blew its compile budget: push this rebuild to the
        side-by-side path (the next packet's flush) instead of paying the
        compile on the control path's critical path. New tables are exempt
        (goto targets need them installed immediately); only rebuilds of
        already-compiled tables defer, so the old compiled table keeps
        serving — and the pre-packet flush guarantees no lookup ever sees
        the stale build."""
        self.budget_deferrals += 1
        self._dirty_groups.add(table_id)
        return self.costs.es_update_incremental

    def _try_incremental(
        self, compiled: CompiledTable, table: FlowTable, mod: FlowMod
    ) -> "bool | tuple":
        """Non-destructive in-place update where the template allows it.

        Returns False when the template cannot absorb the mod (rebuild),
        the ``(table_id, outcome)`` pair of a hash/LPM keyed-slot write
        (``outcome`` None for an emptied slot), or True for any other
        in-place change: a catch-all rebind or a linked-list rewrite.
        """
        if compiled.kind is TemplateKind.DIRECT:
            return False  # "Complete rebuilding happens … unconditionally"

        if compiled.kind is TemplateKind.HASH:
            match = mod.match
            if match.is_catch_all:
                self._rebind_miss(compiled, table)
                return True
            if match.fields != compiled.hash_fields or any(
                match.mask_of(name) != mask
                for name, mask in zip(compiled.hash_fields, compiled.hash_masks)
            ):
                return False
            values = tuple(match.value_of(name) for name in compiled.hash_fields)
            key = values[0] if len(values) == 1 else values
            assert compiled.hash_store is not None
            # Same-match duplicates at different priorities are legal (the
            # lower one is shadowed): the slot always holds the outcome of
            # the highest-priority entry that *remains* in the table, so a
            # strict delete of one duplicate reinstates the survivor.
            best = table.find(match)
            written = None if best is None else outcome_of(best)
            if written is None:
                compiled.hash_store.remove(key)
            else:
                compiled.hash_store.insert(key, written)
            compiled.entry_count = len(table)
            return compiled.table_id, written

        if compiled.kind is TemplateKind.LPM:
            match = mod.match
            assert compiled.lpm_store is not None
            if match.is_catch_all:
                self._rebind_miss(compiled, table)
                return True
            if match.fields != (compiled.lpm_field,) or not match.is_prefix(
                compiled.lpm_field
            ):
                return False
            value = match.value_of(compiled.lpm_field)
            depth = match.prefix_len(compiled.lpm_field)
            assert value is not None
            # The outcome list is slot-addressed by the LPM's stored next
            # hop. Slots are recycled through a free list so that add/
            # delete churn (the Fig. 18 route-flap workload) keeps _OUT
            # bounded by the live rule count instead of growing forever.
            store = compiled.lpm_store
            outcomes = compiled.namespace["_OUT"]
            slot = store.get_rule(value, depth)
            best = table.find(match)
            written = None if best is None else outcome_of(best)
            if written is None:
                if slot is not None:
                    store.delete(value, depth)
                    outcomes[slot] = None
                    compiled.lpm_free.append(slot)
            elif slot is not None:
                # Rule replaced (or one duplicate deleted): rebind in place.
                outcomes[slot] = written
            else:
                if compiled.lpm_free:
                    slot = compiled.lpm_free.pop()
                    outcomes[slot] = written
                else:
                    slot = len(outcomes)
                    outcomes.append(written)
                try:
                    store.add(value, depth, slot)
                except LpmFullError:
                    outcomes[slot] = None
                    compiled.lpm_free.append(slot)
                    return False  # fall back to a (larger) rebuild
            compiled.entry_count = len(table)
            return compiled.table_id, written

        if compiled.kind is TemplateKind.LINKED_LIST:
            # Rebuild the entry list in place, reusing the shared matcher
            # functions; the generated code object never changes.
            from repro.core.analysis import split_catch_all

            rules, catch_all = split_catch_all(table.entries)
            compiled.miss = compiled.namespace["_MISS"] = (
                outcome_of(catch_all) if catch_all is not None else miss_outcome(table)
            )
            from repro.core.codegen import _guard_masks

            new_entries = []
            for entry in rules:
                sig = tuple((n, m) for n, (_v, m) in entry.match.items())
                fn = compiled.ll_matchers.get(sig)
                if fn is None:
                    fn = _build_sig_matcher(sig, len(compiled.ll_matchers))
                    compiled.ll_matchers[sig] = fn
                values = tuple(v for _n, (v, _m) in entry.match.items())
                new_entries.append(
                    (_guard_masks(entry.match), fn, values, outcome_of(entry))
                )
            assert compiled.ll_entries is not None
            compiled.ll_entries[:] = new_entries
            compiled.entry_count = len(table)
            return True

        return False

    @staticmethod
    def _rebind_miss(compiled: CompiledTable, table: FlowTable) -> None:
        """Re-point a keyed template's miss at the table's catch-all. The
        generated code reads ``_MISS``; :attr:`CompiledTable.miss` is what
        outcome enumeration sees, so both move together."""
        last = table.last_entry()  # O(1): no live-tuple rebuild
        compiled.miss = compiled.namespace["_MISS"] = (
            outcome_of(last)
            if last is not None and last.match.is_catch_all
            else miss_outcome(table)
        )

    def __repr__(self) -> str:
        return (
            f"ESwitch(tables={len(self._groups)}, "
            f"compiled={self.compiled_table_count})"
        )
