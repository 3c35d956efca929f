"""The correctness check: every verdict against the reference interpreter.

The judge is :meth:`repro.openflow.pipeline.Pipeline.process`, the
interpreter the differential fuzz oracle trusts, run on a pipeline of its
own that is kept in step with every flow-mod batch the switch accepted.

Two things keep the check affordable at 10K prefixes (the interpreter
scans a table linearly, about 7 ms per packet through the RIB):

* **memo per flow.** A verdict is a function of the packet and of the
  tables the interpreter visited. Each flow's result is kept with the
  ``version`` of every table on its path and reused only while none of
  them has changed (a table bumps its version on every mutation);
* **exact pre-filter.** Large tables get :class:`IndexedLookup`: entries
  are bucketed by the masked value of one match field, so only entries
  that can match are offered to ``Match.matches``, in table order. The
  first candidate that matches is the entry the linear scan returns,
  because every entry it skips cannot match. :meth:`Reference.self_check`
  compares the two lookups on live inputs at the start of every run.
"""

from __future__ import annotations

from repro.openflow.fields import field_by_name
from repro.openflow.flow_table import FlowTable
from repro.openflow.messages import FlowModCommand

#: tables at least this large get an :class:`IndexedLookup`.
INDEX_MIN_ENTRIES = 64


class IndexedLookup:
    """``FlowTable.lookup`` over the candidates of one indexed field."""

    def __init__(self, table: FlowTable, field: str):
        self.table = table
        self.extract = field_by_name(field).extract
        self.field = field
        self.version = -1

    def _rebuild(self) -> None:
        entries = self.table.entries
        unkeyed: list[int] = []
        by_mask: dict[int, dict[int, list[int]]] = {}
        for pos, entry in enumerate(entries):
            constraint = entry.match.constraint(self.field)
            if constraint is None:
                unkeyed.append(pos)
            else:
                value, mask = constraint
                by_mask.setdefault(mask, {}).setdefault(value, []).append(pos)
        self.entries = entries
        self.unkeyed = unkeyed
        self.by_mask = list(by_mask.items())
        self.version = self.table.version

    def __call__(self, view, probed=None):
        if probed is not None:
            return FlowTable.lookup(self.table, view, probed)
        if self.version != self.table.version:
            self._rebuild()
        candidates = list(self.unkeyed)
        actual = self.extract(view)
        if actual is not None:
            for mask, buckets in self.by_mask:
                hit = buckets.get(actual & mask)
                if hit:
                    candidates.extend(hit)
        entries = self.entries
        for pos in sorted(candidates):
            entry = entries[pos]
            if entry.match.matches(view):
                return entry
        return None


def _index_field(table: FlowTable) -> "str | None":
    counts: dict[str, int] = {}
    for entry in table.entries:
        for name in entry.match.fields:
            counts[name] = counts.get(name, 0) + 1
    return max(counts, key=counts.get) if counts else None


def index_tables(pipeline) -> list[IndexedLookup]:
    """Install an :class:`IndexedLookup` on every large table."""
    installed = []
    for table in pipeline:
        if len(table) >= INDEX_MIN_ENTRIES:
            field = _index_field(table)
            if field is not None:
                lookup = IndexedLookup(table, field)
                table.lookup = lookup
                installed.append(lookup)
    return installed


def apply_mods(pipeline, mods) -> None:
    """The logical-table semantics of ``ESwitch.apply_flow_mod``."""
    for mod in mods:
        table = pipeline.get_or_create(mod.table_id)
        if mod.command is FlowModCommand.DELETE:
            table.remove(mod.match, mod.priority if mod.strict else None)
        else:
            table.add(mod.to_entry())


class Reference:
    """Reference verdicts for the benchmark's template packets."""

    def __init__(self, pipeline, templates, compare_bytes: bool = True):
        self.pipeline = pipeline
        self.templates = templates
        self.compare_bytes = compare_bytes
        self.indexes = index_tables(pipeline)
        self._memo: dict[int, tuple] = {}

    def self_check(self, flows) -> list[str]:
        """Indexed lookup == linear scan, for ``flows`` on every indexed
        table the interpreter reaches. Returns the disagreements."""
        from repro.packet.parser import parse

        problems = []
        for i in flows:
            view = parse(self.templates[i].copy())
            for lookup in self.indexes:
                fast = lookup(view)
                slow = FlowTable.lookup(lookup.table, view)
                if fast is not slow:
                    problems.append(
                        f"flow {i} table {lookup.table.table_id}: indexed "
                        f"{fast!r} != linear {slow!r}"
                    )
        return problems

    def result(self, flow: int) -> tuple:
        """``(summary, output bytes or None)`` for one template flow."""
        memo = self._memo.get(flow)
        if memo is not None and all(t.version == v for t, v in memo[2]):
            return memo[0], memo[1]
        pkt = self.templates[flow].copy()
        verdict = self.pipeline.process(pkt)
        tables = {tid: self.pipeline.table(tid) for tid, _entry in verdict.path}
        deps = tuple((table, table.version) for table in tables.values())
        data = bytes(pkt.data) if self.compare_bytes else None
        self._memo[flow] = (verdict.summary(), data, deps)
        return verdict.summary(), data

    def apply(self, mods) -> None:
        apply_mods(self.pipeline, mods)

    def mismatches(self, flows, pkts, verdicts) -> int:
        """How many of one burst's verdicts disagree with the reference."""
        bad = 0
        for flow, pkt, verdict in zip(flows, pkts, verdicts):
            want, data = self.result(flow)
            if verdict.summary() != want or (
                data is not None and bytes(pkt.data) != data
            ):
                bad += 1
        return bad
