"""Whole-pipeline fusion: link the compiled tables into one code object.

The trampoline (:mod:`repro.core.datapath`) resolves every ``goto_table``
through a mutable dict so a rebuilt table can be swapped in atomically
(Section 3.4). That flexibility costs a dict lookup, a generic function
call, and Outcome unboxing at every table hop — interpreter dispatch the
paper's linked machine code never executes: there, linking "atomically
redirect[s] all referring goto_table jumps to the address of the new
code" (Section 3.3–3.4) and the pipeline runs as one straight-line
instruction stream.

:func:`fuse_datapath` reproduces that last linking step. It stitches the
per-table generated sources into **one** ``compile()``\\ d driver:

* ``goto_table`` becomes a local jump — an ``if tid == N`` dispatch over
  compile-time-known table ids, with the table bodies **textually
  inlined** where the emitter allows (direct, hash, LPM, range) and a
  closure-bound direct call otherwise (linked list, whose generated body
  returns from inside a loop);
* the **parser template** for the datapath's parser layer is emitted
  inline, writing straight into the locals the table bodies read, with
  the header constants as literals (Section 3.1);
* the **action templates** run inline: each outcome carries its
  apply-actions as an interned ``(opcode, arg)`` op tuple
  (:func:`~repro.core.outcome.action_ops`), and the driver emits a
  branch only for the opcodes its enumerated outcomes use. Any other
  action runs through one generic op that calls ``Action.apply`` on a
  :class:`~repro.packet.parser.ParsedPacket` rebuilt from the locals.
  Ops that change the frame's layout share one inline reparse site;
* the first-table id and every cost-book constant are baked in as
  literals;
* every ``m.charge``/``m.touch`` atom of the trampoline path is preserved
  **literally**, in the same order, so modeled cycles stay bit-identical
  to the unfused pipeline — fusion buys real wall-clock, not model drift;
* a second driver variant specialized for :data:`~repro.simcpu.recorder.
  NULL_METER` drops the (no-op) metering calls entirely, which is where
  the functional-mode speedup comes from.

Validity is governed by :attr:`CompiledDatapath.generation`: ``install``/
``uninstall``/``set_parser_layer`` (and every applied flow-mod, via
:class:`~repro.core.eswitch.ESwitch`) bump it, and the datapath lazily
re-fuses on the next packet — off the update critical path, with the
trampoline serving the window in between, so the atomic-swap update
semantics are untouched. The one exception is the paper's data-only
update (Section 3.4): a hash or LPM slot write changes table data, not
code. The fused namespace shares the hash store, the LPM store and its
outcome list by reference, so when the written outcome needs nothing the
driver elided (:meth:`FusedPipeline.covers`) the standing driver is
carried into the new generation instead of re-fused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import filterfalse
from typing import TYPE_CHECKING, Callable

from repro.core.analysis import TemplateKind
from repro.core.outcome import (
    OP_DEC_TTL,
    OP_GENERIC,
    OP_OUTPUT,
    OP_POP_VLAN,
    OP_PUSH_VLAN,
    OP_SET_L2,
    OP_SET_L3,
    OP_SET_L4,
    Outcome,
)
from repro.openflow.actions import Output
from repro.openflow.fields import field_by_name
from repro.openflow.pipeline import MAX_TABLE_HOPS, PipelineError, Verdict
from repro.packet import headers as hdr
from repro.packet import parser as pp
from repro.packet.parser import ParsedPacket
from repro.simcpu.recorder import NULL_METER

if TYPE_CHECKING:
    from repro.core.datapath import CompiledDatapath


class FuseError(Exception):
    """Raised when a datapath cannot be fused (the trampoline still runs)."""


#: Templates whose generated bodies can be textually inlined: straight-line
#: code whose ``return`` statements never sit inside a loop, so they rewrite
#: mechanically to ``out = ...; break`` under a one-shot ``while True``.
#: The linked list template returns from inside its entry loop and is
#: linked by closure-bound direct call instead — as is any *data-driven*
#: direct table (the source-budget fallback loops over a closure array,
#: so the same inside-a-loop caveat applies) and any body that would push
#: the cumulative inlined source past ``fuse_source_budget``.
INLINABLE = frozenset(
    {TemplateKind.DIRECT, TemplateKind.HASH, TemplateKind.LPM, TemplateKind.RANGE}
)

_is_outcome = Outcome.__instancecheck__

_IDENT = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")
_RETURN = re.compile(r"^(\s*)return\s+(.+)$")


@dataclass
class FusedPipeline:
    """One datapath generation's fused drivers.

    The NullMeter variant is compiled at fuse time. The metered variant's
    source is emitted with it but compiled on first metered use
    (:meth:`load_metered`): functional-mode traffic, which re-fuses after
    every code-changing update, never pays for the second compile.
    """

    generation: int
    #: the full generated text, metered variant first (inspection only).
    source: str
    namespace: dict
    table_ids: tuple[int, ...]
    inlined_ids: tuple[int, ...]
    #: ``(pkt) -> Verdict`` — NullMeter scalar driver (atoms elided).
    process_null: Callable
    #: ``(pkts, on_verdict, verdicts, start) -> (verdicts, resume)`` —
    #: NullMeter variant.
    burst_null: Callable
    #: the metered variant's source, loaded by :meth:`load_metered`.
    metered_source: str
    #: the facts the driver was specialized for (see :func:`_pipeline_facts`):
    #: the loop guard was dropped, the machinery ``flags`` kept, and the
    #: per-table goto ``edges``.
    acyclic: bool
    flags: dict
    edges: dict
    #: ``(pkt, meter) -> Verdict`` — metered scalar driver; None until
    #: :meth:`load_metered` ran.
    process: "Callable | None" = None
    #: ``(pkts, meter, on_verdict, verdicts, start) -> (verdicts, resume)``
    #: appends the verdicts of ``pkts[start:]`` to ``verdicts`` (None: a
    #: new list); ``resume`` is -1 when the rest of the burst ran fused,
    #: else the index of the first unprocessed packet (``on_verdict``
    #: returned True: state may have changed under us). The per-burst IO
    #: cost is charged only when ``start`` is 0. None until
    #: :meth:`load_metered` ran.
    burst: "Callable | None" = None

    def load_metered(self) -> None:
        """Compile the metered variant (raises :class:`FuseError`)."""
        _load(self.metered_source, f"<eswitch:fused-metered:gen{self.generation}>",
              self.namespace)
        self.process = self.namespace["_process"]
        self.burst = self.namespace["_burst"]

    def is_current(self, datapath: "CompiledDatapath") -> bool:
        """Whether this driver still serves the datapath's generation.

        The multi-replica sync contract: a shard replica is "standing"
        for an epoch exactly when its datapath's fused driver exists and
        ``is_current`` holds — the sharded engine's update barrier waits
        for that state on every worker before releasing the next burst,
        so no two replicas ever answer the same burst from different
        pipeline generations.
        """
        return self.generation == datapath.generation

    def covers(self, table_id: int, outcome: "Outcome | None") -> bool:
        """Whether this driver already serves ``outcome`` written into one
        of ``table_id``'s keyed slots (None: the slot was emptied).

        The driver elided what no enumerated outcome needed; a slot write
        keeps it valid exactly when the new outcome needs none of that: no
        goto edge the guard-free driver has not proven acyclic, and no
        write set, metadata write, flow meter or action opcode whose
        machinery was dropped. A removal only shrinks the outcome set.
        """
        if outcome is None:
            return True
        goto = outcome.goto
        if self.acyclic and goto is not None and goto not in self.edges.get(table_id, ()):
            return False
        flags = self.flags
        if outcome.write_actions and not flags["write"]:
            return False
        if outcome.metadata_write is not None and not flags["meta"]:
            return False
        if outcome.meter is not None and not flags["meter"]:
            return False
        ops = flags["ops"]
        return all(op in ops for op, _arg in outcome.ops)


def table_outcomes(compiled) -> "list[Outcome] | None":
    """Every Outcome a table lookup can return, or None if unknowable.

    Outcomes are compile-time constants: they live in the generated
    namespace (``_O*``, ``_MISS``, the LPM ``_OUT`` list, the range
    ``_OUTS`` runs, the linked-list ``_ENTRIES`` tuples) or inside the
    hash store. Incremental updates mutate those same containers, so the
    enumeration always reads the current set.
    """
    namespace = getattr(compiled, "namespace", None)
    if not isinstance(namespace, dict):
        return None
    found: list[Outcome] = []

    def visit(values, depth: int) -> None:
        # Outcome lists run to 10K entries (the LPM ``_OUT``) and every
        # re-fuse re-reads them: filter them in C, recurse on the rest.
        found.extend(filter(_is_outcome, values))
        if depth < 2:
            for value in filterfalse(_is_outcome, values):
                if isinstance(value, (list, tuple)):
                    visit(value, depth + 1)

    visit(list(namespace.values()), 0)
    visit((getattr(compiled, "miss", None),), 0)
    store = getattr(compiled, "hash_store", None)
    if store is not None:
        visit(list(store._items.values()), 0)
    return found


def _pipeline_facts(dp: "CompiledDatapath") -> "tuple[bool, dict, dict[int, set[int]]]":
    """Whole-datapath facts proven from the enumerated outcome set.

    Returns ``(acyclic, flags, edges)``:

    * ``acyclic`` — no chain of static ``goto`` targets can revisit a
      table, so the fused driver may drop the per-hop loop guard (the
      trampoline's ``MAX_TABLE_HOPS`` counter exists only to catch goto
      cycles, which a DAG cannot have);
    * ``flags`` — which driver machinery any outcome actually needs
      (``write`` action sets, ``meta``\\ data writes, flow ``meter``
      checks, and the set of action-template ``ops``); the emitter
      elides what no outcome can trigger — the specialization move of
      the paper, applied to our own driver;
    * ``edges`` — table id -> the goto targets of its outcomes.

    Any table whose outcomes cannot be enumerated makes every answer
    conservative: the guarded, fully generic driver.
    """
    tables: dict[int, list[Outcome]] = {}
    for tid, compiled in dp.trampoline.items():
        outcomes = table_outcomes(compiled)
        if outcomes is None:
            return False, _GENERIC_FLAGS, {}
        tables[tid] = outcomes
    edges = {
        tid: {o.goto for o in outcomes if o.goto is not None}
        for tid, outcomes in tables.items()
    }
    state: dict[int, int] = {}  # 1 = on stack, 2 = done

    def dfs(tid: int) -> bool:
        state[tid] = 1
        for nxt in edges.get(tid, ()):
            mark = state.get(nxt)
            if mark == 1:
                return False
            if mark is None and nxt in edges and not dfs(nxt):
                return False
        state[tid] = 2
        return True

    acyclic = all(state.get(tid) == 2 or dfs(tid) for tid in edges)
    everything = [o for outcomes in tables.values() for o in outcomes]
    # Op tuples are interned, so a set of them is small.
    try:
        op_tuples = {o.ops for o in everything}
    except TypeError:  # an unhashable user action: dedupe by identity
        op_tuples = {id(o.ops): o.ops for o in everything}.values()
    flags = {
        # clear_actions without any write_actions anywhere is a no-op on
        # an always-empty action set, so "write" alone gates the machinery.
        "write": any(o.write_actions for o in everything),
        "meta": any(o.metadata_write is not None for o in everything),
        "meter": any(o.meter is not None for o in everything),
        "ops": {op for ops in op_tuples for op, _arg in ops},
    }
    return acyclic, flags, edges


def _rename_body(body: list[str], mapping: dict[str, str]) -> list[str]:
    """Token-rename identifiers in generated source lines (one pass, so
    ``_O1``/``_O10`` style prefix collisions cannot mis-rewrite)."""

    def sub(match: "re.Match[str]") -> str:
        return mapping.get(match.group(0), match.group(0))

    return [_IDENT.sub(sub, line) for line in body]


def _inline_body(compiled, prefix: str, namespace: dict, null: bool) -> list[str]:
    """One table's generated body, rewritten for inlining.

    ``return X`` becomes ``out = X`` + ``break`` (the caller wraps the body
    in a one-iteration ``while True``), the table's namespace constants are
    re-bound under ``prefix`` into the fused namespace, and ``m`` becomes
    the driver's ``meter``. With ``null=True`` the metering atoms (and the
    LPM trace loop that exists only to feed them) are dropped — they are
    no-ops on a NullMeter.
    """
    lines = compiled.source.rstrip("\n").split("\n")
    if not lines or not lines[0].startswith("def _match("):
        raise FuseError(
            f"table {compiled.table_id}: unexpected generated source shape"
        )
    body = lines[1:]
    if null:
        kept = []
        for line in body:
            stripped = line.strip()
            if stripped.startswith(("m.charge(", "m.touch(")):
                continue
            if stripped == "for _ln in _lines:":
                continue  # its whole suite is the touch just dropped
            # The traced store lookups exist only to feed the cache model:
            # on a NullMeter the trace is dead, so specialize down to the
            # single-result lookups (bound methods, no tuple boxing).
            matched = re.match(r"^(\s*)v, _ln = _H\.get_traced\((.*)\)$", line)
            if matched and getattr(compiled, "hash_store", None) is not None:
                namespace[prefix + "_Hget"] = compiled.hash_store.get
                kept.append(f"{matched.group(1)}v = _Hget({matched.group(2)})")
                continue
            matched = re.match(r"^(\s*)nh, _lines = _LPM\.lookup_traced\((.*)\)$", line)
            if matched and getattr(compiled, "lpm_store", None) is not None:
                namespace[prefix + "_LPMlookup"] = compiled.lpm_store.lookup
                kept.append(f"{matched.group(1)}nh = _LPMlookup({matched.group(2)})")
                continue
            kept.append(line)
        body = kept
    mapping = {"m": "meter", "_Hget": prefix + "_Hget", "_LPMlookup": prefix + "_LPMlookup"}
    for key, value in compiled.namespace.items():
        if key.startswith("_") and key not in ("_match", "__builtins__"):
            mapping[key] = prefix + key
            namespace[prefix + key] = value
    body = _rename_body(body, mapping)
    out = []
    for line in body:
        matched = _RETURN.match(line)
        if matched:
            indent, expr = matched.groups()
            out.append(f"{indent}out = {expr}")
            out.append(f"{indent}break")
        else:
            out.append(line)
    return out


def _emit_dispatch(dp: "CompiledDatapath", namespace: dict, null: bool) -> tuple[
    list[str], tuple[int, ...]
]:
    """The ``if tid == N`` chain replacing the trampoline dict lookup."""
    order = [dp.first_table] if dp.first_table in dp.trampoline else []
    order += [tid for tid in sorted(dp.trampoline) if tid not in order]
    lines: list[str] = []
    inlined: list[int] = []
    budget = getattr(dp, "fuse_source_budget", None)
    inlined_chars = 0
    variant = "n" if null else "m"
    for pos, tid in enumerate(order):
        compiled = dp.trampoline[tid]
        if not isinstance(tid, int):
            raise FuseError(f"non-integer table id {tid!r}")
        fn = getattr(compiled, "fn", None)
        if fn is None or not callable(fn):
            raise FuseError(f"table {tid!r} has no callable fast path")
        head = "if" if pos == 0 else "elif"
        lines.append(f"        {head} tid == {tid}:")
        kind = getattr(compiled, "kind", None)
        source = getattr(compiled, "source", "")
        can_inline = (
            kind in INLINABLE
            and source.startswith("def _match(")
            # Data-driven bodies return from inside their entry loop; the
            # return→break rewrite would exit that loop, not the table.
            and not getattr(compiled, "data_driven", False)
        )
        if can_inline and budget is not None and inlined_chars + len(source) > budget:
            can_inline = False  # over the fused-source budget: link by call
        if can_inline:
            inlined_chars += len(source)
            prefix = f"_t{tid}_{variant}"
            lines.append("            while True:")
            body = _inline_body(compiled, prefix, namespace, null)
            lines.extend("            " + line for line in body)
            inlined.append(tid)
        else:
            name = f"_t{tid}_fn"
            namespace[name] = fn
            arg = "_NULL" if null else "meter"
            lines.append(
                f"            out = {name}(data, pkt, l3, l4, proto, etype, nxt, {arg})"
            )
    lines.append("        else:")
    lines.append(
        '            raise _PipelineError(f"goto_table to unlinked table {tid}")'
    )
    return lines, tuple(inlined)


def _parser_lines(layer: int, et: str) -> list[str]:
    """The parser template for ``layer``, inline (Section 3.1).

    Writes the driver locals ``data``, ``dlen``, ``proto``, ``l3``,
    ``l4``, ``nxt`` and the ethertype local ``et`` to exactly the values
    :func:`~repro.packet.parser.parse_l2`/``parse_l3``/``parse`` leave in
    a :class:`ParsedPacket`'s slots (``proto``, ``l3``, ``l4``,
    ``l4_proto``, ``eth_type``), with the header constants as literals.
    Only the IPv6 extension-header walk stays a call, and only for
    packets that carry extension headers.
    """
    lines = [
        "data = pkt.data",
        "dlen = len(data)",
        "l4 = -1",
        "nxt = -1",
        f"if dlen < {hdr.ETH_HEADER_LEN}:",
        "    proto = 0",
        "    l3 = -1",
        f"    {et} = 0",
        "else:",
        f"    proto = {pp.PROTO_ETH}",
        f"    {et} = (data[12] << 8) | data[13]",
        f"    l3 = {hdr.ETH_HEADER_LEN}",
        f"    while {et} == {hdr.ETH_TYPE_VLAN:#x}:",
        f"        if dlen < l3 + {hdr.VLAN_TAG_LEN}:",
        "            l3 = -1",
        "            break",
        f"        proto |= {pp.PROTO_VLAN}",
        f"        {et} = (data[l3 + 2] << 8) | data[l3 + 3]",
        f"        l3 += {hdr.VLAN_TAG_LEN}",
    ]
    if layer < 3:
        return lines
    ipv4_l4 = [
        "if (data[l3 + 6] & 0x1F) or data[l3 + 7]:",
        "    l4 = -1",  # a non-first fragment carries no L4 header
        f"elif nxt == {hdr.IP_PROTO_TCP} and dlen >= l4 + {hdr.TCP_MIN_HEADER_LEN}:",
        f"    proto |= {pp.PROTO_TCP:#x}",
        f"elif nxt == {hdr.IP_PROTO_UDP} and dlen >= l4 + {hdr.UDP_HEADER_LEN}:",
        f"    proto |= {pp.PROTO_UDP:#x}",
        f"elif nxt == {hdr.IP_PROTO_ICMP} and dlen >= l4 + {hdr.ICMP_HEADER_LEN}:",
        f"    proto |= {pp.PROTO_ICMP:#x}",
        "else:",
        "    l4 = -1",
    ]
    ipv6_l4 = [
        "if nxt in _V6EXT:",
        "    l4, nxt = _walk6(data, l3)",
        "if l4 >= 0:",
        f"    if nxt == {hdr.IP_PROTO_TCP} and dlen >= l4 + {hdr.TCP_MIN_HEADER_LEN}:",
        f"        proto |= {pp.PROTO_TCP:#x}",
        f"    elif nxt == {hdr.IP_PROTO_UDP} and dlen >= l4 + {hdr.UDP_HEADER_LEN}:",
        f"        proto |= {pp.PROTO_UDP:#x}",
        f"    elif nxt == {hdr.IP_PROTO_ICMPV6} and dlen >= l4 + {hdr.ICMP_HEADER_LEN}:",
        f"        proto |= {pp.PROTO_ICMP6:#x}",
        "    else:",
        "        l4 = -1",
    ]
    lines += [
        f"    if {et} == {hdr.ETH_TYPE_IPV4:#x}:",
        f"        if dlen < l3 + {hdr.IPV4_MIN_HEADER_LEN} or data[l3] >> 4 != 4:",
        "            l3 = -1",
        "        else:",
        "            hl = (data[l3] & 0xF) << 2",
        f"            if hl < {hdr.IPV4_MIN_HEADER_LEN} or dlen < l3 + hl:",
        "                l3 = -1",
        "            else:",
        f"                proto |= {pp.PROTO_IPV4}",
        "                nxt = data[l3 + 9]",
        "                l4 = l3 + hl",
    ]
    if layer >= 4:
        lines += ["                " + line for line in ipv4_l4]
    lines += [
        f"    elif {et} == {hdr.ETH_TYPE_IPV6:#x}:",
        f"        if dlen < l3 + {hdr.IPV6_HEADER_LEN} or data[l3] >> 4 != 6:",
        "            l3 = -1",
        "        else:",
        f"            proto |= {pp.PROTO_IPV6}",
        "            nxt = data[l3 + 6]",
        f"            l4 = l3 + {hdr.IPV6_HEADER_LEN}",
    ]
    if layer >= 4:
        lines += ["            " + line for line in ipv6_l4]
    lines += [
        f"    elif {et} == {hdr.ETH_TYPE_ARP:#x}:",
        f"        if dlen >= l3 + {hdr.ARP_IPV4_LEN}:",
        f"            proto |= {pp.PROTO_ARP}",
        "        else:",
        "            l3 = -1",
        "    else:",
        "        l3 = -1",
    ]
    return lines


def _view_of(pkt, proto, l3, l4, l4_proto, eth_type, layer) -> ParsedPacket:
    """The :class:`ParsedPacket` the generic parser of ``layer`` returns,
    rebuilt from the inline parser's locals (generic actions take one)."""
    view = ParsedPacket(pkt)
    view.proto = proto
    view.l3 = l3
    view.l4 = l4
    view.l4_proto = l4_proto
    view.eth_type = eth_type
    view.parsed_layers = layer if layer == 4 or proto & pp.PROTO_ETH else 0
    return view


#: The inline action templates: opcode -> its body, run with the op's
#: ``arg`` bound. Bodies that leave the frame's layout intact end in
#: ``continue``; the rest fall through to the driver's one reparse site.
_OP_BODIES = {
    OP_OUTPUT: ["verdict.output_ports.append(arg)", "continue"],
    OP_SET_L3: [
        "if proto & arg[0]:",
        "    data[l3 + arg[1]:l3 + arg[2]] = arg[3]",
        "continue",
    ],
    OP_SET_L4: [
        "if proto & arg[0]:",
        "    data[l4 + arg[1]:l4 + arg[2]] = arg[3]",
        "continue",
    ],
    OP_SET_L2: [
        "if proto & arg[0]:",
        "    data[arg[1]:arg[2]] = arg[3]",
        "continue",
    ],
    OP_DEC_TTL: [
        f"if proto & {pp.PROTO_IPV4}:",
        "    ttl = data[l3 + 8]",
        "    if ttl <= 1:",
        "        verdict.dropped = True",
        "        verdict.output_ports.clear()",
        "    else:",
        "        data[l3 + 8] = ttl - 1",
        "continue",
    ],
    OP_POP_VLAN: [
        f"if (data[12] << 8) | data[13] != {hdr.ETH_TYPE_VLAN:#x}:",
        "    continue",
        "del data[12:16]",
    ],
    OP_PUSH_VLAN: [
        # PushVlan.apply reads the ethertype first: same IndexError.
        f"if len(data) < {hdr.ETH_HEADER_LEN}:",
        '    raise IndexError("bytearray index out of range")',
        "data[12:12] = arg",
    ],
    OP_GENERIC: [
        "if view is None:",
        "    view = _view(pkt, proto, l3, l4, nxt, {et}, {layer})",
        "arg.apply(view, verdict)",
        "if not verdict.reparse_needed:",
        "    continue",
        "verdict.reparse_needed = False",
    ],
}
#: Dispatch order: ops that keep the frame's layout first, then the
#: reparsing ones as one if/elif chain above the shared reparse site.
_OP_ORDER = (
    OP_OUTPUT, OP_SET_L3, OP_SET_L4, OP_SET_L2, OP_DEC_TTL,
    OP_POP_VLAN, OP_PUSH_VLAN, OP_GENERIC,
)
_REPARSING = frozenset({OP_POP_VLAN, OP_PUSH_VLAN, OP_GENERIC})
#: the facts of a pipeline whose outcomes cannot be enumerated: keep all.
_GENERIC_FLAGS = {"write": True, "meta": True, "meter": True, "ops": frozenset(_OP_ORDER)}


def _emit_run(
    dp: "CompiledDatapath",
    namespace: dict,
    null: bool,
    acyclic: bool,
    flags: dict,
) -> tuple[list[str], tuple[int, ...]]:
    """The fused forward core: CompiledDatapath._forward, specialized.

    Every statement mirrors the trampoline's ``_forward`` exactly — same
    charges, same order — with the per-hop dispatch specialized, the
    parser template and the action templates inlined, the cost loads
    baked in, the loop-detection guard elided when the static goto graph
    is proven acyclic, and the write-set / metadata / flow-meter
    machinery and every unused action template elided when no enumerated
    outcome can trigger it (``flags``). Elided branches charge no atoms
    and can never fire, so verdicts and cycles are unchanged.
    """
    costs = dp.costs
    ops = [op for op in _OP_ORDER if op in flags["ops"]]
    layer = dp.parser_layer
    stock_etype = dp._extract_etype is field_by_name("eth_type").extract
    # The parser's ethertype is the etype local itself when the stock
    # extractor would read it back; otherwise it lands in a temporary local.
    et = "etype" if dp.use_etype and stock_etype else "et"
    # A ParsedPacket exists only for generic actions and the write set.
    needs_view = OP_GENERIC in ops or flags["write"]
    parse = _parser_lines(layer, et)
    if et != "etype":
        if dp.use_etype:
            parse.append(f"etype = _ext(_view(pkt, proto, l3, l4, nxt, et, {layer})) or 0")
        else:
            parse.append("etype = 0")
    if needs_view:
        parse.append("view = None")
    # did_work only feeds the action_set charge: dead in the null variant.
    track_work = not null
    name = "_run_n" if null else "_run_m"
    sig = f"def {name}(pkt):" if null else f"def {name}(pkt, meter):"
    lines = [sig]
    lines.extend("    " + line for line in parse)
    lines.append("    verdict = _Verdict()")
    lines.append("    path = verdict.path")
    if flags["write"]:
        lines.append("    write_set = None")
    lines.append(f"    tid = {dp.first_table}")
    if track_work:
        lines.append("    did_work = False")
    if not acyclic:
        lines.append("    hops = 0")
    lines.append("    while True:")
    if not acyclic:
        lines.append("        hops += 1")
        lines.append(f"        if hops > {MAX_TABLE_HOPS}:")
        lines.append(
            '            raise _PipelineError("compiled pipeline loop detected")'
        )
    dispatch, inlined = _emit_dispatch(dp, namespace, null)
    lines.extend(dispatch)
    lines.append("        entry = out.entry")
    lines.append("        path.append((tid, entry))")
    lines.append("        if out.is_miss:")
    lines.append("            verdict.table_miss = True")
    lines.append("            if out.to_controller:")
    lines.append("                verdict.to_controller = True")
    lines.append("            else:")
    lines.append("                verdict.dropped = True")
    if not null:
        lines.append(f"            meter.charge({costs.table_miss!r})")
    lines.append("            return verdict")
    lines.append("        if entry is not None:")
    lines.append("            counters = entry.counters")
    lines.append("            counters.packets += 1")
    lines.append("            counters.bytes += dlen")
    if flags["meter"]:
        lines.append("        if out.meter is not None and not out.meter.allow():")
        lines.append("            verdict.dropped = True")
        lines.append("            return verdict")
    if ops:
        lines.append("        ops = out.ops")
        lines.append("        if ops:")
        if track_work:
            lines.append("            did_work = True")
        lines.append("            for op, arg in ops:")
        for pos, op in enumerate(ops):
            head = "elif" if op in _REPARSING and pos and ops[pos - 1] in _REPARSING else "if"
            lines.append(f"                {head} op == {op}:")
            for line in _OP_BODIES[op]:
                lines.append("                    " + line.format(et=et, layer=layer))
        if _REPARSING.intersection(ops):
            lines.extend("                " + line for line in parse)
    if flags["write"]:
        lines.append("        if out.clear_actions:")
        lines.append("            write_set = None")
        lines.append("        if out.write_actions:")
        lines.append("            if write_set is None:")
        lines.append("                write_set = list(out.write_actions)")
        lines.append("            else:")
        lines.append("                write_set.extend(out.write_actions)")
    if flags["meta"]:
        lines.append("        if out.metadata_write is not None:")
        lines.append("            value, mask = out.metadata_write")
        lines.append(
            "            pkt.metadata = (pkt.metadata & ~mask) | (value & mask)"
        )
    lines.append("        if verdict.dropped:")
    lines.append("            break")
    lines.append("        tid = out.goto")
    lines.append("        if tid is None:")
    lines.append("            break")
    if not null:
        lines.append(f"        meter.charge({costs.goto_trampoline!r})")
    if flags["write"]:
        # The write set runs generically, after the last table: nothing
        # reads the driver locals past this point, so a reparse only has
        # to refresh the view.
        lines.append("    if write_set is not None and not verdict.dropped:")
        if track_work:
            lines.append("        did_work = True")
        lines.append(
            "        ordered = [a for a in write_set if not isinstance(a, _Output)]"
        )
        lines.append(
            "        ordered += [a for a in write_set if isinstance(a, _Output)]"
        )
        lines.append("        if view is None:")
        lines.append(f"            view = _view(pkt, proto, l3, l4, nxt, {et}, {layer})")
        lines.append("        for action in ordered:")
        lines.append("            action.apply(view, verdict)")
        lines.append("            if verdict.reparse_needed:")
        lines.append("                view = _parse(pkt)")
        lines.append("                verdict.reparse_needed = False")
    if not null:
        lines.append("    if did_work:")
        lines.append(f"        meter.charge({costs.action_set!r})")
        lines.append("    if verdict.forwarded:")
        lines.append(f"        meter.charge({costs.pkt_out!r})")
    lines.append("    return verdict")
    return lines, inlined


def _emit_entrypoints(dp: "CompiledDatapath") -> tuple[list[str], list[str]]:
    """Scalar and burst wrappers around the two forward cores:
    ``(metered, null)``."""
    costs = dp.costs
    # Exactly the expressions the trampoline evaluates per call, computed
    # once here and baked as round-tripping literals: bit-identical floats.
    entry_charge = costs.pkt_in + costs.es_dispatch + dp._parser_cost
    per_pkt = (
        costs.pkt_in + costs.es_dispatch + dp._parser_cost - costs.io_burst_share
    )
    return [
        "def _process(pkt, meter):",
        f"    meter.charge({entry_charge!r})",
        "    return _run_m(pkt, meter)",
        "",
        "def _burst(pkts, meter, on_verdict, verdicts, i):",
        "    if verdicts is None:",
        "        verdicts = []",
        '    begin = getattr(meter, "begin_packet", None)',
        '    end = getattr(meter, "end_packet", None)',
        "    if not i:",
        f"        meter.charge({costs.io_burst_cost!r})",
        "    n = len(pkts)",
        "    while i < n:",
        "        pkt = pkts[i]",
        "        if begin is not None:",
        "            begin()",
        f"        meter.charge({per_pkt!r})",
        "        verdict = _run_m(pkt, meter)",
        "        if end is not None:",
        "            end()",
        "        verdicts.append(verdict)",
        "        i += 1",
        "        if on_verdict is not None and on_verdict(pkt, verdict):",
        "            return verdicts, i",
        "    return verdicts, -1",
    ], [
        "def _burst_null(pkts, on_verdict, verdicts, i):",
        "    if on_verdict is None:",
        "        return [_run_n(pkt) for pkt in pkts], -1",
        "    if verdicts is None:",
        "        verdicts = []",
        "    n = len(pkts)",
        "    while i < n:",
        "        pkt = pkts[i]",
        "        verdict = _run_n(pkt)",
        "        verdicts.append(verdict)",
        "        i += 1",
        "        if on_verdict(pkt, verdict):",
        "            return verdicts, i",
        "    return verdicts, -1",
    ]


def fuse_datapath(dp: "CompiledDatapath") -> FusedPipeline:
    """Stitch every linked table into one compiled driver object.

    Raises :class:`FuseError` for shapes the fuser does not handle (empty
    trampoline, duck-typed tables without a callable fast path, generated
    sources it cannot inline safely); the caller falls back to the
    trampoline, which handles everything.
    """
    from repro.core.datapath import _PARSERS

    if not dp.trampoline:
        raise FuseError("nothing linked: trampoline is empty")
    namespace: dict = {
        "_parse": _PARSERS[dp.parser_layer],
        "_ext": dp._extract_etype,
        "_view": _view_of,
        "_walk6": pp._walk_ipv6_extensions,
        "_V6EXT": hdr.IPV6_EXT_HEADERS,
        "_Verdict": Verdict,
        "_PipelineError": PipelineError,
        "_Output": Output,
        "_NULL": NULL_METER,
    }
    acyclic, flags, edges = _pipeline_facts(dp)
    run_m, inlined = _emit_run(dp, namespace, null=False, acyclic=acyclic, flags=flags)
    run_n, _ = _emit_run(dp, namespace, null=True, acyclic=acyclic, flags=flags)
    entry_m, entry_n = _emit_entrypoints(dp)
    metered_source = "\n".join(run_m + [""] + entry_m) + "\n"
    null_source = "\n".join(run_n + [""] + entry_n) + "\n"
    generation = dp.generation
    _load(null_source, f"<eswitch:fused:gen{generation}>", namespace)
    return FusedPipeline(
        generation=generation,
        source=metered_source + "\n" + null_source,
        namespace=namespace,
        table_ids=tuple(sorted(dp.trampoline)),
        inlined_ids=inlined,
        process_null=namespace["_run_n"],
        burst_null=namespace["_burst_null"],
        metered_source=metered_source,
        acyclic=acyclic,
        flags=flags,
        edges=edges,
    )


def _load(source: str, filename: str, namespace: dict) -> None:
    """Compile generated driver source into ``namespace``."""
    try:
        exec(compile(source, filename, "exec"), namespace)
    except Exception as exc:
        # An emitter bug producing unloadable source is a *fusion* failure,
        # not a datapath one: surface it as FuseError so every caller takes
        # the same trampoline-fallback path.
        raise FuseError(f"generated driver failed to load: {exc}") from exc
