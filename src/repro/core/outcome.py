"""Outcomes: the pre-compiled result a table lookup returns.

Template specialization bakes each flow entry's consequences into a single
:class:`Outcome` object referenced as a constant from the generated code —
the analogue of the paper's action templates "collapsed into composite
action sets" and "shared across flows" (interning makes structurally equal
outcomes one object).

Each outcome also carries its apply-actions precompiled to an **op
tuple**: ``(opcode, arg)`` pairs the fused driver runs inline, with the
per-flow values (ports, pre-encoded set-field bytes, VLAN tags) as the
parameters of a shared template. Op tuples are interned per distinct
action tuple, so ten thousand routes forwarding to one port share one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.openflow.actions import (
    FLOOD_PORT,
    Action,
    DecTtl,
    Flood,
    Output,
    PopVlan,
    PushVlan,
    SetField,
)
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable, TableMissPolicy
from repro.openflow.instructions import (
    ApplyActions,
    ClearActions,
    GotoTable,
    WriteActions,
    WriteMetadata,
)
from repro.packet.headers import ETH_TYPE_VLAN

if TYPE_CHECKING:
    pass

# -- action templates ---------------------------------------------------------
#
# Opcodes of the inline action templates (see repro.core.fuse). Every op
# has exactly the effect of its action's ``apply`` on the packet bytes and
# the verdict, including the exception a malformed frame raises.

#: append ``arg`` (a port) to the verdict's output ports.
OP_OUTPUT = 0
#: ``(required proto bits, start, stop, bytes)`` written at ``l3 + start``.
OP_SET_L3 = 1
#: the same, relative to ``l4``.
OP_SET_L4 = 2
#: the same, at absolute frame offsets (Ethernet addresses).
OP_SET_L2 = 3
#: pop the outermost 802.1Q tag, if present (``arg`` unused).
OP_POP_VLAN = 4
#: insert ``arg``, the 4-byte 802.1Q tag, before the ethertype.
OP_PUSH_VLAN = 5
#: decrement the IPv4 TTL, dropping at zero (``arg`` unused).
OP_DEC_TTL = 6
#: anything else: ``arg.apply(view, verdict)`` on a ParsedPacket.
OP_GENERIC = 7

#: set-field writers that are one byte-slice store: field -> (op, start, stop).
_SLICE_FIELDS = {
    "eth_dst": (OP_SET_L2, 0, 6),
    "eth_src": (OP_SET_L2, 6, 12),
    "ipv4_src": (OP_SET_L3, 12, 16),
    "ipv4_dst": (OP_SET_L3, 16, 20),
    "ipv6_src": (OP_SET_L3, 8, 24),
    "ipv6_dst": (OP_SET_L3, 24, 40),
    "tcp_src": (OP_SET_L4, 0, 2),
    "tcp_dst": (OP_SET_L4, 2, 4),
    "udp_src": (OP_SET_L4, 0, 2),
    "udp_dst": (OP_SET_L4, 2, 4),
}

#: distinct action tuple -> its op tuple (cleared when it grows past
#: _OPS_POOL_MAX, which only costs sharing, never correctness).
_OPS_POOL: dict = {}
_OPS_POOL_MAX = 1 << 16


def _op_of(action: Action) -> tuple:
    """One action as an ``(opcode, arg)`` pair.

    Only the stock classes compile to a template (exact type checks: a
    subclass may override ``apply``); everything else is generic.
    """
    kind = type(action)
    if kind is Output:
        return (OP_OUTPUT, action.port)
    if kind is Flood:
        return (OP_OUTPUT, FLOOD_PORT)
    if kind is SetField and action.field in _SLICE_FIELDS:
        op, start, stop = _SLICE_FIELDS[action.field]
        value = action.value.to_bytes(stop - start, "big")
        return (op, (action._proto_required, start, stop, value))
    if kind is PopVlan:
        return (OP_POP_VLAN, None)
    if kind is PushVlan:
        tci = ((action.pcp & 0x7) << 13) | (action.vid & 0xFFF)
        return (OP_PUSH_VLAN, ((ETH_TYPE_VLAN << 16) | tci).to_bytes(4, "big"))
    if kind is DecTtl:
        return (OP_DEC_TTL, None)
    return (OP_GENERIC, action)


def action_ops(actions: "tuple[Action, ...]") -> tuple:
    """The interned op tuple of an apply-actions tuple."""
    if not actions:
        return ()
    try:
        ops = _OPS_POOL.get(actions)
    except TypeError:  # an unhashable user action: compile, don't share
        return tuple(_op_of(a) for a in actions)
    if ops is None:
        if len(_OPS_POOL) >= _OPS_POOL_MAX:
            _OPS_POOL.clear()
        ops = _OPS_POOL[actions] = tuple(_op_of(a) for a in actions)
    return ops


class Outcome:
    """What happens after a match (or a miss): actions + the next jump."""

    __slots__ = (
        "apply_actions",
        "write_actions",
        "clear_actions",
        "metadata_write",
        "goto",
        "entry",
        "is_miss",
        "to_controller",
        "meter",
        "ops",
    )

    def __init__(
        self,
        apply_actions: tuple[Action, ...] = (),
        write_actions: tuple[Action, ...] = (),
        clear_actions: bool = False,
        metadata_write: "tuple[int, int] | None" = None,
        goto: "int | None" = None,
        entry: "FlowEntry | None" = None,
        is_miss: bool = False,
        to_controller: bool = False,
        meter=None,
    ):
        self.apply_actions = apply_actions
        self.write_actions = write_actions
        self.clear_actions = clear_actions
        self.metadata_write = metadata_write
        self.goto = goto
        self.entry = entry
        self.is_miss = is_miss
        self.to_controller = to_controller
        #: a MeterInstruction checked before the entry's actions, or None.
        self.meter = meter
        #: ``apply_actions`` as interned ``(opcode, arg)`` pairs.
        self.ops = action_ops(apply_actions)

    def __repr__(self) -> str:
        if self.is_miss:
            return f"Outcome(miss->{'controller' if self.to_controller else 'drop'})"
        parts = []
        if self.apply_actions:
            parts.append(f"apply={list(self.apply_actions)}")
        if self.write_actions:
            parts.append(f"write={list(self.write_actions)}")
        if self.goto is not None:
            parts.append(f"goto={self.goto}")
        return f"Outcome({', '.join(parts) or 'no-op'})"


def outcome_of(entry: FlowEntry) -> Outcome:
    """Compile one flow entry's instruction list into an outcome."""
    from repro.openflow.meters import MeterInstruction

    apply_actions: tuple[Action, ...] = ()
    write_actions: tuple[Action, ...] = ()
    clear = False
    metadata: "tuple[int, int] | None" = None
    goto: "int | None" = None
    meter = None
    for instr in entry.instructions:
        if isinstance(instr, MeterInstruction):
            meter = instr
        elif isinstance(instr, ApplyActions):
            apply_actions = apply_actions + instr.actions
        elif isinstance(instr, WriteActions):
            write_actions = write_actions + instr.actions
        elif isinstance(instr, ClearActions):
            clear = True
            write_actions = ()
        elif isinstance(instr, WriteMetadata):
            metadata = (instr.value, instr.mask)
        elif isinstance(instr, GotoTable):
            goto = instr.table_id
    return Outcome(
        apply_actions=apply_actions,
        write_actions=write_actions,
        clear_actions=clear,
        metadata_write=metadata,
        goto=goto,
        entry=entry,
        meter=meter,
    )


def miss_outcome(table: FlowTable) -> Outcome:
    """The outcome of a table miss under the table's policy."""
    return Outcome(
        is_miss=True,
        to_controller=table.miss_policy is TableMissPolicy.CONTROLLER,
    )
