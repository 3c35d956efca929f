"""Parity properties of the fused driver's inline templates.

The fused driver (repro.core.fuse) inlines the parser template for the
datapath's parser layer and runs stock actions as ``(opcode, arg)`` op
templates instead of calling ``parse_l2``/``parse_l3``/``parse`` and
``Action.apply``. These properties pin each template to the generic code
it replaces:

* the inline parser leaves ``(proto, l3, l4, l4_proto, eth_type)``
  exactly as the generic parser of the same layer, on well-formed,
  truncated and garbage frames, at entry and at the reparse site;
* every action op leaves the same bytes and verdict fields as
  ``Action.apply``, or raises the same exception type.

The budget comes from the hypothesis profile: the default in tier-1, a
larger one under ``--hypothesis-profile=ci``.
"""

import functools
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datapath import CompiledDatapath
from repro.core.fuse import fuse_datapath
from repro.core.outcome import OP_GENERIC, Outcome
from repro.openflow.actions import (
    Action,
    Controller,
    DecTtl,
    Drop,
    Flood,
    Output,
    PopVlan,
    PushVlan,
    SetField,
)
from repro.openflow.pipeline import Verdict
from repro.packet.packet import Packet
from repro.packet.parser import parse, parse_l2, parse_l3
from repro.simcpu.platform import XEON_E5_2620
from repro.simcpu.recorder import CycleMeter

PARSERS = {2: parse_l2, 3: parse_l3, 4: parse}


class _Probe:
    """A table linked by call that records the driver locals it is handed
    and returns one fixed outcome."""

    kind = None
    source = ""

    def __init__(self, table_id: int, outcome: Outcome):
        self.table_id = table_id
        self.outcome = outcome
        self.namespace = {"_OUT": outcome}
        self.seen: list[tuple] = []

    def fn(self, data, pkt, l3, l4, proto, etype, nxt, m):
        self.seen.append((proto, l3, l4, nxt, etype))
        return self.outcome


def _driver(layer: int, *tables: _Probe):
    dp = CompiledDatapath(first_table=tables[0].table_id, parser_layer=layer)
    for table in tables:
        dp.install(table)
    fused = fuse_datapath(dp)
    fused.load_metered()
    return fused


def _slots(view) -> tuple:
    return (view.proto, view.l3, view.l4, view.l4_proto, view.eth_type)


# -- frames -------------------------------------------------------------------


def _ipv4(draw) -> bytes:
    ihl = draw(st.sampled_from([5, 6, 15, 0, 4]))
    version = draw(st.sampled_from([4, 4, 6]))
    frag = draw(st.sampled_from([0, 0x0001, 0x2000, 0x1FFF, 0x0100]))
    proto = draw(st.sampled_from([6, 17, 1, 58, 132]))
    ttl = draw(st.sampled_from([64, 1, 0, 2]))
    head = struct.pack(
        "!BBHHHBBH4s4s",
        (version << 4) | ihl, 0, 0, 1, frag, ttl, proto, 0,
        bytes(4), bytes((10, 0, 0, 1)),
    )
    options = bytes(max(0, ihl - 5) * 4)
    return head + options + draw(st.binary(min_size=20, max_size=24))


def _ipv6(draw) -> bytes:
    chain = draw(st.lists(st.sampled_from([0, 43, 60, 51, 44]), max_size=10))
    last = draw(st.sampled_from([6, 17, 58, 1, 59]))
    kinds = chain + [last]
    head = bytes((draw(st.sampled_from([0x60, 0x60, 0x40])), 0, 0, 0, 0, 0, kinds[0], 64))
    body = head + bytes(32)
    for kind, nxt in zip(chain, kinds[1:]):
        if kind == 44:  # fragment: fixed 8 bytes, maybe a non-first fragment
            off = draw(st.sampled_from([0, 0, 1]))
            body += bytes((nxt, 0, (off << 3) >> 8, (off << 3) & 0xFF)) + bytes(4)
        elif kind == 51:  # AH: (len + 2) * 4 bytes
            units = draw(st.integers(1, 3))
            body += bytes((nxt, units)) + bytes((units + 2) * 4 - 2)
        else:  # (len + 1) * 8 bytes
            units = draw(st.integers(0, 2))
            body += bytes((nxt, units)) + bytes((units + 1) * 8 - 2)
    return body + draw(st.binary(min_size=20, max_size=24))


@st.composite
def frames(draw) -> bytes:
    """Ethernet frames with VLAN stacks over IPv4/IPv6/ARP/other payloads,
    plus plain garbage. The tests also run every truncation of each."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(min_size=0, max_size=90))
    frame = bytes(range(1, 13))
    for _ in range(draw(st.integers(0, 3))):
        frame += b"\x81\x00" + struct.pack("!H", draw(st.integers(0, 0xFFFF)))
    kind = draw(st.sampled_from(["ipv4", "ipv4", "ipv6", "arp", "other", "vlan"]))
    if kind == "ipv4":
        frame += b"\x08\x00" + _ipv4(draw)
    elif kind == "ipv6":
        frame += b"\x86\xdd" + _ipv6(draw)
    elif kind == "arp":
        frame += b"\x08\x06" + draw(st.binary(min_size=20, max_size=40))
    elif kind == "vlan":  # a tag with nothing (or too little) after it
        frame += b"\x81\x00" + draw(st.binary(max_size=3))
    else:
        frame += struct.pack("!H", draw(st.integers(0, 0xFFFF)))
        frame += draw(st.binary(max_size=40))
    return frame


def _cuts(frame: bytes):
    """The frame truncated at every offset, itself included."""
    return [frame[:n] for n in range(len(frame) + 1)]


def _pkt(frame: bytes) -> Packet:
    return Packet(bytearray(frame), in_port=1)


# -- the parser template -------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _entry_driver(layer: int):
    probe = _Probe(0, Outcome())
    return probe, _driver(layer, probe)


@functools.lru_cache(maxsize=None)
def _reparse_driver(layer: int, action: Action):
    probe = _Probe(1, Outcome())
    return probe, _driver(layer, _Probe(0, Outcome(apply_actions=(action,), goto=1)), probe)


class TestInlineParser:
    """Entry parse and reparse site ≡ the generic parser of the layer."""

    @settings(deadline=None)
    @given(frames())
    def test_entry_parse_matches_generic(self, frame):
        for layer, parse_fn in PARSERS.items():
            probe, fused = _entry_driver(layer)
            for cut in _cuts(frame):
                expected = _slots(parse_fn(_pkt(cut)))
                probe.seen.clear()
                fused.process_null(_pkt(cut))
                fused.process(_pkt(cut), CycleMeter(XEON_E5_2620))
                assert probe.seen == [expected, expected], (layer, cut.hex())

    @settings(deadline=None)
    @given(frames(), st.sampled_from([PopVlan(), PushVlan(vid=7, pcp=3)]))
    def test_reparse_site_matches_generic(self, frame, action):
        for layer, parse_fn in PARSERS.items():
            probe, fused = _reparse_driver(layer, action)
            for cut in _cuts(frame):
                probe.seen.clear()
                pkt = _pkt(cut)
                try:
                    fused.process_null(pkt)
                except IndexError:
                    assert len(cut) < 14
                    continue
                assert probe.seen == [_slots(parse_fn(pkt))], (layer, cut.hex())

    def test_use_etype_off_zeroes_etype(self):
        probe = _Probe(0, Outcome())
        dp = CompiledDatapath(first_table=0, parser_layer=3, use_etype=False)
        dp.install(probe)
        fuse_datapath(dp).process_null(_pkt(bytes(12) + b"\x08\x06" + bytes(28)))
        assert probe.seen[0][4] == 0


# -- the action templates ----------------------------------------------------------


class _Capture(Action):
    """A user action: runs on the generic op and records its view."""

    def __init__(self):
        self.views = []

    def __eq__(self, other):
        return self is other

    __hash__ = object.__hash__

    def apply(self, view, verdict):
        self.views.append(_slots(view) + (view.parsed_layers,))


CAPTURE = _Capture()
STOCK = [
    Output(3),
    Flood(),
    SetField("eth_dst", 0x0A0B0C0D0E0F),
    SetField("eth_src", 0x020000000001),
    SetField("ipv4_src", 0x64400001),
    SetField("ipv4_dst", 0x0A000001),
    SetField("ipv6_src", (0x20010DB8 << 96) | 1),
    SetField("ipv6_dst", 2),
    SetField("tcp_src", 1234),
    SetField("tcp_dst", 80),
    SetField("udp_src", 53),
    SetField("udp_dst", 5353),
    PopVlan(),
    PushVlan(vid=100),
    PushVlan(vid=0xFFF, pcp=7),
    DecTtl(),
]
GENERIC = [
    SetField("vlan_vid", 42),
    SetField("vlan_pcp", 5),
    SetField("ip_dscp", 46),
    SetField("ip_ecn", 1),
    Drop(),
    Controller(),
]


def _reference(frame: bytes, layer: int, actions) -> tuple:
    """The trampoline's semantics: Action.apply on the generic view."""
    pkt = _pkt(frame)
    parse_fn = PARSERS[layer]
    verdict = Verdict()
    try:
        view = parse_fn(pkt)
        for action in actions:
            action.apply(view, verdict)
            if verdict.reparse_needed:
                view = parse_fn(pkt)
                verdict.reparse_needed = False
    except Exception as exc:  # the fused op must raise the same type
        return type(exc)
    return bytes(pkt.data), verdict.summary()


@functools.lru_cache(maxsize=None)
def _actions_driver(layer: int, actions: tuple):
    return _driver(layer, _Probe(0, Outcome(apply_actions=actions)))


def _fused(frame: bytes, layer: int, actions) -> tuple:
    fused = _actions_driver(layer, tuple(actions))
    pkt = _pkt(frame)
    try:
        verdict = fused.process_null(pkt)
    except Exception as exc:
        return type(exc)
    assert not verdict.reparse_needed
    return bytes(pkt.data), verdict.summary()


class TestActionOps:
    """Each op ≡ Action.apply: bytes, verdict fields, exception type."""

    def test_stock_actions_compile_to_templates(self):
        for action in STOCK:
            assert Outcome(apply_actions=(action,)).ops[0][0] != OP_GENERIC, action
        for action in GENERIC:
            assert Outcome(apply_actions=(action,)).ops[0][0] == OP_GENERIC, action

    def test_unhashable_user_action_runs_generic(self):
        class Unhashable(Action):
            __hash__ = None

            def apply(self, view, verdict):
                verdict.output_ports.append(9)

        fused = _driver(3, _Probe(0, Outcome(apply_actions=(Unhashable(), Output(1)))))
        verdict = fused.process_null(_pkt(bytes(12) + b"\x08\x06" + bytes(28)))
        assert verdict.summary() == ((9, 1), False, False)

    def test_op_tuples_are_interned(self):
        a = Outcome(apply_actions=(Output(2),))
        b = Outcome(apply_actions=(Output(2),))
        assert a.ops is b.ops

    @settings(deadline=None)
    @given(frames())
    def test_single_op_matches_apply(self, frame):
        for action in STOCK + GENERIC:
            for layer in PARSERS:
                for cut in _cuts(frame):
                    expected = _reference(cut, layer, [action])
                    got = _fused(cut, layer, [action])
                    assert got == expected, (action, layer, cut.hex())

    @settings(deadline=None)
    @given(
        frames(),
        st.sampled_from([2, 3, 4]),
        st.lists(st.sampled_from(STOCK + GENERIC), min_size=2, max_size=4),
    )
    def test_op_sequences_match_apply(self, frame, layer, actions):
        for cut in (frame, frame[:14], frame[:13]):
            expected = _reference(cut, layer, actions)
            assert _fused(cut, layer, actions) == expected, cut.hex()

    @settings(deadline=None)
    @given(frames(), st.sampled_from([None] + STOCK))
    def test_generic_view_matches_parser(self, frame, before):
        """The ParsedPacket built for a generic op equals the generic
        parser's, also after a template op changed the frame."""
        actions = [CAPTURE] if before is None else [before, CAPTURE]
        for layer, parse_fn in PARSERS.items():
            for cut in _cuts(frame):
                CAPTURE.views.clear()
                got = _fused(cut, layer, actions)
                if isinstance(got, type):
                    continue  # `before` raised first; test_single_op covers it
                view = parse_fn(_pkt(got[0]))
                assert CAPTURE.views == [_slots(view) + (view.parsed_layers,)]

    def test_dec_ttl_boundaries(self):
        for ttl in range(4):
            frame = bytes(12) + b"\x08\x00" + bytes((0x45, 0, 0, 0, 0, 0, 0, 0, ttl))
            frame += bytes(31)
            for actions in ([DecTtl()], [Output(1), DecTtl()], [DecTtl(), Output(1)]):
                for layer in PARSERS:
                    expected = _reference(frame, layer, actions)
                    assert _fused(frame, layer, actions) == expected, (ttl, actions)

    def test_push_vlan_on_short_frame_raises_index_error(self):
        for n in range(14):
            assert _fused(bytes(n), 3, [PushVlan(vid=1)]) is IndexError
            assert _reference(bytes(n), 3, [PushVlan(vid=1)]) is IndexError
