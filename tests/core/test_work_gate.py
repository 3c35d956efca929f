"""Deterministic work gate: Python calls per packet on the fused fast path.

Wall clock is too noisy to gate on, but the number of Python function
calls a packet costs is exact and host-independent. The fused NullMeter
driver runs the parser and action templates inline, so a packet costs
the driver call, the ``Verdict`` constructor and the hash/LPM lookups it
makes, plus the burst's own calls spread over its packets. Giving the
parser or an action back its call adds at least one call per packet and
fails this gate.

Measured with Python 3.11 (bursts of 32): 3.1875 calls per packet on
each pipeline below, 3 per packet plus 6 per burst. Python 3.12 inlines
the burst's list comprehension, one call fewer per burst. Before the
templates were inlined the same bursts cost 13.47 (gateway), 6.47 (l2)
and 7.47 (l3).
"""

import sys

import pytest

from repro.core import CompileConfig, ESwitch
from repro.packet import PacketBuilder
from repro.usecases import gateway, l2, l3

BURST = 32
CEILINGS = {"gateway": 3.25, "l2": 3.25, "l3": 3.25}


def _gateway():
    pipeline, fib = gateway.build(n_ce=2, users_per_ce=4, n_prefixes=64)
    # Both directions: PopVlan + SetField(ipv4_src) out, and
    # SetField(ipv4_dst) + PushVlan + Output back in.
    pkts = list(gateway.traffic(fib, BURST - 8, n_ce=2, users_per_ce=4))
    for ce in range(2):
        for user in range(4):
            pkts.append(
                PacketBuilder(in_port=gateway.NETWORK_PORT)
                .eth()
                .ipv4(dst=gateway.public_ip(ce, user))
                .tcp(dst_port=80)
                .build()
            )
    return pipeline, pkts


def _l2():
    pipeline, macs = l2.build(64)
    return pipeline, list(l2.traffic(macs, BURST))


def _l3():
    pipeline, fib = l3.build(64)
    return pipeline, list(l3.traffic(fib, BURST))


BUILDERS = {"gateway": _gateway, "l2": _l2, "l3": _l3}


def calls_per_packet(sw: ESwitch, pkts) -> float:
    """Python ``call`` events per packet over one NullMeter burst."""
    sw.process_burst([p.copy() for p in pkts])  # fuse and warm first
    batch = [p.copy() for p in pkts]
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        verdicts = sw.process_burst(batch)
    finally:
        sys.setprofile(None)
    assert all(v.forwarded for v in verdicts)
    return calls / len(batch)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fused_calls_per_packet_under_ceiling(name):
    pipeline, pkts = BUILDERS[name]()
    assert len(pkts) == BURST
    sw = ESwitch.from_pipeline(pipeline, config=CompileConfig(fuse=True))
    per_pkt = calls_per_packet(sw, pkts)
    assert sw.datapath.fused is not None
    assert per_pkt <= CEILINGS[name], f"{name}: {per_pkt:.3f} calls/packet"
