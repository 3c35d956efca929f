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

The churn gate runs a reactive gateway whose subscribers join by
PacketIn and leave by strict DELETE: it counts the calls of the whole
loop, control work included, and requires that no flow-mod re-fuses the
pipeline (every one is a hash-slot write the fused driver covers).
"""

import sys

import pytest

import repro.core.fuse as fuse_mod
from repro.controller.gateway_controller import GatewayController
from repro.controller.session import ControllerSession
from repro.core import CompileConfig, ESwitch
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.packet import PacketBuilder
from repro.usecases import gateway, l2, l3

BURST = 32
CEILINGS = {"gateway": 3.25, "l2": 3.25, "l3": 3.25}
CHURN_CEILING = 27.0


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


# -- churn: joins by PacketIn, leaves by strict DELETE ----------------------

CHURN_CE, CHURN_USERS = 2, 8
CHURN_WARM_ROUNDS = 8
CHURN_ROUNDS = 32


def _churn_rig():
    """A reactive gateway behind a ControllerSession: every subscriber
    joins through a punted first packet; nothing is provisioned."""
    pipeline, fib = gateway.build(n_ce=CHURN_CE, users_per_ce=CHURN_USERS,
                                  n_prefixes=64, provision_users=False)
    sw = ESwitch(pipeline)
    controller = GatewayController(n_ce=CHURN_CE, users_per_ce=CHURN_USERS)
    session = ControllerSession(sw, controller=controller)
    controller.switch = session
    # Flow i belongs to subscriber (i % 2, (i // 2) % 8): any 32 in a row
    # carry every subscriber twice.
    flows = list(gateway.traffic(fib, 2 * BURST, n_ce=CHURN_CE,
                                 users_per_ce=CHURN_USERS))
    return sw, session, controller, flows


def _churn_round(session, controller, flows, r: int, leave: bool) -> None:
    """One burst; then subscriber ``r`` leaves by strict DELETE of its two
    NAT rules. It joins again by PacketIn in the next burst."""
    session.process_burst(
        [flows[(r * BURST + j) % len(flows)].copy() for j in range(BURST)]
    )
    if not leave:
        return
    sub = (r % CHURN_CE, (r // CHURN_CE) % CHURN_USERS)
    reply = session.submit_flow_mods([
        FlowMod(FlowModCommand.DELETE, mod.table_id, mod.match,
                priority=mod.priority, strict=True)
        for mod in gateway.nat_flow_mods(*sub)
    ])
    assert reply, reply.errors
    controller.admitted.discard(sub)


def test_churn_never_refuses_and_calls_per_packet_under_ceiling(monkeypatch):
    """Every churn mod writes a hash slot the standing fused driver covers:
    after warm-up no flow-mod re-fuses the pipeline, and the Python calls
    a packet costs, control work included, stay under the ceiling.

    Measured with Python 3.11: 24.125 calls per packet over 32 rounds.
    Re-fusing after every mod, as before the fused driver was carried
    across slot writes, cost 87.23 calls per packet and 32 fuses.
    """
    sw, session, controller, flows = _churn_rig()
    for r in range(CHURN_WARM_ROUNDS):
        _churn_round(session, controller, flows, r, leave=r >= 2)
    assert len(controller.admitted) == CHURN_CE * CHURN_USERS - 1
    fuses = []
    real = fuse_mod.fuse_datapath

    def counting(dp):
        fuses.append(dp)
        return real(dp)

    monkeypatch.setattr(fuse_mod, "fuse_datapath", counting)
    installs = controller.packet_ins
    rebuilds = sw.update_stats.rebuilds
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        for r in range(CHURN_WARM_ROUNDS, CHURN_WARM_ROUNDS + CHURN_ROUNDS):
            _churn_round(session, controller, flows, r, leave=True)
    finally:
        sys.setprofile(None)
    assert controller.packet_ins > installs  # subscribers really rejoined
    assert sw.update_stats.rebuilds == rebuilds  # only slot writes
    assert fuses == []
    per_pkt = calls / (CHURN_ROUNDS * BURST)
    assert per_pkt <= CHURN_CEILING, f"churn: {per_pkt:.3f} calls/packet"
