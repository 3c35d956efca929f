"""The benchmark's three workloads, all on the paper's vPE access gateway.

Every workload is a closed loop driven from this one process: the next
burst of ``BURST`` packets is built only after the previous burst
call returned. Inputs come from the seed alone: the FIB, the template
flows, the order flows are sent in, and which subscribers leave.

* :class:`Gateway` — proactively provisioned pipeline, fused
  :class:`~repro.core.eswitch.ESwitch`, ``process_burst``, ``NullMeter``;
* :class:`GatewayChurn` — subscribers admitted reactively through
  :class:`~repro.controller.session.ControllerSession` and
  :class:`~repro.controller.gateway_controller.GatewayController`; every
  round one subscriber leaves and one earlier leaver joins again;
* :class:`GatewaySharded` — the ``Gateway`` inputs through
  :class:`~repro.parallel.engine.ShardedESwitch` with one worker, driven
  depth-2 with ``submit_burst``/``collect``; run inside ``gateway``'s
  traced run to measure the ``parallel`` layer.

Every burst and flow-mod batch is logged and checked against the
reference interpreter with the clock stopped (see :mod:`reference`).
"""

from __future__ import annotations

import collections
import gc
import random
import time
import traceback
from dataclasses import dataclass

from repro.controller.channels import LossyChannel
from repro.controller.gateway_controller import GatewayController
from repro.controller.session import ControllerSession
from repro.core.eswitch import ESwitch
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.parallel.engine import ShardedESwitch
from repro.simcpu.recorder import NULL_METER
from repro.usecases import gateway

from reference import Reference

clock = time.perf_counter

#: packets per burst.
BURST = 32
#: churn: subscribers that leave each round.
LEAVES_PER_ROUND = 2
#: bursts between correctness checks of the sharded loop. The others
#: check after every burst: records that outlive a burst get promoted by
#: the garbage collector and slow the bursts after them. Depth-2
#: pipelining needs the in-flight burst collected before a check, so the
#: sharded loop stops for one only every so many bursts.
SHARDED_CHUNK = 64
#: flows on which the indexed reference lookup is checked against the
#: linear scan at the start of a run.
SELF_CHECK_FLOWS = 8


@dataclass(frozen=True)
class Size:
    n_ce: int = 10
    users_per_ce: int = 20
    n_prefixes: int = 10_000
    n_flows: int = 4096
    #: churn: leavers stay away until this many others have left after them.
    parked: int = 8
    #: set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats: int = 9
    #: rounds of each deterministic counting pass (cycles, calls, bytes).
    count_rounds: int = 32


FULL = Size()
#: the benchmark's own tests.
TINY = Size(
    n_ce=2, users_per_ce=4, n_prefixes=96, n_flows=64, parked=2, setup_repeats=1, count_rounds=4
)


class BurstRecord:
    __slots__ = ("corr", "flows", "pkts", "verdicts", "error", "t0", "handle")

    def __init__(self, corr, flows, pkts):
        self.corr = corr
        self.flows = flows
        self.pkts = pkts
        self.verdicts = None
        self.error = None
        self.t0 = 0.0
        self.handle = None


class BatchRecord:
    __slots__ = ("mods", "accepted")

    def __init__(self, mods, accepted):
        self.mods = mods
        self.accepted = accepted


class Workload:
    name = ""
    provision_users = True
    #: the sharded engine never writes verdict bytes back to the caller.
    compare_bytes = True
    #: bursts per timed stretch; the clock stops after each for the check.
    chunk = 1

    def __init__(self, size: Size, seed: int):
        self.size = size
        self.seed = seed
        rng = random.Random(seed)
        self.fib_seed = rng.randrange(1 << 30)
        self.traffic_seed = rng.randrange(1 << 30)
        self.rng = random.Random(rng.randrange(1 << 30))
        self.meter = NULL_METER
        self.tracer = None
        #: ``start()``/``stop()`` around every call into the program
        #: (the call and allocation counters), or None.
        self.probe = None
        self._corr = 0
        self.log: list = []
        self.ref: "Reference | None" = None
        self.templates: list = []
        self.attempted = 0
        self.mismatched = 0
        self.lost = 0
        self.rejected = 0
        self.errors: list[str] = []
        self.reset_window()

    def reset_window(self) -> None:
        self.latencies: list[float] = []
        self.packets = 0
        self.mods_accepted = 0
        self.admit_latencies: list[float] = []
        self.slice_pps: list[float] = []

    @property
    def failed(self) -> int:
        return self.mismatched + self.lost + self.rejected

    # -- set-up ------------------------------------------------------------

    def build(self):
        return gateway.build(
            n_ce=self.size.n_ce,
            users_per_ce=self.size.users_per_ce,
            n_prefixes=self.size.n_prefixes,
            provision_users=self.provision_users,
            seed=self.fib_seed,
        )

    def inputs(self) -> None:
        """The template flows, the send order and the reference; untimed.

        The reference pipeline is built from the same seed as the one
        under test, so its FIB is the FIB the flows are drawn from."""
        size = self.size
        ref_pipeline, fib = self.build()
        self.templates = list(
            gateway.traffic(
                fib, size.n_flows, n_ce=size.n_ce,
                users_per_ce=size.users_per_ce, seed=self.traffic_seed,
            )
        )
        self.order = list(range(size.n_flows))
        self.rng.shuffle(self.order)
        self.cursor = 0
        self.ref = Reference(ref_pipeline, self.templates, self.compare_bytes)
        for problem in self.ref.self_check(self.order[:SELF_CHECK_FLOWS]):
            self.errors.append(problem)
            self.mismatched += 1

    def setup(self) -> float:
        """Build the program under test; returns the seconds it took."""
        self.close()  # the last set-up's program is freed off the clock
        gc.collect()
        t0 = clock()
        pipeline, _fib = self.build()
        self._construct(pipeline)
        return clock() - t0

    def _construct(self, pipeline) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Bring the loop to its steady state, untimed, and check it."""
        self.warm_up()
        self.drain()
        self.check()

    def warm_up(self) -> None:
        for _ in range(2):
            self.round()

    @property
    def switch(self) -> ESwitch:
        """The :class:`ESwitch` whose compiled tables serve the packets."""
        return self._switch

    # -- the closed loop -----------------------------------------------------

    def next_corr(self) -> int:
        self._corr += 1
        return self._corr

    def _open(self, name: str, corr: int):
        """A driver span, when a traced pass is running."""
        tracer = self.tracer
        return tracer.root(name, corr) if tracer is not None and tracer.active else None

    def _close(self, span) -> None:
        if span is not None:
            self.tracer.close(span)

    def _call(self, fn, *args):
        probe = self.probe
        if probe is None:
            return fn(*args)
        probe.start()
        try:
            return fn(*args)
        finally:
            probe.stop()

    def next_flows(self) -> list[int]:
        n = len(self.order)
        start = self.cursor
        self.cursor = (start + BURST) % n
        return [self.order[(start + j) % n] for j in range(BURST)]

    def round(self) -> None:
        """One closed-loop burst on a plain switch."""
        corr = self.next_corr()
        span = self._open("driver.round", corr)
        flows = self.next_flows()
        pkts = [self.templates[i].copy() for i in flows]
        rec = BurstRecord(corr, flows, pkts)
        self.log.append(rec)
        t0 = clock()
        try:
            rec.verdicts = self._call(self.switch.process_burst, pkts, self.meter)
        except Exception:  # the loop must keep running: count the burst lost
            rec.error = traceback.format_exc()
        t1 = clock()
        self._close(span)
        self.latencies.append(t1 - t0)
        if rec.verdicts is not None:
            self.packets += len(pkts)

    def drain(self) -> None:
        """Finish any burst still in flight (depth-2 pipelining)."""

    # -- the check -----------------------------------------------------------

    def check(self) -> None:
        """Judge everything logged since the last check; clear the log."""
        ref = self.ref
        for rec in self.log:
            if isinstance(rec, BatchRecord):
                self.attempted += 1
                if rec.accepted:
                    ref.apply(rec.mods)
                else:
                    self.rejected += 1
                continue
            self.attempted += len(rec.flows)
            if rec.verdicts is None:
                self.lost += len(rec.flows)
                if rec.error and len(self.errors) < 8:
                    self.errors.append(rec.error)
                continue
            self.mismatched += ref.mismatches(rec.flows, rec.pkts, rec.verdicts)
        self.log.clear()

    def absorb_check(self, other: "Workload") -> None:
        """Count another workload's checked operations as this run's."""
        self.attempted += other.attempted
        self.mismatched += other.mismatched
        self.lost += other.lost
        self.rejected += other.rejected
        self.errors += other.errors

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Stop whatever ``setup`` started and drop it (idempotent)."""
        self._switch = None


class Gateway(Workload):
    name = "gateway"

    def _construct(self, pipeline) -> None:
        switch = ESwitch(pipeline)
        switch.warm()
        self._switch = switch


class _LoggedSession:
    """The controller's switch handle: the session, with every flow-mod
    batch logged for the check and counted when accepted."""

    def __init__(self, workload: "GatewayChurn"):
        self.workload = workload

    def submit_flow_mods(self, mods):
        wl = self.workload
        reply = wl.session.submit_flow_mods(mods)
        wl.log.append(BatchRecord(list(mods), bool(reply)))
        if reply:
            wl.mods_accepted += len(mods)
        return reply


class GatewayChurn(Workload):
    name = "gateway-churn"
    provision_users = False

    def _construct(self, pipeline) -> None:
        size = self.size
        switch = ESwitch(pipeline)
        switch.warm()
        self._switch = switch
        self.controller = GatewayController(
            n_ce=size.n_ce, users_per_ce=size.users_per_ce
        )
        self.session = ControllerSession(
            switch,
            controller=self.controller,
            channel=LossyChannel(loss=0.0, delay_s=0.0, jitter_s=0.0, seed=self.seed),
        )
        self.handle = _LoggedSession(self)
        self.controller.switch = self.handle

    def close(self) -> None:
        self._switch = self.session = self.controller = self.handle = None

    def inputs(self) -> None:
        super().inputs()
        size = self.size
        self.flows_of: dict[tuple[int, int], list[int]] = {}
        self.sub_of: list[tuple[int, int]] = []
        for i in range(size.n_flows):
            sub = (i % size.n_ce, (i // size.n_ce) % size.users_per_ce)
            self.sub_of.append(sub)
            self.flows_of.setdefault(sub, []).append(i)
        self.sent: dict[tuple[int, int], int] = {}
        #: joined, first packet not forwarded yet: sub -> first punt time.
        self.pending: dict[tuple[int, int], "float | None"] = {}
        self.online: list[tuple[int, int]] = []
        self.online_set: set[tuple[int, int]] = set()
        self.parked: collections.deque = collections.deque()
        self.leaving = False

    def warm_up(self) -> None:
        """Admit every subscriber, then fill the parked queue."""
        for sub in sorted(self.flows_of):
            self.pending[sub] = None
        for _ in range(4 * len(self.flows_of)):
            if not self.pending:
                break
            self.round()
        self.leaving = True
        for _ in range(self.size.parked + 1):
            self.round()

    def round(self) -> None:
        size = self.size
        rng = self.rng
        corr = self.next_corr()
        span = self._open("driver.round", corr)
        joiners = list(self.pending)[:BURST]
        flows = []
        for sub in joiners:
            own = self.flows_of[sub]
            k = self.sent.get(sub, 0)
            self.sent[sub] = k + 1
            flows.append(own[k % len(own)])
        if self.online_set:
            n = size.n_flows
            while len(flows) < BURST:
                i = rng.randrange(n)
                if self.sub_of[i] in self.online_set:
                    flows.append(i)
        pkts = [self.templates[i].copy() for i in flows]
        rec = BurstRecord(corr, flows, pkts)
        self.log.append(rec)
        t0 = clock()
        try:
            rec.verdicts = self._call(self.session.process_burst, pkts, self.meter)
        except Exception:
            rec.error = traceback.format_exc()
        t1 = clock()
        self.latencies.append(t1 - t0)
        if rec.verdicts is None:
            self._close(span)
            return
        self.packets += len(pkts)
        for sub, verdict in zip(joiners, rec.verdicts):
            if verdict.to_controller:
                if self.pending[sub] is None:
                    self.pending[sub] = t0
            elif verdict.forwarded:
                started = self.pending.pop(sub)
                if started is not None:
                    self.admit_latencies.append(t1 - started)
                self.online.append(sub)
                self.online_set.add(sub)
        self._close(span)
        if self.leaving:
            for _ in range(LEAVES_PER_ROUND):
                self._leave()

    def _leave(self) -> None:
        """One subscriber leaves: strict DELETEs of its two NAT rules."""
        online = self.online
        if len(online) <= self.size.parked:
            return
        k = self.rng.randrange(len(online))
        sub = online[k]
        online[k] = online[-1]
        online.pop()
        self.online_set.discard(sub)
        mods = [
            FlowMod(
                FlowModCommand.DELETE, mod.table_id, mod.match,
                priority=mod.priority, strict=True,
            )
            for mod in gateway.nat_flow_mods(*sub)
        ]
        span = self._open("driver.leave", self.next_corr())
        reply = self._call(self.handle.submit_flow_mods, mods)
        self._close(span)
        if reply:
            self.controller.admitted.discard(sub)
        self.parked.append(sub)
        while len(self.parked) > self.size.parked:
            self.pending[self.parked.popleft()] = None


class GatewaySharded(Workload):
    name = "gateway-sharded"
    compare_bytes = False
    chunk = SHARDED_CHUNK

    engine: "ShardedESwitch | None" = None
    _prev: "BurstRecord | None" = None

    def _construct(self, pipeline) -> None:
        self.pipeline = pipeline
        self.engine = ShardedESwitch(pipeline, workers=1)
        self.faults = []

    @property
    def switch(self) -> ESwitch:
        return self.engine.shadow

    def round(self) -> None:
        corr = self.next_corr()
        span = self._open("driver.round", corr)
        flows = self.next_flows()
        pkts = [self.templates[i].copy() for i in flows]
        rec = BurstRecord(corr, flows, pkts)
        self.log.append(rec)
        rec.t0 = clock()
        try:
            rec.handle = self._call(self.engine.submit_burst, pkts, self.meter)
        except Exception as exc:
            self._fault(rec, exc)
        prev = self._prev
        self._prev = rec if rec.handle is not None else None
        if prev is not None:
            if span is not None:
                self.tracer.corr = prev.corr
            self._collect(prev)
        self._close(span)

    def _collect(self, rec: BurstRecord) -> None:
        try:
            rec.verdicts = self._call(self.engine.collect, rec.handle)
        except Exception as exc:
            self._fault(rec, exc)
        else:
            self.latencies.append(clock() - rec.t0)
            self.packets += len(rec.pkts)
        rec.handle = None

    def _fault(self, rec: BurstRecord, exc: Exception) -> None:
        """A transport or worker fault: the burst's packets are lost.

        The engine's health snapshot is kept with the error. An engine
        with no live worker left is replaced, so the run goes on."""
        rec.error = "".join(traceback.format_exception_only(type(exc), exc))
        health = self.engine.health()
        self.faults.append({"error": rec.error.strip(), "health": health.as_dict()})
        if health.live_workers == 0:
            self.engine.close()
            self.engine = ShardedESwitch(self.pipeline, workers=1)
            self._prev = None

    def drain(self) -> None:
        prev, self._prev = self._prev, None
        if prev is not None:
            span = self._open("driver.drain", prev.corr)
            self._collect(prev)
            self._close(span)

    def close(self) -> None:
        self._prev = None
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        self.pipeline = None


#: the benchmark's workloads. ``GatewaySharded`` is not one of them: on a
#: 2-CPU host its wall-clock figures spread too widely between identical
#: runs to gate on, so ``gateway``'s traced run measures it as the
#: ``parallel`` layer instead (see README.md).
WORKLOADS = {cls.name: cls for cls in (Gateway, GatewayChurn)}
