"""The shard worker: one datapath replica, one command channel.

Each worker owns a **private** fused :class:`ESwitch` replica built from
a pickled pipeline snapshot — shared-nothing by construction, whether
the worker is a forked process or (fallback) a thread. The loop serves
the engine's commands:

**burst frame** (:mod:`repro.parallel.frames`)
    Run one RSS sub-burst through the replica. The request frame carries
    the engine epoch, a ``seq`` tag, the packets, and the mode:
    ``"null"`` (functional, :data:`NULL_METER`) or ``"cycle"`` (the
    worker's persistent per-core :class:`CycleMeter` — private caches,
    exactly the per-core meters :func:`repro.traffic.measure_multicore`
    models). The reply frame carries the verdicts, the meter deltas
    (``cycles`` is None in null mode) and the flow-counter deltas of
    every logical entry the burst touched (see
    :func:`repro.parallel.wire.counter_deltas` — what makes engine-side
    flow stats exact across worker deaths). The reply echoes the
    worker's *applied* epoch so the engine can prove no gathered burst
    mixed pipeline generations, and the engine's ``seq`` tag so a
    double-buffered gather can pair replies with submissions. Frames
    cross with ``send_bytes``: no pickle on the per-burst path.

``("mods", epoch, flow_mods)``
    Apply a flow-mod batch transactionally, then **stand the new
    generation up** (flush deferred rebuilds, re-fuse) before acking —
    the ack is the worker's half of the epoch barrier, so by the time
    the engine releases the next burst every replica is already serving
    the new fused datapath.

``("stats",)``
    Ship the replica's :class:`BurstStats` and its per-entry flow
    counters (addressed by logical table position, see
    :mod:`repro.parallel.wire`). The engine keeps its own fault-proof
    ledgers and uses this only as a cross-check / debug pull.

``("reset_stats",)`` / ``("ping",)`` / ``("stop",)``
    Housekeeping; ``ping`` echoes the applied epoch (the engine's
    deadline-bounded liveness probe).

Control messages are pickled tuples on the same pipe, so requests,
replies and control traffic share one FIFO per worker;
:func:`recv_message` tells a frame from a pickle by its first bytes.
Any exception is caught and reported as ``("error", message, traceback)``
— the loop keeps serving, the engine decides whether to raise.

Supervision hooks: a worker is spawned with its shard ``index``, a
``start_epoch`` (a respawned replacement is forked from the engine's
shadow snapshot *at the current epoch*, so it never replays history),
and an optional :class:`~repro.parallel.faults.FaultInjector` whose
armed plan fires deterministically before/after each command — a
``kill`` there ends the worker the way a crash would: process workers
``os._exit`` (no cleanup, no reply), thread workers close their channel
and return, and in both cases the engine observes a dead channel.
"""

from __future__ import annotations

import os
import pickle
import traceback

from repro.core.analysis import CompileConfig
from repro.core.eswitch import ESwitch
from repro.openflow.stats import BurstStats
from repro.parallel import frames
from repro.parallel.faults import NO_FAULTS, WorkerKilled
from repro.parallel.wire import EntryIndexCache, counter_deltas, encode_verdicts
from repro.simcpu.recorder import CycleMeter, NULL_METER


def _die(conn) -> None:
    """End this worker the way a crash would (no reply, dead channel)."""
    if isinstance(conn, ThreadChannel):
        conn.close()  # the engine's next recv on its end raises EOFError
        return
    os._exit(13)  # a process worker dies for real: no atexit, no flush


def recv_message(conn):
    """The next message on a shard channel: frame ``bytes`` or a control tuple.

    A process pipe carries both as byte messages: frames go out with
    ``send_bytes`` and start with the frame magic, control tuples go out
    with ``send`` and are pickles (first byte ``0x80``), so one
    ``recv_bytes`` plus a two-byte check dispatches either. A
    :class:`ThreadChannel` hands both over by reference, as sent.
    """
    buf = conn.recv_bytes()
    if isinstance(conn, ThreadChannel) or frames.is_frame(buf):
        return buf
    return pickle.loads(buf)


def _run_burst(switch, meter, cache, shipped, req, epoch) -> bytes:
    """Execute one sub-burst request; returns the packed reply frame."""
    pkts = req.packets()
    if req.mode == "null":
        verdicts = switch.process_burst(pkts, NULL_METER)
        cycles = None
        llc = 0
    else:
        cycles0 = meter.total_cycles
        llc0 = meter.cache.stats.llc_misses
        verdicts = switch.process_burst(pkts, meter)
        cycles = meter.total_cycles - cycles0
        llc = meter.cache.stats.llc_misses - llc0
    return frames.reply_from_wires(
        epoch, req.seq, cycles, len(pkts), llc,
        encode_verdicts(verdicts, cache),
        counter_deltas(verdicts, cache, shipped),
    )


def shard_worker_main(
    conn,
    pipeline_blob: bytes,
    config: CompileConfig,
    costs,
    platform,
    index: int = 0,
    start_epoch: int = 0,
    injector=None,
    generation: int = 0,
) -> None:
    """Entry point of one shard worker (process target or thread body)."""
    faults = injector.arm(index, generation) if injector is not None else NO_FAULTS
    try:
        faults.fire("spawn", "before")
        pipeline = pickle.loads(pipeline_blob)
        switch = ESwitch(pipeline, config=config, costs=costs)
        switch.warm()  # replica construction includes the fused driver
        cache = EntryIndexCache(switch.pipeline)
        meter = CycleMeter(platform)
        epoch = start_epoch
        # id(entry) -> counters already reported. Seeded with the
        # snapshot's baseline: pre-existing history is the engine
        # ledger's business, only counts earned HERE ship as deltas.
        shipped: dict = {
            id(entry): (entry.counters.packets, entry.counters.bytes)
            for table in switch.pipeline
            for entry in table.entries
            if entry.counters.packets or entry.counters.bytes
        }
        faults.fire("spawn", "after")
        conn.send(("ready", epoch))
    except WorkerKilled:
        _die(conn)
        return
    except Exception as exc:  # pragma: no cover - construction failures
        conn.send(("error", repr(exc), traceback.format_exc()))
        return
    _serve(conn, faults, switch, meter, cache, shipped, epoch)


def _serve(conn, faults, switch, meter, cache, shipped, epoch):
    """The worker's command loop: one blocking receive per message."""
    while True:
        try:
            msg = recv_message(conn)
        except (EOFError, OSError):
            return
        try:
            if isinstance(msg, bytes):
                faults.fire("burst", "before")
                req, _ = frames.unpack_request(msg)
                if req.epoch != epoch:
                    conn.send((
                        "error",
                        f"epoch desync: burst tagged {req.epoch}, "
                        f"replica at {epoch}",
                        "",
                    ))
                    continue
                reply = _run_burst(switch, meter, cache, shipped, req, epoch)
                faults.fire("burst", "after")
                conn.send_bytes(reply)
                continue
            cmd = msg[0]
            faults.fire(cmd, "before")
            if cmd == "mods":
                _, new_epoch, mods = msg
                cycles = switch.apply_flow_mods(mods)
                # Swap in the new generation *inside* the barrier: the
                # ack promises the replica's fused datapath is current.
                switch.warm()
                epoch = new_epoch
                # Flow-mods can swap entry objects; prune the shipped
                # baselines so a recycled id() can't corrupt deltas.
                live_index, _ = cache.maps()
                shipped = {
                    eid: val for eid, val in shipped.items() if eid in live_index
                }
                faults.fire(cmd, "after")
                conn.send(("mods", epoch, cycles))
            elif cmd == "stats":
                counters = []
                for table in switch.pipeline:
                    for idx, entry in enumerate(table.entries):
                        c = entry.counters
                        if c.packets or c.bytes:
                            counters.append(
                                (table.table_id, idx, c.packets, c.bytes)
                            )
                faults.fire(cmd, "after")
                # Ship a merged copy, not the live ledger: the thread
                # backend passes objects by reference, and the worker
                # keeps mutating its own BurstStats after the send.
                conn.send(
                    ("stats", BurstStats.merged([switch.burst_stats]), counters)
                )
            elif cmd == "reset_stats":
                switch.burst_stats.reset()
                meter.reset()
                shipped = {}
                for table in switch.pipeline:
                    for entry in table.entries:
                        entry.counters.packets = 0
                        entry.counters.bytes = 0
                conn.send(("ok",))
            elif cmd == "ping":
                faults.fire(cmd, "after")
                conn.send(("pong", epoch))
            elif cmd == "stop":
                conn.send(("ok",))
                return
            else:
                conn.send(("error", f"unknown command {cmd!r}", ""))
        except WorkerKilled:
            _die(conn)
            return
        except Exception as exc:
            # A hung worker may wake after the engine reaped its channel;
            # reporting then fails too, and the worker just winds down.
            try:
                conn.send(("error", repr(exc), traceback.format_exc()))
            except (OSError, BrokenPipeError):
                return


_NOTHING = object()


class ThreadChannel:
    """A duplex, Connection-shaped channel over two queues (thread mode).

    Messages cross **by reference** — no pickle round-trip. That is
    safe because everything sent is immutable by construction (burst
    frames are ``bytes``, control messages are tuples), the pipeline
    replica still boots from its own pickled snapshot, and
    the one mutable reply (the ``stats`` pull's :class:`BurstStats`) is
    copied by the worker before sending. Thread workers thus stay
    observably shared-nothing while skipping the serialization tax the
    transport exists to remove. Like ``multiprocessing.Connection`` it
    supports ``poll(timeout)``, which the engine's RPC deadlines bound.
    """

    def __init__(self, inbox, outbox):
        self._inbox = inbox
        self._outbox = outbox
        self._peeked = _NOTHING

    def send(self, obj) -> None:
        self._outbox.put(obj)

    #: frames cross by reference too: one queue carries both kinds, and
    #: ``recv_bytes`` returns a frame or a control tuple exactly as sent
    send_bytes = send

    def poll(self, timeout: "float | None" = None) -> bool:
        """True when a message (or EOF) is ready within ``timeout``."""
        import queue

        if self._peeked is not _NOTHING:
            return True
        try:
            self._peeked = (
                self._inbox.get(timeout=timeout)
                if timeout is not None
                else self._inbox.get_nowait()
            )
        except queue.Empty:
            return False
        return True

    def recv(self):
        if self._peeked is not _NOTHING:
            obj, self._peeked = self._peeked, _NOTHING
        else:
            obj = self._inbox.get()
        if obj is None:
            raise EOFError
        return obj

    recv_bytes = recv

    def close(self) -> None:
        self._outbox.put(None)


def thread_channel_pair() -> tuple[ThreadChannel, ThreadChannel]:
    """(engine side, worker side) of one duplex thread channel."""
    import queue

    a, b = queue.Queue(), queue.Queue()
    return ThreadChannel(a, b), ThreadChannel(b, a)
