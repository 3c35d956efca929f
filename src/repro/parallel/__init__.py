"""Real-parallel sharded execution: N datapath replicas behind one facade.

Everything else in this repo *models* multicore scaling
(:func:`repro.traffic.measure_multicore` charges an analytic coherence
term per extra core). This package actually runs packets in parallel:
:class:`~repro.parallel.engine.ShardedESwitch` spawns worker processes
(threads as a fallback), each owning a private fused
:class:`~repro.core.eswitch.ESwitch` replica compiled from the same
pipeline — the shared-nothing, run-to-completion shape of a DPDK
per-core datapath (and of OVS's per-PMD-thread datapaths, NSDI'15).

* :mod:`repro.parallel.rss` — the RSS-style 5-tuple hash that scatters
  packets to shards, flow-sticky like a NIC's receive-side scaling,
  plus the NIC-style indirection table the engine remaps to degrade
  around a dead shard;
* :mod:`repro.parallel.wire` — the compact forms verdicts and
  flow-counter deltas take across the shard boundary;
* :mod:`repro.parallel.frames` — bursts and replies struct-packed into
  versioned binary frames (columnar, one struct call per section): the
  zero-pickle per-burst codec, sent with ``send_bytes`` over each
  worker's one pipe;
* :mod:`repro.parallel.worker` — the shard worker loop (one replica,
  one pipe for frames and control messages, one per-core cycle meter);
* :mod:`repro.parallel.faults` — deterministic worker fault injection
  (kill / hang / delay at precise command occurrences), the test
  instrument behind the supervision layer;
* :mod:`repro.parallel.engine` — the scatter/gather facade with
  epoch-synced control-plane broadcast and worker supervision
  (RPC deadlines, crash/hang detection, respawn from the shadow
  snapshot, bounded burst retry, graceful degradation).
"""

from repro.parallel import frames
from repro.parallel.engine import (
    EngineHealth,
    EpochSyncError,
    ShardedESwitch,
    ShardWorkerError,
    WorkerDied,
    WorkerTimeout,
)
from repro.parallel.faults import FaultInjector, FaultSpec
from repro.parallel.rss import RssIndirection, rss_hash, shard_of

__all__ = [
    "EngineHealth",
    "EpochSyncError",
    "FaultInjector",
    "FaultSpec",
    "RssIndirection",
    "ShardWorkerError",
    "ShardedESwitch",
    "WorkerDied",
    "WorkerTimeout",
    "frames",
    "rss_hash",
    "shard_of",
]
