"""Simulated DPDK substrate.

The paper's prototype sits on the Intel DataPlane Development Kit: NIC
polling drivers, batch IO, and prefab flow-table building blocks. This
package reimplements the pieces ESWITCH uses:

* :mod:`repro.dpdk.lpm` — the ``rte_lpm`` DIR-24-8 longest-prefix-match
  structure backing the LPM table template;
* :mod:`repro.dpdk.hash` — a collision-free hash backing the compound hash
  template ("more memory and more time to build … fast constant time
  lookups", Section 3.1);
* :mod:`repro.dpdk.ports` — simulated ports with counters;
* :mod:`repro.dpdk.l2fwd` — the platform reference benchmark (the 15.7 Mpps
  port-forward ceiling of Section 4.2).
"""

from repro.dpdk.lpm import Dir24_8Lpm
from repro.dpdk.hash import CollisionFreeHash
from repro.dpdk.ports import Port, PortSet
from repro.dpdk.l2fwd import L2FWD_CYCLES_PER_PKT, l2fwd_rate_pps

__all__ = [
    "Dir24_8Lpm",
    "CollisionFreeHash",
    "Port",
    "PortSet",
    "L2FWD_CYCLES_PER_PKT",
    "l2fwd_rate_pps",
]
