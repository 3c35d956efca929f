"""Seeded scenario generation: rung-targeted pipelines, boundary-biased
traffic, and mid-stream flow-mod schedules.

``generate(seed)`` is a pure function of its arguments — same seed,
same scenario, byte for byte — which is what makes ``repro fuzz --seed``
replayable and the CI smoke leg a fixed corpus in disguise.

Pipelines are generated *per template rung*: every table aims at one
rung of the ESWITCH lattice (direct / hash / LPM / range / linked list /
decomposable), so a short fuzz run still visits every code generator.
Traffic is biased toward match/miss boundaries (off-by-one values,
in-mask and off-mask bit flips near installed rules) plus a tail of
malformed frames; flow-mod batches land between bursts, including
batches built to be *rejected* by admission control, and adds in a
table's own key shape that its hash or LPM template absorbs in place.
"""

from __future__ import annotations

import random

from repro.fuzz import domain
from repro.fuzz.scenario import Scenario, packet_to_obj
from repro.openflow.flow_table import TableMissPolicy
from repro.openflow.groups import GroupType
from repro.openflow.timeouts import ExpiryManager, PipelineAdapter

RUNGS = ("direct", "hash", "lpm", "range", "linked_list", "decompose")

_MISS_POLICIES = [p.value for p in TableMissPolicy]
_GROUP_TYPES = [g.value for g in GroupType]


class GenerationError(RuntimeError):
    """The generator could not produce a valid scenario for a seed."""


def _match_obj(fields: dict) -> dict:
    out = {}
    for name, (value, mask) in fields.items():
        if mask == domain.full_mask(name):
            out[name] = value
        else:
            out[name] = {"value": value, "mask": mask}
    return out


#: ``_actions``' roll thresholds: the first bound above the roll wins;
#: past the last, a group (when there are groups) or a flood.
_ACTION_ROLLS = (
    (0.55, "output"), (0.65, "drop"), (0.72, "controller"), (0.82, "set"),
    (0.87, "dec_ttl"), (0.90, "pop_vlan"), (0.93, "push_vlan"),
)
#: every action kind the serialize dialect has.
_ACTION_KINDS = tuple(kind for _bound, kind in _ACTION_ROLLS) + ("flood", "group")


def _action(rng, kind, group_ids):
    if kind == "output":
        return {"output": rng.randint(1, 4)}
    if kind == "set":
        field = rng.choice(["eth_dst", "ipv4_src", "ipv4_dst", "tcp_dst"])
        return {"set": {field: domain.domain_value(rng, field)}}
    if kind == "push_vlan":
        return {"push_vlan": {"vid": rng.randint(1, 4094)}}
    if kind == "group":
        return {"group": rng.choice(group_ids)}
    return kind


def _actions(rng, group_ids) -> list:
    acts: list = []
    n = 1 + (rng.random() < 0.3)
    for _ in range(n):
        roll = rng.random()
        kind = next((k for bound, k in _ACTION_ROLLS if roll < bound), None)
        if kind is None:
            kind = "group" if group_ids and roll < 0.97 else "flood"
        acts.append(_action(rng, kind, group_ids))
    return acts


def _entry_obj(rng, fields, priority, later_ids, group_ids, meter_ids) -> dict:
    obj: dict = {
        "priority": priority,
        "match": _match_obj(fields),
        "apply": _actions(rng, group_ids),
    }
    if rng.random() < 0.15:
        obj["write"] = _actions(rng, group_ids)[:1]
    if rng.random() < 0.05:
        obj["clear"] = True
    if later_ids and rng.random() < 0.3:
        obj["goto"] = rng.choice(later_ids)
    if meter_ids and rng.random() < 0.25:
        obj["meter"] = rng.choice(meter_ids)
    return obj


# -- per-rung table builders -------------------------------------------------
#
# Each returns (table_obj, profiles): the serialize-dialect table document
# plus the field-constraint maps of its entries, which the traffic
# generator later aims packets at.


def _build_direct(rng, tid, later, groups, meters):
    profiles = [domain.random_fields(rng) for _ in range(rng.randint(1, 4))]
    entries = [
        _entry_obj(rng, f, rng.randint(0, 7), later, groups, meters)
        for f in profiles
    ]
    return entries, profiles


def _build_hash(rng, tid, later, groups, meters):
    profile = rng.choice(["l2", "v4", "v4tcp", "v4udp", "v6"])
    names = rng.sample(
        list(domain.PROFILES[profile]), rng.randint(1, 2)
    )
    mask_of = {n: domain.random_mask(rng, n) for n in names}
    entries, profiles, seen = [], [], set()
    for _ in range(rng.randint(5, 10)):
        fields = {
            n: (domain.domain_value(rng, n) & mask_of[n], mask_of[n])
            for n in names
        }
        key = tuple(sorted(fields.items()))
        if key in seen:
            continue  # CollisionFreeHash needs distinct keys
        seen.add(key)
        entries.append(
            _entry_obj(rng, fields, rng.randint(1, 7), later, groups, meters)
        )
        profiles.append(fields)
    if rng.random() < 0.3:  # split-off catch-all (strictly lowest priority)
        entries.append(_entry_obj(rng, {}, 0, later, groups, meters))
    return entries, profiles


def _build_lpm(rng, tid, later, groups, meters):
    field = rng.choice(["ipv4_src", "ipv4_dst"])
    full = domain.full_mask(field)
    entries, profiles, seen = [], [], set()
    for _ in range(rng.randint(5, 10)):
        plen = rng.choice([8, 16, 24, 32, rng.randint(1, 32)])
        mask = (full << (32 - plen)) & full
        value = domain.domain_value(rng, field) & mask
        if (value, plen) in seen:
            continue
        seen.add((value, plen))
        fields = {field: (value, mask)}
        # LPM consistency: priority must equal prefix length.
        entries.append(_entry_obj(rng, fields, plen, later, groups, meters))
        profiles.append(fields)
    if rng.random() < 0.4:
        entries.append(_entry_obj(rng, {}, 0, later, groups, meters))
    return entries, profiles


def _build_range(rng, tid, later, groups, meters):
    field = rng.choice(["tcp_dst", "udp_dst", "tcp_src", "udp_src"])
    full = domain.full_mask(field)
    entries, profiles = [], []
    start = rng.randint(1, 1000)
    for _run in range(rng.randint(2, 3)):
        length = rng.randint(9, 14)
        acts = _actions(rng, groups)
        run_obj: dict = {"apply": acts}
        if later and rng.random() < 0.3:
            run_obj["goto"] = rng.choice(later)
        for port in range(start, start + length):
            fields = {field: (port & full, full)}
            entry = {"priority": 5, "match": _match_obj(fields)}
            entry.update(run_obj)  # identical instructions merge into a run
            entries.append(entry)
            profiles.append(fields)
        start += length + rng.randint(2, 50)  # gap: runs stay disjoint
    if rng.random() < 0.3:
        entries.append(_entry_obj(rng, {}, 0, later, groups, meters))
    return entries, profiles


def _build_linked_list(rng, tid, later, groups, meters):
    entries, profiles = [], []
    for _ in range(rng.randint(5, 10)):
        fields = domain.random_fields(rng)
        entries.append(
            _entry_obj(rng, fields, rng.choice([3, 3, 5, 5, rng.randint(0, 9)]),
                       later, groups, meters)
        )
        profiles.append(fields)
    # Defeat decomposition: one column, two different masks.
    for mask in (0xFFFFFF00, 0xFFFF0000):
        fields = {"ipv4_src": (domain.domain_value(rng, "ipv4_src") & mask, mask)}
        entries.append(_entry_obj(rng, fields, 3, later, groups, meters))
        profiles.append(fields)
    return entries, profiles


def _build_decompose(rng, tid, later, groups, meters):
    profile = rng.choice(["v4", "v4tcp", "v4udp"])
    names = list(domain.PROFILES[profile])
    mask_of = {n: domain.random_mask(rng, n) for n in names}
    entries, profiles = [], []
    for _ in range(rng.randint(5, 9)):
        k = rng.randint(1, min(3, len(names)))
        chosen = rng.sample(names, k)
        fields = {
            n: (domain.domain_value(rng, n) & mask_of[n], mask_of[n])
            for n in chosen
        }
        if "ip_proto" in fields:
            if any(f.startswith("tcp_") for f in fields):
                fields["ip_proto"] = (6, domain.full_mask("ip_proto"))
            elif any(f.startswith("udp_") for f in fields):
                fields["ip_proto"] = (17, domain.full_mask("ip_proto"))
        entries.append(
            _entry_obj(rng, fields, rng.randint(0, 7), later, groups, meters)
        )
        profiles.append(fields)
    return entries, profiles


_BUILDERS = {
    "direct": _build_direct,
    "hash": _build_hash,
    "lpm": _build_lpm,
    "range": _build_range,
    "linked_list": _build_linked_list,
    "decompose": _build_decompose,
}


# -- traffic and flow-mod schedules ------------------------------------------


def _burst(rng, profiles, size, allow_malformed) -> list:
    out = []
    for _ in range(size):
        roll = rng.random()
        if profiles and roll < 0.70:
            fields = dict(rng.choice(profiles))
            if rng.random() < 0.5:
                fields = domain.perturb_fields(rng, fields)
            pkt = domain.packet_for_fields(rng, fields)
        elif allow_malformed and roll > 0.85:
            pkt = domain.malformed_packet(rng)
        else:
            pkt = domain.packet_for_fields(rng, domain.random_fields(rng))
        out.append(packet_to_obj(pkt))
    return out


def _keyed_add(rng, table_obj, later, group_ids) -> "tuple[dict, dict]":
    """An ADD in the shape of one of the table's own keyed entries (same
    fields, masks and priority: a hash key or an LPM prefix), so a hash or
    LPM table absorbs it as a slot write. Its instructions come from the
    whole vocabulary (every action kind, write set, metadata write, goto)
    so that it can bring an opcode or goto edge the standing fused driver
    lacks. No meter: admission turns mods with a meter instruction away.
    Returns ``(entry_obj, fields)``."""
    model = rng.choice([e for e in table_obj["entries"] if e["match"]])
    fields = {}
    for name, spec in model["match"].items():
        value, mask = ((spec["value"], spec["mask"]) if isinstance(spec, dict)
                       else (spec, domain.full_mask(name)))
        if rng.random() < 0.7:  # else the same key: a slot rebind
            value = domain.domain_value(rng, name) & mask
        fields[name] = (value, mask)
    kinds = _ACTION_KINDS if group_ids else _ACTION_KINDS[:-1]
    obj: dict = {
        "priority": model["priority"],
        "match": _match_obj(fields),
        "apply": [_action(rng, rng.choice(kinds), group_ids)
                  for _ in range(rng.randint(1, 2))],
    }
    if rng.random() < 0.3:
        obj["write"] = [_action(rng, rng.choice(kinds), group_ids)]
    if rng.random() < 0.2:
        obj["metadata"] = {"value": rng.randrange(256), "mask": 0xFF}
    if later and rng.random() < 0.5:
        obj["goto"] = rng.choice(later)
    return obj, fields


def _mods_batch(rng, tids, tables_obj, profiles, group_ids, meter_ids,
                quarantine) -> list:
    batch = []
    keyed_tids = [t for t in tids if any(e["match"] for e in tables_obj[t]["entries"])]
    if keyed_tids and rng.random() < 0.35:
        # Only adds in the tables' own key shapes: when a hash or LPM
        # template absorbs every one as a slot write, the whole batch
        # either carries the standing fused driver or must re-fuse it.
        for _ in range(rng.randint(1, 3)):
            # Half of them in the first table, which every packet reaches.
            tid = keyed_tids[0] if rng.random() < 0.5 else rng.choice(keyed_tids)
            later = [t for t in tids if t > tid]
            obj, fields = _keyed_add(rng, tables_obj[tid], later, group_ids)
            obj["cmd"] = "add"
            obj["table"] = tid
            profiles.append(fields)
            batch.append(obj)
        return batch
    for _ in range(rng.randint(1, 3)):
        # Bias toward quarantined tables: a clean rebuild heals them, and
        # post-heal parity is exactly what the fuzzer is hunting.
        tid = (rng.choice(list(quarantine))
               if quarantine and rng.random() < 0.4 else rng.choice(tids))
        later = [t for t in tids if t > tid]
        if profiles and rng.random() < 0.35:
            fields = dict(rng.choice(profiles))
            obj = {
                "cmd": "delete",
                "table": tid,
                "match": _match_obj(fields),
                "priority": rng.randint(0, 9),
                "strict": rng.random() < 0.5,
            }
        else:
            fields = domain.random_fields(rng)
            obj = _entry_obj(rng, fields, rng.randint(0, 9), later,
                             group_ids, meter_ids)
            obj["cmd"] = rng.choice(["add", "add", "modify"])
            obj["table"] = tid
            profiles.append(fields)
        batch.append(obj)
    if rng.random() < 0.25:
        # A poison mod: admission must reject the whole batch, leaving
        # every backend bit-identical to the no-op.
        poison = rng.randrange(3)
        obj = {
            "cmd": "add",
            "table": rng.choice(tids),
            "match": {},
            "priority": 1,
            "apply": [{"output": 1}],
        }
        if poison == 0:
            obj["table"] = 300  # beyond the 255-table id space
        elif poison == 1:
            obj["goto"] = 250  # resolvable id space, nonexistent table
        else:
            obj["priority"] = 0x10000  # out of OpenFlow's 16-bit range
        batch.insert(rng.randrange(len(batch) + 1), obj)
    return batch


# -- the generator -----------------------------------------------------------


def generate(
    seed: int,
    *,
    max_tables: int = 4,
    force_rungs: "tuple | None" = None,
    allow_quarantine: bool = True,
    allow_degrade: bool = True,
    allow_malformed: bool = True,
    allow_mods: bool = True,
    allow_tight_meter: bool = True,
) -> Scenario:
    """One scenario, deterministically, from ``seed``.

    ``force_rungs`` pins the per-table template targets (cycled when
    shorter than the table count) — how the corpus curation script gets
    one scenario per lattice rung.
    """
    for attempt in range(10):
        scenario = _generate_once(
            random.Random(f"{seed}/{attempt}"), seed, max_tables, force_rungs,
            allow_quarantine, allow_degrade, allow_malformed, allow_mods,
            allow_tight_meter,
        )
        if _sane(scenario):
            return scenario
    raise GenerationError(f"seed {seed}: no valid scenario in 10 attempts")


def _generate_once(
    rng, seed, max_tables, force_rungs, allow_quarantine, allow_degrade,
    allow_malformed, allow_mods, allow_tight_meter,
) -> Scenario:
    n_tables = (len(force_rungs) if force_rungs
                else rng.randint(1, max_tables))
    rungs = [
        force_rungs[i % len(force_rungs)] if force_rungs
        else rng.choice(RUNGS)
        for i in range(n_tables)
    ]

    group_ids: list = []
    groups_obj = []
    if rng.random() < 0.3:
        for gid in range(1, rng.randint(2, 3)):
            gtype = rng.choice(_GROUP_TYPES)
            n_buckets = 1 if gtype == "indirect" else rng.randint(1, 3)
            buckets = [
                {"weight": rng.randint(1, 4),
                 "actions": [{"output": rng.randint(1, 4)}]}
                for _ in range(n_buckets)
            ]
            groups_obj.append(
                {"id": gid, "type": gtype, "buckets": buckets}
            )
            group_ids.append(gid)

    meter_ids: list = []
    meters_obj = []
    tight_meter = False
    if rng.random() < 0.25:
        tight_meter = allow_tight_meter and rng.random() < 0.3
        meters_obj.append({"id": 1, "rate_pps": 1000.0, "burst": 1})
        meter_ids.append(1)

    tables_obj, profiles = [], []
    tids = list(range(n_tables))
    for tid, rung in zip(tids, rungs):
        later = [t for t in tids if t > tid]
        entries, table_profiles = _BUILDERS[rung](
            rng, tid, later, group_ids, meter_ids
        )
        tables_obj.append({
            "id": tid,
            "name": f"t{tid}-{rung}",
            "miss": rng.choice(_MISS_POLICIES),
            "entries": entries,
        })
        profiles.extend(table_profiles)

    quarantine: tuple = ()
    if allow_quarantine and rng.random() < 0.2:
        quarantine = (rng.choice(tids),)
    degrade_fuse = allow_degrade and rng.random() < 0.15

    events: list = []
    for i in range(rng.randint(1, 4)):
        aimed: list = []
        if i and allow_mods and rng.random() < 0.5:
            known = len(profiles)
            events.append({"mods": _mods_batch(
                rng, tids, tables_obj, profiles, group_ids, meter_ids, quarantine
            )})
            # One packet at each rule the batch adds, first thing after it.
            aimed = [packet_to_obj(domain.packet_for_fields(rng, fields))
                     for fields in profiles[known:]]
        events.append({"burst": aimed + _burst(
            rng, profiles, rng.randint(2, 12), allow_malformed
        )})

    scenario = Scenario(
        pipeline_obj={
            **({"groups": groups_obj} if groups_obj else {}),
            **({"meters": meters_obj} if meters_obj else {}),
            "tables": tables_obj,
        },
        events=events,
        seed=seed,
        enable_range=("range" in rungs) or rng.random() < 0.1,
        quarantine=quarantine,
        degrade_fuse=degrade_fuse,
        tight_meter=tight_meter,
    )
    if meters_obj and not tight_meter:
        # A meter that can never fire: rate-limit state stays identical
        # across sharded replicas, keeping workers>1 comparable.
        meters_obj[0]["burst"] = scenario.total_packets() + 16
    return scenario


def generate_large(seed: int, n_entries: int = 96) -> Scenario:
    """The large-cardinality scenario class, scaled by argument.

    Three chained tables at ``n_entries`` entries each cover the scale
    rungs the megascale rig exercises, differentially:

    * **hash** — exact ``eth_dst`` keys (the incremental perfect-hash
      store, grown further by the churn schedule);
    * **LPM** — nested /16 + /24 ``ipv4_dst`` prefixes (tbl8 allocation
      and the depth-consistency prerequisite);
    * **direct, over budget** — ``direct_threshold`` pins the last table
      onto the direct-code rung while a deliberately small
      ``source_budget`` forces its data-driven fallback, so the fallback
      executes against every other backend.

    Between bursts, ADD/strict-DELETE batches churn the hash and LPM
    tables — the incremental update paths (hash-store inserts, slot
    recycling, shape-stability skips) run under the oracle, not just
    under the benchmark. CI keeps ``n_entries`` small; the class scales
    to 10⁴–10⁵ by argument, not by new code.
    """
    if n_entries < 40:
        raise ValueError("generate_large needs n_entries >= 40")
    # ``direct_threshold`` is a global knob: it must sit *between* the
    # direct table's size and the hash/LPM tables' sizes, or every table
    # would land on the direct rung.
    n_direct = n_entries // 2
    rng = random.Random(f"large/{seed}")
    full_mac = domain.full_mask("eth_dst")
    full_ip = domain.full_mask("ipv4_dst")

    hash_profiles, hash_entries = [], []
    for i in range(n_entries):
        fields = {"eth_dst": ((0x02 << 40) | (0xAB << 32) | i, full_mac)}
        hash_profiles.append(fields)
        hash_entries.append({
            "priority": 1,
            "match": _match_obj(fields),
            "apply": [{"output": 1 + (i & 3)}],
            "goto": 1,
        })
    hash_entries.append(
        {"priority": 0, "match": {}, "apply": [{"output": 1}], "goto": 1}
    )

    lpm_profiles, lpm_entries = [], []
    for i in range(n_entries):
        if i % 4 == 0:  # nested shorter prefixes among the /24s
            plen, value = 16, (10 << 24) | ((i & 0xFF) << 16)
        else:
            plen, value = 24, (10 << 24) | ((i >> 8) << 16) | ((i & 0xFF) << 8)
        mask = (full_ip << (32 - plen)) & full_ip
        fields = {"ipv4_dst": (value & mask, mask)}
        lpm_profiles.append(fields)
        lpm_entries.append({
            "priority": plen,  # LPM consistency: priority = prefix length
            "match": _match_obj(fields),
            "apply": [{"output": 1 + (i & 3)}],
            "goto": 2,
        })
    lpm_entries.append(
        {"priority": 0, "match": {}, "apply": [{"output": 2}], "goto": 2}
    )

    direct_profiles, direct_entries = [], []
    for i in range(n_direct):
        fields = {"ipv4_src": ((192 << 24) | (168 << 16) | i, full_ip)}
        direct_profiles.append(fields)
        direct_entries.append({
            "priority": 2,
            "match": _match_obj(fields),
            "apply": [{"output": 1 + (i & 3)}],
        })
    direct_entries.append({"priority": 0, "match": {}, "apply": ["drop"]})

    def aimed_burst(size: int) -> list:
        out = []
        for _ in range(size):
            fields = dict(rng.choice(hash_profiles))
            fields.update(rng.choice(lpm_profiles))
            fields.update(rng.choice(direct_profiles))
            if rng.random() < 0.3:
                fields = domain.perturb_fields(rng, fields)
            out.append(packet_to_obj(domain.packet_for_fields(rng, fields)))
        return out

    def churn_batch(index: int) -> list:
        mac_fields = {
            "eth_dst": ((0x02 << 40) | (0xCD << 32) | index, full_mac)
        }
        plen, mask = 24, (full_ip << 8) & full_ip
        pfx_fields = {
            "ipv4_dst": (((172 << 24) | (index << 8)) & mask, mask)
        }
        batch = [
            {"cmd": "add", "table": 0, "priority": 1,
             "match": _match_obj(mac_fields),
             "apply": [{"output": 4}], "goto": 1},
            {"cmd": "add", "table": 1, "priority": plen,
             "match": _match_obj(pfx_fields),
             "apply": [{"output": 4}], "goto": 2},
        ]
        if index % 2:  # delete the previous round's adds: sustained churn
            prev_mac = {
                "eth_dst": ((0x02 << 40) | (0xCD << 32) | (index - 1), full_mac)
            }
            prev_pfx = {
                "ipv4_dst": (((172 << 24) | ((index - 1) << 8)) & mask, mask)
            }
            batch.append({"cmd": "delete", "table": 0, "priority": 1,
                          "match": _match_obj(prev_mac), "strict": True})
            batch.append({"cmd": "delete", "table": 1, "priority": plen,
                          "match": _match_obj(prev_pfx), "strict": True})
        hash_profiles.append(mac_fields)
        lpm_profiles.append(pfx_fields)
        return batch

    events: list = [{"burst": aimed_burst(8)}]
    for index in range(4):
        events.append({"mods": churn_batch(index)})
        events.append({"burst": aimed_burst(6)})

    return Scenario(
        pipeline_obj={"tables": [
            {"id": 0, "name": "t0-hash-large", "miss": "drop",
             "entries": hash_entries},
            {"id": 1, "name": "t1-lpm-large", "miss": "drop",
             "entries": lpm_entries},
            {"id": 2, "name": "t2-direct-budget", "miss": "drop",
             "entries": direct_entries},
        ]},
        events=events,
        seed=seed,
        name=f"large-{n_entries}",
        note="large-cardinality class: hash growth, LPM growth, "
             "data-driven direct rung",
        direct_threshold=n_direct + 8,
        source_budget=2_048,
    )


def generate_churn(seed: int, n_entries: int = 160) -> Scenario:
    """The churn-wall scenario class: tombstones, compaction, expiry.

    A hash-rung table whose flow population is stressed exactly the way
    the entry store's bug class manifests, differentially:

    * **idle expiry** — one cohort gets traffic only before the first
      clock tick and idle-expires at the second;
    * **activity refresh** — a keep-alive cohort is fed every inter-tick
      window, so its idle deadlines keep moving and it must survive;
    * **hard-beats-idle** — a cohort carrying *both* timeouts stays
      active right up to its hard deadline and must expire ``"hard"``;
    * **tombstone storm** — a single strict-delete batch kills a cohort
      larger than ``COMPACT_MIN_DEAD``, driving the dead fraction over
      the amortized-compaction threshold mid-batch, with aimed traffic
      before and after the compaction;
    * **no-op deletes** — strict deletes re-targeting already-expired
      rules remove nothing and must bump nothing anywhere.

    Every backend runs its own :class:`ExpiryManager` against the shared
    event clock, so expiry decisions are themselves an oracle output.
    """
    if n_entries < 160:
        # The storm cohort (2/5 of the population) must cross the
        # compaction floor (COMPACT_MIN_DEAD = 64) in one batch.
        raise ValueError("generate_churn needs n_entries >= 160")
    rng = random.Random(f"churn/{seed}")
    full_mac = domain.full_mask("eth_dst")
    full_ip = domain.full_mask("ipv4_dst")

    n5 = n_entries // 5
    idle_victims = range(0, n5)                   # expire idle at t=6
    keepalive = range(n5, 2 * n5)                 # fed every window
    hard_both = range(2 * n5, 2 * n5 + n5 // 2)   # active to the end: hard
    hard_solo = range(2 * n5 + n5 // 2, 3 * n5)   # no idle, no traffic
    storm = range(3 * n5, n_entries)              # strict-delete storm

    def mac_fields(i: int) -> dict:
        return {"eth_dst": ((0x02 << 40) | (0xEE << 32) | i, full_mac)}

    hash_entries = []
    for i in range(n_entries):
        obj = {
            "priority": 1,
            "match": _match_obj(mac_fields(i)),
            "apply": [{"output": 1 + (i & 3)}],
            "goto": 1,
        }
        if i in idle_victims or i in keepalive or i in hard_both:
            obj["idle_timeout"] = 4.0
        if i in hard_both or i in hard_solo:
            obj["hard_timeout"] = 12.0
        hash_entries.append(obj)
    hash_entries.append(
        {"priority": 0, "match": {}, "apply": [{"output": 1}], "goto": 1}
    )

    lpm_profiles, lpm_entries = [], []
    for i in range(16):
        if i % 4 == 0:
            plen, value = 16, (10 << 24) | (i << 16)
        else:
            plen, value = 24, (10 << 24) | ((i & 3) << 16) | (i << 8)
        mask = (full_ip << (32 - plen)) & full_ip
        fields = {"ipv4_dst": (value & mask, mask)}
        lpm_profiles.append(fields)
        lpm_entries.append({
            "priority": plen,  # LPM consistency: priority = prefix length
            "match": _match_obj(fields),
            "apply": [{"output": 1 + (i & 3)}],
        })
    lpm_entries.append({"priority": 0, "match": {}, "apply": ["drop"]})

    def aimed_burst(indices) -> list:
        out = []
        for i in indices:
            fields = dict(mac_fields(i))
            fields.update(rng.choice(lpm_profiles))
            out.append(packet_to_obj(domain.packet_for_fields(rng, fields)))
        return out

    mask24 = (full_ip << 8) & full_ip

    def churn_batch(index: int) -> list:
        mac = {"eth_dst": ((0x02 << 40) | (0xDD << 32) | index, full_mac)}
        pfx = {"ipv4_dst": (((172 << 24) | (index << 8)) & mask24, mask24)}
        batch = [
            {"cmd": "add", "table": 0, "priority": 1,
             "match": _match_obj(mac), "apply": [{"output": 4}], "goto": 1},
            {"cmd": "add", "table": 1, "priority": 24,
             "match": _match_obj(pfx), "apply": [{"output": 4}]},
        ]
        if index % 2:  # delete the previous round's adds: sustained churn
            prev_mac = {
                "eth_dst": ((0x02 << 40) | (0xDD << 32) | (index - 1), full_mac)
            }
            prev_pfx = {
                "ipv4_dst": (((172 << 24) | ((index - 1) << 8)) & mask24, mask24)
            }
            batch.append({"cmd": "delete", "table": 0, "priority": 1,
                          "match": _match_obj(prev_mac), "strict": True})
            batch.append({"cmd": "delete", "table": 1, "priority": 24,
                          "match": _match_obj(prev_pfx), "strict": True})
        return batch

    storm_batch = [
        {"cmd": "delete", "table": 0, "priority": 1,
         "match": _match_obj(mac_fields(i)), "strict": True}
        for i in storm
    ]
    noop_batch = [
        # Re-deleting rules the t=6 tick already expired: pure no-ops.
        {"cmd": "delete", "table": 0, "priority": 1,
         "match": _match_obj(mac_fields(i)), "strict": True}
        for i in list(idle_victims)[:4]
    ]

    fed = list(keepalive) + list(hard_both)
    events: list = [
        {"burst": aimed_burst(list(idle_victims)[:8] + fed)},
        {"tick": 1.0},   # first observe: timed cohorts start tracking
        {"mods": churn_batch(0)},
        {"mods": churn_batch(1)},
        {"burst": aimed_burst(fed)},
        {"tick": 6.0},   # idle victims (quiet since before t=1) expire
        {"mods": noop_batch},
        {"mods": churn_batch(2)},
        {"burst": aimed_burst(fed)},
        {"mods": storm_batch},  # tombstones cross the compaction threshold
        {"burst": aimed_burst(list(keepalive)[:12])},
        {"tick": 14.0},  # hard deadlines due; refreshed idle flows survive
        {"burst": aimed_burst(list(keepalive)[:8] + list(storm)[:4])},
    ]

    return Scenario(
        pipeline_obj={"tables": [
            {"id": 0, "name": "t0-hash-churn", "miss": "drop",
             "entries": hash_entries},
            {"id": 1, "name": "t1-lpm-churn", "miss": "drop",
             "entries": lpm_entries},
        ]},
        events=events,
        seed=seed,
        name=f"churn-{n_entries}",
        note="churn-wall class: tombstone storms, amortized compaction, "
             "idle+hard expiry ticks, no-op strict deletes",
    )


def generate_fabric_outage(seed: int, n_cohorts: int = 12) -> Scenario:
    """The fabric-outage scenario class: blackout mid flow-mod storm.

    The control session goes dark in the middle of a sustained flow-mod
    storm, reconnects, the controller re-delivers what was lost (the
    resync), and after convergence the table state — and therefore every
    verdict — must be indistinguishable from a run that never
    disconnected. That is exactly the invariant the fabric supervisor's
    recovery path leans on, pinned here differentially:

    * the **storm**: ``n_cohorts`` flow-mod batches; batch *i* admits
      cohort *i* (4 MAC rules into the hash table, 1 prefix into the
      LPM table) and strict-deletes cohort *i - 2* — sustained add +
      delete churn, the worst case for replaying out of order;
    * the **outage window** (``scenario.outage``): the middle third of
      the storm. The parity harness submits those batches against a
      DOWN session (typed ``CHANNEL_DOWN`` rejects, nothing applied)
      and re-delivers them, in order, after the evidence-based resync;
    * aimed **probe bursts** between batches keep the caches hot across
      the window, and a final all-cohort probe is the convergence
      oracle both runs must agree on.

    The differential matrix runs the same scenario with every batch
    delivered — the never-disconnected baseline — so the corpus entry
    also keeps all five backends honest about the storm itself.
    """
    if n_cohorts < 6:
        raise ValueError("generate_fabric_outage needs n_cohorts >= 6")
    rng = random.Random(f"fabric-outage/{seed}")
    full_mac = domain.full_mask("eth_dst")
    full_ip = domain.full_mask("ipv4_dst")
    mask24 = (full_ip << 8) & full_ip

    def mac_fields(cohort: int, i: int) -> dict:
        return {
            "eth_dst": ((0x02 << 40) | (0xFA << 32) | (cohort << 8) | i,
                        full_mac)
        }

    def pfx_fields(cohort: int) -> dict:
        return {"ipv4_dst": (((192 << 24) | (cohort << 8)) & mask24, mask24)}

    # A small steady population so the pipeline is never empty: cohort
    # numbering starts after it and never collides.
    steady = list(range(n_cohorts, n_cohorts + 8))
    hash_entries = [
        {"priority": 1, "match": _match_obj(mac_fields(c, 0)),
         "apply": [{"output": 1 + (c & 3)}], "goto": 1}
        for c in steady
    ]
    hash_entries.append({"priority": 0, "match": {}, "apply": ["controller"]})
    lpm_entries = [
        {"priority": 24, "match": _match_obj(pfx_fields(c)),
         "apply": [{"output": 1 + (c & 3)}]}
        for c in steady
    ]
    lpm_entries.append({"priority": 0, "match": {}, "apply": ["drop"]})

    def storm_batch(cohort: int) -> list:
        batch = [
            {"cmd": "add", "table": 0, "priority": 1,
             "match": _match_obj(mac_fields(cohort, i)),
             "apply": [{"output": 1 + ((cohort + i) & 3)}], "goto": 1}
            for i in range(4)
        ]
        batch.append(
            {"cmd": "add", "table": 1, "priority": 24,
             "match": _match_obj(pfx_fields(cohort)),
             "apply": [{"output": 1 + (cohort & 3)}]}
        )
        if cohort >= 2:  # sustained churn: evict the -2 cohort
            batch.extend(
                {"cmd": "delete", "table": 0, "priority": 1,
                 "match": _match_obj(mac_fields(cohort - 2, i)),
                 "strict": True}
                for i in range(4)
            )
            batch.append(
                {"cmd": "delete", "table": 1, "priority": 24,
                 "match": _match_obj(pfx_fields(cohort - 2)),
                 "strict": True}
            )
        return batch

    def aimed_burst(cohorts) -> list:
        out = []
        for c in cohorts:
            fields = dict(mac_fields(c, rng.randrange(4)))
            fields.update(pfx_fields(rng.choice(steady)))
            out.append(packet_to_obj(domain.packet_for_fields(rng, fields)))
        return out

    begin, end = n_cohorts // 3, (2 * n_cohorts) // 3
    events: list = [{"burst": aimed_burst(steady)}]
    for cohort in range(n_cohorts):
        events.append({"mods": storm_batch(cohort)})
        # Probes aimed at the latest cohort and at one the storm already
        # evicted: both the add and the delete side stay observable.
        events.append({"burst": aimed_burst([cohort, max(0, cohort - 2)])})
    # The convergence oracle: every cohort ever admitted, the survivors
    # (last two) forwarding, everything evicted punting at the miss rule.
    events.append({"burst": aimed_burst(list(range(n_cohorts)) + steady)})

    return Scenario(
        pipeline_obj={"tables": [
            {"id": 0, "name": "t0-hash-fabric", "miss": "drop",
             "entries": hash_entries},
            {"id": 1, "name": "t1-lpm-fabric", "miss": "drop",
             "entries": lpm_entries},
        ]},
        events=events,
        seed=seed,
        name=f"fabric-outage-{n_cohorts}",
        note="fabric-outage class: session blackout + resync during a "
             "flow-mod storm; verdict parity with the never-disconnected "
             "run after convergence",
        outage=(begin, end),
    )


def _sane(scenario: Scenario) -> bool:
    """Dry-run the reference interpreter: a scenario whose *reference*
    crashes is a generator bug, not a differential finding. Batches the
    switch admits are applied, as the oracle applies them."""
    from repro.core import CompileConfig, ESwitch
    from repro.fuzz.diff import _apply_reference

    try:
        pipeline = scenario.build_pipeline()
        pipeline.validate()
        arbiter = ESwitch(scenario.build_pipeline(),
                          config=CompileConfig(enable_range=scenario.enable_range))
        expiry = None
        for event in scenario.events:
            if "burst" in event:
                for pkt in scenario.build_packets(event["burst"]):
                    pipeline.process(pkt)
            elif "tick" in event:
                if expiry is None:
                    expiry = ExpiryManager(PipelineAdapter(pipeline))
                expiry.tick(float(event["tick"]))
            else:
                batch = event["mods"]
                if arbiter.submit_flow_mods(scenario.build_mods(batch, arbiter.pipeline)):
                    _apply_reference(pipeline, scenario.build_mods(batch, pipeline))
        return True
    except Exception:
        return False
