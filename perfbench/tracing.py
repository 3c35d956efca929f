"""Spans recorded from outside the program, by wrapping layer entry points.

A :class:`Tracer` replaces a function with a timing wrapper at the place
the caller looks the name up: a class attribute for methods (``ESwitch.
process_burst``), a module attribute for functions imported at call time
(``repro.core.fuse.fuse_datapath``) or bound into a caller's module
namespace (``repro.parallel.engine.decode_verdicts``). Nothing inside
``src/`` is edited; :meth:`Tracer.restore` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, corr]`` lists
and only recorded while :attr:`Tracer.active` is set, so work outside the
timed window (set-up, the correctness check) leaves no spans. ``corr`` is
the id of the burst or flow-mod batch the driver is working on: every
span of one burst shares it.
"""

from __future__ import annotations

import json
import statistics
import time

NAME, START, END, PARENT, CORR = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        #: id of the burst or batch being driven; copied into every span.
        self.corr = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.corr]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def root(self, name: str, corr: int) -> list:
        """Open a driver span with no parent; close it with :meth:`close`."""
        self.corr = corr
        span = [name, time.perf_counter(), 0.0, -1, corr]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()


def self_times(spans: "list[list]") -> list[float]:
    """Per span: its duration minus the time its direct children cover.

    Children of one parent run one after another on the driver's single
    thread, so the part of the parent they cover is the sum of their
    durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def check_tree(spans: "list[list]", slack: float = 1e-9) -> list[str]:
    """Problems with the span tree: a child outside its parent, a span
    ending before it starts, or a negative self time. Empty when sound."""
    problems = []
    for i, s in enumerate(spans):
        if s[END] < s[START]:
            problems.append(f"span {i} {s[NAME]} ends before it starts")
        p = s[PARENT]
        if p >= 0:
            parent = spans[p]
            if s[START] < parent[START] - slack or s[END] > parent[END] + slack:
                problems.append(f"span {i} {s[NAME]} lies outside parent {p}")
            if s[CORR] != parent[CORR] and not s[NAME].startswith("parallel."):
                problems.append(f"span {i} {s[NAME]} has another id than its parent")
    for i, t in enumerate(self_times(spans)):
        if t < -slack:
            problems.append(f"span {i} {spans[i][NAME]} has self time {t}")
    return problems


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def by_name(spans: "list[list]") -> dict[str, dict]:
    """``name -> {count, total_s, self_s, durations}`` over all spans."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s, own in zip(spans, selfs):
        row = table.setdefault(
            s[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        )
        row["count"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += own
        row["durations"].append(s[END] - s[START])
    return table


def self_time_table(spans: "list[list]", wall_s: float) -> dict:
    """Self time per layer and per span name, with shares of ``wall_s``.

    ``accounted`` is the share of wall time that layer and driver self
    times cover; ``gaps_s`` is the rest, loop time between driver spans.
    """
    rows = by_name(spans)
    layers: dict[str, float] = {}
    for name, row in rows.items():
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + row["self_s"]
    total = sum(layers.values())
    gaps = max(0.0, wall_s - total)
    return {
        "wall_s": wall_s,
        "accounted": total / wall_s if wall_s else 0.0,
        "layers": {
            k: {"self_s": v, "share": v / wall_s if wall_s else 0.0}
            for k, v in sorted(layers.items(), key=lambda kv: -kv[1])
        },
        "spans": {
            name: {
                "count": row["count"],
                "self_s": row["self_s"],
                "share": row["self_s"] / wall_s if wall_s else 0.0,
                "p50_us": statistics.median(row["durations"]) * 1e6,
            }
            for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])
        },
        "gaps_s": gaps,
    }


def format_table(workload: str, table: dict) -> str:
    lines = [
        f"self time, workload {workload}: wall {table['wall_s']:.3f} s, "
        f"accounted {table['accounted'] * 100:.1f}%",
        "",
        f"{'layer':<12} {'self s':>10} {'share':>8}",
    ]
    for layer, row in table["layers"].items():
        lines.append(f"{layer:<12} {row['self_s']:>10.4f} {row['share'] * 100:>7.2f}%")
    lines += ["", f"{'span':<28} {'count':>8} {'self s':>10} {'share':>8} {'p50 us':>10}"]
    for name, row in table["spans"].items():
        lines.append(
            f"{name:<28} {row['count']:>8} {row['self_s']:>10.4f} "
            f"{row['share'] * 100:>7.2f}% {row['p50_us']:>10.1f}"
        )
    return "\n".join(lines) + "\n"


def write_spans(path, spans: "list[list]", t0: float) -> None:
    """One JSON object per line: name, start/end in µs from ``t0``,
    parent index and correlation id."""
    with open(path, "w") as out:
        for i, s in enumerate(spans):
            out.write(json.dumps({
                "i": i,
                "name": s[NAME],
                "start_us": round((s[START] - t0) * 1e6, 3),
                "end_us": round((s[END] - t0) * 1e6, 3),
                "parent": s[PARENT],
                "id": s[CORR],
            }) + "\n")
