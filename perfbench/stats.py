"""Summary statistics and the span ledger's self-time arithmetic."""

from __future__ import annotations

import math
import time

#: The reporting percentiles the tail rule picks from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: The tail is the highest percentile with at least this many samples
#: beyond it.
TAIL_MIN_BEYOND = 10


def median(samples) -> float:
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def tail(samples) -> tuple[float, float]:
    """``(value, percentile)`` of the tail rule.

    The highest :data:`TAIL_LADDER` percentile that leaves at least
    :data:`TAIL_MIN_BEYOND` samples strictly above its rank.  With too
    few samples for any rung, the maximum is reported as percentile 100.
    """
    ordered = sorted(samples)
    size = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * size))
        if size - rank >= TAIL_MIN_BEYOND:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


class SpanRecorder:
    """Nested spans aggregated per key, with self time.

    ``enter(key)`` / ``exit()`` must nest like a call stack (one thread).
    A span's self time is its duration minus the durations of the spans
    opened and closed inside it; keys whose layer is ``idle`` mark time
    blocked waiting for work, which the ledger subtracts from the window
    to get busy time.  Only totals are kept: calls, inclusive seconds,
    self seconds and the longest single span per key.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.longest: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.window_start = self.clock()
        self.window_end: float | None = None

    def enter(self, key: str) -> None:
        self.stack.append([key, self.clock(), 0.0])

    def exit(self) -> None:
        key, start, children = self.stack.pop()
        duration = self.clock() - start
        if self.stack:
            self.stack[-1][2] += duration
        self.calls[key] = self.calls.get(key, 0) + 1
        self.incl[key] = self.incl.get(key, 0.0) + duration
        self.self_s[key] = self.self_s.get(key, 0.0) + duration - children
        if duration > self.longest.get(key, 0.0):
            self.longest[key] = duration

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def close_window(self) -> None:
        self.window_end = self.clock()

    def ledger(self) -> dict:
        """Busy time, per-layer self time and the unattributed remainder."""
        end = self.window_end if self.window_end is not None \
            else self.clock()
        window = end - self.window_start
        layers: dict[str, float] = {}
        for key, seconds in self.self_s.items():
            layer = key.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        idle = layers.pop("idle", 0.0)
        busy = window - idle
        return {"window_s": window, "idle_s": idle, "busy_s": busy,
                "layers": layers,
                "unattributed_s": busy - sum(layers.values())}

    def to_dict(self) -> dict:
        return {"calls": self.calls, "incl": self.incl, "self": self.self_s,
                "longest": self.longest, "counts": self.counts,
                "samples": self.samples, "ledger": self.ledger()}


def merge_ledgers(dumps: list[dict]) -> dict:
    """Sum per-process recorder dumps (router + pool workers) into one."""
    out = {"calls": {}, "incl": {}, "self": {}, "longest": {}, "counts": {},
           "samples": {}, "busy_s": 0.0, "layers": {}, "unattributed_s": 0.0,
           "processes": len(dumps)}
    for dump in dumps:
        for field in ("calls", "incl", "self", "counts"):
            for key, value in dump[field].items():
                out[field][key] = out[field].get(key, 0) + value
        for key, value in dump["longest"].items():
            out["longest"][key] = max(out["longest"].get(key, 0.0), value)
        for key, values in dump["samples"].items():
            out["samples"].setdefault(key, []).extend(values)
        ledger = dump["ledger"]
        out["busy_s"] += ledger["busy_s"]
        out["unattributed_s"] += ledger["unattributed_s"]
        for layer, seconds in ledger["layers"].items():
            out["layers"][layer] = out["layers"].get(layer, 0.0) + seconds
    return out
