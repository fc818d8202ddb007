"""Seeded request generation for the four benchmark workloads.

Everything here is pure: a workload name and a seed give the same
request lines, byte for byte, in every process (``random.Random``
seeded with a string is process-independent).  The server only ever
sees the generated lines.

A *plan* is what the client in :mod:`harness` executes:

* ``closed`` plans carry a ``stream`` of ``requests`` requests that the
  client's connections pull from, one in flight per connection (the
  count is the run length times a nominal rate, so a run does the same
  work whatever the host's speed);
* ``open`` plans carry a finite ``schedule`` of ``(due_s, request)``
  pairs sent when due, whatever the server is doing.

Every request asks for ``return_circuit`` so the checker can simulate
the answer.  Each request also carries bench-side tags that are
stripped before sending (keys starting with ``_``): ``_light`` marks
the workload's light class and ``_count`` marks requests whose
``cnot_cost`` enters ``cnot_total`` (every request without a deadline
whose answer is proven optimal or served from a cache, so the sum does
not depend on timing).
"""

from __future__ import annotations

import itertools
import json
import random

WORKLOADS = ("cold-exact", "hot-mix", "prepare-deadline", "pool-affinity")

#: Hand-written optimal CNOT counts for family targets.  GHZ(n) needs
#: n - 1 (every qubit must be entangled, and one CNOT entangles at most
#: one more qubit).  W(n) = D(n, 1) and D(4, 2) are the exact optima the
#: paper reports in Table IV (W3 = 4, W4 = 7, W5 = 10, D(4,2) = 6);
#: D(n, n - k) is X^n D(n, k), and X gates cost nothing.
EXPECTED_COST = {
    ("ghz", 2): 1, ("ghz", 3): 2, ("ghz", 4): 3, ("ghz", 5): 4,
    ("w", 3): 4, ("w", 4): 7, ("w", 5): 10,
    ("dicke", 3, 1): 4, ("dicke", 3, 2): 4,
    ("dicke", 4, 1): 7, ("dicke", 4, 3): 7, ("dicke", 4, 2): 6,
    ("dicke", 5, 1): 10, ("dicke", 5, 4): 10,
}

#: Family targets of the cold workload, spread through its stream.
COLD_FAMILIES = (("ghz", 3), ("w", 3), ("ghz", 4), ("dicke", 4, 2),
                 ("w", 4), ("dicke", 3, 2), ("ghz", 5), ("dicke", 4, 3),
                 ("w", 5), ("dicke", 5, 4))

#: Strata of the cold workload's random targets, cycled in this order so
#: every seed gives the same mix of sizes: (amplitudes, qubits, count).
#: "u" is a uniform superposition, "r" random real amplitudes.
COLD_STRATA = (("u", 4, 3), ("u", 4, 4), ("r", 4, 3), ("u", 4, 5),
               ("u", 5, 3), ("r", 4, 3), ("u", 5, 4), ("u", 4, 4))


def family_key(request: dict):
    """The :data:`EXPECTED_COST` key of a family request, else ``None``."""
    if "ghz" in request:
        return ("ghz", int(request["ghz"]))
    if "w" in request:
        return ("w", int(request["w"]))
    if "dicke" in request:
        n, k = request["dicke"]
        return ("dicke", int(n), int(k))
    return None


def family_request(spec: tuple) -> dict:
    if spec[0] == "dicke":
        return {"dicke": [spec[1], spec[2]]}
    return {spec[0]: spec[1]}


def random_terms(rng: random.Random, kind: str, n: int, m: int) -> dict:
    """``m`` distinct basis states on ``n`` qubits, uniform or real."""
    indices = sorted(rng.sample(range(1 << n), m))
    terms = {}
    for index in indices:
        if kind == "u":
            amp = 1.0
        else:
            amp = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0), 4)
        terms[format(index, f"0{n}b")] = amp
    return terms


def perturb(rng: random.Random, terms: dict, scale: float = 0.15) -> dict:
    """Same support, every amplitude scaled by ``1 +- scale`` (sign kept)."""
    return {bits: round(amp * (1.0 + rng.uniform(-scale, scale)), 4)
            for bits, amp in terms.items()}


def _key(terms: dict) -> str:
    return json.dumps(terms, sort_keys=True)


def _fresh(rng: random.Random, seen: set, kind: str, n: int, m: int) -> dict:
    """A random target not generated before in this plan."""
    while True:
        terms = random_terms(rng, kind, n, m)
        if _key(terms) not in seen:
            seen.add(_key(terms))
            return terms


def wire(request: dict) -> dict:
    """The request as the server receives it (bench tags stripped)."""
    return {k: v for k, v in request.items() if not k.startswith("_")}


def request_line(request: dict) -> str:
    return json.dumps(wire(request), sort_keys=True)


# ----------------------------------------------------------------------
# cold-exact: every target distinct, the engine does the work
# ----------------------------------------------------------------------

#: nominal cold-exact rate on a 2-CPU host (requests per second of run)
COLD_RATE = 120.0


def cold_stream(seed: int):
    rng = random.Random(f"cold-exact:{seed}")
    seen: set = set()
    families = iter(COLD_FAMILIES)
    strata = itertools.cycle(COLD_STRATA)
    for i in itertools.count():
        spec = next(families, None) if i % 9 == 4 else None
        if spec is not None:
            request = family_request(spec)
            n = spec[1]
        else:
            kind, n, m = next(strata)
            request = {"terms": _fresh(rng, seen, kind, n, m)}
        # light: the cheap uniform 4-qubit targets (a few ms each)
        light = "terms" in request and n == 4 and kind == "u" and m <= 4
        request.update(id=i, op="exact", return_circuit=True,
                       _light=light, _count=True)
        yield request


# ----------------------------------------------------------------------
# hot-mix: a warm catalog, mostly cache reads beside a few writes
# ----------------------------------------------------------------------

#: the catalog is fixed (not seeded per run) so it can be built once
CATALOG_SEED = 20240611
HOT_RATE = 60.0          # requests per second, Poisson arrivals
ZIPF_S = 1.1


def catalog() -> list[dict]:
    """The warm catalog the hot-mix server boots with (exact + prepare)."""
    rng = random.Random(f"catalog:{CATALOG_SEED}")
    seen: set = set()
    members = [dict(family_request(spec), op="exact")
               for spec in (("ghz", 3), ("ghz", 4), ("w", 3), ("w", 4),
                            ("dicke", 4, 2))]
    for i in range(20):
        kind = "r" if i % 2 else "u"
        members.append({"op": "exact",
                        "terms": _fresh(rng, seen, kind, 4, 3 + i % 2)})
    for i in range(10):
        n = (8, 10, 12)[i % 3]
        members.append({"op": "prepare",
                        "terms": _fresh(rng, seen, "r", n, 4 + i % 3)})
    for i, member in enumerate(members):
        member.update(id=f"c{i}", return_circuit=True)
    return members


def _zipf_weights(size: int) -> list[float]:
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(size)]


def allocate(count: int, weights: list[float]) -> list[int]:
    """Split ``count`` in proportion to ``weights`` (largest remainder).

    The workloads draw their mixes by exact shares, shuffled by the
    seed, instead of by independent draws: every seed then sends the
    same number of each kind of request, and the figures of two seeds
    differ by the inputs' order and details, not by their proportions.
    """
    total = sum(weights)
    exact = [count * w / total for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(weights)), key=lambda i: counts[i] - exact[i])
    for i in order[:count - sum(counts)]:
        counts[i] += 1
    return counts


def _shuffled(rng: random.Random, items: list, counts: list[int]) -> list:
    out = [item for item, n in zip(items, counts) for _ in range(n)]
    rng.shuffle(out)
    return out


def _fixed_pool(name: str, kind: str, n: int, m: int, size: int) -> list:
    """Targets that are the same for every seed (the seed orders them)."""
    rng = random.Random(f"{name}:{CATALOG_SEED}")
    seen: set = set()
    return [_fresh(rng, seen, kind, n, m) for _ in range(size)]


#: hot-mix request kinds and their shares
HOT_MIX = (("repeat", 0.90), ("variant", 0.05), ("miss", 0.04),
           ("donorless", 0.01))
VARIANT_DEADLINE_MS = 50.0


def hot_schedule(seed: int, seconds: float) -> list[tuple[float, dict]]:
    rng = random.Random(f"hot-mix:{seed}")
    members = catalog()
    # popularity follows a fixed interleaving of exact and prepare
    # members, so every seed reads the same kinds of entries as often
    exact = [m for m in members if m["op"] == "exact"]
    prepare = [m for m in members if m["op"] == "prepare"]
    ranked = [m for pair in itertools.zip_longest(exact[::2], exact[1::2],
                                                   prepare)
              for m in pair if m is not None]
    adaptable = [m for m in ranked if "terms" in m and m["op"] == "exact"]
    seen = {_key(m["terms"]) for m in members if "terms" in m}
    count = max(1, int(round(HOT_RATE * seconds)))
    kinds = _shuffled(rng, [k for k, _ in HOT_MIX],
                      allocate(count, [w for _, w in HOT_MIX]))
    repeats = iter(_shuffled(rng, ranked, allocate(
        kinds.count("repeat"), _zipf_weights(len(ranked)))))
    variants = iter(_shuffled(rng, adaptable, allocate(
        kinds.count("variant"), _zipf_weights(len(adaptable)))))
    # five qubits: no catalog signature shares the register size, so
    # the fast tier finds no donor and searches inline
    donorless = _fixed_pool("donorless", "u", 5, 3, kinds.count("donorless"))
    rng.shuffle(donorless)
    donorless = iter(donorless)
    due = 0.0
    schedule = []
    for i, kind in enumerate(kinds):
        due += rng.expovariate(HOT_RATE)
        if kind == "repeat":
            member = next(repeats)
            request = {k: v for k, v in member.items() if k != "id"}
            request.update(_light=True, _count=True)
        elif kind == "variant":
            # a latency budget bounds the near-hit suffix search
            request = {"op": "fast",
                       "terms": perturb(rng, next(variants)["terms"]),
                       "deadline_ms": VARIANT_DEADLINE_MS}
        elif kind == "miss":
            request = {"op": "exact",
                       "terms": _fresh(rng, seen, "u", 4, 4), "_count": True}
        else:
            request = {"op": "fast", "terms": next(donorless)}
        request.update(id=i, return_circuit=True)
        schedule.append((due, request))
    return schedule


# ----------------------------------------------------------------------
# prepare-deadline: heavy workflows beside light deadline-carrying exacts
# ----------------------------------------------------------------------

HEAVY_PER_SECOND = 0.4
LIGHT_PER_SECOND = 20.0
LIGHT_DEADLINE_MS = 400.0
HARD_DEADLINE_MS = 60.0
#: every HARD_EVERY-th light slot carries a hard target instead
HARD_EVERY = 40


def deadline_schedule(seed: int, seconds: float) -> list[tuple[float, dict]]:
    """Frames of one heavy ``prepare`` followed by evenly spaced lights.

    The arrival times, the heavy workflows and the hard targets are the
    same for every seed (heavy runs share the service memory, so their
    order changes their turns); the seed picks the light targets.  The
    turns that block light traffic thus repeat across seeds.
    """
    rng = random.Random(f"prepare-deadline:{seed}")
    frames = max(1, int(round(HEAVY_PER_SECOND * seconds)))
    frame_s = 1.0 / HEAVY_PER_SECOND
    per_frame = int(round(LIGHT_PER_SECOND * frame_s))
    heavy_targets = _fixed_pool("heavy", "u", 5, 8, frames)
    lights = frames * per_frame
    hard_targets = iter(_fixed_pool("hard", "r", 5, 6, lights // HARD_EVERY))
    seen = {_key(t) for t in heavy_targets}
    items = []
    for f, terms in enumerate(heavy_targets):
        items.append((f * frame_s, {"op": "prepare", "terms": terms,
                                    "_count": True}))
    for j in range(lights):
        due = (j + 0.5) * frame_s / per_frame
        if j % HARD_EVERY == HARD_EVERY - 1:
            # unmeetable: a hard target whose search outlives the deadline
            request = {"op": "exact", "terms": next(hard_targets),
                       "deadline_ms": HARD_DEADLINE_MS}
        else:
            request = {"op": "exact", "terms": _fresh(rng, seen, "u", 4, 3),
                       "deadline_ms": LIGHT_DEADLINE_MS, "_light": True}
        items.append((due, request))
    items.sort(key=lambda item: item[0])
    schedule = []
    for i, (due, request) in enumerate(items):
        request.update(id=i, return_circuit=True)
        schedule.append((due, request))
    return schedule


# ----------------------------------------------------------------------
# pool-affinity: signature-sharing families through a 2-worker pool
# ----------------------------------------------------------------------

POOL_FAMILIES = 24
#: share of repeats; the rest are new perturbed variants (cold searches)
POOL_REPEAT_SHARE = 0.9
#: nominal pool-affinity rate on a 2-CPU host (requests per second)
POOL_RATE = 450.0


def pool_stream(seed: int, count: int):
    rng = random.Random(f"pool-affinity:{seed}")
    bases = _fixed_pool("pool", "r", 3, 3, POOL_FAMILIES)
    seen = {_key(base) for base in bases}
    members: list[list[dict]] = [[base] for base in bases]
    families = _shuffled(rng, list(range(POOL_FAMILIES)),
                         allocate(count, [1.0] * POOL_FAMILIES))
    repeats = _shuffled(rng, [True, False], allocate(
        count, [POOL_REPEAT_SHARE, 1.0 - POOL_REPEAT_SHARE]))
    for i, (index, repeat) in enumerate(zip(families, repeats)):
        family = members[index]
        if repeat:
            terms = rng.choice(family)
        else:
            terms = perturb(rng, family[0])
            while _key(terms) in seen:
                terms = perturb(rng, family[0])
            seen.add(_key(terms))
            family.append(terms)
        yield {"id": i, "op": "exact", "terms": terms,
               "return_circuit": True, "_light": repeat, "_count": True}


def plan(workload: str, seed: int, seconds: float) -> dict:
    """The seeded traffic of one workload run (see the module docstring)."""
    if workload == "cold-exact":
        return {"loop": "closed", "stream": cold_stream(seed),
                "connections": 2,
                "requests": max(1, round(COLD_RATE * seconds))}
    if workload == "hot-mix":
        return {"loop": "open", "schedule": hot_schedule(seed, seconds),
                "connections": 2}
    if workload == "prepare-deadline":
        return {"loop": "open", "schedule": deadline_schedule(seed, seconds),
                "connections": 2}
    if workload == "pool-affinity":
        count = max(1, round(POOL_RATE * seconds))
        return {"loop": "closed", "stream": pool_stream(seed, count),
                "connections": 2, "requests": count}
    raise ValueError(f"unknown workload {workload!r}")
