"""Engine portfolio scheduling: race configurations, share the winnings.

No single engine dominates the synthesis workload: beam returns a
feasible circuit almost immediately but never proves optimality, A* is
the fastest prover on states whose frontier fits in memory, IDA* wins
when it does not (and its transposition proofs persist), and weighted
variants trade proof for speed.  The portfolio runs a request against a
set of :class:`EngineSpec` configurations instead of betting on one:

* **Interleaved mode** (:func:`interleaved_portfolio`, the anytime
  scheduler built on the stepwise :class:`~repro.core.engine.EngineRun`
  protocol) time-slices *all* lanes round-robin inside one process: every
  lane advances a few hundred expansions per turn, any feasible cost one
  lane finds is injected into every other lane's branch-and-bound **the
  moment it appears** (beam exposes intermediate incumbents while still
  running), and the first proven-optimal outcome — a lane solving, or a
  lane exhausting its space under the shared incumbent bound — cancels
  the rest.  Race-mode semantics with zero process overhead, which is
  what the single-CPU serving host actually needs, plus wall-clock
  ``deadline_ms`` support: when the deadline expires the scheduler
  cancels the remaining lanes and returns the best feasible circuit seen
  so far instead of raising.
* **Sequential mode** (:func:`run_portfolio`, the historical default)
  runs the specs in order with *incumbent threading*: the best feasible
  cost so far is handed to every later A* spec, whose branch-and-bound
  mode (see :func:`repro.core.astar.astar_search`) prunes against it —
  and, via the shared memory's transposition table, against IDA*
  exhaustion proofs.  The first proven-optimal result stops the line.
* **Race mode** (:func:`race_portfolio`) spawns one worker process per
  spec, each seeded from the same on-disk memory snapshot, and cancels
  the stragglers the moment any worker reports a proven-optimal result
  (first-optimal-wins); otherwise the best feasible cost wins.

Every mode is best-of over its member results on the same budgets, so the
portfolio is never worse than the best single engine — the service
acceptance test asserts exactly that, and ``benchmarks/bench_portfolio.py``
additionally asserts sequential and interleaved return identical costs.

**Adaptive lane ordering.**  When a :class:`~repro.core.memory
.SearchMemory` is supplied, both in-process modes order their lanes by
historical win rate (:func:`order_specs`): per-lane win/feasible/timeout
counters accumulate in ``memory.lane_stats``, persist inside memory
snapshots, and ties break by the caller's spec order, so runs stay
reproducible.  Ordering only changes *which lane gets CPU first* — the
best-of result contract is order-independent.  A win is credited to the
lane that *settles* the request: the lane whose proof made the answer
optimal (an exact lane proving a sibling's incumbent, exactly as the
sequential line's incumbent-bounded A* returns it), else the lane holding
the best circuit.

:func:`run_batch` shards a request list across worker processes; each
worker carries its own warm memory seeded from the snapshot and ships its
store delta back to the parent on exit, so batch traffic keeps fattening
the service memory instead of discarding what the workers learned.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, replace

from repro.constants import PORTFOLIO_SLICE_EXPANSIONS
from repro.core.astar import AStarRun, SearchConfig, SearchResult, \
    astar_search
from repro.core.beam import BeamConfig, BeamRun
from repro.core.engine import EngineRun, RunStatus, SearchStats
from repro.core.idastar import IDAStarConfig, IDAStarRun
from repro.core.memory import SearchMemory
from repro.exceptions import SearchBudgetExceeded, SynthesisError
from repro.states.qstate import QState
from repro.utils.serialization import (
    circuit_from_dict,
    circuit_to_dict,
    memory_baseline,
    memory_merge_dict,
    memory_to_dict,
    state_from_dict,
    state_to_dict,
)
from repro.utils.timing import Stopwatch

__all__ = [
    "EngineSpec",
    "PortfolioOutcome",
    "LaneScheduler",
    "default_portfolio",
    "order_specs",
    "autotune_specs",
    "build_engine_run",
    "run_engine_spec",
    "run_portfolio",
    "interleaved_portfolio",
    "run_mode_portfolio",
    "race_portfolio",
    "run_batch",
]

_ENGINES = ("astar", "idastar", "beam")


@dataclass(frozen=True)
class EngineSpec:
    """One racing lane: an engine plus its lane-specific knobs.

    Everything regime-relevant (canon level, caps, move set, budgets)
    comes from the request's shared :class:`SearchConfig`, so every lane
    attaches to the same :class:`SearchMemory` fingerprint; ``weight``
    (A* heap weight / beam score weight) and ``width`` deliberately sit
    outside the fingerprint — they change which computations run, never
    what stored values mean.
    """

    name: str
    engine: str
    weight: float = 1.0
    width: int = 128

    def __post_init__(self) -> None:
        if self.engine not in _ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"choose from {_ENGINES}")


def default_portfolio() -> tuple[EngineSpec, ...]:
    """The standard four lanes, in sequential-mode order.

    Beam runs first because it is cheap and its feasible cost arms the
    branch-and-bound pruning of the A* lane that follows; IDA* covers the
    frontier-bound regime (and deposits reusable exhaustion proofs);
    weighted A* is the anytime last resort, also incumbent-bounded.
    With lane history (see :func:`order_specs`) the order adapts to the
    traffic instead.
    """
    return (
        EngineSpec("beam", "beam", weight=1.5, width=128),
        EngineSpec("astar", "astar"),
        EngineSpec("idastar", "idastar"),
        EngineSpec("astar-w2", "astar", weight=2.0),
    )


def order_specs(specs: tuple[EngineSpec, ...],
                memory: SearchMemory | None, *,
                anytime_first: bool = False) -> tuple[EngineSpec, ...]:
    """Order lanes by historical win rate (adaptive portfolio ordering).

    Win rate is the Laplace-smoothed ``(wins + 1) / (runs + 2)`` from
    ``memory.lane_stats``; the tie-break is the caller's original spec
    order, via a stable sort, so two runs over the same history schedule
    lanes identically — reproducibility is part of the contract.  The
    smoothing is what keeps the ordering *adaptive* rather than frozen:
    sequential first-optimal-wins never runs the lanes behind the
    winner, so a raw ``wins / runs`` would pin an early winner first
    forever (everyone else stays at 0/0).  Smoothed, a never-run lane
    scores the neutral 0.5 — ahead of lanes that run and keep losing,
    behind a leader with a real winning record — so mediocre leaders get
    challenged and newly added specs are not born last.

    ``anytime_first`` is the *sequential* mode's constraint: its
    incumbent threading only works front-to-back, so an anytime (beam)
    lane must stay ahead of the exact lanes it arms — reordering an A*
    lane before every feasible-producing lane would strip it of its
    incumbent, and a budget-bound row would then lose its optimality
    proof (or its whole result) to the reordering.  Under the
    constraint, beam lanes keep the front block and each block reorders
    internally by win rate.  The interleaved scheduler needs no such
    constraint (incumbents are injected live, whatever the order), so it
    uses the unconstrained ordering.

    Scope of the guarantee: with per-lane budgets fixed, ordering never
    changes any individual lane's *cost* and the portfolio stays best-of
    over the lanes that complete.  Whether a budget-*bound* exact lane
    completes can still depend on what earlier lanes deposited in a
    shared memory (e.g. IDA* exhaustion proofs arming A* pruning), so on
    such rows two different histories may prove different amounts within
    the same budgets — deterministically per history, never unsoundly.
    """
    if memory is None or not memory.lane_stats:
        return tuple(specs)

    def win_rate(spec: EngineSpec) -> float:
        row = memory.lane_stats.get(spec.name) or {}
        return (row.get("wins", 0) + 1.0) / (row.get("runs", 0) + 2.0)

    indexed = sorted(range(len(specs)),
                     key=lambda i: (-win_rate(specs[i]), i))
    ordered = [specs[i] for i in indexed]
    if anytime_first:
        ordered = [s for s in ordered if s.engine == "beam"] + \
            [s for s in ordered if s.engine != "beam"]
    return tuple(ordered)


@dataclass
class PortfolioOutcome:
    """Best result across the lanes plus the per-lane audit trail."""

    result: SearchResult | None
    #: the lane holding the returned circuit (the response's ``engine``)
    winner: str | None
    attempts: list[dict] = field(default_factory=list)
    #: interleaved mode only: the wall-clock deadline expired and the
    #: remaining lanes were cancelled — ``result`` is the best feasible
    #: circuit found before the cutoff (or ``None`` if none was)
    deadline_expired: bool = False

    @property
    def solved(self) -> bool:
        return self.result is not None

    @property
    def lower_bound(self) -> int:
        """Best proven lower bound across failed lanes (0 if none ran)."""
        return max((a.get("lower_bound", 0) or 0 for a in self.attempts),
                   default=0)


def build_engine_run(spec: EngineSpec, state: QState, search: SearchConfig,
                     memory: SearchMemory | None = None,
                     incumbent=None,
                     pdb_tier: str = "admissible") -> EngineRun:
    """Arm one lane as a stepwise :class:`~repro.core.engine.EngineRun`.

    Lane configs derive from the shared ``search`` so every lane attaches
    to the same memory regime; ``incumbent`` seeds branch-and-bound for
    A* lanes only (the sequential mode's historical contract — in the
    interleaved scheduler every lane instead receives incumbents live via
    ``inject_incumbent``).  ``pdb_tier`` selects the IDA* lane's
    pattern-database root-bound tier (``"learned"`` only for the
    service's ``fast`` mode — its inadmissible seed trades the optimality
    proof for fewer deepening rounds; exact modes keep the sound
    default).
    """
    if spec.engine == "astar":
        config = search if spec.weight == search.weight \
            else replace(search, weight=spec.weight)
        return AStarRun(state, config, memory=memory, incumbent=incumbent)
    if spec.engine == "idastar":
        return IDAStarRun(state,
                          IDAStarConfig(search=search, pdb_tier=pdb_tier),
                          memory=memory)
    beam_config = BeamConfig(
        width=spec.width, heuristic_weight=spec.weight,
        canon_level=search.canon_level, time_limit=search.time_limit,
        max_merge_controls=search.max_merge_controls,
        include_x_moves=search.include_x_moves,
        tie_cap=search.tie_cap, perm_cap=search.perm_cap,
        cache_cap=search.cache_cap, topology=search.topology,
        profile=search.profile)
    return BeamRun(state, beam_config, memory=memory)


def run_engine_spec(spec: EngineSpec, state: QState, search: SearchConfig,
                    memory: SearchMemory | None = None,
                    incumbent=None) -> SearchResult:
    """Run one lane to completion.  Only A* lanes honor ``incumbent``
    (branch-and-bound); beam lanes derive their config from ``search`` so
    every lane shares one memory regime.

    An A* lane with ``use_kernel=False`` runs the one-shot reference loop
    (stepwise runs are kernel-only): the historical dispatch for callers
    benchmarking the dict-based path through a sequential portfolio.  The
    *interleaved* scheduler has no such fallback — it needs pausable
    runs, so :func:`build_engine_run` rejects non-kernel configs there.
    """
    if spec.engine == "astar" and not search.use_kernel:
        config = search if spec.weight == search.weight \
            else replace(search, weight=spec.weight)
        return astar_search(state, config, memory=memory,
                            incumbent=incumbent)
    return build_engine_run(spec, state, search, memory=memory,
                            incumbent=incumbent).run_to_completion()


def _better(candidate: SearchResult, best: SearchResult | None) -> bool:
    if best is None:
        return True
    if candidate.cnot_cost != best.cnot_cost:
        return candidate.cnot_cost < best.cnot_cost
    return candidate.optimal and not best.optimal


def _record_lane_outcomes(memory: SearchMemory | None, attempts: list[dict],
                          winner: str | None) -> None:
    """Feed the adaptive-ordering counters (no-op without a memory)."""
    if memory is None:
        return
    for attempt in attempts:
        memory.record_lane_outcome(
            attempt["name"],
            won=(winner is not None and attempt["name"] == winner),
            # interleaved audit rows carry an explicit feasible flag
            # (anytime lanes can hold a circuit without terminating
            # SOLVED — cancelled beam after a harvest or deadline flush);
            # sequential rows fall back to solved, where the two coincide
            feasible=bool(attempt.get("feasible",
                                      attempt.get("solved"))),
            timeout=bool(attempt.get("timeout")))


def run_portfolio(state: QState, search: SearchConfig | None = None,
                  specs: tuple[EngineSpec, ...] | None = None,
                  memory: SearchMemory | None = None) -> PortfolioOutcome:
    """Sequential portfolio with incumbent threading (see module docs)."""
    search = search or SearchConfig()
    specs = order_specs(specs or default_portfolio(), memory,
                        anytime_first=True)
    best: SearchResult | None = None
    winner: str | None = None
    attempts: list[dict] = []
    for spec in specs:
        incumbent = best if spec.engine == "astar" else None
        start = time.perf_counter()
        try:
            result = run_engine_spec(spec, state, search, memory=memory,
                                     incumbent=incumbent)
        except (SearchBudgetExceeded, SynthesisError) as exc:
            # SynthesisError: a topology-restricted beam lane has no
            # m-flow completion tail and may finish empty-handed — a
            # failed lane, not a failed portfolio
            attempts.append({
                "name": spec.name, "solved": False,
                "timeout": isinstance(exc, SearchBudgetExceeded),
                "lower_bound": getattr(exc, "lower_bound", 0),
                "seconds": round(time.perf_counter() - start, 6),
            })
            continue
        attempts.append({
            "name": spec.name, "solved": True,
            "cnot_cost": result.cnot_cost, "optimal": result.optimal,
            "nodes_expanded": result.stats.nodes_expanded,
            "seconds": round(time.perf_counter() - start, 6),
        })
        if _better(result, best):
            best, winner = result, spec.name
        if best is not None and best.optimal:
            break  # first-optimal-wins: later lanes cannot do better
    _record_lane_outcomes(memory, attempts, winner)
    return PortfolioOutcome(result=best, winner=winner, attempts=attempts)


# ----------------------------------------------------------------------
# Interleaved in-process scheduler (anytime, deadline-aware)
# ----------------------------------------------------------------------

class _Unbuilt:
    """A lane's run before its first slice: no engine state yet, only
    zeroed stats for audits that read every lane."""

    __slots__ = ("stats",)

    def __init__(self) -> None:
        self.stats = SearchStats()


@dataclass
class _Lane:
    spec: EngineSpec
    #: replaced by the real run on the lane's first slice
    #: (``LaneScheduler._build``)
    run: EngineRun | _Unbuilt = field(default_factory=_Unbuilt)
    budget: int = PORTFOLIO_SLICE_EXPANSIONS
    seconds: float = 0.0
    slices: int = 0

    @property
    def built(self) -> bool:
        return not isinstance(self.run, _Unbuilt)


class LaneScheduler:
    """The lane/slice/incumbent/settle machinery behind the interleaved
    portfolio, reusable one round at a time.

    :func:`interleaved_portfolio` drives an instance to completion for
    the single-request path; the cross-request scheduler
    (:mod:`repro.service.scheduler`) instead interleaves ``run_round``
    calls across many instances — one per in-flight request — so a heavy
    request no longer blocks the others.  Both drivers get identical
    semantics because all policy lives here:

    * every active lane advances ``budget`` node expansions per round
      (per-lane budgets; uniform by default);
    * the best feasible cost across lanes (including beam's *anytime*
      intermediates) is injected into every other lane's
      branch-and-bound the moment it improves;
    * the first proven-optimal outcome — a lane solving with a proof, or
      a lane exhausting its space under the shared incumbent bound
      (:class:`~repro.core.engine.RunStatus` ``PROVEN``) — ends the
      schedule, and that lane is credited with the win;
    * a lane's :class:`~repro.core.engine.EngineRun` is built on its
      first slice and handed the incumbent it missed, so lanes behind an
      early settle cost nothing (no engine context, no IDA* signature);
    * when the wall-clock deadline expires first, ``run_round`` returns
      ``False`` with ``deadline_expired`` set and :meth:`finish` returns
      the best feasible circuit found so far (after letting lanes with a
      cheap completion tail flush) instead of raising.

    The deadline stopwatch starts at construction and is *never*
    suspended — under the cross-request scheduler a session's deadline
    keeps running while other sessions hold the CPU, which is exactly
    what a caller-facing latency bound means.  When the deadline cuts
    the schedule before any lane holds a circuit, :meth:`finish` builds
    a beam lane that never ran so its frontier flush can still answer.
    Lane runs are stamped with ``tag`` (an opaque owner token) for
    per-session accounting, and ``expansions`` accumulates the true
    per-slice expansion counts for fair-share bookkeeping.
    """

    def __init__(self, state: QState, search: SearchConfig,
                 specs: tuple[EngineSpec, ...],
                 memory: SearchMemory | None = None,
                 deadline_ms: float | None = None,
                 slice_expansions: int = PORTFOLIO_SLICE_EXPANSIONS,
                 slice_budgets: dict[str, int] | None = None,
                 tag: object | None = None, obs=None,
                 pdb_tier: str = "admissible") -> None:
        self.state = state
        self.search = search
        self.memory = memory
        self.pdb_tier = pdb_tier
        #: :class:`repro.obs.ServiceObs` or ``None`` — slice/incumbent/
        #: settle hooks only; never consulted in the expansion hot loop
        self.obs = obs
        # no deadline -> no Stopwatch at all, so step() keeps its
        # deadline-is-None fast path in the per-expansion hot loop
        self.deadline = None if deadline_ms is None \
            else Stopwatch(max(0.0, deadline_ms) / 1000.0)
        self.lanes = [
            _Lane(spec, budget=max(1, int((slice_budgets or {}).get(
                spec.name, slice_expansions))))
            for spec in specs]
        self.active: list[_Lane] = list(self.lanes)
        self.best: SearchResult | None = None
        self.winner: str | None = None
        #: the lane whose proof settled the schedule (``None`` unproven)
        self.prover: str | None = None
        self.attempts: list[dict] = []
        self.proven = False
        self.deadline_expired = False
        self.expansions = 0
        self.tag = tag

    @property
    def done(self) -> bool:
        """No further round would advance anything."""
        return not self.active or self.proven or self.deadline_expired

    def _expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired()

    def _build(self, lane: _Lane) -> EngineRun:
        """Arm the lane's run, seeded with the incumbent it missed."""
        run = build_engine_run(lane.spec, self.state, self.search,
                               memory=self.memory, pdb_tier=self.pdb_tier)
        run.tag = self.tag
        if self.best is not None:
            run.inject_incumbent(self.best.cnot_cost)
        lane.run = run
        return run

    def _harvest(self, lane: _Lane) -> None:
        """Pull the lane's best feasible circuit; broadcast improvements."""
        feasible = lane.run.best_feasible()
        if feasible is not None and _better(feasible, self.best):
            self.best, self.winner = feasible, lane.spec.name
            injected = 0
            for other in self.lanes:
                # unbuilt lanes pick the incumbent up in _build
                if other is not lane and other.built and \
                        not other.run.status.terminal:
                    other.run.inject_incumbent(self.best.cnot_cost)
                    injected += 1
            if self.obs is not None and injected:
                self.obs.incumbent(self.tag, lane.spec.name,
                                   self.best.cnot_cost, injected=injected)

    def _settle(self, lane: _Lane, status: RunStatus) -> None:
        """Record one terminated (or cancelled) lane's audit row."""
        run = lane.run
        row: dict = {"name": lane.spec.name, "status": status.value,
                     "solved": False,
                     "feasible": lane.built and
                     run.best_feasible() is not None,
                     "nodes_expanded": run.stats.nodes_expanded,
                     "seconds": round(lane.seconds, 6),
                     "slices": lane.slices}
        if status is RunStatus.SOLVED:
            result = run.result()
            row.update(solved=True, cnot_cost=result.cnot_cost,
                       optimal=result.optimal)
            if result.optimal:
                self.proven = True
                self.prover = lane.spec.name
        elif status is RunStatus.PROVEN:
            # the lane exhausted everything cheaper than the shared
            # incumbent: whoever holds that incumbent holds the optimum
            bound = run.incumbent_bound
            row["lower_bound"] = bound
            if self.best is not None and bound is not None and \
                    self.best.cnot_cost <= bound:
                self.best = replace(self.best, optimal=True)
                self.proven = True
                self.prover = lane.spec.name
        elif status is RunStatus.EXHAUSTED:
            error = run.error
            row["timeout"] = isinstance(error, SearchBudgetExceeded)
            row["lower_bound"] = getattr(error, "lower_bound", 0)
        self.attempts.append(row)
        if self.obs is not None:
            # engine profiling promotion: the lane's SearchStats (and its
            # profile phase timers, when enabled) become span attributes
            self.obs.lane_settled(self.tag, lane.spec.name, status.value,
                                  stats=run.stats if lane.built else None,
                                  feasible=row["feasible"])

    def run_round(self) -> bool:
        """Advance every active lane one slice; ``True`` while running.

        Returns ``False`` once the schedule is over — proven, every lane
        settled, or the deadline expired — after which the caller must
        call :meth:`finish` exactly once to collect the outcome.
        """
        if not self.active or self.proven:
            return False
        if self._expired():
            self.deadline_expired = True
            return False
        for lane in list(self.active):
            start = time.perf_counter()
            run = lane.run if lane.built else self._build(lane)
            # the deadline rides into the slice so a heavy instance
            # overshoots the cutoff by one expansion, not a whole slice
            status = run.step(lane.budget, deadline=self.deadline)
            lane.seconds += time.perf_counter() - start
            lane.slices += 1
            self.expansions += run.last_slice_expansions
            if self.obs is not None:
                self.obs.lane_slice(self.tag, lane.spec.name,
                                    run.last_slice_expansions,
                                    status.value)
            self._harvest(lane)
            if status is RunStatus.RUNNING:
                if self._expired():
                    self.deadline_expired = True
                    return False
                continue
            self.active.remove(lane)
            self._settle(lane, status)
            if self.proven or self._expired():
                self.deadline_expired = not self.proven
                return False
        return bool(self.active) and not self.proven

    def finish(self) -> PortfolioOutcome:
        """Cancel what is left, settle the audit trail, build the outcome.

        Idempotent by construction only if called once — drivers call it
        exactly once, after :meth:`run_round` returns ``False`` (or to
        cut a schedule short, e.g. the service's shutdown drain).
        """
        for lane in self.active:
            if not lane.built:
                if not (self.deadline_expired and self.best is None
                        and lane.spec.engine == "beam"):
                    self._settle(lane, RunStatus.CANCELLED)
                    continue
                # no lane holds a circuit: a beam that never ran still
                # flushes its frontier (the target itself) below
                self._build(lane)
            elif lane.run.status.terminal:
                continue
            # a cancelled beam may still hold the best circuit
            self._harvest(lane)
            if self.deadline_expired and self.best is None:
                # anytime contract: before giving up empty-handed, let
                # lanes with a cheap completion (beam's m-flow tail)
                # finish their current frontier into a valid circuit
                flushed = lane.run.flush_feasible()
                if flushed is not None and _better(flushed, self.best):
                    self.best, self.winner = flushed, lane.spec.name
            lane.run.cancel()
            self._settle(lane, RunStatus.CANCELLED)
        self.active = []
        credited = self.prover or self.winner
        _record_lane_outcomes(self.memory, self.attempts, credited)
        if self.obs is not None and credited is not None:
            self.obs.lane_won(self.tag, credited,
                              None if self.best is None
                              else self.best.cnot_cost)
        return PortfolioOutcome(result=self.best, winner=self.winner,
                                attempts=self.attempts,
                                deadline_expired=self.deadline_expired)

    def abort(self) -> None:
        """Cancel every lane and discard the schedule (no outcome).

        The cross-request scheduler's per-request cancellation path
        (client gone): lanes are cancelled so their generators release
        search state, but nothing is flushed and *no lane statistics are
        recorded* — an abandoned request must not teach the adaptive
        ordering anything.
        """
        for lane in self.active:
            if lane.built and not lane.run.status.terminal:
                lane.run.cancel()
        self.active = []
        self.proven = True  # mark done for any late run_round caller


def interleaved_portfolio(
        state: QState, search: SearchConfig | None = None,
        specs: tuple[EngineSpec, ...] | None = None,
        memory: SearchMemory | None = None,
        deadline_ms: float | None = None,
        slice_expansions: int = PORTFOLIO_SLICE_EXPANSIONS,
        pdb_tier: str = "admissible",
) -> PortfolioOutcome:
    """Round-robin time-sliced portfolio in one process (see module docs).

    A thin driver over :class:`LaneScheduler` — run rounds until the
    schedule is over, then settle.  All slicing/incumbent/deadline
    semantics live in the class (shared verbatim with the cross-request
    scheduler); the cost contract is unchanged: because lanes only
    exchange *incumbent costs* (sound pruning bounds) and cancellation,
    the returned cost equals the sequential portfolio's on the same
    budgets — asserted by ``benchmarks/bench_portfolio.py``.
    """
    scheduler = LaneScheduler(
        state, search or SearchConfig(),
        order_specs(specs or default_portfolio(), memory),
        memory=memory, deadline_ms=deadline_ms,
        slice_expansions=slice_expansions, pdb_tier=pdb_tier)
    while scheduler.run_round():
        pass
    return scheduler.finish()


def autotune_specs(specs: tuple[EngineSpec, ...],
                   memory: SearchMemory | None,
                   slice_expansions: int = PORTFOLIO_SLICE_EXPANSIONS,
                   ) -> tuple[tuple[EngineSpec, ...], dict[str, int]]:
    """Lane auto-tuning from persisted history → (specs, slice budgets).

    Derives the interleaved scheduler's per-lane slice budgets from the
    win counters in ``memory.lane_stats``: a lane's budget scales with
    its Laplace-smoothed ``(wins + 1) / (runs + 2)`` win rate, normalized
    so the neutral never-run score of 0.5 maps to exactly
    ``slice_expansions`` and clamped to ``[LANE_TUNE_MIN,
    LANE_TUNE_MAX]`` multiples — historically winning lanes get more
    expansions per round, losing lanes fewer, and no lane is ever
    silenced: every lane stays in the schedule, because lanes are built
    only when they first get a slice (a lane behind an early settle
    costs nothing), and a lane taken out could never earn back the win
    that would justify it.

    Determinism and order-independence: budgets are pure per-lane
    functions of the counters, lane order comes from :func:`order_specs`
    (stable, reproducible), and slice-budget changes never alter a
    lane's *result* — only its CPU share (asserted differentially by the
    portfolio bench across slice sizes).  The multi-request scheduler
    applies this tuning; the single-request paths deliberately do not,
    keeping their historical schedules bit-identical.
    """
    from repro.constants import LANE_TUNE_MAX, LANE_TUNE_MIN

    ordered = order_specs(specs, memory)
    budgets: dict[str, int] = {}
    for spec in ordered:
        row = (memory.lane_stats.get(spec.name) if memory is not None
               else None) or {}
        rate = (row.get("wins", 0) + 1.0) / (row.get("runs", 0) + 2.0)
        multiplier = min(LANE_TUNE_MAX, max(LANE_TUNE_MIN, 2.0 * rate))
        budgets[spec.name] = max(1, int(round(slice_expansions
                                              * multiplier)))
    return ordered, budgets


# ----------------------------------------------------------------------
# Multi-process racing + batch sharding
# ----------------------------------------------------------------------

def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _load_worker_memory(snapshot_path) -> SearchMemory | None:
    if snapshot_path is None:
        return None
    from repro.service.persistence import load_memory_snapshot
    return load_memory_snapshot(snapshot_path)


def _race_worker(spec: EngineSpec, state_data: dict, search: SearchConfig,
                 snapshot_path, memory, queue) -> None:
    """Race-lane entry point (own process, own warm memory)."""
    start = time.perf_counter()
    payload: dict = {"name": spec.name, "solved": False}
    try:
        if memory is None:
            memory = _load_worker_memory(snapshot_path)
        result = run_engine_spec(spec, state_from_dict(state_data), search,
                                 memory=memory)
        payload.update(solved=True, cnot_cost=result.cnot_cost,
                       optimal=result.optimal,
                       nodes_expanded=result.stats.nodes_expanded,
                       circuit=circuit_to_dict(result.circuit))
    except SearchBudgetExceeded as exc:
        payload["lower_bound"] = exc.lower_bound
    except Exception as exc:  # pragma: no cover - defensive lane isolation
        payload["error"] = repr(exc)
    payload["seconds"] = round(time.perf_counter() - start, 6)
    queue.put(payload)


def race_portfolio(state: QState, search: SearchConfig | None = None,
                   specs: tuple[EngineSpec, ...] | None = None,
                   snapshot_path=None, memory: SearchMemory | None = None,
                   lane_timeout: float = 600.0) -> PortfolioOutcome:
    """Process-parallel portfolio with first-optimal-wins cancellation.

    One worker process per spec.  Under the ``fork`` start method a live
    ``memory`` is handed to the racers directly — each lane inherits a
    copy-on-write view of the parent's warm memory for free, instead of
    re-reading and re-keying the snapshot on every request; otherwise
    (or when no memory is given) each lane seeds itself from
    ``snapshot_path``.  The moment a lane reports a proven-optimal
    result, the remaining lanes are terminated — their partial work is
    discarded, the winning cost cannot be improved.  If no lane proves
    optimality the best feasible cost wins.  Worker results travel as
    serialized circuits, so no live search object crosses the process
    boundary.

    On a host with one CPU this mode only adds process overhead — prefer
    :func:`interleaved_portfolio`, which delivers the same cancellation
    semantics inside a single process.
    """
    search = search or SearchConfig()
    specs = specs or default_portfolio()
    ctx = _mp_context()
    queue = ctx.Queue()
    state_data = state_to_dict(state)
    lane_memory = memory if ctx.get_start_method() == "fork" else None
    procs = [ctx.Process(target=_race_worker,
                         args=(spec, state_data, search, snapshot_path,
                               lane_memory, queue),
                         daemon=True)
             for spec in specs]
    for proc in procs:
        proc.start()
    payloads: list[dict] = []
    try:
        for _ in range(len(procs)):
            try:
                payload = queue.get(timeout=lane_timeout)
            except Exception:  # queue.Empty: stragglers get terminated
                break
            payloads.append(payload)
            if payload.get("optimal"):
                break  # first-optimal-wins: cancel the remaining lanes
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
    best: SearchResult | None = None
    winner: str | None = None
    for payload in payloads:
        if not payload.get("solved"):
            continue
        candidate = SearchResult(
            circuit=circuit_from_dict(payload["circuit"]),
            cnot_cost=payload["cnot_cost"],
            optimal=payload["optimal"])
        if _better(candidate, best):
            best, winner = candidate, payload["name"]
    attempts = [{k: v for k, v in p.items() if k != "circuit"}
                for p in payloads]
    return PortfolioOutcome(result=best, winner=winner, attempts=attempts)


def run_mode_portfolio(state: QState, search: SearchConfig,
                       specs: tuple[EngineSpec, ...],
                       memory: SearchMemory | None, mode: str,
                       deadline_ms: float | None,
                       pdb_tier: str = "admissible") -> PortfolioOutcome:
    """Dispatch to the in-process scheduler a request asked for.

    The single policy point shared by the server's ``exact`` path and the
    batch workers, so serve and batch can never drift apart: a
    ``deadline_ms`` forces the interleaved scheduler — it is the only
    in-process mode that can honor a wall-clock cutoff with a best-so-far
    answer (the sequential line would have to interrupt a monolithic
    lane).
    """
    if mode == "interleaved" or deadline_ms is not None:
        return interleaved_portfolio(state, search, specs, memory=memory,
                                     deadline_ms=deadline_ms,
                                     pdb_tier=pdb_tier)
    return run_portfolio(state, search, specs, memory=memory)


def _synthesize_one(rid, state: QState, search: SearchConfig,
                    specs: tuple[EngineSpec, ...],
                    memory: SearchMemory | None,
                    with_circuit: bool, mode: str = "sequential",
                    deadline_ms: float | None = None) -> dict:
    start = time.perf_counter()
    outcome = run_mode_portfolio(state, search, specs, memory, mode,
                                 deadline_ms)
    row: dict = {"id": rid, "solved": outcome.solved,
                 "seconds": round(time.perf_counter() - start, 6)}
    if outcome.deadline_expired:
        row["deadline_expired"] = True
    if outcome.solved:
        assert outcome.result is not None
        row.update(cnot_cost=outcome.result.cnot_cost,
                   optimal=outcome.result.optimal, engine=outcome.winner)
        if with_circuit:
            row["circuit"] = circuit_to_dict(outcome.result.circuit)
    else:
        row["lower_bound"] = outcome.lower_bound
    return row


def _batch_worker(shard: list[tuple[object, dict, float | None]],
                  search: SearchConfig,
                  specs: tuple[EngineSpec, ...], snapshot_path,
                  with_circuit: bool, mode: str, queue) -> None:
    """Batch-shard entry point: warm memory in, results + delta out."""
    memory = _load_worker_memory(snapshot_path) or SearchMemory()
    # ship home only what this worker *learns* — the snapshot's own
    # entries are already in the parent, and re-serializing them would
    # make the exit delta scale with the snapshot instead of the shard
    baseline = memory_baseline(memory)
    rows = []
    for rid, state_data, row_deadline in shard:
        try:
            rows.append(_synthesize_one(rid, state_from_dict(state_data),
                                        search, specs, memory,
                                        with_circuit, mode, row_deadline))
        except Exception as exc:  # one bad row must not sink the shard
            rows.append({"id": rid, "solved": False, "error": repr(exc)})
    try:
        delta = memory_to_dict(memory, since=baseline)
    except Exception:  # unserializable regime: results still count
        delta = None
    queue.put({"rows": rows, "memory": delta})


def run_batch(requests: list[tuple[object, QState]],
              search: SearchConfig | None = None,
              specs: tuple[EngineSpec, ...] | None = None,
              snapshot_path=None, workers: int = 1,
              memory: SearchMemory | None = None,
              with_circuit: bool = False,
              shard_timeout: float = 3600.0,
              mode: str = "sequential",
              deadline_ms: float | None = None,
              deadline_by_id: dict | None = None) -> list[dict]:
    """Shard ``requests`` (id, state) across workers; one row dict each.

    ``workers <= 1`` runs in-process against ``memory`` (loaded from
    ``snapshot_path`` when not supplied).  With more workers, requests are
    sharded round-robin; every worker seeds its own memory from the
    snapshot and ships its learned entries back, which are merged into
    ``memory`` (when given) so the parent keeps everything the batch
    learned.  Rows come back in request order regardless of sharding.
    ``mode``/``deadline_ms`` select the in-process scheduler per request
    exactly as in :func:`run_mode_portfolio` (a deadline implies the
    interleaved scheduler); ``deadline_by_id`` overrides the batch-wide
    deadline per request id (a request *with* an entry there uses that
    deadline even when the batch-wide default is ``None``).
    """
    search = search or SearchConfig()
    specs = specs or default_portfolio()
    deadline_by_id = deadline_by_id or {}

    def row_deadline(rid) -> float | None:
        return deadline_by_id.get(rid, deadline_ms)

    if workers <= 1 or len(requests) <= 1:
        if memory is None:
            memory = _load_worker_memory(snapshot_path) or SearchMemory()
        return [_synthesize_one(rid, state, search, specs, memory,
                                with_circuit, mode, row_deadline(rid))
                for rid, state in requests]

    workers = min(workers, len(requests))
    shards: list[list[tuple[object, dict, float | None]]] = \
        [[] for _ in range(workers)]
    order: dict = {}
    for pos, (rid, state) in enumerate(requests):
        order[pos] = rid
        shards[pos % workers].append((pos, state_to_dict(state),
                                      row_deadline(rid)))
    ctx = _mp_context()
    queue = ctx.Queue()
    procs = [ctx.Process(target=_batch_worker,
                         args=(shard, search, specs, snapshot_path,
                               with_circuit, mode, queue),
                         daemon=True)
             for shard in shards if shard]
    for proc in procs:
        proc.start()
    by_pos: dict[int, dict] = {}
    try:
        for _ in range(len(procs)):
            try:
                payload = queue.get(timeout=shard_timeout)
            except Exception:
                break
            for row in payload["rows"]:
                by_pos[row["id"]] = row
            if memory is not None and payload.get("memory") is not None:
                memory_merge_dict(memory, payload["memory"])
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
    rows = []
    for pos, rid in order.items():
        row = by_pos.get(pos)
        if row is None:  # a shard died: fail its rows loudly, keep order
            row = {"id": pos, "solved": False,
                   "error": "batch worker did not report"}
        rows.append(dict(row, id=rid))
    return rows
