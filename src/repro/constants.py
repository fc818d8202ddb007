"""Numeric conventions shared across the library.

Amplitudes are real floats.  Two amplitudes are considered equal when they
agree after rounding to :data:`AMP_DECIMALS` decimal places; this quantization
is what makes states hashable and the state-transition graph finite at a given
precision level (the paper's ``epsilon``, Sec. IV-B).
"""

from __future__ import annotations

import math

#: Decimal places used when quantizing amplitudes for hashing/equality.
AMP_DECIMALS: int = 10

#: Absolute tolerance matching the quantization above.
ATOL: float = 0.5 * 10.0 ** (-AMP_DECIMALS)

#: Looser tolerance for simulator round-trip comparisons.
SIM_ATOL: float = 1e-8

#: Relative tolerance for the common-amplitude-ratio test of a merge move.
MERGE_RATIO_RTOL: float = 1e-9

# ----------------------------------------------------------------------
# Canonicalization enumeration caps
# ----------------------------------------------------------------------
#
# Soundness never depends on these caps (capped enumeration may split an
# equivalence class into several representatives, which only weakens
# pruning).  Two tiers are defined once here and threaded everywhere:
#
# * ``DEFAULT_*`` — full-strength minimization, used by the public
#   canonicalization API (:mod:`repro.core.canonical`) and offline class
#   counting, where key quality matters more than per-call latency.
# * ``SEARCH_*`` — bounded caps for the search inner loop, where
#   canonicalization runs once per generated state and latency dominates.

#: X-flip tie cap for the public canonicalization API.
DEFAULT_TIE_CAP: int = 4096

#: Permutation-candidate cap for the public canonicalization API.
DEFAULT_PERM_CAP: int = 48

#: X-flip tie cap used inside the search hot loop.
SEARCH_TIE_CAP: int = 256

#: Permutation-candidate cap used inside the search hot loop.
SEARCH_PERM_CAP: int = 24

#: Size cap of the per-search canonical-key / heuristic caches (entries).
#: Exceeding it evicts the oldest entries (FIFO), keeping memory bounded
#: on long searches; hit rates are reported in ``SearchStats``.
SEARCH_CACHE_CAP: int = 1 << 18

# ----------------------------------------------------------------------
# Persistent cross-search memory caps (repro.core.memory)
# ----------------------------------------------------------------------
#
# A ``SearchMemory`` outlives individual searches, so its containers are
# capped independently of the per-search tiers above.  Evicting any entry
# is always sound: stores only deduplicate recomputation, and dropping a
# transposition entry merely re-probes a subtree.

#: Entry cap of each persistent hash-keyed store (canon keys, h values).
MEMORY_STORE_CAP: int = 1 << 20

#: Entry cap of the persistent IDA* transposition table.
MEMORY_TRANSPOSITION_CAP: int = 1 << 20

#: Interned-state count above which ``SearchMemory`` rotates its pool at
#: the next attach (the stores survive rotation; only interning restarts).
MEMORY_POOL_ROTATE_CAP: int = 1 << 21

# ----------------------------------------------------------------------
# Synthesis service layer (repro.service)
# ----------------------------------------------------------------------

#: On-disk ``SearchMemory`` snapshot format version.  Bumped whenever the
#: serialized layout or the meaning of stored entries changes; a loader
#: seeing any other version raises ``MemoryCompatibilityError`` instead of
#: guessing (entries from an incompatible layout must never mix in).
#: v2: transposition entries carry generation stamps (aging) and the
#: snapshot carries the table generation + per-lane win statistics.
#: v1 snapshots remain *readable* (a lossless subset — see
#: ``repro.utils.serialization``); this constant is the version written.
MEMORY_SNAPSHOT_VERSION: int = 2

#: Schema version stamped into every benchmark JSON artifact
#: (``BENCH_kernel.json``, ``BENCH_memory.json``, ``BENCH_service.json``)
#: by :func:`repro.utils.fingerprint.stamp_benchmark`, so trajectory
#: comparisons across PRs can detect incompatible runs.
BENCH_SCHEMA_VERSION: int = 1

#: Entry cap of the service request cache (distinct target states).
SERVICE_REQUEST_CACHE_CAP: int = 1 << 16

#: Node expansions per scheduler time slice in the interleaved portfolio
#: (``repro.service.portfolio.interleaved_portfolio``): small enough that
#: incumbents and cancellations propagate promptly, large enough that the
#: per-slice bookkeeping is noise next to the expansions themselves.
PORTFOLIO_SLICE_EXPANSIONS: int = 256

#: Proven-budget units an IDA* transposition entry loses per snapshot
#: generation of age in the eviction ordering (``repro.core.memory
#: .TranspositionTable``): a sweep drops stale small-budget proofs from
#: old workloads before fresh ones of equal budget.  Dropping any entry
#: is always sound — the subtree is merely re-probed.
TRANSPOSITION_AGE_PENALTY: float = 1.0

#: On-disk request-cache snapshot format version (``serve
#: --cache-snapshot``).  Gated exactly like the memory snapshot: any other
#: version, or a regime-fingerprint mismatch, raises
#: ``MemoryCompatibilityError`` at load.
REQUEST_CACHE_SNAPSHOT_VERSION: int = 1

# ----------------------------------------------------------------------
# Concurrent multi-request serving (repro.service.scheduler / asyncserver)
# ----------------------------------------------------------------------

#: Admission-control bound of the cross-request scheduler: searching
#: sessions in flight at once (cache hits and control ops never count).
#: A request arriving beyond it is answered ``ok: false, busy: true``
#: immediately instead of growing an unbounded queue.
SERVICE_MAX_INFLIGHT: int = 32

#: Longest request line ``serve --listen`` reads (bytes before the
#: newline).  A dense 12-qubit ``exact`` request is about 106 KB of
#: JSON, past asyncio's 64 KiB default; a longer line is skipped whole
#: and answered with an ``ok: false`` error.
SERVICE_MAX_LINE_BYTES: int = 1 << 20

#: Fairness stride of the cross-request scheduler: deadlined sessions are
#: served earliest-deadline-first, but every ``N``-th turn goes to the
#: round-robin queue of undeadlined sessions, so a stream of deadlined
#: traffic can never starve an undeadlined request (the bench's fairness
#: floor).
SCHEDULER_FAIRNESS_STRIDE: int = 4

#: On-disk format version of the incremental snapshot WAL
#: (``serve --wal``).  Gated like the memory snapshot: any other version
#: or a regime-fingerprint mismatch raises ``MemoryCompatibilityError``
#: at boot, before a single record is replayed.
MEMORY_WAL_VERSION: int = 1

#: Appended WAL records between automatic compactions: each compaction
#: rewrites the full snapshot and truncates the log, bounding both replay
#: time after a crash and the on-disk log size.
WAL_COMPACT_INTERVAL: int = 256

#: Lane auto-tuning (interleaved slice budgets from ``lane_stats``):
#: per-lane slice budgets scale between these multiples of
#: ``PORTFOLIO_SLICE_EXPANSIONS`` by historical win rate.  Slice size
#: never changes a lane's result (differential-tested), so tuning moves
#: CPU priority only; no lane is ever dropped.
LANE_TUNE_MIN: float = 0.5
LANE_TUNE_MAX: float = 2.0

#: Wall-clock budget for draining in-flight sessions at graceful
#: shutdown (ms): sessions still running when it expires are
#: deadline-flushed (best feasible circuit, ``deadline_expired``) so the
#: server can compact its WAL and exit instead of hanging on a heavy
#: search.
SHUTDOWN_DRAIN_MS: float = 2000.0

#: In-place transposition improvements tracked for delta snapshots (WAL
#: records) before the log overflows and the next delta ships the whole
#: table instead (same rule as eviction sweeps).
TRANSPOSITION_IMPROVE_LOG_CAP: int = 1 << 16

#: Trace records kept in the in-process ring buffer (queryable via
#: ``op: trace``).  At slice granularity a heavy request emits a few
#: hundred records, so 4096 holds the recent history of a busy server
#: without unbounded growth; ``serve --trace FILE`` streams everything.
OBS_TRACE_RING_CAP: int = 4096

#: Default number of trace records returned by ``op: trace`` when the
#: request does not pass an explicit ``limit``.
OBS_TRACE_DEFAULT_LIMIT: int = 256

#: Upper edges (seconds) for the service latency histograms (queue wait
#: and end-to-end).  Spans sub-millisecond scheduler turns through the
#: multi-second heavy searches; the overflow bucket catches the rest.
OBS_LATENCY_BUCKETS: tuple = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Upper edges (expansions) for the per-turn expansion-slice histogram.
#: Centered on PORTFOLIO_SLICE_EXPANSIONS times the lane count, with
#: room below for settling lanes and above for auto-tuned budgets.
OBS_TURN_EXPANSION_BUCKETS: tuple = (
    64, 128, 256, 512, 1024, 2048, 4096, 8192)

#: Upper edges (seconds) for the deadline-slack-at-settle histogram.
#: Negative slack means the request settled past its deadline (flush);
#: positive means it finished with time to spare.
OBS_DEADLINE_SLACK_BUCKETS: tuple = (
    -1.0, -0.1, -0.01, 0.0, 0.01, 0.1, 0.5, 1.0, 5.0)

# ----------------------------------------------------------------------
# Multi-process worker pool (repro.service.pool)
# ----------------------------------------------------------------------

#: Settled requests between cross-merge rounds in the worker pool: after
#: this many settles the router pulls each worker's learned memory delta
#: (WAL-record shaped) and fans it out to every *other* worker.  Deltas
#: are improve-only and idempotent, so the interval trades only learning
#: propagation latency against IPC volume — never correctness.
POOL_CROSS_MERGE_INTERVAL: int = 16

#: Signature-affinity stickiness slack of the pool router: a request
#: whose entanglement signature was last served by worker ``w`` stays on
#: ``w`` (its flywheel caches are hot) as long as ``w``'s in-flight count
#: is within this many requests of the least-loaded worker; beyond the
#: slack, load balance wins over affinity.
POOL_STICKY_SLACK: int = 2

# ----------------------------------------------------------------------
# Pattern database + near-hit serving (repro.core.pdb / service)
# ----------------------------------------------------------------------

#: Mutual-information floor above which a qubit pair counts as entangled
#: in :func:`repro.states.analysis.entangled_pairs_mi`.  Entanglement
#: signatures (``repro.core.pdb``) key on the MI-cluster shape, so this
#: one constant pins signature identity everywhere a signature is built,
#: compared, or persisted.
MI_PAIR_THRESHOLD: float = 1e-9

#: Canonical-cut cap of the entanglement signature's Schmidt-rank
#: profile: registers up to ``_EXACT_CUT_QUBITS`` enumerate every cut,
#: wider ones take this many deterministic cuts (contiguous + seeded
#: random, the same family the Schmidt-cut heuristic samples).  Signature
#: identity depends on this being one shared constant.
PDB_SIGNATURE_CUT_CAP: int = 16

#: Entry cap of the pattern database (distinct entanglement signatures).
#: Signatures are tiny abstractions of states, so the PDB saturates far
#: below this on any real workload; the cap only bounds adversarial
#: traffic.  Evicting is always sound (a missing signature falls back to
#: the structural bound computed on demand).
PDB_CAP: int = 1 << 16

#: Newly touched PDB signatures tracked for delta snapshots (WAL
#: records) before the log overflows and the next delta ships the whole
#: database instead (same rule as the transposition improvement logs).
PDB_IMPROVE_LOG_CAP: int = 1 << 14

#: Entry cap of the request cache's signature index (cached results per
#: signature bucket kept as near-hit adaptation donors).
SIGNATURE_INDEX_CAP: int = 1 << 12

#: Default wall-clock budget (ms) of the near-hit suffix re-search: the
#: deadline-bounded anytime portfolio run from the closest intermediate
#: of an adapted donor circuit.  Small by design — a near hit is only
#: worth serving when it undercuts full synthesis by orders of
#: magnitude; requests may override via their own ``deadline_ms``.
NEARHIT_SUFFIX_DEADLINE_MS: float = 250.0

#: Donor circuits the near-hit path will attempt to adapt per request
#: before falling back to a full search — each try costs a move replay
#: plus a (deadline-bounded) suffix search, so the list stays short.
NEARHIT_DONOR_CANDIDATES: int = 4

#: CNOT cost of a multi-controlled Ry with ``k`` controls (Table I):
#: 0 controls -> plain Ry (free), 1 control -> 2, k controls -> 2**k.


def mcry_cnot_cost(num_controls: int) -> int:
    """CNOT cost of an ``MCRy`` gate with ``num_controls`` controls.

    Matches Table I of the paper (and the motivating example, where boxes
    with 1 and 2 controls cost ``2**1 + 2**2 = 6`` CNOTs), realized exactly
    by the Gray-code multiplexor in :mod:`repro.circuits.decompose`.
    """
    if num_controls < 0:
        raise ValueError("negative control count")
    if num_controls == 0:
        return 0
    return 1 << num_controls


def quantize(amp: float) -> float:
    """Round an amplitude to the library-wide precision.

    ``-0.0`` is normalized to ``0.0`` so that hashing is stable.
    """
    q = round(amp, AMP_DECIMALS)
    if q == 0.0:
        return 0.0
    return q


def amps_close(a: float, b: float, atol: float = ATOL) -> bool:
    """True when two amplitudes agree within ``atol``."""
    return math.isclose(a, b, rel_tol=0.0, abs_tol=atol)
