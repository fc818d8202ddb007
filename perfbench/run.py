"""The repository benchmark: served synthesis over four traffic mixes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-exact --seed 1 --seconds 20 --trace 0

Each run boots a real ``repro-qsp serve --listen`` subprocess (several
times, for the set-up figure), drives the workload's seeded traffic at
it from this one client process over at most two connections, checks
every answer with an independent statevector simulator, and prints as
its last stdout line one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the workload twice, plain and through the traced
launcher (:mod:`launcher`), and reports the per-layer metrics of
``layers.json``.  The line before the result holds the detail: host
block, sample counts, tail percentiles, generator lateness, and (traced)
the per-layer self-time ledger.

The first run in a checkout builds the native ``_fastcore`` extension
into ``.bench_build/`` and, for hot-mix, the warm catalog; the run
refuses to measure the pure-Python fallback.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
from check import check_answer  # noqa: E402
from harness import (  # noqa: E402
    Server,
    build_dir,
    catalog_files,
    cpu_seconds,
    fastcore_status,
    host_block,
    run_client,
    vm_hwm_mb,
)
from stats import median, merge_ledgers, tail  # noqa: E402

#: boots per run; setup_s is their median, the last one is measured
BOOTS = 5
#: per-request client timeout (seconds); a timed-out request is failed
TIMEOUT_S = {"cold-exact": 20.0, "hot-mix": 10.0,
             "prepare-deadline": 20.0, "pool-affinity": 15.0}
#: an open-loop run whose generator sends any request later than this
#: after its due time is invalid
LATENESS_BOUND_S = 0.1
#: the traced run's unattributed time must stay within this share of busy
LEDGER_TOLERANCE = 0.10


def serve_args(workload: str, run_dir: Path) -> list[str]:
    if workload == "hot-mix":
        return ["--wal", str(run_dir / "wal"),
                "--cache-snapshot", str(run_dir / "cache.json")]
    if workload == "pool-affinity":
        return ["--workers", "2", "--wal", str(run_dir / "wal")]
    return []


def reset_state(workload: str, run_dir: Path, catalog: Path | None) -> None:
    """Give every boot the same persistent state to start from."""
    for path in run_dir.glob("wal*"):
        path.unlink()
    (run_dir / "cache.json").unlink(missing_ok=True)
    if catalog is not None:
        for name in ("wal", "wal.snapshot", "cache.json"):
            if (catalog / name).exists():
                shutil.copyfile(catalog / name, run_dir / name)


def classify(record, timeout_s: float) -> str:
    response = record.response
    if response is None or record.answered - record.due > timeout_s:
        return "timeout"
    if response.get("busy"):
        return "busy"
    return "ok" if response.get("ok") else "failed"


def measure(root: Path, workload: str, seed: int, seconds: float,
            run_dir: Path, traced: bool = False) -> dict:
    """One measured run: boots, traffic, checks; raw figures out."""
    plan = gen.plan(workload, seed, seconds)
    catalog = None
    if workload == "hot-mix":
        catalog = catalog_files(root, gen.catalog(), check_answer)
    timeout_s = TIMEOUT_S[workload]
    setups = []
    for boot in range(BOOTS):
        reset_state(workload, run_dir, catalog)
        last = boot == BOOTS - 1
        server = Server(root, run_dir, serve_args(workload, run_dir),
                        traced=traced and last)
        try:
            setups.append(server.start())
            if not last:
                if server.stop() != 0:
                    raise RuntimeError("server did not shut down cleanly")
                continue
            cpu_before = cpu_seconds(server.pids())
            client, window = run_client(plan, server.port, seconds,
                                        timeout_s)
            stats = server.control({"op": "stats"})
            pids = server.pids()
            rss_mb = vm_hwm_mb(pids)
            cpu_s = cpu_seconds(pids) - cpu_before
            if server.stop() != 0:
                raise RuntimeError("server did not shut down cleanly")
        finally:
            server.kill()
    ledgers = []
    if traced:
        ledgers = [json.loads(p.read_text())
                   for p in sorted(server.ledger_dir.glob("ledger-*.json"))]
    return {"records": client.records, "window": window,
            "lateness": client.lateness, "stray": client.stray,
            "setups": setups, "rss_mb": rss_mb, "cpu_s": cpu_s,
            "stats": stats, "ledgers": ledgers, "timeout_s": timeout_s,
            "loop": plan["loop"]}


#: closed-loop throughput is the median over this many request blocks
THROUGHPUT_BLOCKS = 5


def throughput(raw: dict, statuses: list[str]) -> float:
    """Answered requests per second.

    Open loops: over the whole window.  Closed loops: the median of the
    rates of consecutive request blocks, so one burst of host noise moves
    one block, not the figure.
    """
    records = raw["records"]
    if raw["loop"] == "open" or len(records) < THROUGHPUT_BLOCKS:
        return statuses.count("ok") / raw["window"]
    rates = []
    size = len(records) / THROUGHPUT_BLOCKS
    for block in range(THROUGHPUT_BLOCKS):
        lo, hi = round(block * size), round((block + 1) * size)
        chunk = records[lo:hi]
        ends = [r.answered for r in chunk if r.answered is not None]
        span = (max(ends) if ends else chunk[-1].due) - chunk[0].due
        rates.append(statuses[lo:hi].count("ok") / max(span, 1e-9))
    return median(rates)


def evaluate(raw: dict) -> dict:
    """Statuses, correctness, and the end-to-end metrics of one run."""
    timeout_s = raw["timeout_s"]
    outcomes = {"ok": 0, "failed": 0, "busy": 0, "timeout": 0}
    problems = []
    latencies, light, met = [], [], 0
    by_op: dict[str, list[float]] = {}
    cnot_total, counted_missing = 0, 0
    statuses = [classify(record, timeout_s) for record in raw["records"]]
    for record, status in zip(raw["records"], statuses):
        outcomes[status] += 1
        request = record.request
        latency = record.answered - record.due if status == "ok" \
            else timeout_s
        latencies.append(latency)
        by_op.setdefault(request.get("op"), []).append(latency)
        if request.get("_light"):
            light.append(latency)
        limit = request["deadline_ms"] / 1000.0 \
            if "deadline_ms" in request else timeout_s
        if status == "ok" and latency <= limit:
            met += 1
        if status == "ok":
            problem = check_answer(request, record.response)
            if problem is not None:
                problems.append(f"request {request['id']}: {problem}")
        if request.get("_count") and "deadline_ms" not in request:
            if status == "ok":
                cnot_total += record.response["cnot_cost"]
            else:
                counted_missing += 1
    attempted = len(raw["records"])
    failed = attempted - outcomes["ok"]
    if counted_missing:
        problems.append(f"{counted_missing} counted request(s) unanswered; "
                        f"cnot_total is incomplete")
    lateness = max(raw["lateness"], default=0.0)
    if lateness > LATENESS_BOUND_S:
        problems.append(f"generator fell {lateness:.3f} s behind schedule "
                        f"(bound {LATENESS_BOUND_S} s): run invalid")
    tail_s, tail_pct = tail(latencies)
    light_tail_s, light_pct = tail(light) if light else (timeout_s, 100.0)
    metrics = {
        "setup_s": (median(raw["setups"]), "s"),
        "throughput_rps": (throughput(raw, statuses), "1/s"),
        "latency_p50_s": (median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "light_latency_p50_s": (median(light) if light else timeout_s, "s"),
        "light_latency_tail_s": (light_tail_s, "s"),
        "deadline_met_ratio": (met / max(1, attempted), "ratio"),
        "error_ratio": ((failed + 1) / (attempted + 1), "ratio"),
        "cnot_total": (cnot_total, "count"),
        "rss_peak_mb": (raw["rss_mb"], "MB"),
    }
    detail = {"outcomes": outcomes, "attempted": attempted,
              "samples": {"latency": len(latencies), "light": len(light),
                          "setup": len(raw["setups"])},
              "tail_percentile": {"latency_tail_s": tail_pct,
                                  "light_latency_tail_s": light_pct},
              "latency_by_op": {op: {"n": len(v), "p50_s": median(v),
                                     "max_s": max(v)}
                                for op, v in sorted(by_op.items())},
              "generator_lateness_max_s": lateness,
              "window_s": raw["window"], "stray_replies": raw["stray"],
              "server_cpu_s": raw["cpu_s"], "problems": problems[:10]}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics, "detail": detail}


def _stats_sum(stats: dict, path: tuple) -> float:
    """Sum a counter over an inline service's or every pool worker's stats."""
    sections = list(stats.get("workers", {}).values()) or [stats]
    total = 0.0
    for section in sections:
        value = section
        for key in path:
            value = (value or {}).get(key) if isinstance(value, dict) \
                else None
        total += value or 0
    return total


def layer_metrics(raw: dict, untraced: dict) -> tuple[dict, dict]:
    """The per-layer metrics of ``layers.json`` from a traced run."""
    led = merge_ledgers(raw["ledgers"])
    incl, calls, counts = led["incl"], led["calls"], led["counts"]
    longest, samples = led["longest"], led["samples"]
    stats = raw["stats"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {
        "asyncserver.parse_s": incl.get("asyncserver.parse", 0.0),
        "asyncserver.reply_bytes": counts.get("asyncserver.reply_bytes", 0),
        "server.submit_s": incl.get("server.submit", 0.0),
        "server.submit_max_s": longest.get("server.submit", 0.0),
        "server.busy_rejects": stats.get("busy_rejections", 0),
        "cache.get_calls": calls.get("cache.get", 0),
        "cache.hit_ratio": ratio(counts.get("cache.hits", 0),
                                 calls.get("cache.get", 0)),
        "cache.get_s": incl.get("cache.get", 0.0),
        "cache.put_calls": calls.get("cache.put", 0),
        "cache.put_s": incl.get("cache.put", 0.0),
        "cache.near_s": incl.get("cache.near", 0.0),
        "pdb.signature_s": incl.get("pdb.signature", 0.0),
        "sim.verify_calls": calls.get("sim.verify", 0),
        "sim.verify_s": incl.get("sim.verify", 0.0),
        "scheduler.turns": calls.get("scheduler.turn", 0),
        "scheduler.turn_s": incl.get("scheduler.turn", 0.0),
        "scheduler.turn_max_s": longest.get("scheduler.turn", 0.0),
        "scheduler.overhead_s": incl.get("scheduler.turn", 0.0)
        - incl.get("portfolio.round", 0.0) - incl.get("workflow.round", 0.0),
        "portfolio.round_s": incl.get("portfolio.round", 0.0)
        + incl.get("portfolio.inline_round", 0.0),
        "portfolio.useful_ratio": ratio(
            counts.get("portfolio.useful_expansions", 0),
            counts.get("portfolio.expansions", 0)),
        "workflow.step_s": incl.get("workflow.step", 0.0),
        "workflow.core_reuse": counts.get("workflow.core_reuse", 0),
        "gc.pause_s": incl.get("gc.pause", 0.0),
        "gc.collections": counts.get("gc.collections", 0),
        "persistence.wal_appends": counts.get("persistence.wal_appends", 0),
        "persistence.wal_append_s": incl.get("persistence.append", 0.0),
        "persistence.wal_bytes": counts.get("persistence.wal_bytes", 0),
        "persistence.compact_s": incl.get("persistence.compact", 0.0),
        "persistence.boot_replay_s": incl.get("persistence.boot", 0.0)
        + incl.get("persistence.cache_load", 0.0),
        "pool.route_s": incl.get("pool.route", 0.0),
        "pool.merge_s": incl.get("pool.merge", 0.0),
        "ledger.unattributed_s": led["unattributed_s"],
    }
    waits = samples.get("scheduler.queue_wait", [])
    values["scheduler.queue_wait_p50_s"] = median(waits) if waits else 0.0
    values["scheduler.queue_wait_tail_s"] = tail(waits)[0] if waits else 0.0
    nearhit = {key: _stats_sum(stats, ("nearhit", key))
               for key in ("served", "verify_failed", "truncated",
                           "no_neighbor")}
    values["nearhit.served_ratio"] = ratio(nearhit["served"],
                                           sum(nearhit.values()))
    for engine in ("astar", "idastar", "beam"):
        expansions = counts.get(f"engine.{engine}.expansions", 0)
        step_s = incl.get(f"engine.{engine}.step", 0.0)
        values[f"engine.{engine}.expansions"] = expansions
        values[f"engine.{engine}.step_s"] = step_s
        values[f"engine.{engine}.nodes_per_s"] = ratio(expansions, step_s)
    for phase in ("enumeration", "canonicalization", "hashing",
                  "heuristic", "containers"):
        values[f"engine.phase.{phase}_s"] = counts.get(f"phase.{phase}", 0.0)
    values["engine.canon_hit_ratio"] = ratio(
        counts.get("engine.canon_hits", 0),
        counts.get("engine.canon_hits", 0)
        + counts.get("engine.canon_misses", 0))
    values["engine.store_hit_ratio"] = ratio(
        counts.get("engine.store_hits", 0),
        counts.get("engine.store_hits", 0)
        + counts.get("engine.store_misses", 0))
    pool = stats.get("pool") or {}
    routed = pool.get("routed") or []
    values["pool.affinity_ratio"] = ratio(pool.get("affinity_hits", 0),
                                          sum(routed))
    values["pool.deltas_shipped"] = pool.get("deltas_shipped", 0)
    values["pool.imbalance"] = ratio(max(routed), min(routed)) \
        if routed and min(routed) else 0.0

    def per_answer(run: dict) -> float:
        answered = sum(1 for r in run["records"] if r.response is not None)
        return run["cpu_s"] / max(1, answered)

    values["trace.overhead_ratio"] = ratio(per_answer(raw),
                                           per_answer(untraced))
    ledger = {"busy_s": led["busy_s"], "unattributed_s": led["unattributed_s"],
              "layers_self_s": dict(sorted(led["layers"].items(),
                                           key=lambda kv: -kv[1])),
              "processes": led["processes"]}
    return values, ledger


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfbench: run from the root of a repository checkout "
              "(src/repro is missing)", file=sys.stderr)
        return 2
    fastcore = fastcore_status(root)
    if not fastcore.get("active"):
        print(f"perfbench: the native _fastcore extension is not active "
              f"({fastcore.get('error')}); refusing to measure the Python "
              f"fallback", file=sys.stderr)
        return 3
    run_dir = build_dir(root) / "runs" / \
        f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_block(root, fastcore)}
    if args.trace:
        half = args.seconds / 2.0
        plain = measure(root, args.workload, args.seed, half, run_dir)
        traced = measure(root, args.workload, args.seed, half, run_dir,
                         traced=True)
        checks = [evaluate(plain), evaluate(traced)]
        values, ledger = layer_metrics(traced, plain)
        problems = [p for c in checks for p in c["detail"]["problems"]]
        if abs(ledger["unattributed_s"]) > LEDGER_TOLERANCE * ledger["busy_s"]:
            problems.append(
                f"ledger: {ledger['unattributed_s']:.3f} s unattributed of "
                f"{ledger['busy_s']:.3f} s busy exceeds "
                f"{LEDGER_TOLERANCE:.0%}")
        detail.update(ledger=ledger, problems=problems,
                      runs=[c["detail"] for c in checks])
        layers = json.loads(
            Path(__file__).with_name("layers.json").read_text())
        result = {"correct": not problems,
                  "attempted": sum(c["attempted"] for c in checks),
                  "failed": sum(c["failed"] for c in checks),
                  "metrics": {m["name"]: {"value": values[m["name"]],
                                          "unit": m["unit"]}
                              for m in layers["per_layer"]}}
    else:
        raw = measure(root, args.workload, args.seed, args.seconds, run_dir)
        checked = evaluate(raw)
        detail.update(checked["detail"])
        result = {key: checked[key]
                  for key in ("correct", "attempted", "failed")}
        result["metrics"] = {name: {"value": value, "unit": unit}
                             for name, (value, unit)
                             in checked["metrics"].items()}
    if result["correct"]:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
