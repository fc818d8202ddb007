"""Traced ``serve`` launcher: time each layer's public calls from outside.

Usage::

    python3 perfbench/launcher.py LEDGER_DIR serve --listen HOST:PORT ...

The arguments after ``LEDGER_DIR`` go unchanged to the normal
``repro-qsp`` entry point (:func:`repro.cli.main`).  Before calling it,
this launcher wraps the public functions at each layer boundary of the
service (socket front end, admission, cache, signatures, verification,
scheduler, portfolio, workflow, engines, persistence, worker pool) in
spans of a :class:`stats.SpanRecorder`, registers a ``gc.callbacks``
hook, and turns on the engines' existing ``profile`` switch.  Time
blocked waiting for work (the event loop's ``select``, pool pipe waits)
is recorded as ``idle``.  Nothing in the program changes; only module
and class attributes are replaced in this process.

Each process writes ``LEDGER_DIR/ledger-<pid>.json`` when it ends: the
router/inline server after ``main`` returns, every pool worker (forked
with the wrappers already in place) when its loop ends after the drain.
"""

from __future__ import annotations

import asyncio
import asyncio.events
import collections.abc
import gc
import json
import multiprocessing.connection
import os
import selectors
import sys
import time

from stats import SpanRecorder

REC = SpanRecorder()


def _timed(owner, attr: str, key: str, after=None) -> None:
    """Replace ``owner.attr`` by a span-timed wrapper.

    ``after(result, args)`` runs after the call for counters that need
    the result or the receiver.
    """
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        REC.enter(key)
        try:
            result = original(*args, **kwargs)
        finally:
            REC.exit()
        if after is not None:
            after(result, args)
        return result

    if isinstance(raw, (classmethod, staticmethod)):
        wrapper = staticmethod(wrapper)
    setattr(owner, attr, wrapper)


class _TimedCoroutine(collections.abc.Coroutine):
    """A coroutine whose every resumption is one span of ``key``."""

    def __init__(self, coro, key: str) -> None:
        self._coro = coro
        self._key = key

    def send(self, value):
        REC.enter(self._key)
        try:
            return self._coro.send(value)
        finally:
            REC.exit()

    def throw(self, *args):
        REC.enter(self._key)
        try:
            return self._coro.throw(*args)
        finally:
            REC.exit()

    def close(self):
        return self._coro.close()

    def __await__(self):
        return self._coro.__await__()


def _timed_coroutine(owner, attr: str, key: str) -> None:
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        return _TimedCoroutine(original(*args, **kwargs), key)

    setattr(owner, attr, wrapper)


def _gc_callback(phase: str, info: dict) -> None:
    if phase == "start":
        REC.enter("gc.pause")
    elif REC.stack and REC.stack[-1][0] == "gc.pause":
        REC.exit()
        REC.count("gc.collections")


class _CountingWriter:
    """Stream-writer proxy that counts the reply bytes written."""

    def __init__(self, writer) -> None:
        self._writer = writer

    def is_closing(self):
        return self._writer.is_closing()

    def write(self, data: bytes) -> None:
        REC.count("asyncserver.reply_bytes", len(data))
        self._writer.write(data)


def _profile_config(original):
    """Turn on the engines' ``profile`` switch in the built config."""
    def wrapper(*args, **kwargs):
        config = original(*args, **kwargs)
        config.search.profile = True
        config.qsp.exact.search.profile = True
        if hasattr(config.qsp.exact.beam, "profile"):
            config.qsp.exact.beam.profile = True
        return config
    return wrapper


def install(ledger_dir: str) -> None:
    """Wrap every layer boundary (see the module docstring)."""
    import repro.cli as cli
    import repro.service.asyncserver as asyncserver
    import repro.service.persistence as persistence
    import repro.service.pool as pool
    import repro.service.server as server
    import repro.sim.verify as verify
    from repro.core.engine import EngineRun, StepwiseRun
    from repro.qsp.workflow import WorkflowRun
    from repro.service.cache import RequestCache
    from repro.service.portfolio import LaneScheduler
    from repro.service.scheduler import RequestScheduler, WorkflowLanes

    cli._service_config = _profile_config(cli._service_config)

    # event loop: callbacks are busy, select() is idle
    _timed(asyncio.events.Handle, "_run", "loop.callbacks")
    _timed(selectors.EpollSelector, "select", "idle.select")

    # socket front end
    front = asyncserver.AsyncFrontEnd
    _timed_coroutine(front, "_handle_client", "asyncserver.handler")
    _timed_coroutine(front, "_driver", "asyncserver.driver")
    _timed(asyncserver, "parse_request_line", "asyncserver.parse")
    original_replier = front._replier

    def replier(self, writer):
        reply = original_replier(self, _CountingWriter(writer))

        def timed_reply(response):
            REC.enter("asyncserver.reply")
            try:
                reply(response)
            finally:
                REC.exit()
        return timed_reply
    front._replier = replier

    # admission and settle
    service = server.SynthesisService
    _timed(service, "__init__", "server.boot")
    _timed(service, "submit", "server.submit")
    _timed(service, "handle", "server.handle")
    _timed(service, "_finish_exact", "server.settle")
    _timed(service, "_settle_prepare", "server.settle")

    original_shutdown = service.shutdown

    def shutdown(self, *args, **kwargs):
        REC.enter("server.shutdown")
        try:
            return original_shutdown(self, *args, **kwargs)
        finally:
            REC.exit()
    service.shutdown = shutdown

    # cache and signatures
    _timed(RequestCache, "get", "cache.get",
           after=lambda result, args: REC.count(
               "cache.hits" if result is not None else "cache.misses"))
    _timed(RequestCache, "put", "cache.put")
    _timed(RequestCache, "near", "cache.near")
    _timed(server, "entanglement_signature", "pdb.signature")
    _timed(pool, "entanglement_signature", "pdb.signature")
    _timed(verify, "prepares_state", "sim.verify")

    # scheduler, portfolio, workflow
    _timed(RequestScheduler, "run_turn", "scheduler.turn")
    original_pick = RequestScheduler._pick

    def pick(self):
        session = original_pick(self)
        if session is not None and session.turns == 0:
            REC.sample("scheduler.queue_wait",
                       time.perf_counter() - session.start)
        return session
    RequestScheduler._pick = pick
    original_round = LaneScheduler.run_round

    def run_round(self):
        # a round inside a scheduler turn is that turn's lane work; the
        # fast tier also drives rounds inline, outside any turn
        in_turn = bool(REC.stack) and REC.stack[-1][0] == "scheduler.turn"
        REC.enter("portfolio.round" if in_turn else "portfolio.inline_round")
        try:
            return original_round(self)
        finally:
            REC.exit()
    LaneScheduler.run_round = run_round

    def lanes_finished(outcome, args):
        lanes = args[0].lanes
        total = sum(lane.run.stats.nodes_expanded for lane in lanes)
        useful = sum(lane.run.stats.nodes_expanded for lane in lanes
                     if lane.spec.name == outcome.winner)
        REC.count("portfolio.expansions", total)
        REC.count("portfolio.useful_expansions", useful)
    _timed(LaneScheduler, "finish", "portfolio.finish", after=lanes_finished)
    _timed(WorkflowLanes, "run_round", "workflow.round")
    _timed(WorkflowLanes, "finish", "workflow.finish",
           after=lambda outcome, args: REC.count(
               "workflow.core_reuse", args[0].run.core_reuse))

    original_step = StepwiseRun.step

    def step(self, *args, **kwargs):
        kind = "workflow" if isinstance(self, WorkflowRun) \
            else f"engine.{self.engine}"
        REC.enter(f"{kind}.step")
        try:
            return original_step(self, *args, **kwargs)
        finally:
            REC.exit()
            REC.count(f"{kind}.expansions", self.last_slice_expansions)
    StepwiseRun.step = step

    original_finalize = EngineRun._finalize

    def finalize(self):
        original_finalize(self)
        if getattr(self, "_bench_counted", False):
            return
        self._bench_counted = True
        stats = self.stats
        for phase, seconds in stats.phase_seconds.items():
            REC.count(f"phase.{phase}", seconds)
        REC.count("engine.canon_hits", stats.canon_cache_hits)
        REC.count("engine.canon_misses", stats.canon_cache_misses)
        REC.count("engine.store_hits",
                  stats.canon_store_hits + stats.h_store_hits)
        REC.count("engine.store_misses",
                  stats.canon_store_misses + stats.h_store_misses)
    EngineRun._finalize = finalize

    # persistence
    wal = persistence.MemoryWAL
    _timed(wal, "boot", "persistence.boot")
    _timed(wal, "record_learned", "persistence.record")
    _timed(wal, "compact", "persistence.compact")
    original_append = wal.append

    def append(self, delta):
        before = self.bytes_appended
        REC.enter("persistence.append")
        try:
            return original_append(self, delta)
        finally:
            REC.exit()
            REC.count("persistence.wal_appends")
            REC.count("persistence.wal_bytes", self.bytes_appended - before)
    wal.append = append
    _timed(persistence, "load_request_cache", "persistence.cache_load")
    _timed(persistence, "save_request_cache", "persistence.cache_save")

    # worker pool: routing, IPC, merges; pipe waits are idle
    worker_pool = pool.WorkerPool
    _timed(worker_pool, "__init__", "pool.boot")
    _timed(worker_pool, "_route", "pool.route")
    _timed(worker_pool, "_run_turn", "pool.turn")
    _timed(worker_pool, "_begin_cross_merge", "pool.merge")
    _timed(worker_pool, "_on_delta", "pool.merge")
    _timed(worker_pool, "shutdown", "pool.shutdown")
    _timed(pool, "merge_wal_delta", "pool.merge")
    _timed(pool, "memory_to_dict", "pool.merge")
    _timed(pool, "_connection_wait", "idle.wait")
    connection = multiprocessing.connection.Connection
    _timed(connection, "poll", "idle.poll")
    _timed(connection, "send", "pool.ipc")
    _timed(connection, "recv", "pool.ipc")
    original_worker_main = pool._pool_worker_main

    def worker_main(*args, **kwargs):
        # a forked worker starts its own ledger; the parent's open spans
        # and totals are not its own
        REC.reset()
        try:
            return original_worker_main(*args, **kwargs)
        finally:
            dump(ledger_dir)
    pool._pool_worker_main = worker_main

    gc.callbacks.append(_gc_callback)


def dump(ledger_dir: str) -> None:
    REC.close_window()
    path = os.path.join(ledger_dir, f"ledger-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(REC.to_dict(), handle)


def main(argv: list[str]) -> int:
    ledger_dir, serve_args = argv[0], argv[1:]
    install(ledger_dir)
    from repro.cli import main as cli_main
    REC.reset()
    try:
        return cli_main(serve_args)
    finally:
        dump(ledger_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
