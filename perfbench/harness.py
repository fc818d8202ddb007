"""Server processes, the load-generating client, and the host block."""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import platform
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

from gen import request_line, wire

HOST = "127.0.0.1"
#: every server runs with this hash seed, so node counts and costs
#: repeat across processes
HASH_SEED = "0"
#: one fixed node budget for every workload and the catalog build: the
#: cache snapshot is pinned to the budget regime, and budget-bound rows
#: then depend on the input alone, not on the wall clock
MAX_NODES = "20000"
BOOT_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 20.0
#: a closed loop stops sending after this many times its nominal
#: length (plus a constant), so a wedged server cannot hold the run
SEND_CAP_FACTOR = 3.0
SEND_CAP_EXTRA_S = 30.0
STREAM_LIMIT = 1 << 24


def build_dir(root: Path) -> Path:
    return root / ".bench_build"


def server_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_NO_FASTCORE", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    env["REPRO_FASTCORE_CACHE"] = str(build_dir(root) / "fastcore")
    return env


def fastcore_status(root: Path) -> dict:
    """Build (first time) and load ``_fastcore`` the way servers will."""
    probe = ("import json; from repro.core import fastcore as f; "
             "print(json.dumps({'active': f.active is not None, "
             "'error': f.build_error}))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=root,
                          env=server_env(root), capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        return {"active": False, "error": proc.stderr.strip()[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".py", ".c", ".h") and path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_block(root: Path, fastcore: dict) -> dict:
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "git_sha": sha,
            "source_sha256": source_digest(root),
            "fastcore": bool(fastcore.get("active")),
            "pythonhashseed": HASH_SEED}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


# ----------------------------------------------------------------------
# /proc readings of a server process tree
# ----------------------------------------------------------------------

def _children(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(tok) for tok in text.split()]


def process_tree(pid: int) -> list[int]:
    pids, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        pids.append(current)
        frontier.extend(_children(current))
    return pids


def vm_hwm_mb(pids: list[int]) -> float:
    total_kb = 0
    for pid in pids:
        with contextlib.suppress(OSError):
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def cpu_seconds(pids: list[int]) -> float:
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        with contextlib.suppress(OSError, IndexError, ValueError):
            fields = Path(f"/proc/{pid}/stat").read_text() \
                .rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
    return total / ticks


# ----------------------------------------------------------------------
# one server process
# ----------------------------------------------------------------------

class Server:
    """A ``serve --listen`` subprocess (plain or through the launcher)."""

    def __init__(self, root: Path, run_dir: Path, serve_args: list[str],
                 traced: bool = False) -> None:
        self.root = root
        self.port = free_port()
        args = ["serve", "--listen", f"{HOST}:{self.port}",
                "--max-nodes", MAX_NODES, *serve_args]
        if traced:
            self.ledger_dir = run_dir / "ledgers"
            self.ledger_dir.mkdir(parents=True, exist_ok=True)
            self.argv = [sys.executable,
                         str(Path(__file__).with_name("launcher.py")),
                         str(self.ledger_dir), *args]
        else:
            self.ledger_dir = None
            self.argv = [sys.executable, "-m", "repro.cli", *args]
        self.proc: subprocess.Popen | None = None
        self.log_path = run_dir / f"server-{self.port}.log"

    def start(self) -> float:
        """Spawn and wait for the first answered request; returns setup_s."""
        log = open(self.log_path, "wb")
        started = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                self.argv, cwd=self.root, env=server_env(self.root),
                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        finally:
            log.close()
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited during boot ({self.proc.returncode}); "
                    f"log: {self.log_path}")
            if time.perf_counter() - started > BOOT_TIMEOUT_S:
                raise RuntimeError("server boot timed out")
            try:
                with socket.create_connection((HOST, self.port),
                                              timeout=BOOT_TIMEOUT_S) as sock:
                    sock.sendall(b'{"id": "boot", "op": "stats"}\n')
                    reply = sock.makefile("rb").readline()
            except OSError:
                time.sleep(0.005)
                continue
            if reply:
                return time.perf_counter() - started

    def control(self, request: dict) -> dict:
        with socket.create_connection((HOST, self.port),
                                      timeout=SHUTDOWN_TIMEOUT_S) as sock:
            sock.sendall((json.dumps(request) + "\n").encode())
            return json.loads(sock.makefile("rb").readline())

    def pids(self) -> list[int]:
        return process_tree(self.proc.pid)

    def stop(self) -> int | None:
        """Graceful shutdown; kill if it does not exit in time."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            with contextlib.suppress(OSError, ValueError):
                self.control({"op": "shutdown"})
            try:
                self.proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            pids = self.pids()
            for pid in pids:
                with contextlib.suppress(OSError):
                    os.kill(pid, 9)
            self.proc.wait()


# ----------------------------------------------------------------------
# the client: one process, at most ``connections`` sockets
# ----------------------------------------------------------------------

class Record:
    __slots__ = ("request", "due", "answered", "response")

    def __init__(self, request: dict, due: float) -> None:
        self.request = request
        self.due = due
        self.answered: float | None = None
        self.response: dict | None = None


class Client:
    def __init__(self, port: int, connections: int) -> None:
        self.port = port
        self.connections = connections
        self.pending: dict = {}
        self.records: list[Record] = []
        self.lateness: list[float] = []
        self.stray = 0

    async def _reader(self, reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            response = json.loads(line)
            entry = self.pending.pop(response.get("id"), None)
            if entry is None:
                self.stray += 1
                continue
            record, future = entry
            record.answered = time.perf_counter()
            record.response = response
            if not future.done():
                future.set_result(None)

    async def _open(self):
        streams = [await asyncio.open_connection(HOST, self.port,
                                                 limit=STREAM_LIMIT)
                   for _ in range(self.connections)]
        readers = [asyncio.ensure_future(self._reader(r)) for r, _ in streams]
        return streams, readers

    def _send(self, writer, record: Record):
        future = asyncio.get_running_loop().create_future()
        self.pending[record.request["id"]] = (record, future)
        writer.write((request_line(record.request) + "\n").encode())
        self.records.append(record)
        return future

    async def _close(self, streams, readers) -> None:
        for _, writer in streams:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        for task in readers:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task

    async def closed_loop(self, stream, requests: int, seconds: float,
                          timeout_s: float) -> float:
        """Each connection keeps one request in flight until ``requests``
        have been sent; returns the window (first send to last answer)."""
        streams, readers = await self._open()
        start = time.perf_counter()
        hard_end = start + SEND_CAP_FACTOR * seconds + SEND_CAP_EXTRA_S
        sent = 0

        async def connection(writer):
            nonlocal sent
            while sent < requests:
                now = time.perf_counter()
                if now >= hard_end:
                    return
                request = next(stream)
                sent += 1
                record = Record(request, now)
                future = self._send(writer, record)
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        asyncio.shield(future),
                        min(timeout_s, max(0.0, hard_end - now)))
                await writer.drain()

        try:
            await asyncio.gather(*(connection(w) for _, w in streams))
            window = time.perf_counter() - start
            answered = [r.answered for r in self.records if r.answered]
            if answered:
                window = max(answered) - start
        finally:
            await self._close(streams, readers)
        return window

    async def open_loop(self, schedule, timeout_s: float) -> float:
        """Send each request when due; wait for stragglers up to the
        timeout; returns the window (first due to last answer)."""
        streams, readers = await self._open()
        start = time.perf_counter()
        futures = []
        try:
            for i, (due_s, request) in enumerate(schedule):
                due = start + due_s
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.lateness.append(max(0.0, time.perf_counter() - due))
                writer = streams[i % len(streams)][1]
                futures.append(self._send(writer, Record(request, due)))
            last_due = start + (schedule[-1][0] if schedule else 0.0)
            remaining = last_due + timeout_s - time.perf_counter()
            if futures and remaining > 0:
                await asyncio.wait(futures, timeout=remaining)
            answered = [r.answered for r in self.records if r.answered]
            window = (max(answered) if answered else time.perf_counter()) \
                - start
        finally:
            await self._close(streams, readers)
        return window


def run_client(plan: dict, port: int, seconds: float,
               timeout_s: float) -> tuple[Client, float]:
    client = Client(port, plan["connections"])
    if plan["loop"] == "closed":
        coro = client.closed_loop(plan["stream"], plan["requests"], seconds,
                                  timeout_s)
    else:
        coro = client.open_loop(plan["schedule"], timeout_s)
    window = asyncio.run(coro)
    return client, window


# ----------------------------------------------------------------------
# the hot-mix catalog: built once per checkout, copied per boot
# ----------------------------------------------------------------------

def catalog_files(root: Path, members: list[dict], check) -> Path:
    """Directory holding ``wal``, ``wal.snapshot`` and ``cache.json`` of a
    server that answered every catalog member (built on first use)."""
    key = hashlib.sha256((source_digest(root) + MAX_NODES + json.dumps(
        [wire(m) for m in members], sort_keys=True)).encode()).hexdigest()
    target = build_dir(root) / f"catalog-{key[:16]}"
    if (target / "cache.json").is_file():
        return target
    staging = build_dir(root) / f"catalog-staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    server = Server(root, staging, ["--wal", str(staging / "wal"),
                                    "--cache-snapshot",
                                    str(staging / "cache.json")])
    try:
        server.start()
        with socket.create_connection((HOST, server.port)) as sock:
            handle = sock.makefile("rb")
            for member in members:
                sock.sendall((request_line(member) + "\n").encode())
                response = json.loads(handle.readline())
                problem = check(member, response) if response.get("ok") \
                    else response.get("error", "not ok")
                if problem:
                    raise RuntimeError(
                        f"catalog member {member['id']}: {problem}")
        if server.stop() != 0:
            raise RuntimeError("catalog server did not shut down cleanly")
    finally:
        server.kill()
    (staging / server.log_path.name).unlink(missing_ok=True)
    if target.exists():  # built meanwhile by another run
        shutil.rmtree(staging, ignore_errors=True)
    else:
        os.replace(staging, target)
    return target
