"""The client side of the service workloads: server processes and load.

One client process (the benchmark's) launches ``serve.py`` processes,
connects ``repro.service.client.ServiceClient`` connections and drives
a closed loop: every connection keeps a fixed number of requests in
flight and sends the next one only when a reply has come back.
Latency is client-observed, from send to reply.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent

#: seconds a server may take to print READY, or its REPORT
LAUNCH_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
#: seconds a server may take to exit after its REPORT before it is killed
EXIT_TIMEOUT = 10.0


def child_env(root: Path) -> Dict[str, str]:
    """Environment of every child process: the checkout's ``src`` on the
    path and a fixed hash seed, so set iteration orders repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _read_line(proc: subprocess.Popen, prefix: str, timeout: float) -> str:
    """The first stdout line of ``proc`` starting with ``prefix``."""
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"server printed no {prefix!r} line within {timeout:.0f} s")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            continue
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited (code {proc.wait()}) before printing {prefix!r}")
        if line.startswith(prefix):
            return line[len(prefix):].strip()


@dataclass
class Server:
    """One ``serve.py`` process."""

    proc: subprocess.Popen
    port: int
    launched: float
    #: the process did not exit within EXIT_TIMEOUT of its REPORT
    hung_at_exit: bool = False

    @classmethod
    def launch(cls, root: Path, store: str, data: Path, cache_entries: int, trace: bool) -> "Server":
        command = [
            sys.executable, str(HERE / "serve.py"), "--store", store, "--data", str(data),
            "--cache-entries", str(cache_entries),
        ]
        if trace:
            command.append("--trace")
        launched = time.perf_counter()
        # a session of its own, so kill() also reaches the shard workers
        proc = subprocess.Popen(
            command, cwd=root, env=child_env(root), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        server = cls(proc, 0, launched)
        try:
            server.port = int(_read_line(proc, "READY ", LAUNCH_TIMEOUT))
        except BaseException:
            server.kill()
            raise
        return server

    def calibration_ms(self) -> float:
        """The host-speed loop's time (:mod:`hostspeed`), run in the
        server process while it is idle."""
        self.proc.stdin.write("CALIBRATE\n")
        self.proc.stdin.flush()
        return float(_read_line(self.proc, "CALIBRATION ", STOP_TIMEOUT))

    def stop(self) -> Dict[str, Any]:
        """Ask for the report, then wait for the process to end; one
        that does not end in time is killed and marked ``hung_at_exit``
        (every request it got was answered, so the run goes on)."""
        try:
            self.proc.stdin.write("STOP\n")
            self.proc.stdin.flush()
            report = json.loads(_read_line(self.proc, "REPORT ", STOP_TIMEOUT))
            try:
                self.proc.wait(timeout=EXIT_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.hung_at_exit = True
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        """End the process and every process of its session."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


@dataclass
class Session:
    """Connections to one server, with everything observed through them."""

    clients: List[Any]
    sent: Dict[str, int] = field(default_factory=dict)
    #: client-observed seconds of every request, stats calls included
    busy_s: float = 0.0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    @classmethod
    async def open(cls, port: int, connections: int) -> "Session":
        from repro.service.client import connect

        return cls([await connect("127.0.0.1", port) for _ in range(connections)])

    async def call(self, client, message: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        """One request; returns ``(reply envelope, seconds)``."""
        started = time.perf_counter()
        reply = await client.request_message(message)
        elapsed = time.perf_counter() - started
        op = message["op"]
        self.sent[op] = self.sent.get(op, 0) + 1
        self.busy_s += elapsed
        if not reply.get("ok"):
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op}: {reply.get('error')}")
        return reply, elapsed

    async def stats(self) -> Dict[str, Any]:
        from repro.service.protocol import StatsRequest

        reply, _ = await self.call(self.clients[0], StatsRequest().to_wire())
        return reply["result"]

    async def run_block(
        self,
        block: List[Dict[str, Any]],
        in_flight: int,
        on_reply: Optional[Callable[[int, Dict[str, Any], Dict[str, Any], float], None]] = None,
    ) -> None:
        """Every request of ``block`` once, ``in_flight`` at a time per
        connection, each slot sending its next request when the last
        reply arrives."""
        items = iter(enumerate(block))

        async def slot(client) -> None:
            for index, message in items:
                reply, elapsed = await self.call(client, message)
                if on_reply is not None:
                    on_reply(index, message, reply, elapsed)

        await asyncio.gather(*(slot(c) for c in self.clients for _ in range(in_flight)))

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
