"""The server process of the service workloads.

Usage (from the root of a checkout, with ``PYTHONPATH=src``)::

    python3 benchsuite/serve.py --store live|image|shards --data PATH \
        --cache-entries N [--trace]

``live`` builds an in-memory ``TripleStore`` from a JSON-lines triple
file; ``image`` opens a REPROIMG image (``MappedTripleStore.load``);
``shards`` mounts a shard directory written by ``shard_store`` as a
``ShardGroup``.  The store is registered as ``g`` in a TCP
``ReproServer`` on an ephemeral loopback port.

Protocol on the standard streams: once listening, the process prints
``READY <port>``.  It then reads commands from standard input, one per
line.  ``CALIBRATE`` makes it time the host-speed loop of
:mod:`benchsuite.hostspeed` and print ``CALIBRATION <ms>``; ``STOP``
(or end of input) makes it print ``REPORT <json>`` with
its peak RSS, summed over itself and its child processes (the shard
workers), and, with ``--trace``, the span totals of
:mod:`benchsuite.tracing`, and then shut down.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import tracing  # noqa: E402


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _children(pid: int) -> list:
    found = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
            found.extend(int(child) for child in handle.read().split())
    return found


def peak_rss_kb() -> int:
    """Peak RSS of this process plus every live child process."""
    pid = os.getpid()
    return _vm_hwm_kb(pid) + sum(_vm_hwm_kb(child) for child in _children(pid))


def _stores(kind: str, data: str):
    if kind == "live":
        from repro.graphs.rdf import TripleStore

        store = TripleStore()
        with open(data, encoding="utf-8") as handle:
            for line in handle:
                s, p, o = json.loads(line)
                store.add(s, p, o)
        return {"g": store}
    # a path: ServiceCore opens an image memory-mapped and mounts a
    # shard directory as a ShardGroup
    return {"g": data}


async def _serve(args, recorder) -> None:
    from repro.graphs.engine import plan_cache_info
    from repro.service import ReproServer, ServiceConfig

    config = ServiceConfig(cache_entries=args.cache_entries)
    server = await ReproServer(_stores(args.store, args.data), config).start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    pending = bytearray()

    # read commands on the event loop, not in a thread blocked inside
    # sys.stdin: the shard workers are forked, and a fork while another
    # thread holds the stdin buffer lock leaves the child deadlocked
    # when multiprocessing closes stdin in it
    def on_input() -> None:
        chunk = os.read(sys.stdin.fileno(), 4096)
        pending.extend(chunk)
        stopping = not chunk
        while b"\n" in pending:
            line, _, rest = bytes(pending).partition(b"\n")
            pending[:] = rest
            if line == b"CALIBRATE":
                # on the event loop: no request is in flight meanwhile
                print(f"CALIBRATION {hostspeed.calibration_ms()}", flush=True)
            elif line == b"STOP":
                stopping = True
        if stopping:
            loop.remove_reader(sys.stdin.fileno())
            stop.set()

    loop.add_reader(sys.stdin.fileno(), on_input)
    print(f"READY {server.address[1]}", flush=True)
    try:
        await stop.wait()
        report = {"peak_rss_kb": peak_rss_kb(), "plan_cache": plan_cache_info()}
        if recorder is not None:
            report["trace"] = recorder.snapshot()
        print("REPORT " + json.dumps(report), flush=True)
    finally:
        await server.stop()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", choices=("live", "image", "shards"), required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--cache-entries", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install_server(recorder)
    asyncio.run(_serve(args, recorder))


if __name__ == "__main__":
    main()
