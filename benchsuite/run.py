"""The repository benchmark: one named workload per invocation.

    python3 benchsuite/run.py --workload serve-mix --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Workloads (``benchsuite/README.md``
gives the reason for each):

* ``serve-mix``           TCP server over a live in-memory store; a Zipf-
                          repeated mix of every compute op plus mutate
                          writes, nproc connections x 4 in flight.
* ``graph-eval``          TCP server over a ~100k-triple REPROIMG image;
                          all-distinct engine-bound requests, 1 in flight.
* ``graph-eval-sharded``  the same image split into 2 shards behind a
                          ShardGroup; multi-shard walk RPQs only, 1 in
                          flight.
* ``log-study``           ``run_study`` inline, one fresh interpreter per
                          session: a cold study, then a re-study against
                          the warm analysis cache.

Every run builds its inputs from ``--seed`` (cached under
``benchsuite/.work``), times whole request blocks for ``--seconds``,
checks its answers, reconciles the server's counters and prints, as the
last stdout line, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``; with ``--trace 1`` it
measures alternate quarters of the window untraced and through the
span-recording entry scripts, and prints the per-layer metrics.  A
failed check prints ``correct: false`` with no metrics and exits 1.
``--smoke`` shrinks every data set and stream, for the benchmark's own
tests.  The line before the result records the environment, including
a calibration loop timed at start and end that shows host drift.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("restudy_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

WORKLOADS = ("serve-mix", "graph-eval", "graph-eval-sharded", "log-study")

#: seconds after which a run stops itself (a run must end within 180 s)
WATCHDOG_S = 170


class CheckFailed(Exception):
    """A run whose answers, counters or workload properties are wrong."""

    def __init__(self, problems: List[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def require(problems: List[str]) -> None:
    if problems:
        raise CheckFailed(problems)


# -- environment ----------------------------------------------------------------


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_jiffies() -> List[int]:
    """``[steal, total]`` jiffies of all CPUs, from ``/proc/stat``
    (``[0, 0]`` where there is none)."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return [0, 0]
    return [fields[7] if len(fields) > 7 else 0, sum(fields)]


#: a run is flagged when the calibration loop's time at its end differs
#: from that at its start by more than this share, or when more than
#: this share of all CPU time was stolen by the hypervisor during it
DRIFT_FLAG = 0.2
STEAL_FLAG = 0.05


def host_start() -> Dict[str, Any]:
    return {
        "calibration_ms_start": hostspeed.calibration_ms(25),
        "jiffies_start": _cpu_jiffies(),
        "loadavg_start": list(os.getloadavg()),
    }


def host_end(env: Dict[str, Any]) -> None:
    """Adds the end readings and ``host_drift`` to ``env``."""
    env["calibration_ms_end"] = hostspeed.calibration_ms(25)
    env["loadavg_end"] = list(os.getloadavg())
    steal, total = (end - start for end, start in zip(_cpu_jiffies(), env.pop("jiffies_start")))
    env["steal_share"] = steal / total if total else 0.0
    moved = env["calibration_ms_end"] / env["calibration_ms_start"] - 1.0
    env["host_drift"] = abs(moved) > DRIFT_FLAG or env["steal_share"] > STEAL_FLAG
    if env["host_drift"]:
        print(f"benchsuite: host speed moved during the run (calibration loop {moved:+.0%}, "
              f"steal {env['steal_share']:.1%}); compare its figures with care", file=sys.stderr)


def environment(root: Path) -> Dict[str, Any]:
    return {
        "git_sha": _git_sha(root),
        "src_repro_sha256": _source_digest(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **host_start(),
    }


# -- statistics -----------------------------------------------------------------


def percentiles(samples: List[float]) -> Dict[str, float]:
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return {"p50": cuts[49], "p90": cuts[89], "p99": cuts[98]}


# -- service workloads ----------------------------------------------------------


#: name -> (store kind, connections (0: one per CPU), requests in flight
#: per connection, answers sampled per block for the library check;
#: the sharded workload checks every answer by replay instead)
SERVICE = {
    "serve-mix": ("live", 0, 4, 6),
    "graph-eval": ("image", 1, 1, 4),
    "graph-eval-sharded": ("shards", 1, 1, 0),
}

#: seconds a sub-window lasts at least (it holds whole blocks): the
#: measured window's, and the shorter re-serve phase's
SUBWINDOW_S = 1.0
RESERVE_SUBWINDOW_S = 0.5


class Window:
    """Client-side record of one server's measured blocks.

    The window is cut into sub-windows of whole blocks lasting at least
    ``subwindow_s`` each.  The host-speed calibration runs before the
    first and after each, while the server is idle.  Throughput and each
    latency percentile are taken per sub-window, scaled by the mean of
    the two calibrations around it (:mod:`hostspeed`), and reported as
    the median over sub-windows."""

    def __init__(self, seed: int, samples_per_block: int, keep_all: bool, subwindow_s: float = SUBWINDOW_S):
        self.latencies: List[float] = []
        self.replies: List = []  # (index, message, result) kept for the checks
        self.requests = 0
        self.blocks = 0
        #: (requests, seconds, latencies, calibration ms) per sub-window
        self.subwindows: List = []
        self._rng = random.Random(seed)
        self._samples = samples_per_block
        self._keep_all = keep_all
        self._subwindow_s = subwindow_s

    async def measure(self, session, blocks, in_flight: int, seconds: float, calibrate) -> None:
        """Whole blocks, in order, until ``seconds`` have passed;
        ``calibrate()`` times the host-speed loop.  It blocks the event
        loop, and runs only between blocks, when no request is in flight."""
        speed_before = calibrate()
        started = sub_started = time.perf_counter()
        sub_first = 0
        for block in blocks:
            chosen = set(self._rng.sample(range(len(block)), min(self._samples, len(block))))

            def on_reply(index, message, reply, elapsed):
                self.latencies.append(elapsed)
                if reply.get("ok") and (self._keep_all or index in chosen):
                    self.replies.append((index, message, reply["result"]))

            before = len(self.replies)
            await session.run_block(block, in_flight, on_reply)
            if self._keep_all:  # replies in block order, for the replay
                self.replies[before:] = sorted(self.replies[before:], key=lambda r: r[0])
            self.requests += len(block)
            self.blocks += 1
            now = time.perf_counter()
            last = now - started >= seconds
            # a window shorter than one sub-window is one sub-window
            if now - sub_started >= self._subwindow_s or (last and not self.subwindows):
                latencies = self.latencies[sub_first:]
                speed_after = calibrate()
                self.subwindows.append(
                    (len(latencies), now - sub_started, latencies, (speed_before + speed_after) / 2)
                )
                speed_before = speed_after
                sub_started, sub_first = time.perf_counter(), len(self.latencies)
            if last:
                break

    @property
    def samples(self):
        return [(message, result) for _, message, result in self.replies]

    def throughput(self, scaled: bool = True) -> float:
        """Requests per second, the median over sub-windows."""
        return statistics.median(
            n / (hostspeed.scaled_s(seconds, calibration) if scaled else seconds)
            for n, seconds, _, calibration in self.subwindows
        )

    def latency_ms(self, name: str, scaled: bool = True) -> float:
        """One percentile (``p50``, ``p90``) in ms, the median over sub-windows."""
        return statistics.median(
            (hostspeed.scaled_s(percentiles(lat)[name], calibration) if scaled else percentiles(lat)[name])
            for _, _, lat, calibration in self.subwindows
        ) * 1e3

    def calibration_ms(self) -> List[float]:
        return [calibration for _, _, _, calibration in self.subwindows]


def _calibrate(server) -> float:
    """The host-speed loop's time in the server, then in this client
    (one after the other, so that neither slows the other down): the
    mean of the two, for work that both processes do."""
    return (server.calibration_ms() + hostspeed.calibration_ms()) / 2


async def _serve_window(server, session, blocks, in_flight, samples, seconds, seed, keep_all, restudy_s):
    """Warm-up block, measured window and, with ``restudy_s``, the
    re-serve phase, over an open session.  Returns ``(window, stats,
    rerun)``; ``stats`` is read right after the window, ``rerun`` is the
    re-serve phase's :class:`Window`."""
    import checks

    await session.run_block(blocks[0], in_flight)
    window = Window(seed, samples, keep_all)
    await window.measure(session, blocks[1:], in_flight, seconds, lambda: _calibrate(server))
    if window.blocks == len(blocks) - 1:
        print(f"benchsuite: all {window.blocks} blocks served before {seconds} s passed; "
              f"generate more (datagen.Scale)", file=sys.stderr)
    stats = await session.stats()
    require(checks.reconcile(stats, _uncounted_stats(session.sent)))
    rerun = None
    if restudy_s:
        # re-serve: the compute requests of the first measured block,
        # which every run reaches, again and again.  An untimed first
        # pass caches every answer, so the timed passes time the
        # cache-hit path.  Writes are left out: each would hand the GIL
        # to a worker thread mid-stream.  At least 4 in flight per
        # connection, so the rate is the server's and not the loopback
        # round trip's
        reads = [m for m in blocks[1] if m["op"] != "mutate"]
        await session.run_block(reads, max(4, in_flight))
        rerun = Window(seed, 0, False, RESERVE_SUBWINDOW_S)
        await rerun.measure(session, [reads] * 100000, max(4, in_flight), restudy_s, lambda: _calibrate(server))
        require(checks.reconcile(await session.stats(), _uncounted_stats(session.sent)))
    return window, stats, rerun


def _uncounted_stats(sent: Dict[str, int]) -> Dict[str, int]:
    """The client's counts as the server saw them when it answered the
    last ``stats`` call: that call itself is not yet counted."""
    out = dict(sent)
    out["stats"] -= 1
    if not out["stats"]:
        del out["stats"]
    return out


def _request_bytes(messages) -> int:
    """Frame bytes of ``messages`` as the client encodes them (ids as
    the client numbers them)."""
    from repro.service.protocol import encode_frame

    return sum(len(encode_frame({**m, "id": f"c{i + 1}"})) for i, m in enumerate(messages))


async def run_service(name: str, args, scale, registry) -> Dict[str, Any]:
    import checks
    import datagen
    from client import Server, Session

    store_kind, connections, in_flight, samples = SERVICE[name]
    connections = connections or len(os.sched_getaffinity(0))
    if name == "serve-mix":
        data = datagen.mix_dataset(ROOT, scale) / "triples.jsonl"
        probe, blocks = datagen.mix_stream(args.seed, scale, scale.mix_blocks)
        cache_entries = scale.mix_cache_entries
    elif name == "graph-eval":
        data = datagen.graph_dataset(ROOT, scale) / "graph.img"
        probe, blocks = datagen.graph_stream(args.seed, scale, scale.graph_blocks)
        cache_entries = datagen.GRAPH_CACHE_ENTRIES
    else:
        data = datagen.graph_dataset(ROOT, scale) / "shards"
        probe, blocks = datagen.sharded_stream(args.seed, scale, scale.shard_blocks)
        cache_entries = datagen.GRAPH_CACHE_ENTRIES
    keep_all = name == "graph-eval-sharded"
    result: Dict[str, Any] = {"info": {}}

    async def launch(trace: bool):
        """A server that has answered the probe, its open session, the
        set-up time (launch to the probe's reply) and the host-speed
        loop's time in the server right after."""
        server = Server.launch(ROOT, store_kind, data, cache_entries, trace)
        registry.append(server)
        session = await Session.open(server.port, connections)
        reply, _ = await session.call(session.clients[0], probe)
        if not reply.get("ok"):
            raise CheckFailed([f"probe failed: {reply.get('error')}"])
        setup = time.perf_counter() - server.launched
        return server, session, setup, server.calibration_ms()

    async def serve(trace: bool, seconds: float, restudy_s: float):
        server, session, _, _ = await launch(trace)
        window, stats, rerun = await _serve_window(
            server, session, blocks, in_flight, samples, seconds, args.seed, keep_all, restudy_s
        )
        await session.close()
        return window, stats, session, server.stop(), rerun

    windows = []
    if not args.trace:
        setups = []
        for _ in range(scale.launches):
            server, session, setup, calibration = await launch(False)
            setups.append((setup, calibration))
            await session.close()
            server.stop()
        window, stats, session, report, rerun = await serve(False, args.seconds, max(1.0, args.seconds / 2))
        windows.append((window, stats, session))
        # the first launch compiles bytecode; it is never counted
        result["metrics"] = {
            "setup_s": statistics.median(hostspeed.scaled_s(s, c) for s, c in setups[1:]),
            "throughput_rps": window.throughput(),
            "restudy_rps": rerun.throughput(),
            "latency_p50_ms": window.latency_ms("p50"),
            "latency_p90_ms": window.latency_ms("p90"),
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        }
        result["info"].update(
            unscaled={
                "setup_s": statistics.median(s for s, _ in setups[1:]),
                "throughput_rps": window.throughput(scaled=False),
                "restudy_rps": rerun.throughput(scaled=False),
                "latency_p50_ms": window.latency_ms("p50", scaled=False),
                "latency_p90_ms": window.latency_ms("p90", scaled=False),
            },
            calibration_ms=window.calibration_ms(),
            latency_p99_ms=percentiles(window.latencies)["p99"] * 1e3, samples=len(window.latencies),
            subwindows=len(window.subwindows), blocks=window.blocks, setup_launches_s=setups,
        )
    else:
        import layers
        from repro.service.protocol import StatsRequest

        # untraced and traced servers in the order A B B A (B A A B on
        # odd seeds), a quarter of the window each, so that host drift
        # during the run cancels out of the paired ratios
        order = (False, True, True, False) if args.seed % 2 == 0 else (True, False, False, True)
        rates = {False: [], True: []}
        traced = None
        for trace in order:
            window, stats, session, report, _ = await serve(trace, args.seconds / 4, 0)
            windows.append((window, stats, session))
            rates[trace].append(window.throughput())
            if trace and traced is None:
                traced = (window, stats, session, report)
        window, stats, session, report = traced
        sent = [probe] + [m for block in blocks[: window.blocks + 1] for m in block]
        sent.append(StatsRequest().to_wire())
        overhead = 1.0 - statistics.median(t / u for t, u in zip(rates[True], rates[False]))
        result["metrics"] = layers.service_layers(
            report["trace"], report["plan_cache"], stats, _request_bytes(sent),
            sum(session.sent.values()), session.busy_s, overhead,
        )
        result["info"].update(untraced_rps=rates[False], traced_rps=rates[True])

    # -- checks, outside every timed window ---------------------------------
    for window, stats, session in windows:
        if session.failed:
            raise CheckFailed([f"{session.failed} requests failed: {session.errors}"])
        if name == "serve-mix":
            require(checks.serve_mix_properties(stats))
        elif name == "graph-eval":
            require(checks.graph_eval_properties(stats))
        else:
            sent = [m for block in blocks[: window.blocks + 1] for m in block]
            require(checks.sharded_properties(stats, checks.multi_shard_share(sent)))
    result["attempted"] = sum(w.requests for w, _, _ in windows)
    result["failed"] = sum(s.failed for _, _, s in windows)
    if name == "graph-eval-sharded":
        await _replay_unsharded(windows, data.parent / "graph.img", registry)
    else:
        store = _reference_store(name, data)
        for window, _, _ in windows:
            require(checks.check_answers(window.samples, store))
    return result


def _reference_store(name: str, data: Path):
    if name == "serve-mix":
        from repro.graphs.rdf import TripleStore

        store = TripleStore()
        with open(data, encoding="utf-8") as handle:
            for line in handle:
                store.add(*json.loads(line))
        return store
    from repro.store.mmapstore import MappedTripleStore

    return MappedTripleStore.load(data)


async def _replay_unsharded(windows, image: Path, registry) -> None:
    """Every measured sharded request again, against an unsharded
    server over the same image: the results must be byte-identical."""
    import checks
    from client import Server, Session

    server = Server.launch(ROOT, "image", image, 0, False)
    registry.append(server)
    session = await Session.open(server.port, 1)
    try:
        for window, _, _ in windows:
            replies = window.samples
            reference: List = [None] * len(replies)

            def on_reply(index, message, reply, elapsed):
                reference[index] = (message, reply.get("result"))

            await session.run_block([m for m, _ in replies], 4, on_reply)
            require(checks.check_identical(replies, reference))
    finally:
        await session.close()
        server.stop()


# -- log-study ------------------------------------------------------------------


def run_log_study(args, scale) -> Dict[str, Any]:
    """Sessions in fresh interpreters until ``--seconds`` have passed
    (at least three counted); the first session only warms the
    bytecode cache and is discarded.  With ``--trace 1`` counted
    sessions alternate untraced and traced.  Every metric is the median
    over sessions."""
    import checks
    import datagen
    from client import child_env

    data = datagen.log_dataset(ROOT, args.seed, scale)
    expected = json.loads((data / "expected.json").read_text())
    work = datagen.WORK / f"run-{os.getpid()}"
    sessions: List[Dict[str, Any]] = []
    started = time.perf_counter()
    try:
        index = 0
        while index < 4 or time.perf_counter() - started < args.seconds:
            traced = bool(args.trace) and index % 2 == 0
            cache = work / "cache"
            shutil.rmtree(cache, ignore_errors=True)
            cache.mkdir(parents=True)
            out = work / "session.json"
            command = [
                sys.executable, str(HERE / "study.py"), "--cold", str(data / "cold.txt"),
                "--restudy", str(data / "restudy.txt"), "--cache", str(cache), "--out", str(out),
            ]
            if traced:
                command.append("--trace")
            launched = time.monotonic()
            subprocess.run(command, cwd=ROOT, env=child_env(ROOT), check=True, timeout=120)
            session = json.loads(out.read_text())
            session["setup_s"] = session["set_up"] - launched
            session["traced"] = traced
            require(checks.study_properties(session, expected))
            if index:
                sessions.append(session)
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # reference: a cache-less study of the re-study log
    from repro.logs.analyzer import encode_report
    from repro.logs.pipeline import run_study

    reference = checks.normalized_report(encode_report(run_study("restudy", data / "restudy.txt", workers=1)))
    for session in sessions:
        if checks.normalized_report(session["restudy_report"]) != reference:
            raise CheckFailed(["re-study report differs from a cache-less study of the same log"])

    # each session times the host-speed loop before the cold study,
    # between the studies and after the re-study: set-up is scaled by
    # the first, each study by the mean of the two around it
    def cold_scaled(s, seconds):
        return hostspeed.scaled_s(seconds, statistics.mean(s["calibration_ms"][:2]))

    def restudy_scaled(s, seconds):
        return hostspeed.scaled_s(seconds, statistics.mean(s["calibration_ms"][1:]))

    def rates(group, entries_key, seconds_key, scaled=True):
        scale = (cold_scaled if seconds_key == "cold_s" else restudy_scaled) if scaled else (lambda s, x: x)
        return [expected[entries_key] / scale(s, s[seconds_key]) for s in group]

    def median_ms(group, key, scaled=True):
        """The median over sessions of one per-text percentile, in ms."""
        scale = cold_scaled if scaled else (lambda s, x: x)
        return statistics.median(scale(s, percentiles(s["cold_text_s"])[key]) * 1e3 for s in group)

    result: Dict[str, Any] = {"attempted": 2 * len(sessions), "failed": 0}
    if not args.trace:
        # percentiles per session, over the cold study's texts, each
        # timed from its parse to the end of its analysis
        result["metrics"] = {
            "setup_s": statistics.median(hostspeed.scaled_s(s["setup_s"], s["calibration_ms"][0]) for s in sessions),
            "throughput_rps": statistics.median(rates(sessions, "cold_entries", "cold_s")),
            "restudy_rps": statistics.median(rates(sessions, "restudy_entries", "restudy_s")),
            "latency_p50_ms": median_ms(sessions, "p50"),
            "latency_p90_ms": median_ms(sessions, "p90"),
            "peak_rss_mb": statistics.median(s["peak_rss_kb"] for s in sessions) / 1024.0,
        }
        result["info"] = {
            "unscaled": {
                "setup_s": statistics.median(s["setup_s"] for s in sessions),
                "throughput_rps": statistics.median(rates(sessions, "cold_entries", "cold_s", scaled=False)),
                "restudy_rps": statistics.median(rates(sessions, "restudy_entries", "restudy_s", scaled=False)),
                "latency_p50_ms": median_ms(sessions, "p50", scaled=False),
                "latency_p90_ms": median_ms(sessions, "p90", scaled=False),
            },
            "calibration_ms": [s["calibration_ms"] for s in sessions],
            "sessions": len(sessions), "texts_per_session": len(sessions[0]["cold_text_s"]),
            "latency_p99_ms": median_ms(sessions, "p99"),
            "cold_study_ms": [s["cold_s"] * 1e3 for s in sessions],
        }
    else:
        import layers

        # counted sessions alternate untraced, traced: each traced one
        # is paired with the untraced one before it
        traced = [s for s in sessions if s["traced"]]
        plain = [s for s in sessions if not s["traced"]]
        paired = [
            t / u for t, u in zip(rates(traced, "cold_entries", "cold_s"), rates(plain, "cold_entries", "cold_s"))
        ]
        result["metrics"] = layers.study_layers(traced, 1.0 - statistics.median(paired))
        result["info"] = {"sessions": len(sessions)}
    return result


# -- entry point ----------------------------------------------------------------


def _units(trace: bool) -> Dict[str, str]:
    if trace:
        import layers

        return dict(layers.PER_LAYER)
    return dict(END_TO_END)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink every data set and stream")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchsuite: no program source at {ROOT / 'src' / 'repro'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import client
    import datagen

    env = environment(ROOT)
    scale = datagen.SMOKE if args.smoke else datagen.FULL
    registry: List = []

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    # a terminated run still stops its servers (the ``finally`` below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    signal.alarm(WATCHDOG_S)
    try:
        if args.workload == "log-study":
            result = run_log_study(args, scale)
        else:
            result = asyncio.run(run_service(args.workload, args, scale, registry))
    except CheckFailed as failure:
        for problem in failure.problems:
            print(f"benchsuite: check failed: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        signal.alarm(0)
        for server in registry:
            server.kill()
    host_end(env)
    hung = sum(server.hung_at_exit for server in registry)
    if hung:
        env["servers_hung_at_exit"] = hung
        print(f"benchsuite: {hung} server(s) did not exit within {client.EXIT_TIMEOUT:.0f} s of "
              f"their report and were killed", file=sys.stderr)
    print(json.dumps({"environment": env, "info": result.get("info", {})}))
    units = _units(bool(args.trace))
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": True, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fix the hash seed of the client too, so every set it iterates
        # (and so every generated input) repeats run to run
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
