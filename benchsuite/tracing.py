"""Per-layer spans recorded from outside the program.

The benchmark's entry scripts (``serve.py``, ``study.py``) call
:func:`install` before they build anything.  It replaces public
functions of ``repro`` modules with timing wrappers, each patched where
its caller looks the name up (``repro.service.server.parse_query``, not
``repro.sparql.parser.parse_query``), and leaves ``src/repro`` itself
untouched.  Without ``install`` nothing is patched, which is how the
untraced runs measure the end-to-end metrics.

A span records a count, its total duration and its self time (total
minus the direct child spans that ran in the same thread or asyncio
task).  The parent is carried in a context variable; jobs handed to the
scheduler's worker threads start without one, so engine spans there are
roots.  A span nested in a span of the same name is folded into it
(``compile_schema`` calls ``TreeAutomaton.from_edtd``; ``Evaluator``
recurses).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_now = time.perf_counter_ns


class _Frame:
    __slots__ = ("name", "child_ns")

    def __init__(self, name: str):
        self.name = name
        self.child_ns = 0


_current: contextvars.ContextVar[Optional[_Frame]] = contextvars.ContextVar(
    "benchsuite_span", default=None
)


class Recorder:
    """Thread-safe span and counter totals of one process."""

    def __init__(self):
        self._lock = threading.Lock()
        #: name -> [count, total_ns, self_ns]
        self.spans: Dict[str, List[int]] = {}
        #: name -> [count, sum]
        self.values: Dict[str, List[float]] = {}

    def span(self, name: str, total_ns: int, child_ns: int) -> None:
        with self._lock:
            entry = self.spans.get(name)
            if entry is None:
                entry = self.spans[name] = [0, 0, 0]
            entry[0] += 1
            entry[1] += total_ns
            entry[2] += total_ns - child_ns

    def value(self, name: str, amount: float) -> None:
        with self._lock:
            entry = self.values.get(name)
            if entry is None:
                entry = self.values[name] = [0, 0]
            entry[0] += 1
            entry[1] += amount

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "values": {k: list(v) for k, v in self.values.items()},
            }


def _enter(name: str):
    parent = _current.get()
    if parent is not None and parent.name == name:
        return None, None, None
    frame = _Frame(name)
    return parent, frame, _current.set(frame)


def _leave(recorder: Recorder, parent, frame, token, started: int) -> None:
    elapsed = _now() - started
    _current.reset(token)
    if parent is not None:
        parent.child_ns += elapsed
    recorder.span(frame.name, elapsed, frame.child_ns)


def timed(recorder: Recorder, name: str, fn: Callable) -> Callable:
    """``fn`` wrapped in a span (coroutine functions stay coroutine
    functions, so the span covers the awaited work)."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            parent, frame, token = _enter(name)
            if frame is None:
                return await fn(*args, **kwargs)
            started = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                _leave(recorder, parent, frame, token, started)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent, frame, token = _enter(name)
        if frame is None:
            return fn(*args, **kwargs)
        started = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            _leave(recorder, parent, frame, token, started)

    return wrapper


def patch(owner: Any, attribute: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attribute`` with ``wrap(original)``, keeping a
    static or class method what it was."""
    raw = inspect.getattr_static(owner, attribute)
    if isinstance(raw, staticmethod):
        setattr(owner, attribute, staticmethod(wrap(raw.__func__)))
    elif isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(wrap(raw.__func__)))
    else:
        setattr(owner, attribute, wrap(raw))


def _span(recorder: Recorder, owner: Any, attribute: str, name: str) -> None:
    patch(owner, attribute, lambda fn: timed(recorder, name, fn))


def install_server(recorder: Recorder) -> None:
    """Spans around the layers a service request crosses."""
    from repro.graphs import engine
    from repro.service import protocol, resultcache, scheduler, server, shard
    from repro.sparql import evaluation
    from repro.store import mmapstore
    from repro.trees import automata

    _span(recorder, protocol.Request, "parse", "protocol.decode")
    _span(recorder, server.ServiceCore, "handle", "server.handle")
    _span(recorder, resultcache.ResultCache, "get", "resultcache.lookup")
    _span(recorder, server, "parse_regex", "regex.parse")
    _span(recorder, server, "ast_key", "engine.ast_key")
    _span(recorder, engine.CompiledRPQ, "evaluate", "engine.evaluate")
    _span(recorder, engine.CompiledRPQ, "search", "engine.search")
    _span(recorder, server, "parse_query", "sparql.parse")
    _span(recorder, evaluation.Evaluator, "evaluate", "sparql.evaluate")
    _span(recorder, server, "analyze_query_fused", "battery.analyze")
    _span(recorder, shard.ShardGroup, "evaluate_walk", "shard.walk")
    _span(recorder, automata, "compile_schema", "trees.compile")
    _span(recorder, automata.TreeAutomaton, "from_dtd", "trees.compile")
    _span(recorder, automata.TreeAutomaton, "from_edtd", "trees.compile")
    _span(recorder, mmapstore.MappedTripleStore, "load", "store.open")
    _span(recorder, scheduler.Scheduler, "run", "scheduler.run")

    def encode_wrap(fn):
        timed_fn = timed(recorder, "protocol.encode", fn)

        def encode_frame(message):
            frame = timed_fn(message)
            recorder.value("protocol.response_bytes", len(frame))
            return frame

        return encode_frame

    patch(server, "encode_frame", encode_wrap)

    # queue wait: from Scheduler.run entry to the job starting on a
    # worker thread (followers of a coalesced execution never queue)
    def run_wrap(fn):
        async def run(self, key, job, *args, **kwargs):
            entered = _now()

            def queued_job():
                recorder.value("scheduler.queue_wait", _now() - entered)
                return job()

            return await fn(self, key, queued_job, *args, **kwargs)

        return run

    patch(scheduler.Scheduler, "run", run_wrap)

    # one document's streaming validation: validator construction to
    # finish(), both on the worker thread that runs the job
    local = threading.local()

    def init_wrap(fn):
        def __init__(self, *args, **kwargs):
            local.started = _now()
            fn(self, *args, **kwargs)

        return __init__

    def finish_wrap(fn):
        def finish(self):
            try:
                return fn(self)
            finally:
                recorder.value("trees.validate", _now() - local.started)

        return finish

    patch(automata.StreamingTreeValidator, "__init__", init_wrap)
    patch(automata.StreamingTreeValidator, "finish", finish_wrap)


def install_study(recorder: Recorder) -> None:
    """Spans around the layers a log study crosses."""
    from repro.logs import cache, pipeline

    _span(recorder, pipeline, "parse_query", "sparql.parse")
    _span(recorder, pipeline, "analyze_query_fused", "battery.analyze")
    _span(recorder, cache.AnalysisCache, "flush", "logcache.flush")

    # AnalysisCache.get/put call load() on every lookup; only the first
    # call per cache object reads the shards, so only that one is timed
    loaded = set()

    def load_wrap(fn):
        timed_fn = timed(recorder, "logcache.load", fn)

        def load(self):
            if id(self) in loaded:
                return fn(self)
            loaded.add(id(self))
            return timed_fn(self)

        return load

    patch(cache.AnalysisCache, "load", load_wrap)
