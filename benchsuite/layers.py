"""Per-layer metrics, derived from span totals and counters.

Every workload reports every metric below; a layer the workload does
not cross reports 0, so the table doubles as a check that each workload
stresses the layers it claims to.  Times are means per call.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

#: (name, unit), in BENCHMARK.json order
PER_LAYER: List[Tuple[str, str]] = [
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.bytes_per_request", "B"),
    ("server.handle_self_us", "us"),
    ("scheduler.queue_wait_us", "us"),
    ("scheduler.coalesced_ratio", "ratio"),
    ("resultcache.hit_ratio", "ratio"),
    ("resultcache.evictions", "count"),
    ("resultcache.lookup_us", "us"),
    ("regex.parse_us", "us"),
    ("engine.ast_key_us", "us"),
    ("engine.evaluate_ms", "ms"),
    ("engine.search_ms", "ms"),
    ("engine.plan_hit_ratio", "ratio"),
    ("sparql.parse_us", "us"),
    ("sparql.evaluate_ms", "ms"),
    ("battery.analyze_us", "us"),
    ("pipeline.ingest_s", "s"),
    ("pipeline.parse_analyze_s", "s"),
    ("pipeline.merge_s", "s"),
    ("pipeline.unique_ratio", "ratio"),
    ("logcache.load_s", "s"),
    ("logcache.flush_s", "s"),
    ("logcache.bytes_written", "B"),
    ("logcache.hit_ratio", "ratio"),
    ("shard.walk_ms", "ms"),
    ("shard.rounds_per_request", "count"),
    ("shard.scatter_bytes_per_request", "B"),
    ("shard.gather_bytes_per_request", "B"),
    ("shard.prune_ratio", "ratio"),
    ("trees.compile_us", "us"),
    ("trees.validate_us", "us"),
    ("store.open_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
]

_SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mean_span(trace: Dict[str, Any], name: str, unit: str, self_time: bool = False) -> float:
    count, total_ns, self_ns = trace["spans"].get(name, (0, 0, 0))
    return _ratio(self_ns if self_time else total_ns, count) / _SCALE[unit]


def _mean_value(trace: Dict[str, Any], name: str, scale: float = 1.0) -> float:
    count, total = trace["values"].get(name, (0, 0))
    return _ratio(total, count) / scale


def zero() -> Dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}


def service_layers(
    trace: Dict[str, Any],
    plan_cache: Dict[str, int],
    stats: Dict[str, Any],
    request_bytes: int,
    requests: int,
    client_busy_s: float,
    overhead_frac: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced server.  ``requests`` and
    ``client_busy_s`` cover every request the client sent it, and
    ``request_bytes`` their frames as the client encoded them."""
    out = zero()
    for metric, span in (
        ("protocol.decode_us", "protocol.decode"),
        ("protocol.encode_us", "protocol.encode"),
        ("resultcache.lookup_us", "resultcache.lookup"),
        ("regex.parse_us", "regex.parse"),
        ("engine.ast_key_us", "engine.ast_key"),
        ("engine.evaluate_ms", "engine.evaluate"),
        ("engine.search_ms", "engine.search"),
        ("sparql.parse_us", "sparql.parse"),
        ("sparql.evaluate_ms", "sparql.evaluate"),
        ("battery.analyze_us", "battery.analyze"),
        ("shard.walk_ms", "shard.walk"),
        ("trees.compile_us", "trees.compile"),
        ("store.open_ms", "store.open"),
    ):
        out[metric] = _mean_span(trace, span, metric.rsplit("_", 1)[1])
    out["server.handle_self_us"] = _mean_span(trace, "server.handle", "us", self_time=True)
    out["scheduler.queue_wait_us"] = _mean_value(trace, "scheduler.queue_wait", 1e3)
    out["trees.validate_us"] = _mean_value(trace, "trees.validate", 1e3)
    response_bytes = trace["values"].get("protocol.response_bytes", (0, 0))[1]
    out["protocol.bytes_per_request"] = _ratio(request_bytes + response_bytes, requests)

    endpoints = stats["metrics"]["endpoints"].values()
    out["scheduler.coalesced_ratio"] = _ratio(
        sum(e["coalesced"] for e in endpoints), sum(e["cache_misses"] for e in endpoints)
    )
    cache = stats["cache"]
    out["resultcache.hit_ratio"] = _ratio(cache["hits"], cache["hits"] + cache["misses"])
    out["resultcache.evictions"] = float(cache["evictions"])
    out["engine.plan_hit_ratio"] = _ratio(
        plan_cache["hits"], plan_cache["hits"] + plan_cache["misses"]
    )
    group = stats.get("shards", {}).get("g")
    if group is not None:
        walks = trace["spans"].get("shard.walk", (0, 0, 0))[0]
        out["shard.rounds_per_request"] = _ratio(group["rounds"], walks)
        out["shard.scatter_bytes_per_request"] = _ratio(group["scatter_bytes"], walks)
        out["shard.gather_bytes_per_request"] = _ratio(group["gather_bytes"], walks)
        out["shard.prune_ratio"] = _ratio(
            group["pruned_entries"], group["pruned_entries"] + group["scattered_entries"]
        )
    covered_ns = sum(
        trace["spans"].get(name, (0, 0, 0))[1] for name in ("server.handle", "protocol.encode")
    )
    out["trace.coverage"] = _ratio(covered_ns / 1e9, client_busy_s)
    out["trace.overhead_frac"] = overhead_frac
    return out


def study_layers(sessions: List[Dict[str, Any]], overhead_frac: float) -> Dict[str, float]:
    """Per-layer metrics of traced log-study sessions: the median over
    sessions of each session's value."""
    per_session = []
    for session in sessions:
        trace = session["trace"]
        cold, restudy = session["cold_stats"], session["restudy_stats"]
        ingest, parse_analyze, merge = session["cold_stage_s"]
        out = zero()
        out["sparql.parse_us"] = _mean_span(trace, "sparql.parse", "us")
        out["battery.analyze_us"] = _mean_span(trace, "battery.analyze", "us")
        out["pipeline.ingest_s"] = ingest
        out["pipeline.parse_analyze_s"] = parse_analyze
        out["pipeline.merge_s"] = merge
        out["pipeline.unique_ratio"] = _ratio(cold["unique_texts"], cold["entries"])
        load = trace["spans"].get("logcache.load", (0, 0, 0))
        flush = trace["spans"].get("logcache.flush", (0, 0, 0))
        out["logcache.load_s"] = load[1] / 1e9
        out["logcache.flush_s"] = flush[1] / 1e9
        out["logcache.bytes_written"] = float(session["cache_bytes_written"])
        out["logcache.hit_ratio"] = _ratio(
            restudy["cache_hits"], restudy["cache_hits"] + restudy["cache_misses"]
        )
        covered_ns = sum(
            trace["spans"].get(name, (0, 0, 0))[1]
            for name in ("sparql.parse", "battery.analyze", "logcache.load", "logcache.flush")
        )
        out["trace.coverage"] = _ratio(
            covered_ns / 1e9, session["cold_s"] + session["restudy_s"]
        )
        per_session.append(out)
    merged = {name: statistics.median(s[name] for s in per_session) for name, _ in PER_LAYER}
    merged["trace.overhead_frac"] = overhead_frac
    return merged
