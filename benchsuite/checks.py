"""Answer checks, counter reconciliation and workload properties.

Everything here runs outside the timed windows.  Each check returns a
list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping

# -- answers from the library called directly -----------------------------------


def expected_answer(message: Dict[str, Any], store) -> Dict[str, Any]:
    """The comparable part of the answer to ``message``, computed by
    calling the library directly (no service code on the path)."""
    from repro.errors import SPARQLParseError

    op, params = message["op"], message["params"]
    if op == "rpq":
        from repro.graphs.paths import evaluate_rpq, exists_simple_path, exists_trail
        from repro.regex.parser import parse

        expr = parse(params["expr"], multi_char=True)
        semantics = params.get("semantics", "walk")
        if semantics == "walk":
            pairs = evaluate_rpq(store, expr, params.get("sources"), params.get("targets"))
            return {"pairs": sorted([s, t] for s, t in pairs)}
        decide = exists_simple_path if semantics == "simple" else exists_trail
        return {"exists": decide(store, expr, params["source"], params["target"])}
    if op == "mutate":
        # every mutation writes a fresh triple of an unread predicate
        return {"added": len(params["triples"])}
    if op == "validate":
        from repro.trees.dtd import DTD
        from repro.trees.xml_parser import parse_xml

        dtd = DTD.from_rules(params["rules"], start=params["start"])
        return {"valid": dtd.validate(parse_xml(params["document"]))}
    from repro.sparql.parser import parse_query

    try:
        query = parse_query(params["query"])
    except (SPARQLParseError, RecursionError):
        return {"valid": False}
    if op == "sparql":
        from repro.sparql.features import count_triple_patterns, operator_set, query_features
        from repro.sparql.serialize import serialize_query

        return {
            "valid": True,
            "canonical": serialize_query(query),
            "query_type": query.query_type,
            "triples": count_triple_patterns(query),
            "features": sorted(query_features(query)),
            "operators": sorted(operator_set(query)),
        }
    if op == "log":
        from repro.logs.analyzer import encode_analysis
        from repro.logs.battery import analyze_query_fused

        return {"valid": True, "record": encode_analysis(analyze_query_fused(query))}
    if op == "query":
        from repro.sparql.evaluation import Evaluator

        result = Evaluator(store).evaluate(query)
        if query.query_type == "ASK":
            return {"valid": True, "boolean": bool(result)}
        rows = [
            {var: str(value) for var, value in solution.items() if not var.startswith("_bnode_")}
            for solution in result
        ]
        return {"valid": True, "rows": sorted(json.dumps(r, sort_keys=True) for r in rows)}
    raise ValueError(f"no reference for op {op!r}")


def observed_answer(message: Dict[str, Any], result: Dict[str, Any]) -> Dict[str, Any]:
    """The same comparable part, read from a service reply."""
    op, params = message["op"], message["params"]
    if op == "rpq":
        if params.get("semantics", "walk") == "walk":
            return {"pairs": sorted(result["pairs"])}
        return {"exists": result["exists"]}
    if op == "mutate":
        return {"added": result["added"]}
    if op == "validate":
        return {"valid": result["valid"]}
    if not result.get("valid"):
        return {"valid": False}
    if op == "sparql":
        keys = ("valid", "canonical", "query_type", "triples", "features", "operators")
        return {key: result[key] for key in keys}
    if op == "log":
        return {"valid": True, "record": result["record"]}
    if result["kind"] == "ask":
        return {"valid": True, "boolean": result["boolean"]}
    return {"valid": True, "rows": sorted(json.dumps(r, sort_keys=True) for r in result["rows"])}


def check_answers(samples, store) -> List[str]:
    """Compare sampled ``(message, result)`` replies with the library."""
    problems = []
    for message, result in samples:
        want = expected_answer(message, store)
        got = observed_answer(message, result)
        if json.dumps(want, sort_keys=True) != json.dumps(got, sort_keys=True):
            problems.append(
                f"answer mismatch for {json.dumps(message['params'])[:200]}: "
                f"service {json.dumps(got)[:200]} vs library {json.dumps(want)[:200]}"
            )
    return problems


def check_identical(replies, reference) -> List[str]:
    """Byte-identical results, request by request."""
    problems = []
    if len(replies) != len(reference):
        return [f"{len(replies)} replies vs {len(reference)} reference replies"]
    for (message, result), (_, want) in zip(replies, reference):
        if json.dumps(result, sort_keys=True) != json.dumps(want, sort_keys=True):
            problems.append(f"sharded answer differs for {json.dumps(message['params'])[:200]}")
    return problems


# -- counters, reconciled from outside ------------------------------------------


def reconcile(stats: Dict[str, Any], sent: Mapping[str, int]) -> List[str]:
    """The observability invariants, read through the ``stats`` op:
    per endpoint requests = ok + errors + shed + timeouts, and for
    compute endpoints cache hits + misses = requests; the server's
    per-endpoint request counts equal the client's (``sent`` counts the
    requests the client sent before this ``stats`` call); the cache's
    own hit and miss totals equal the endpoints' sums."""
    from repro.service import COMPUTE_OPS

    problems = []
    endpoints = stats["metrics"]["endpoints"]
    for op, counters in endpoints.items():
        shed, timeouts = counters["shed"], counters["timeouts"]
        other_errors = sum(counters["errors"].values()) - shed - timeouts
        total = counters["ok"] + other_errors + shed + timeouts
        if counters["requests"] != total:
            problems.append(f"{op}: requests {counters['requests']} != ok+errors+shed+timeouts {total}")
        if op in COMPUTE_OPS:
            lookups = counters["cache_hits"] + counters["cache_misses"]
            if lookups != counters["requests"]:
                problems.append(f"{op}: cache hits+misses {lookups} != requests {counters['requests']}")
    for op in set(sent) | set(endpoints):
        server = endpoints.get(op, {}).get("requests", 0)
        if server != sent.get(op, 0):
            problems.append(f"{op}: server counted {server} requests, client sent {sent.get(op, 0)}")
    cache = stats["cache"]
    hits = sum(c["cache_hits"] for op, c in endpoints.items() if op in COMPUTE_OPS)
    misses = sum(c["cache_misses"] for op, c in endpoints.items() if op in COMPUTE_OPS)
    if (cache["hits"], cache["misses"]) != (hits, misses):
        problems.append(
            f"result cache counted {cache['hits']}/{cache['misses']} hits/misses, "
            f"endpoints {hits}/{misses}"
        )
    return problems


# -- workload properties --------------------------------------------------------


def serve_mix_properties(stats: Dict[str, Any]) -> List[str]:
    problems = [
        f"serve-mix saw no result-cache {counter}"
        for counter in ("hits", "misses", "evictions")
        if not stats["cache"][counter]
    ]
    if not stats["metrics"]["endpoints"].get("mutate", {}).get("ok"):
        problems.append("serve-mix applied no mutate write")
    return problems


def graph_eval_properties(stats: Dict[str, Any]) -> List[str]:
    hits = stats["cache"]["hits"]
    return [f"graph-eval hit the result cache {hits} times"] if hits else []


def sharded_properties(stats: Dict[str, Any], multi_shard_share: float) -> List[str]:
    problems = []
    if multi_shard_share != 1.0:
        problems.append(f"multi-shard share of the stream is {multi_shard_share}, not 1.0")
    scatter = stats["shards"]["g"]["scatter_bytes"]
    if scatter <= 0:
        problems.append("the frontier exchange scattered no bytes")
    return problems


def multi_shard_share(messages) -> float:
    """Share of walk RPQs whose predicates live on more than one shard,
    by probing the two-shard ring."""
    from repro.graphs.engine import compile_rpq
    from repro.regex.parser import parse
    from repro.service.shard import ShardRing

    ring = ShardRing(2)
    multi = 0
    for message in messages:
        atoms = compile_rpq(parse(message["params"]["expr"], multi_char=True)).atoms
        owners = {ring.shard_of(atom.lstrip("^")) for atom in atoms}
        multi += len(owners) > 1
    return multi / len(messages)


def study_properties(session: Dict[str, Any], expected: Dict[str, int]) -> List[str]:
    """The cold study starts from an empty cache; the re-study's hit
    ratio equals the share of its distinct texts the cold study saw."""
    problems = []
    cold, restudy = session["cold_stats"], session["restudy_stats"]
    if cold["cache_hits"]:
        problems.append(f"the cold study hit the cache {cold['cache_hits']} times")
    lookups = restudy["cache_hits"] + restudy["cache_misses"]
    if (restudy["cache_hits"], lookups) != (expected["shared_unique"], expected["restudy_unique"]):
        problems.append(
            f"re-study hit {restudy['cache_hits']}/{lookups} distinct texts, expected "
            f"{expected['shared_unique']}/{expected['restudy_unique']}"
        )
    for name, stats in (("cold", cold), ("restudy", restudy)):
        if stats["entries"] != expected[f"{name}_entries"]:
            problems.append(f"{name} study read {stats['entries']} entries, expected {expected[f'{name}_entries']}")
    return problems


def normalized_report(encoded: Dict[str, Any]) -> str:
    """An encoded ``LogReport`` with counter order fixed (a report's
    counters compare by content; their order follows cache hits)."""
    counters = {
        name: sorted(rows, key=lambda row: json.dumps(row, sort_keys=True))
        for name, rows in encoded["counters"].items()
    }
    return json.dumps({**encoded, "source": None, "counters": counters}, sort_keys=True)
