"""Seeded inputs of the four workloads: data sets and request streams.

Everything here is a function of ``(workload, seed, scale)``.  The
graphs and the SPARQL texts are fixed corpora (:data:`GRAPH_SEED`,
:data:`CORPUS_SEED`); the seed draws the requests and orders the logs.
Data sets
(triple files, store images, shard directories, query logs) are built
once, outside every timed window, under ``.work/data/<key>`` where the
key digests the source of this file and of every ``repro`` module that
writes them, plus the seed and the scale.  A generator change therefore
regenerates; the program under test only ever receives the files.

Request streams are cheap and rebuilt in memory on every run.  A stream
is a list of *blocks*: each block has exactly the same operation mix
(only the drawn keys differ), so a run that times ``k`` whole blocks
measures ``k`` copies of one mix however far it got.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"

#: store name every service workload registers its graph under
STORE = "g"

#: bare predicate names (RPQ atoms); SPARQL reads the bracketed copy.
#: Local predicates link nodes inside a community, ``cites`` jumps to
#: any node and ``follows`` to the next community.
LOCAL = ("knows", "likes", "owns", "visits")
PREDICATES = LOCAL + ("cites", "follows")
#: nodes per community
COMMUNITY = 50

#: predicate that ``mutate`` writes; no query reads it, so answers do
#: not depend on where a mutation lands, while every mutation still
#: changes the store fingerprint and so invalidates cached answers
MUTATE_PREDICATE = "touch"

#: generator seed of the SPARQL texts (log-study's logs, serve-mix's
#: sparql and log requests).  The texts are one fixed corpus and
#: ``--seed`` only orders and draws from it: a generated log holds a
#: rare text whose analysis costs about a thousand times the median
#: (one in ~1,200 distinct texts), so a log drawn afresh per seed would
#: swing a run's cost by up to 2x on whether it drew one.
CORPUS_SEED = 2022

#: generator seed of the graphs (serve-mix's live store, the graph-eval
#: image and its shards).  The graphs are fixed too and ``--seed`` only
#: draws the requests: the cost of the widest walk and of the
#: scan-and-join query depends on how a graph's random edges happen to
#: join up, and graphs drawn afresh per seed moved graph-eval's p90 by a
#: quarter from seed to seed.
GRAPH_SEED = 2022

#: result-cache bound of the graph servers.  Their requests never
#: repeat, so the cache only holds memory; a bound of a few blocks keeps
#: the server's peak RSS from growing with how many requests a run got
#: through, while the re-serve phase (the last block again) still finds
#: every answer cached.
GRAPH_CACHE_ENTRIES = 256

#: validate schemas: (root, rules) as the ``validate`` op ships them
SCHEMAS = (
    ("r", {"r": "(a | b)*", "a": "b?", "b": ""}),
    ("doc", {"doc": "head sec+", "head": "title", "title": "",
             "sec": "title (para | list)*", "para": "", "list": "item+",
             "item": "para?"}),
    ("feed", {"feed": "entry*", "entry": "id link* (text | html)",
              "id": "", "link": "", "text": "", "html": ""}),
)


@dataclass(frozen=True)
class Scale:
    """Sizes of every data set and stream (FULL for measurements,
    SMOKE for the benchmark's own quick tests)."""

    mix_nodes: int
    mix_sparql_nodes: int
    mix_block: int
    mix_rpq_keys: int
    mix_sparql_keys: int
    mix_query_keys: int
    mix_log_keys: int
    mix_validate_keys: int
    mix_cache_entries: int
    graph_nodes: int
    graph_sparql_nodes: int
    graph_block: int
    shard_block: int
    log_entries: int
    log_extra_entries: int
    launches: int
    #: blocks generated per run: about three times what a run uses
    mix_blocks: int
    graph_blocks: int
    shard_blocks: int


FULL = Scale(
    mix_nodes=2500,
    mix_sparql_nodes=1000,
    mix_block=1200,
    mix_rpq_keys=1400,
    mix_sparql_keys=700,
    mix_query_keys=700,
    mix_log_keys=700,
    mix_validate_keys=600,
    mix_cache_entries=1024,
    graph_nodes=15000,
    graph_sparql_nodes=1700,
    graph_block=110,
    shard_block=40,
    log_entries=3000,
    log_extra_entries=1000,
    launches=7,
    mix_blocks=150,
    graph_blocks=100,
    shard_blocks=100,
)

SMOKE = Scale(
    mix_nodes=300,
    mix_sparql_nodes=150,
    mix_block=120,
    mix_rpq_keys=140,
    mix_sparql_keys=60,
    mix_query_keys=60,
    mix_log_keys=60,
    mix_validate_keys=60,
    mix_cache_entries=64,
    graph_nodes=1500,
    graph_sparql_nodes=1000,
    graph_block=22,
    shard_block=10,
    log_entries=300,
    log_extra_entries=100,
    launches=2,
    mix_blocks=60,
    graph_blocks=200,
    shard_blocks=200,
)


# -- the data-set cache ---------------------------------------------------------


def _digest_sources(paths: Sequence[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _repro_module(root: Path, dotted: str) -> Path:
    return root / "src" / Path(*dotted.split(".")).with_suffix(".py")


def dataset_dir(
    root: Path, kind: str, seed: int, scale: Scale, modules: Sequence[str]
) -> Tuple[Path, bool]:
    """``(directory, ready)`` for one data set: the key digests this
    file, the ``repro`` modules that write the set, the seed and the
    scale."""
    sources = [Path(__file__)] + [_repro_module(root, m) for m in modules]
    key = hashlib.sha256(
        json.dumps(
            [kind, seed, asdict(scale), _digest_sources(sources)],
            sort_keys=True,
        ).encode()
    ).hexdigest()[:24]
    directory = WORK / "data" / f"{kind}-{key}"
    return directory, (directory / "DONE").exists()


def _publish(tmp: Path, final: Path) -> Path:
    (tmp / "DONE").write_text("ok\n")
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    return final


# -- graphs ---------------------------------------------------------------------

def graph_triples(nodes: int, sparql_nodes: int) -> List[Tuple[str, str, str]]:
    """A community graph: every node has exactly one out-edge per
    :data:`LOCAL` predicate to a random node of its own community of
    :data:`COMMUNITY` nodes, one ``cites`` edge to a random node anywhere
    and one ``follows`` edge into the next community.  Exact out-degrees
    keep the reach of a walk template the same from source to source, so
    a run's cost does not hinge on a few lucky draws.  The edges are
    drawn from :data:`GRAPH_SEED`.  Plus a bracketed copy of the edges of
    the first ``sparql_nodes`` nodes: SPARQL matches IRIs lexically, so
    ``<n1> <knows> ?y`` reads ``("<n1>", "<knows>", ...)`` while the RPQ
    atom ``knows`` reads the bare names."""
    if nodes % COMMUNITY:
        raise ValueError(f"{nodes} nodes do not split into communities of {COMMUNITY}")
    rng = random.Random(GRAPH_SEED)
    communities = nodes // COMMUNITY
    triples: List[Tuple[str, str, str]] = []
    for i in range(nodes):
        community = i // COMMUNITY
        base = community * COMMUNITY
        for predicate in LOCAL:
            triples.append((f"n{i}", predicate, f"n{base + rng.randrange(COMMUNITY)}"))
        triples.append((f"n{i}", "cites", f"n{rng.randrange(nodes)}"))
        following = (community + 1) % communities * COMMUNITY
        triples.append((f"n{i}", "follows", f"n{following + rng.randrange(COMMUNITY)}"))
    bracketed = [
        (f"<{s}>", f"<{p}>", f"<{o}>")
        for s, p, o in triples
        if int(s[1:]) < sparql_nodes
    ]
    return triples + bracketed


def mix_dataset(root: Path, scale: Scale) -> Path:
    """serve-mix: the triples of a small live store, one JSON list per
    line (the server builds its in-memory store from this file)."""
    directory, ready = dataset_dir(root, "mix", GRAPH_SEED, scale, ())
    if ready:
        return directory
    tmp = directory.with_name(directory.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    triples = graph_triples(scale.mix_nodes, scale.mix_sparql_nodes)
    with open(tmp / "triples.jsonl", "w", encoding="utf-8") as handle:
        for triple in triples:
            handle.write(json.dumps(triple) + "\n")
    return _publish(tmp, directory)


def graph_dataset(root: Path, scale: Scale) -> Path:
    """graph-eval / graph-eval-sharded: one REPROIMG image of the graph
    and the same store split by ``shard_store`` into two shards."""
    modules = ("repro.store.mmapstore", "repro.service.shard", "repro.graphs.rdf")
    directory, ready = dataset_dir(root, "graph", GRAPH_SEED, scale, modules)
    if ready:
        return directory
    from repro.graphs.rdf import TripleStore
    from repro.service.shard import shard_store
    from repro.store.mmapstore import write_image

    tmp = directory.with_name(directory.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    store = TripleStore()
    for triple in graph_triples(scale.graph_nodes, scale.graph_sparql_nodes):
        store.add(*triple)
    write_image(store, tmp / "graph.img")
    shard_store(store, tmp / "shards", shards=2)
    return _publish(tmp, directory)


# -- query logs -----------------------------------------------------------------


def log_dataset(root: Path, seed: int, scale: Scale) -> Path:
    """log-study: ``cold.txt`` (a ``repro.logs.workload`` log of the
    :data:`CORPUS_SEED` corpus) and ``restudy.txt`` (the same entries
    plus a tail from another source profile, so most texts are shared),
    each in an order drawn from ``seed``, one query per line, and
    ``expected.json`` with the share of the re-study's distinct texts
    that the cold study already analysed."""
    modules = ("repro.logs.workload", "repro.logs.corpus")
    directory, ready = dataset_dir(root, "log", seed, scale, modules)
    if ready:
        return directory
    from repro.logs.corpus import normalize_text
    from repro.logs.workload import DBPEDIA, WIKIDATA_ORGANIC, generate_source_log

    tmp = directory.with_name(directory.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cold = [_one_line(t) for t in generate_source_log(DBPEDIA, scale.log_entries, seed=CORPUS_SEED)]
    extra = [
        _one_line(t)
        for t in generate_source_log(WIKIDATA_ORGANIC, scale.log_extra_entries, seed=CORPUS_SEED + 1)
    ]
    restudy = cold + extra
    order = random.Random(seed)
    order.shuffle(cold)
    order.shuffle(restudy)
    (tmp / "cold.txt").write_text("\n".join(cold) + "\n", encoding="utf-8")
    (tmp / "restudy.txt").write_text("\n".join(restudy) + "\n", encoding="utf-8")
    cold_keys = {normalize_text(t) for t in cold}
    restudy_keys = {normalize_text(t) for t in restudy}
    (tmp / "expected.json").write_text(
        json.dumps(
            {
                "cold_entries": len(cold),
                "restudy_entries": len(restudy),
                "restudy_unique": len(restudy_keys),
                "shared_unique": len(restudy_keys & cold_keys),
            }
        )
    )
    return _publish(tmp, directory)


def _one_line(text: str) -> str:
    """A log line holds one query: fold internal newlines to spaces
    (SPARQL treats both as whitespace, and the dedup key normalizes
    whitespace anyway)."""
    return " ".join(text.split())


# -- request streams ------------------------------------------------------------


def _rpq(expr: str, **params) -> Dict[str, Any]:
    from repro.service.protocol import RpqRequest

    return RpqRequest(store=STORE, expr=expr, **params).to_wire()


def _query(text: str) -> Dict[str, Any]:
    from repro.service.protocol import QueryRequest

    return QueryRequest(store=STORE, query=text).to_wire()


#: serve-mix RPQs: short star-free expressions over drawn predicates,
#: so the engines do little
MIX_WALK = ("{a} {b}", "^{a} {b}", "{a} ^{b}", "{a} {b}?", "({a} | {b}) {c}")
MIX_EXISTS = ("{a} {b} {c}", "{a} {b}? {c}")
SELECT_TEMPLATE = "SELECT ?y ?z WHERE {{ <{s}> <{a}> ?y . ?y <{b}> ?z }}"
ASK_TEMPLATE = "ASK {{ <{s}> <{a}> ?y . ?y <{b}> <{t}> }}"

#: graph-eval and graph-eval-sharded walks: fixed expressions, each
#: reading predicates of both shards of the two-shard ring (``knows``,
#: ``visits``, ``follows`` on one; ``likes``, ``owns``, ``cites`` on the
#: other), with a drawn source; ``(expression, targets drawn)``.  A
#: drawn target set filters the answers of the widest walk, which
#: explores about fifty communities, without filtering its exploration.
GRAPH_WALK = (
    ("(knows | likes)* cites", 0),
    ("(owns | visits)* follows", 0),
    ("likes knows* owns", 0),
    ("follows (likes | visits)*", 0),
    ("(knows | likes)* cites (owns | visits)*", 10),
)
#: graph-eval existence checks: star-free, so the exact DFS stays small
GRAPH_EXISTS = ("(knows | likes) (owns | visits) (knows | likes) cites", "knows likes? owns visits?")
#: graph-eval SPARQL: one join from a bound subject, one scan-and-join
#: towards a bound object; ``a`` and ``b`` are drawn from
#: :data:`QUERY_PAIRS`
GRAPH_QUERY = (
    "SELECT ?y ?z WHERE {{ <n{s}> <{a}> ?y . ?y <{b}> ?z }}",
    "SELECT ?x ?z WHERE {{ ?x <{a}> ?y . ?y <{b}> <n{s}> }}",
)
QUERY_PAIRS = (("knows", "likes"), ("likes", "owns"), ("owns", "visits"), ("visits", "knows"))


def _preds(rng: random.Random, count: int) -> List[str]:
    return [rng.choice(PREDICATES) for _ in range(count)]


def _validate_doc(rng: random.Random, schema_index: int) -> str:
    """A random document for one of :data:`SCHEMAS`, valid or not."""
    if schema_index == 0:
        kids = "".join(rng.choice(("<a/>", "<a><b/></a>", "<b/>")) for _ in range(rng.randint(0, 12)))
        broken = rng.random() < 0.3
        return f"<r>{kids}{'<c/>' if broken else ''}</r>"
    if schema_index == 1:
        secs = []
        for _ in range(rng.randint(1, 6)):
            body = "".join(
                rng.choice(("<para/>", "<list><item/><item><para/></item></list>"))
                for _ in range(rng.randint(0, 5))
            )
            secs.append(f"<sec><title/>{body}</sec>")
        broken = rng.random() < 0.3
        head = "" if broken else "<head><title/></head>"
        return f"<doc>{head}{''.join(secs)}</doc>"
    entries = []
    broken = rng.random() < 0.3
    for index in range(rng.randint(0, 8)):
        links = "<link/>" * rng.randint(0, 3)
        tail = "" if broken and index == 0 else rng.choice(("<text/>", "<html/>"))
        entries.append(f"<entry><id/>{links}{tail}</entry>")
    if broken and not entries:
        entries.append("<entry><id/></entry>")
    return f"<feed>{''.join(entries)}</feed>"


def _validate(rng: random.Random) -> Dict[str, Any]:
    from repro.service.protocol import ValidateRequest

    index = rng.randrange(len(SCHEMAS))
    root, rules = SCHEMAS[index]
    document = _validate_doc(rng, index)
    return ValidateRequest(
        schema_kind="dtd", rules=rules, start=[root], document=document, format="xml"
    ).to_wire()


def _texts(count: int) -> List[str]:
    """``count`` distinct SPARQL texts (by dedup key) of the
    :data:`CORPUS_SEED` corpus."""
    from repro.logs.corpus import normalize_text
    from repro.logs.workload import DBPEDIA, generate_source_log

    texts, seen = [], set()
    for text in generate_source_log(DBPEDIA, 3 * count + 50, seed=CORPUS_SEED):
        key = normalize_text(text)
        if key not in seen:
            seen.add(key)
            texts.append(text)
            if len(texts) == count:
                break
    return texts


def mix_universe(seed: int, scale: Scale) -> Dict[str, List[Dict[str, Any]]]:
    """The distinct compute requests of serve-mix, by operation."""
    from repro.service.protocol import LogBatteryRequest, SparqlRequest

    rng = random.Random(seed * 7919 + 1)
    n = scale.mix_nodes
    rpq = []
    seen = set()
    while len(rpq) < scale.mix_rpq_keys:
        a, b, c = _preds(rng, 3)
        if rng.random() < 0.75:
            expr = rng.choice(MIX_WALK).format(a=a, b=b, c=c)
            source = f"n{rng.randrange(n)}"
            key = ("walk", expr, source)
            request = _rpq(expr, sources=[source])
        else:
            expr = rng.choice(MIX_EXISTS).format(a=a, b=b, c=c)
            semantics = rng.choice(("simple", "trail"))
            source, target = f"n{rng.randrange(n)}", f"n{rng.randrange(n)}"
            key = (semantics, expr, source, target)
            request = _rpq(expr, semantics=semantics, source=source, target=target)
        if key not in seen:
            seen.add(key)
            rpq.append(request)
    texts = _texts(scale.mix_sparql_keys + scale.mix_log_keys)
    sparql = [SparqlRequest(query=t).to_wire() for t in texts[: scale.mix_sparql_keys]]
    log = [LogBatteryRequest(query=t).to_wire() for t in texts[scale.mix_sparql_keys :]]
    query = []
    seen = set()
    while len(query) < scale.mix_query_keys:
        a, b = _preds(rng, 2)
        s = f"n{rng.randrange(scale.mix_sparql_nodes)}"
        if rng.random() < 0.7:
            text = SELECT_TEMPLATE.format(s=s, a=a, b=b)
        else:
            text = ASK_TEMPLATE.format(s=s, a=a, b=b, t=f"n{rng.randrange(scale.mix_sparql_nodes)}")
        if text not in seen:
            seen.add(text)
            query.append(_query(text))
    validate = []
    seen = set()
    while len(validate) < scale.mix_validate_keys:
        request = _validate(rng)
        marker = json.dumps(request, sort_keys=True)
        if marker not in seen:
            seen.add(marker)
            validate.append(request)
    return {"rpq": rpq, "sparql": sparql, "query": query, "log": log, "validate": validate}


#: serve-mix operation shares per block (per mille); the rest is mutate.
#: No traffic of the service has been recorded, so these, the Zipf
#: exponent and the mutate share are assumptions; ``README.md`` gives
#: the reason for each
MIX_SHARES = (("rpq", 380), ("sparql", 190), ("query", 150), ("log", 150), ("validate", 120))
MUTATE_PER_MILLE = 10
#: Zipf exponent of key popularity inside each operation's universe
ZIPF_S = 1.0


def _zipf_cdf(count: int) -> List[float]:
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, count + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    return cdf


def mix_stream(
    seed: int, scale: Scale, blocks: int
) -> Tuple[Dict[str, Any], List[List[Dict[str, Any]]]]:
    """serve-mix: ``(probe, blocks)``.  Blocks of ``mix_block``
    requests; each holds the same count of every operation, drawn with
    Zipf popularity over that operation's universe (the popularity order
    is a seeded shuffle), and its own ``mutate`` writes of fresh
    triples.  The probe, the request every launch answers first, is a
    walk RPQ, so set-up covers building the live store."""
    from bisect import bisect_left

    from repro.service.protocol import MutateRequest

    universe = mix_universe(seed, scale)
    rng = random.Random(seed * 104729 + 3)
    ranked = {}
    for op, requests in universe.items():
        order = list(requests)
        rng.shuffle(order)
        ranked[op] = (order, _zipf_cdf(len(order)))
    counts = [(op, scale.mix_block * share // 1000) for op, share in MIX_SHARES]
    mutates = max(1, scale.mix_block * MUTATE_PER_MILLE // 1000)
    out = []
    for block in range(blocks):
        items: List[Dict[str, Any]] = []
        for op, count in counts:
            order, cdf = ranked[op]
            for _ in range(count):
                items.append(order[min(bisect_left(cdf, rng.random()), len(order) - 1)])
        for index in range(mutates):
            subject = f"n{rng.randrange(scale.mix_nodes)}"
            items.append(
                MutateRequest(
                    store=STORE,
                    triples=[[subject, MUTATE_PREDICATE, f"m{block}_{index}"]],
                ).to_wire()
            )
        rng.shuffle(items)
        out.append(items)
    return _rpq("knows likes", sources=["n0"]), out


def _walk(rng: random.Random, nodes: int, expr: str, targets: int):
    params: Dict[str, Any] = {"sources": [f"n{rng.randrange(nodes)}"]}
    if targets:
        params["targets"] = [f"n{rng.randrange(nodes)}" for _ in range(targets)]
    return (expr, json.dumps(params, sort_keys=True)), _rpq(expr, **params)


def _distinct_stream(rng: random.Random, draws, size: int, blocks: int):
    """``(probe, blocks)`` from ``draws``, functions that each return
    ``(key, request)`` for one template: every block takes the same
    count of each, ``size`` in all, and is shuffled; the probe is one
    more draw of the first.  No request repeats anywhere in the stream."""
    seen: set = set()

    def distinct(draw):
        for _ in range(1000):
            key, request = draw()
            if key not in seen:
                seen.add(key)
                return request
        raise RuntimeError(f"the key space of {key!r} is exhausted; generate fewer blocks")

    probe = distinct(draws[0])
    per_template = max(1, size // len(draws))
    out = []
    for _ in range(blocks):
        items = [distinct(draw) for draw in draws for _ in range(per_template)]
        rng.shuffle(items)
        out.append(items)
    return probe, out


def graph_stream(
    seed: int, scale: Scale, blocks: int
) -> Tuple[Dict[str, Any], List[List[Dict[str, Any]]]]:
    """graph-eval: ``(probe, blocks)``.  Every block holds the same
    count of each of eleven templates: the five walk RPQs of
    :data:`GRAPH_WALK`, the two existence checks of :data:`GRAPH_EXISTS`
    under simple-path and trail semantics, and the two SPARQL ``query``
    templates of :data:`GRAPH_QUERY`.  Only source and target nodes are
    drawn, and no request repeats, so the result cache never hits.  The
    shares are equal so that they do not depend on what any template
    costs today."""
    rng = random.Random(seed * 15485863 + 5)
    n = scale.graph_nodes

    def walk(expr, targets):
        return lambda: _walk(rng, n, expr, targets)

    def exists(expr, semantics):
        def draw():
            source, target = f"n{rng.randrange(n)}", f"n{rng.randrange(n)}"
            request = _rpq(expr, semantics=semantics, source=source, target=target)
            return (semantics, expr, source, target), request

        return draw

    def query(template):
        def draw():
            a, b = rng.choice(QUERY_PAIRS)
            text = template.format(s=rng.randrange(scale.graph_sparql_nodes), a=a, b=b)
            return text, _query(text)

        return draw

    draws = [walk(expr, targets) for expr, targets in GRAPH_WALK]
    draws += [exists(expr, semantics) for expr in GRAPH_EXISTS for semantics in ("simple", "trail")]
    draws += [query(template) for template in GRAPH_QUERY]
    return _distinct_stream(rng, draws, scale.graph_block, blocks)


def sharded_stream(
    seed: int, scale: Scale, blocks: int
) -> Tuple[Dict[str, Any], List[List[Dict[str, Any]]]]:
    """graph-eval-sharded: ``(probe, blocks)``.  Blocks of
    ``shard_block`` distinct walk RPQs, the :data:`GRAPH_WALK`
    expressions alike.  Each reads predicates owned by both shards, so
    every request runs the frontier exchange and none takes the
    single-shard fast path (the run checks this by probing the ring)."""
    rng = random.Random(seed * 32452843 + 7)
    draws = [
        lambda e=expr, t=targets: _walk(rng, scale.graph_nodes, e, t) for expr, targets in GRAPH_WALK
    ]
    return _distinct_stream(rng, draws, scale.shard_block, blocks)
