"""Parallel RPQ evaluation with zero-copy workers.

The compiled engine (:mod:`repro.graphs.engine`) answers one RPQ at a
time; a study workload answers *batteries* of them over one graph.
:func:`evaluate_rpq_many` fans a list of expressions out over a
:class:`~concurrent.futures.ProcessPoolExecutor` — and over a
:class:`~repro.store.mmapstore.MappedTripleStore` the fan-out is
*zero-copy*: the store pickles as its image path (a few dozen bytes),
every worker re-attaches via the per-process
:func:`~repro.store.mmapstore.attach` cache, and all workers read the
same physical pages the OS mapped once.  No triple, node name, or
adjacency list ever crosses the pickle boundary in either direction of
a task — only expressions out and ``(source, target)`` name pairs back.

A live (mutable) :class:`~repro.graphs.rdf.TripleStore` also works but
is copied into every worker by pickling; callers with more than a
trivial store should ``save()`` it once and fan out over the mapped
image.  The chunking uses the same pool-width-first fan-out discipline
as the log pipeline (:func:`repro.core.parallelism.fanout_chunk_size`),
so a handful of expressions still spreads across every worker.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, List, Optional as Opt, Sequence, Set, Tuple

from ..core.parallelism import fanout_chunks, pool_width, usable_cpus
from ..regex.ast import Regex
from .engine import CompiledRPQ, compile_rpq
from .rdf import TripleStore

#: expressions per pool task before fan-out widening kicks in
DEFAULT_CHUNK_SIZE = 16


def _rpq_batch(
    payload: Tuple[
        TripleStore, List[Regex], Opt[List[str]], Opt[List[str]]
    ]
) -> List[Set[Tuple[str, str]]]:
    """Process-pool worker: evaluate one chunk of expressions.

    ``store`` arrives attached-by-path when it is a mapped image (see
    :meth:`~repro.store.mmapstore.MappedTripleStore.__reduce__`), so
    repeated tasks in one worker share one mapping *and* one engine
    plan-resolution cache.
    """
    store, exprs, sources, targets = payload
    return [
        compile_rpq(expr).evaluate(store, sources=sources, targets=targets)
        for expr in exprs
    ]


def evaluate_rpq_many(
    store: TripleStore,
    exprs: Sequence[Regex],
    workers: Opt[int] = None,
    sources: Opt[Iterable[str]] = None,
    targets: Opt[Iterable[str]] = None,
    chunk_size: Opt[int] = None,
    pool: Opt[ProcessPoolExecutor] = None,
) -> List[Set[Tuple[str, str]]]:
    """Evaluate many RPQs over one store; answers align with ``exprs``.

    Each answer is the full ``{(source, target)}`` pair set of
    :meth:`CompiledRPQ.evaluate` (restricted to ``sources`` when
    given; ``targets`` filters the answers, not the exploration —
    the same contract as :func:`repro.graphs.paths.evaluate_rpq` and
    the service's ``rpq`` endpoint).  With ``workers`` > 1 — or a lent
    ``pool``, which is borrowed and left running — the expressions are
    fanned out over a process pool; otherwise they are evaluated
    inline.  The single-CPU downgrade mirrors
    :func:`repro.logs.pipeline.run_study`: a pool cannot win on one
    usable core, so the call quietly runs inline.
    """
    exprs = list(exprs)
    if not exprs:
        return []
    source_list = list(sources) if sources is not None else None
    target_list = list(targets) if targets is not None else None
    parallel = pool is not None or (workers and workers > 1)
    if parallel and pool is None and usable_cpus() < 2:
        parallel = False
    if not parallel or len(exprs) == 1:
        plans: List[CompiledRPQ] = [compile_rpq(expr) for expr in exprs]
        return [
            plan.evaluate(store, sources=source_list, targets=target_list)
            for plan in plans
        ]
    chunk_size = chunk_size or DEFAULT_CHUNK_SIZE
    chunks = fanout_chunks(exprs, pool_width(workers, pool), chunk_size)
    own_pool = (
        ProcessPoolExecutor(max_workers=workers) if pool is None else None
    )
    try:
        batches = list(
            (pool or own_pool).map(
                _rpq_batch,
                [
                    (store, chunk, source_list, target_list)
                    for chunk in chunks
                ],
            )
        )
    finally:
        if own_pool is not None:
            own_pool.shutdown()
    return [answer for batch in batches for answer in batch]
