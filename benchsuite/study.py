"""One log-study session, run in a fresh interpreter.

Usage (from the root of a checkout, with ``PYTHONPATH=src``)::

    python3 benchsuite/study.py --cold COLD.txt --restudy RESTUDY.txt \
        --cache DIR --out RESULT.json [--trace]

Runs ``run_study`` inline (``workers=1``) twice against the analysis
cache in ``DIR``, which must be empty: a cold study of ``COLD.txt``,
which fills the cache, then a re-study of ``RESTUDY.txt``, which shares
most texts and reads the cache.  ``RESULT.json`` gets the
``time.monotonic()`` instant set-up ended, just before the first
host-speed calibration (the launcher subtracts its own launch instant
to get set-up time; the clock is system-wide), the times of the
host-speed loop of :mod:`hostspeed` before the cold study, between the
studies and after the re-study, both studies' durations and pipeline
stats, the
re-study's report, the bytes the cold study wrote to the cache, the
process's peak RSS, the seconds each text of the cold study took from
the start of its parse to the end of its analysis and, with
``--trace``, the span totals.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import tracing  # noqa: E402


def _tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def time_texts(times: list) -> None:
    """Appends to ``times`` the seconds from each ``parse_query`` call
    of ``repro.logs.pipeline`` to the end of the ``analyze_query_fused``
    call that follows it: one text's latency in a study.  Two clock
    reads per text, against a few hundred microseconds of analysis."""
    from repro.logs import pipeline

    parse, analyze = pipeline.parse_query, pipeline.analyze_query_fused
    started = [0.0]

    def parse_query(*args, **kwargs):
        started[0] = time.perf_counter()
        return parse(*args, **kwargs)

    def analyze_query_fused(*args, **kwargs):
        analysis = analyze(*args, **kwargs)
        times.append(time.perf_counter() - started[0])
        return analysis

    pipeline.parse_query = parse_query
    pipeline.analyze_query_fused = analyze_query_fused


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cold", required=True)
    parser.add_argument("--restudy", required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install_study(recorder)
    text_s: list = []
    time_texts(text_s)
    from repro.logs.analyzer import encode_report
    from repro.logs.pipeline import run_study

    cache = Path(args.cache)
    if any(cache.iterdir()):
        raise SystemExit(f"the analysis cache {cache} is not empty")
    set_up = time.monotonic()
    calibration_ms = [hostspeed.calibration_ms()]
    started = time.monotonic()
    cold = run_study("cold", args.cold, workers=1, cache=cache)
    cold_s = time.monotonic() - started
    cold_text_s = list(text_s)
    written = _tree_bytes(cache)
    calibration_ms.append(hostspeed.calibration_ms())
    restarted = time.monotonic()
    restudy = run_study("restudy", args.restudy, workers=1, cache=cache)
    restudy_s = time.monotonic() - restarted
    calibration_ms.append(hostspeed.calibration_ms())
    result = {
        "set_up": set_up,
        "calibration_ms": calibration_ms,
        "cold_s": cold_s,
        "cold_text_s": cold_text_s,
        "restudy_s": restudy_s,
        "cold_stats": cold.stats.as_dict(),
        # unrounded, unlike as_dict()
        "cold_stage_s": [cold.stats.ingest_seconds, cold.stats.parse_analyze_seconds, cold.stats.merge_seconds],
        "restudy_stats": restudy.stats.as_dict(),
        "restudy_report": encode_report(restudy),
        "cache_bytes_written": written,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        result["trace"] = recorder.snapshot()
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
