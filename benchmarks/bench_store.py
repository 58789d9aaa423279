"""Benchmark the SQLite result cache on its campaign-analysis paths.

Populates one Monte-Carlo campaign (a few hundred millisecond-scale
configs) into a :class:`~repro.exec.cache.ResultCache`, then measures
the operations campaign analysis leans on:

* **indexed axis query** — ``StoreQuery.where("seed", "<", k)`` over
  the JSON1 expression index;
* **bulk collection** — ``collect_results`` through the batched
  ``get_configs`` (the ``campaign report`` hot path);
* **concurrent writer throughput** — N processes hammering one
  database (WAL mode).

Checks that the indexed query returns exactly the rows of the
unindexed Python filter, and writes ``benchmarks/BENCH_store.json``.

Registered with :mod:`repro.perf` as ``script.store.compare`` (report
kind, wall-seconds metric: the payload's interesting numbers are
nested, so history tracks the whole run's cost).

Run with::

    PYTHONPATH=src python benchmarks/bench_store.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perf import (  # noqa: E402
    benchmark,
    cli_env,
    finish,
    host_fields,
    median_of,
)

OUT = Path(__file__).parent / "BENCH_store.json"

N_CONFIGS = 200
QUERY_REPEATS = 20
N_WRITERS = 4
WRITES_PER_WRITER = 50

SPEC = {
    "name": "bench-store",
    "experiment": "ext_montecarlo",
    "fidelity": "fast",
    "axes": [{"param": "seed",
              "range": {"start": 0, "count": N_CONFIGS}}],
}

_WRITER = """
import sys, time
from repro.experiments import RunConfig, run_config
from repro.exec.cache import ResultCache

root, worker, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sink = ResultCache(root)
seed0 = 10_000 + worker * n
result = run_config(RunConfig.build("ext_montecarlo", "fast",
                                    {"seed": seed0}))
t0 = time.perf_counter()
for k in range(n):
    config = RunConfig.build("ext_montecarlo", "fast",
                             {"seed": seed0 + k})
    sink.put_config(result, config)
print(time.perf_counter() - t0)
"""


def _writer_throughput(root: Path, env: dict, n_writers: int,
                       writes_per_writer: int) -> float:
    t0 = time.perf_counter()
    procs = [subprocess.Popen(
        [sys.executable, "-c", _WRITER, str(root), str(i),
         str(writes_per_writer)],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE) for i in range(n_writers)]
    for proc in procs:
        _out, err = proc.communicate(timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"writer failed: {err.decode()}")
    wall = time.perf_counter() - t0
    return n_writers * writes_per_writer / wall


@benchmark("script.store.compare",
           title="SQLite result cache: indexed query, bulk collect, "
                 "concurrent writers",
           kind="report", metric=None, noise=1.0,
           tags=("script", "store"))
def bench_store_compare(quick: bool = False) -> dict:
    from repro.campaigns import CampaignRunner, CampaignSpec, collect_results
    from repro.exec.cache import ResultCache
    from repro.store import StoreQuery

    n_configs = 40 if quick else N_CONFIGS
    query_repeats = 5 if quick else QUERY_REPEATS
    n_writers = 2 if quick else N_WRITERS
    writes_per_writer = 10 if quick else WRITES_PER_WRITER
    spec_dict = {**SPEC, "axes": [{"param": "seed", "range": {
        "start": 0, "count": n_configs}}]}

    env = cli_env(REPO_ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        spec = CampaignSpec.from_dict(spec_dict)
        cache = ResultCache(root / "cache")
        print(f"populating {n_configs} configs ...", file=sys.stderr)
        t0 = time.perf_counter()
        CampaignRunner(spec, cache).run()
        populate_seconds = time.perf_counter() - t0

        below = n_configs // 10    # a selective filter (10% of rows)
        query = StoreQuery(cache, "ext_montecarlo").where(
            "seed", "<", below)
        query.rows()               # warm: builds the expression index
        indexed = median_of(lambda: query.rows(), query_repeats)
        indexed_entries = [row.entry for row in query.rows()]
        cache.has_json1 = False    # the unindexed Python filter
        same_rows = indexed_entries == [row.entry for row in query.rows()]
        cache.has_json1 = True

        bulk = median_of(lambda: collect_results(spec, cache), 5)
        rate = _writer_throughput(root / "writers", env, n_writers,
                                  writes_per_writer)

    return {
        "benchmark": "SQLite result cache",
        "n_configs": n_configs,
        "populate_seconds": round(populate_seconds, 4),
        "axis_query": {
            "filter": f"seed < {below}",
            "matching_rows": len(indexed_entries),
            "indexed_seconds": round(indexed, 6),
            "rows_match_python_filter": bool(same_rows),
        },
        "bulk_collect_seconds": round(bulk, 6),
        "concurrent_writers": {
            "processes": n_writers,
            "writes_per_process": writes_per_writer,
            "rows_per_second": round(rate, 1),
            "note": "includes interpreter start-up and one warm-up "
                    "experiment run per process; writes are "
                    "WAL-serialised INSERT OR REPLACE",
        },
        "query_repeats_median": query_repeats,
        "cpu_count": os.cpu_count(),
    }


def main() -> None:
    result = bench_store_compare()
    payload = {**result, **host_fields()}
    finish(OUT, payload)
    if not payload["axis_query"]["rows_match_python_filter"]:
        raise SystemExit("indexed query disagrees with the Python filter")


if __name__ == "__main__":
    main()
