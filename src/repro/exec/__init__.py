"""Execution engine: vectorised ensemble runs and result caching.

Two cooperating pieces:

* :mod:`repro.exec.batch` — vectorised Monte-Carlo batching through the
  switch-level RC engine (import directly: ``from repro.exec.batch
  import ...``; kept out of this namespace so importing the cache does
  not pull in the core and circuit layers);
* :mod:`repro.exec.cache` — the experiment-result cache: one WAL-mode
  SQLite file per cache root, keyed by the canonical
  :class:`~repro.experiments.spec.RunConfig` encoding, shared by
  ``run``/``all``, campaigns, ``store`` queries and perf history.
"""

from .cache import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA_VERSION,
    ResultCache,
    default_cache_dir,
)

__all__ = [
    "ResultCache", "default_cache_dir",
    "CACHE_SCHEMA_VERSION", "CACHE_DIR_ENV",
]
