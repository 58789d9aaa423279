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

from .._lazy import lazy_package

#: The cache's names load on first access: the serving stack imports
#: :mod:`repro.exec.batch`, which needs neither the cache nor sqlite3.
_LAZY = {name: "cache" for name in (
    "CACHE_DIR_ENV", "CACHE_SCHEMA_VERSION", "ResultCache",
    "default_cache_dir")}

__all__ = list(_LAZY)

lazy_package(__name__)
