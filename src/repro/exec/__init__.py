"""Execution engine: parallel/vectorised ensemble runs and result caching.

Three cooperating pieces:

* :mod:`repro.exec.executor` — serial / process-pool map backends with a
  session-wide default (the CLI's ``--jobs N``) and deterministic
  per-point seeding;
* :mod:`repro.exec.batch` — vectorised Monte-Carlo batching through the
  switch-level RC engine (import directly: ``from repro.exec.batch
  import ...``; kept out of this namespace so the circuit layer can
  import the executor without a cycle);
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
from .executor import (
    ProcessExecutor,
    SerialExecutor,
    derive_seed,
    get_default_executor,
    get_executor,
    set_default_executor,
    use_executor,
)

__all__ = [
    "SerialExecutor", "ProcessExecutor", "get_executor",
    "get_default_executor", "set_default_executor", "use_executor",
    "derive_seed",
    "ResultCache", "default_cache_dir",
    "CACHE_SCHEMA_VERSION", "CACHE_DIR_ENV",
]
