"""One module per paper table/figure, plus extension experiments.

The declarative spec API is the front door::

    from repro.experiments import RunConfig, describe, run_config

    print(describe("ext_montecarlo"))          # typed parameter schema
    config = RunConfig.build("ext_montecarlo", "fast", {"seed": 5})
    print(run_config(config).render())
"""

from .base import FIDELITIES, ExperimentResult, check_fidelity
from .registry import (
    PAPER_ARTEFACTS,
    REGISTRY,
    run_all,
    run_config,
)
from .spec import (
    RUN_CONFIG_SCHEMA_VERSION,
    ExperimentSpec,
    Param,
    RunConfig,
    describe,
    experiment,
    get_spec,
    list_experiments,
    seed_param,
)

__all__ = [
    "ExperimentResult", "FIDELITIES", "check_fidelity",
    "REGISTRY", "PAPER_ARTEFACTS", "run_all", "run_config",
    "RUN_CONFIG_SCHEMA_VERSION", "ExperimentSpec", "Param", "RunConfig",
    "describe", "experiment", "get_spec", "list_experiments", "seed_param",
]
