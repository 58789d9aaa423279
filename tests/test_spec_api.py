"""The declarative experiment API: specs, RunConfig, CLI, cache, HTTP.

Four contracts are pinned here:

* **Schema integrity** — every registered experiment's declared
  parameter schema matches its runner's actual signature (the drift
  net for future experiments), and the committed
  ``experiments_schema.json`` snapshot matches ``describe()`` so any
  change to the public experiment surface shows up in review.
* **Canonical configs** — :class:`RunConfig` validation (types,
  bounds, choices, unknown params, fidelity at the choke point) and
  normalisation (explicit defaults don't fork identity or cache keys).
* **Cache migration** — entries written under the pre-RunConfig
  kwargs-hash key are still served (and transparently promoted to the
  canonical key).
* **Generated surfaces** — the CLI's schema-derived options and the
  HTTP experiment endpoints accept what the schema accepts and reject
  the rest at their parsers.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from repro.circuit import AnalysisError
from repro.exec import ResultCache
from repro.experiments import (
    PAPER_ARTEFACTS,
    REGISTRY,
    RUN_CONFIG_SCHEMA_VERSION,
    ExperimentResult,
    Param,
    RunConfig,
    describe,
    get_spec,
    list_experiments,
    run_all,
    run_config,
)
from repro.experiments.base import _json_scalar
from repro.experiments.spec import SPECS

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestRegistryIntrospection:
    def test_all_22_registered_via_specs(self):
        assert len(SPECS) == 22
        assert set(SPECS) == set(REGISTRY)
        for eid, spec in SPECS.items():
            assert spec.id == eid
            assert spec.title == REGISTRY[eid][0]
            assert spec.entry is REGISTRY[eid][1]
            assert getattr(spec.entry, "__experiment_spec__") is spec

    def test_paper_artefacts_derived_from_tags(self):
        assert PAPER_ARTEFACTS == ("table1", "fig4", "fig5", "fig6",
                                   "fig7", "table2", "fig8")
        assert set(list_experiments(tag="paper")) == set(PAPER_ARTEFACTS)

    def test_list_experiments_tag_filter(self):
        assert list_experiments() == list(SPECS)
        mc = list_experiments(tag="monte-carlo")
        assert set(mc) == {"ext_montecarlo", "ext_yield"}
        assert list_experiments(tag="no-such-tag") == []

    def test_describe_one_and_all(self):
        document = describe()
        assert document["schema_version"] == RUN_CONFIG_SCHEMA_VERSION
        assert document["count"] == len(SPECS)
        one = describe("ext_yield")
        assert one["id"] == "ext_yield"
        names = [p["name"] for p in one["params"]]
        assert names == ["fidelity", "seed", "method"]
        assert one["description"]  # module docstring fallback

    def test_describe_unknown_experiment(self):
        with pytest.raises(AnalysisError):
            describe("fig99")

    def test_every_spec_has_fidelity_first(self):
        for spec in SPECS.values():
            assert spec.params[0].name == "fidelity"
            assert spec.params[0].choices == ("fast", "paper")


class TestSchemaDriftNet:
    """Declared schemas must match the runner signatures exactly."""

    @pytest.mark.parametrize("experiment_id", sorted(SPECS))
    def test_schema_matches_runner_signature(self, experiment_id):
        spec = SPECS[experiment_id]
        signature = inspect.signature(spec.runner)
        sig_names = list(signature.parameters)
        declared = [p.name for p in spec.params]
        assert declared == sig_names, (
            f"{experiment_id}: declared params {declared} != runner "
            f"signature {sig_names}")
        for param in spec.runner_params:
            sig_param = signature.parameters[param.name]
            assert sig_param.default is not inspect.Parameter.empty, (
                f"{experiment_id}.{param.name}: runner parameter must "
                "have a default")
            sig_default = sig_param.default
            if isinstance(sig_default, (list, tuple)):
                sig_default = tuple(float(v) for v in sig_default)
            assert param.default == sig_default, (
                f"{experiment_id}.{param.name}: schema default "
                f"{param.default!r} != runner default {sig_default!r}")

    @pytest.mark.parametrize("experiment_id", sorted(SPECS))
    def test_every_param_documented(self, experiment_id):
        for param in SPECS[experiment_id].params:
            assert param.help, f"{experiment_id}.{param.name}: no help"


class TestSchemaSnapshot:
    def test_committed_snapshot_matches_describe(self):
        """``experiments_schema.json`` is the reviewable API surface.

        Regenerate after an intentional change with::

            PYTHONPATH=src python -m repro list --json > experiments_schema.json
        """
        path = REPO_ROOT / "experiments_schema.json"
        assert path.exists(), "experiments_schema.json missing"
        committed = json.loads(path.read_text())
        assert committed == json.loads(
            json.dumps(describe())), (
            "experiment schemas drifted from experiments_schema.json; "
            "regenerate with: PYTHONPATH=src python -m repro list --json "
            "> experiments_schema.json")

    def test_cli_list_json_equals_snapshot(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["list", "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        committed = json.loads(
            (REPO_ROOT / "experiments_schema.json").read_text())
        assert printed == committed


class TestParamValidation:
    def test_int_param(self):
        p = Param("seed", "int", default=3, minimum=0)
        assert p.validate(5) == 5
        for bad in (True, 1.5, "5", -1):
            with pytest.raises(AnalysisError):
                p.validate(bad)

    def test_float_param_coerces_int(self):
        p = Param("vdd", "float", default=2.5, minimum=0.1, maximum=5.0)
        assert p.validate(3) == 3.0 and isinstance(p.validate(3), float)
        for bad in ("x", 0.0, 6.0, True):
            with pytest.raises(AnalysisError):
                p.validate(bad)

    def test_floats_param_normalises_to_tuple(self):
        p = Param("duties", "floats", default=None, minimum=0.0,
                  maximum=1.0)
        assert p.validate([0, 1]) == (0.0, 1.0)
        assert p.validate(np.array([0.5])) == (0.5,)
        assert p.validate(None) is None  # default None = fidelity grid
        for bad in ("0.5", [], [1.5], [[0.2]], ["a"]):
            with pytest.raises(AnalysisError):
                p.validate(bad)

    def test_choices(self):
        p = Param("method", "str", default="auto",
                  choices=("auto", "loop"))
        assert p.validate("loop") == "loop"
        with pytest.raises(AnalysisError):
            p.validate("gpu")

    def test_unknown_type_rejected_at_declaration(self):
        with pytest.raises(AnalysisError):
            Param("x", "complex")

    def test_parse_cli_spellings(self):
        assert Param("seed", "int", default=0).parse("7") == 7
        assert Param("v", "float", default=0.0).parse("2.5") == 2.5
        assert Param("g", "floats", default=None).parse("0.1, 0.9,") \
            == (0.1, 0.9)
        with pytest.raises(AnalysisError):
            Param("seed", "int", default=0).parse("seven")


class TestRunConfig:
    def test_defaults_filled_and_canonical(self):
        explicit = RunConfig.build("ext_montecarlo", "fast",
                                   {"seed": 3, "method": "auto"})
        implicit = RunConfig.build("ext_montecarlo", "fast", {})
        assert explicit == implicit
        assert hash(explicit) == hash(implicit)
        assert explicit.key() == implicit.key()
        assert explicit.param_dict() == {"seed": 3, "method": "auto"}

    def test_key_depends_on_params_and_fidelity(self):
        base = RunConfig.build("ext_montecarlo")
        other_seed = RunConfig.build("ext_montecarlo", params={"seed": 4})
        paper = RunConfig.build("ext_montecarlo", "paper")
        assert len({base.key(), other_seed.key(), paper.key()}) == 3

    def test_normalisation_unifies_spellings(self):
        a = RunConfig.build("fig4", "fast", {"duties": [0.2, 0.8]})
        b = RunConfig.build("fig4", "fast", {"duties": (0.2, 0.8)})
        c = RunConfig.build("fig4", "fast",
                            {"duties": np.array([0.2, 0.8])})
        assert a == b == c

    def test_unknown_experiment_and_params(self):
        with pytest.raises(AnalysisError):
            RunConfig.build("fig99")
        with pytest.raises(AnalysisError):
            RunConfig.build("fig4", "fast", {"frequencies": [1e6]})

    def test_fidelity_validated_at_choke_point(self):
        with pytest.raises(AnalysisError):
            RunConfig.build("table1", "ultra")

    def test_fidelity_inside_params_rejected_not_ignored(self):
        with pytest.raises(AnalysisError, match="own argument"):
            RunConfig.build("fig4", "fast", {"fidelity": "paper"})

    def test_from_dict_round_trip(self):
        config = RunConfig.build("ext_yield", "fast", {"seed": 2})
        clone = RunConfig.from_dict(config.canonical_dict())
        assert clone == config


class TestFidelityChokePoint:
    """Every experiment rejects a bad fidelity identically (decorator)."""

    @pytest.mark.parametrize("experiment_id",
                             ["table1", "fig4", "ext_yield"])
    def test_via_registry(self, experiment_id):
        with pytest.raises(AnalysisError, match="unknown fidelity"):
            run_config(RunConfig.build(experiment_id, "ludicrous"))

    def test_via_direct_module_call(self):
        from repro.experiments import (
            ext_sensitivity,
            fig6_fig7_supply,
            table1_parameters,
        )

        for runner in (table1_parameters.run, ext_sensitivity.run,
                       fig6_fig7_supply.run_fig6,
                       fig6_fig7_supply.run_fig7):
            with pytest.raises(AnalysisError, match="unknown fidelity"):
                runner("ludicrous")


class TestRunAllOverrides:
    def test_unknown_experiment_in_overrides(self):
        with pytest.raises(AnalysisError, match="unknown experiment"):
            run_all(overrides={"fig99": {"seed": 1}})

    def test_invalid_override_param_fails_before_running(self):
        with pytest.raises(AnalysisError):
            run_all(overrides={"ext_montecarlo": {"trials": 10}})

    def test_overrides_reach_target_experiment(self, monkeypatch):
        import dataclasses

        from repro.experiments import registry

        seen = {}
        spec = SPECS["ext_montecarlo"]
        original = spec.runner

        def spy(fidelity="fast", **kwargs):
            seen.update(kwargs, fidelity=fidelity)
            return original(fidelity=fidelity, **kwargs)

        spied = dataclasses.replace(spec, runner=spy)
        # Shrink the iterated registry to two experiments (cheap run)
        # and point the spec lookup at the spying runner.  Both views
        # normally alias one dict, hence the two patches.
        monkeypatch.setattr(registry, "SPECS",
                            {"table1": SPECS["table1"],
                             "ext_montecarlo": spied})
        monkeypatch.setitem(SPECS, "ext_montecarlo", spied)
        results = run_all(overrides={"ext_montecarlo": {"seed": 4}})
        assert set(results) == {"table1", "ext_montecarlo"}
        assert seen["fidelity"] == "fast"
        assert seen["seed"] == 4          # override applied
        assert seen["method"] == "auto"   # schema default filled


class TestJsonScalarRoundTrip:
    """Satellite: ``_json_scalar`` coercion pinned on its own."""

    def test_plain_scalars_pass_through(self):
        for value in (True, 3, 2.5, "text", None):
            assert _json_scalar(value) is value

    def test_numpy_scalars_coerce_to_python(self):
        assert _json_scalar(np.float64(1.25)) == 1.25
        assert isinstance(_json_scalar(np.float64(1.25)), float)
        assert _json_scalar(np.int32(7)) == 7
        assert isinstance(_json_scalar(np.int32(7)), int)
        assert _json_scalar(np.bool_(True)) is True

    def test_non_scalars_stringify(self):
        assert _json_scalar([1, 2]) == "[1, 2]"
        assert _json_scalar((0.5,)) == "(0.5,)"

    def test_result_round_trip_with_numpy_metrics(self):
        result = ExperimentResult(
            experiment_id="unit", title="metrics round trip",
            fidelity="fast",
            metrics={
                "np_float": np.float64(0.123456789),
                "np_int": np.int64(42),
                "np_bool": np.bool_(False),
                "plain": 1.5,
                "text": "ok",
                "non_scalar": [1, 2, 3],
            })
        clone = ExperimentResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert clone.metrics == {
            "np_float": 0.123456789, "np_int": 42, "np_bool": False,
            "plain": 1.5, "text": "ok", "non_scalar": "[1, 2, 3]",
        }
        assert clone.render() == result.render()


class TestCacheConfigKeys:
    def test_config_hit_replays_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = RunConfig.build("table1")
        assert cache.get_config(config) is None
        result = run_config(config, cache=cache)
        assert cache.counts()["by_experiment"] == {"table1": 1}
        hit = cache.get_config(config)
        assert hit is not None
        assert hit.render() == result.render()

    def test_explicit_defaults_share_one_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_config(RunConfig.build("ext_sensitivity"), cache=cache)
        assert cache.counts()["total"] == 1
        # Same computation spelled explicitly: no second entry.
        run_config(RunConfig.build("ext_sensitivity", "fast", {}),
                   cache=cache)
        assert cache.counts()["total"] == 1

    def test_config_miss_without_legacy_probe(self, tmp_path):
        # A pre-RunConfig kwargs-keyed entry, as older builds wrote it.
        legacy = tmp_path / "flat" / "table1" / "fast-0123456789abcdef.json"
        legacy.parent.mkdir(parents=True)
        result = run_config(RunConfig.build("table1"))
        legacy.write_text(json.dumps({"schema": 1, "params": {},
                                      "result": result.to_dict()}))
        cache = ResultCache(tmp_path)
        assert cache.import_flat_cache(tmp_path / "flat")["legacy"] == 1
        # No probe reads the legacy generation.
        assert cache.get_config(RunConfig.build("table1")) is None


class TestCliSchemaOptions:
    @pytest.mark.parametrize("experiment_id,flag", [
        ("fig4", "--duties"),
        ("ext_montecarlo", "--seed"),
        ("ext_montecarlo", "--method"),
        ("ext_yield", "--seed"),
        ("fig6", "--engine"),
    ])
    def test_help_shows_schema_derived_options(self, experiment_id, flag,
                                               capsys):
        from repro.__main__ import main as cli_main

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", experiment_id, "--help"])
        assert excinfo.value.code == 0
        assert flag in capsys.readouterr().out

    def test_run_with_schema_param(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["run", "ext_sensitivity", "--no-cache"]) == 0
        assert "ext_sensitivity" in capsys.readouterr().out

    def test_invalid_param_value_fails_at_parser(self, capsys):
        from repro.__main__ import main as cli_main

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", "ext_montecarlo", "--method", "gpu"])
        assert excinfo.value.code == 2
        assert "must be one of" in capsys.readouterr().err

    def test_unknown_param_fails_at_parser(self, capsys):
        from repro.__main__ import main as cli_main

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", "table1", "--duties", "0.5"])
        assert excinfo.value.code == 2

    def test_list_tag_filter(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["list", "--tag", "monte-carlo"]) == 0
        out = capsys.readouterr().out
        assert "ext_montecarlo" in out and "table1" not in out

    def test_all_set_override_rejected_when_invalid(self, capsys):
        from repro.__main__ import main as cli_main

        for bad in (["all", "--set", "nonsense"],
                    ["all", "--set", "fig99.seed=1"],
                    ["all", "--set", "ext_montecarlo.trials=9"],
                    ["all", "--set", "ext_montecarlo.seed=x"],
                    ["all", "--set", "fig4.fidelity=paper"]):
            with pytest.raises(SystemExit) as excinfo:
                cli_main(bad)
            assert excinfo.value.code == 2, bad
            capsys.readouterr()
