"""Every registered experiment renders and exports at fast fidelity.

This is the rot-guard for the experiment layer: ids, titles, tables,
figures, CSV export and markdown report generation for the whole
registry (the slowest transistor-level ones are sampled by their own
dedicated tests; here we run the cheap majority end to end).
"""

import pytest

from repro.experiments import (PAPER_ARTEFACTS, REGISTRY, RunConfig,
                               run_config)
from repro.reporting import (
    build_markdown_report,
    figure_to_csv,
    table_to_csv,
)
from repro.signals import rail_referenced_pwm
from repro.signals.supply import constant

#: Fast-running experiments (sub-second to a few seconds each).
QUICK_IDS = [
    "table1", "table2", "ext_transistor_count", "ext_robustness",
    "ext_montecarlo", "ext_ablation", "ext_kessels", "ext_noise",
    "ext_energy", "ext_sensitivity", "ext_scaling", "ext_yield",
    "ext_dynamic_supply", "ext_ac",
]


@pytest.fixture(scope="module")
def quick_results():
    return {eid: run_config(RunConfig.build(eid, "fast")) for eid in QUICK_IDS}


def test_registry_covers_all_paper_artefacts():
    assert set(PAPER_ARTEFACTS) <= set(REGISTRY)
    assert len(REGISTRY) >= 20


def test_every_quick_experiment_renders(quick_results):
    for eid, result in quick_results.items():
        text = result.render(charts=False)
        assert eid in text
        assert result.title in text
        assert len(text) > 150, eid


def test_every_quick_experiment_has_metrics(quick_results):
    for eid, result in quick_results.items():
        assert result.metrics, eid


def test_artifacts_export_cleanly(quick_results, tmp_path):
    for eid, result in quick_results.items():
        if result.table is not None:
            table_to_csv(result.table, tmp_path / f"{eid}.csv")
        for figure in result.figures:
            figure_to_csv(figure, tmp_path / f"{figure.figure_id}.csv")
    assert any(tmp_path.iterdir())


def test_combined_report_builds(quick_results):
    report = build_markdown_report(quick_results, title="CI report")
    for eid in quick_results:
        assert f"## `{eid}`" in report


def test_rail_referenced_pwm_tracks_supply():
    from repro.circuit import Circuit, Resistor, transient

    c = Circuit()
    c.add(rail_referenced_pwm("V1", "a", constant(1.8), frequency=1e6,
                              duty=0.5))
    c.add(Resistor("R1", "a", "0", "1k"))
    res = transient(c, tstop=3e-6, dt=2e-8)
    assert res.node("a").maximum() == pytest.approx(1.8, abs=0.01)
    assert res.node("a").duty_cycle(0.9) == pytest.approx(0.5, abs=0.01)
