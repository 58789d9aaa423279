"""SPICE export, markdown report generation and waveform folding."""

import numpy as np
import pytest

from repro.circuit import (
    AnalysisError,
    Capacitor,
    Circuit,
    Mosfet,
    PwmVoltage,
    Resistor,
    Vdc,
    Vsin,
    Waveform,
    to_spice,
    write_spice,
)
from repro.core import AdderConfig, WeightedAdder
from repro.experiments import RunConfig, run_config
from repro.reporting import build_markdown_report, write_markdown_report
from repro.tech import NMOS_UMC65


class TestSpiceExport:
    def make_cell(self):
        c = Circuit("cell")
        c.add(Vdc("VDD", "vdd", "0", 2.5))
        c.add(PwmVoltage("VIN", "in", "0", v_high=2.5, frequency=500e6,
                         duty=0.5))
        c.add(Mosfet("MN", "out", "in", "0", model=NMOS_UMC65,
                     w="320n", l="1.2u"))
        c.add(Resistor("R1", "vdd", "out", "100k"))
        c.add(Capacitor("C1", "out", "0", "1p", ic=1.0))
        return c

    def test_deck_structure(self):
        deck = to_spice(self.make_cell())
        assert deck.startswith("* cell")
        assert deck.rstrip().endswith(".end")
        assert "VVDD vdd 0 DC 2.5" in deck
        assert "PULSE(" in deck
        assert ".model umc65_nmos_io NMOS (LEVEL=1" in deck
        assert "W=3.2e-07" in deck
        assert "IC=1" in deck

    @staticmethod
    def parse_deck(deck: str):
        """Minimal SPICE card reader: element cards -> (letter, nodes).

        Node counts per element letter follow the standard card
        layouts the exporter emits (R/C/L/V/I: 2, M/E/G/S: 4).
        """
        nodes_per_letter = {"R": 2, "C": 2, "L": 2, "V": 2, "I": 2,
                            "M": 4, "E": 4, "G": 4, "S": 4}
        elements = []
        nodes = set()
        for line in deck.splitlines():
            line = line.strip()
            if not line or line.startswith(("*", ".")):
                continue
            fields = line.split()
            letter = fields[0][0].upper()
            assert letter in nodes_per_letter, f"unknown card {line!r}"
            card_nodes = fields[1:1 + nodes_per_letter[letter]]
            elements.append((letter, tuple(card_nodes)))
            nodes.update(card_nodes)
        return elements, nodes

    def test_roundtrip_counts_match_netlist(self):
        # Export, re-parse the card text, and check the deck describes
        # exactly the circuit: same element count per type, same
        # non-ground node set.
        circuit = self.make_cell()
        circuit.compile()
        elements, nodes = self.parse_deck(to_spice(circuit))
        assert len(elements) == len(circuit.elements)
        letters = sorted(letter for letter, _ in elements)
        assert letters == ["C", "M", "R", "V", "V"]
        # SPICE spells ground as 0; every other node must round-trip.
        assert nodes - {"0"} == {"vdd", "in", "out"}

    def test_roundtrip_counts_match_adder_netlist(self):
        # The full 54-transistor bench: subcircuit expansion must be
        # reflected card for card (6 MOSFETs per AND cell + sources,
        # per-cell resistors and the shared Cout).
        adder = WeightedAdder(AdderConfig())
        circuit = adder.build_circuit((0.2, 0.5, 0.8), (1, 2, 3))
        circuit.compile()
        elements, nodes = self.parse_deck(to_spice(circuit))
        assert len(elements) == len(circuit.elements)
        counts = {}
        for letter, _ in elements:
            counts[letter] = counts.get(letter, 0) + 1
        assert counts["M"] == adder.config.transistor_count
        expected_nodes = {n for n in circuit.node_names}
        spice_nodes = {n.replace(".", "_") for n in expected_nodes}
        assert nodes - {"0"} == spice_nodes

    def test_ground_aliases_map_to_zero(self):
        c = Circuit()
        c.add(Resistor("R1", "a", "gnd", "1k"))
        c.add(Vdc("V1", "a", "0", 1.0))
        deck = to_spice(c)
        assert "RR1 a 0 1000" in deck

    def test_subcircuit_nodes_flattened(self):
        adder = WeightedAdder(AdderConfig())
        circuit = adder.build_circuit([0.5] * 3, [7] * 3)
        deck = to_spice(circuit)
        # Hierarchical names flattened with underscores; 54 devices.
        assert deck.count("\nMX") == 54
        assert "X0_0_ROUT" in deck

    def test_sin_source(self):
        c = Circuit()
        c.add(Vsin("V1", "a", "0", offset=1.0, amplitude=0.5,
                   frequency=1e6))
        c.add(Resistor("R1", "a", "0", "1k"))
        assert "SIN(1 0.5 1e+06 0)" in to_spice(c)

    def test_analysis_lines_appended(self):
        deck = to_spice(self.make_cell(),
                        analysis_lines=[".tran 10p 100n"])
        assert ".tran 10p 100n" in deck

    def test_write_to_disk(self, tmp_path):
        path = write_spice(self.make_cell(), tmp_path / "cell.cir")
        assert path.read_text().startswith("* cell")


class TestMarkdownReport:
    @pytest.fixture(scope="class")
    def results(self):
        return {
            "table1": run_config(RunConfig.build("table1")),
            "ext_transistor_count": run_config(
                RunConfig.build("ext_transistor_count")),
        }

    def test_report_contains_sections(self, results):
        text = build_markdown_report(results)
        assert "# Reproduction report" in text
        assert "## `table1`" in text
        assert "## `ext_transistor_count`" in text
        assert "| Parameter |" in text

    def test_metrics_and_notes_included(self, results):
        text = build_markdown_report(results)
        assert "`pwm_transistors` = 54" in text
        assert "> Paper" in text or "> The" in text

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            build_markdown_report({})

    def test_write_to_disk(self, results, tmp_path):
        path = write_markdown_report(results, tmp_path / "r.md",
                                     title="T")
        assert path.read_text().startswith("# T")


class TestWaveformFold:
    def test_folding_recovers_periodic_shape(self):
        period = 1e-6
        t = np.linspace(0, 10 * period, 5001)
        y = np.sin(2 * np.pi * t / period)
        folded = Waveform(t, y).fold(period, n_bins=100)
        assert len(folded) == 100
        # Shape preserved: peak near T/4, trough near 3T/4.
        assert folded.value_at(0.25 * period) == pytest.approx(1.0,
                                                               abs=0.01)
        assert folded.value_at(0.75 * period) == pytest.approx(-1.0,
                                                               abs=0.01)

    def test_folding_averages_noise(self):
        period = 1e-6
        rng = np.random.default_rng(0)
        t = np.linspace(0, 50 * period, 20001)
        y = np.sin(2 * np.pi * t / period) + rng.normal(0, 0.3, t.size)
        folded = Waveform(t, y).fold(period, n_bins=50)
        clean = np.sin(2 * np.pi * folded.t / period)
        assert float(np.max(np.abs(folded.y - clean))) < 0.1

    def test_validation(self):
        w = Waveform([0, 1], [0, 1])
        with pytest.raises(AnalysisError):
            w.fold(0.0)
        with pytest.raises(AnalysisError):
            w.fold(1.0, n_bins=1)
