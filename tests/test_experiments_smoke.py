"""Smoke tests: every experiment module runs and renders.

The benchmarks assert the published shapes; these tests only guarantee
the experiment APIs stay runnable from plain pytest (small parameters),
that renders return non-empty text, and that results are deterministic
per seed.
"""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    ablations,
    extensions,
    fig06_tma,
    fig07_vco,
    fig08_patterns,
    fig09_waveforms,
    fig10_snr_map,
    fig11_ber_cdf,
    fig12_range,
    fig13_multinode,
    table1,
)
from repro.antenna import half_power_beamwidth_deg, pattern_orthogonality_db
from repro.antenna.orthogonal import measured_mmx_beams
from repro.channel import raytrace
from repro.experiments.report import ascii_heatmap, cdf_points, format_table


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 3e-7]],
                            title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_ascii_heatmap_shape(self):
        grid = np.arange(12, dtype=float).reshape(3, 4)
        text = ascii_heatmap(grid, 0.0, 11.0)
        assert len(text.splitlines()) == 3
        assert all(len(row) == 4 for row in text.splitlines())

    def test_ascii_heatmap_nan_blank(self):
        grid = np.array([[np.nan, 5.0]])
        assert ascii_heatmap(grid, 0.0, 10.0)[0] == " "

    def test_heatmap_invalid_range(self):
        with pytest.raises(ValueError):
            ascii_heatmap(np.zeros((2, 2)), 1.0, 1.0)

    def test_cdf_points(self):
        x, p = cdf_points([3.0, 1.0, 2.0])
        assert list(x) == [1.0, 2.0, 3.0]
        assert p[-1] == pytest.approx(1.0)

    def test_cdf_empty(self):
        with pytest.raises(ValueError):
            cdf_points([])


class TestExperimentSmoke:
    def test_fig06(self):
        result = fig06_tma.run()
        assert fig06_tma.render(result)

    def test_fig07(self):
        result = fig07_vco.run(num_points=11)
        assert "VCO" in fig07_vco.render(result)

    def test_fig08(self):
        result = fig08_patterns.run(num_points=181)
        assert "Beam 1" in fig08_patterns.render(result)

    def test_fig09(self):
        result = fig09_waveforms.run(num_placements=40)
        assert "ambiguous" in fig09_waveforms.render(result)

    def test_fig10(self):
        result = fig10_snr_map.run(grid_step_m=1.0)
        text = fig10_snr_map.render(result)
        assert "OTAM" in text
        assert result.snr_with_otam_db.shape == result.snr_without_otam_db.shape

    def test_fig11(self):
        result = fig11_ber_cdf.run(num_placements=10)
        assert result.ber_with_otam.size == 10
        assert fig11_ber_cdf.render(result)

    def test_fig12(self):
        result = fig12_range.run(max_distance_m=10.0, num_points=5,
                                 num_carriers=2)
        assert result.distances_m.size == 5
        assert fig12_range.render(result)

    def test_fig13(self):
        result = fig13_multinode.run(node_counts=(1, 3), trials_per_count=3)
        assert result.node_counts == (1, 3)
        assert fig13_multinode.render(result)

    def test_table1(self):
        assert "mmX" in table1.render(table1.run())

    def test_ablations(self):
        text = ablations.render(
            ablations.run_orthogonality(num_placements=30),
            ablations.run_modulation(num_placements=30),
            ablations.run_beam_search())
        assert "orthogonal" in text

    def test_extensions(self):
        mob = extensions.run_mobility(duration_s=5.0)
        assert extensions.render_mobility(mob)
        sched = extensions.run_scheduler(num_nodes=12, trials=3)
        assert extensions.render_scheduler(sched)
        band = extensions.run_60ghz()
        assert band.capacity_60ghz > band.capacity_24ghz
        assert extensions.render_60ghz(band)
        counts = extensions.run_motivation()
        assert counts["mmx"] > counts["wifi"]


class TestExperimentsRecord:
    """EXPERIMENTS.md's measured columns are what the code prints."""

    @staticmethod
    def _table_rows(heading: str) -> dict[str, list[str]]:
        text = (Path(__file__).parents[1] / "EXPERIMENTS.md").read_text()
        section = text.split(f"## {heading}", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("|") and not set(cells[0]) <= {"-"}:
                rows[cells[0]] = cells
        return rows

    def test_fig11_measured_columns_match_run(self):
        rows = self._table_rows("Fig. 11")
        assert rows["percentile"][3:5] == ["measured w/", "measured w/o"]
        result = fig11_ber_cdf.run()

        def printed(ber: float) -> str:
            if ber <= fig11_ber_cdf.BER_FLOOR:
                return "≤1e-15"
            return f"{ber:.1e}"

        def documented(cell: str) -> str:
            return cell if cell.startswith("≤") else f"{float(cell):.1e}"

        expected = {
            "median": (result.median_with(), result.median_without()),
            "90th": (result.p90_with(), result.p90_without()),
        }
        for label, bers in expected.items():
            assert [documented(c) for c in rows[label][3:5]] == \
                [printed(b) for b in bers], label

    @staticmethod
    def _measured_numbers(row: list[str]) -> list[str]:
        """The decimal numbers in a row's "measured" (third) cell."""
        return re.findall(r"\d+\.\d+", row[2])

    def test_fig10_measured_column_matches_run(self):
        rows = self._table_rows("Fig. 10")
        assert rows["property"][2] == "measured"
        result = fig10_snr_map.run()
        with_otam = result.snr_with_otam_db
        expected = {
            "without OTAM: locations < 5 dB":
                [f"{result.fraction_below_5db_without:.1%}"[:-1]],
            "with OTAM: locations ≥ 10 dB":
                [f"{result.fraction_above_10db_with:.1%}"[:-1],
                 f"{np.nanmin(with_otam):.1f}"],
            "with OTAM map maximum": [f"{np.nanmax(with_otam):.1f}"],
        }
        for label, numbers in expected.items():
            assert self._measured_numbers(rows[label]) == numbers, label

    def test_fig12_measured_column_matches_run(self):
        rows = self._table_rows("Fig. 12")
        assert rows["property"][2] == "measured"
        result = fig12_range.run()
        expected = {
            "near-field SNR (~1 m)": [f"{result.snr_facing_db[0]:.1f}",
                                      f"{result.snr_not_facing_db[0]:.1f}"],
            "facing SNR at 18 m": [f"{result.snr_facing_at_max_m:.1f}"],
            "not-facing SNR at 18 m":
                [f"{result.snr_not_facing_at_max_m:.1f}"],
        }
        for label, numbers in expected.items():
            assert self._measured_numbers(rows[label]) == numbers, label
        facing_wins = bool(np.all(result.snr_facing_db
                                  >= result.snr_not_facing_db))
        assert rows["monotone decay, facing ≥ not facing"][2] == (
            "yes" if result.monotone_decay() and facing_wins else "no")

    def test_fig13_measured_column_matches_run(self):
        rows = self._table_rows("Fig. 13")
        assert rows["nodes"][2] == "measured mean SINR"
        result = fig13_multinode.run()
        for count, mean in zip(result.node_counts, result.mean_sinr_db):
            assert self._measured_numbers(rows[str(count)]) == \
                [f"{mean:.1f}"], count

    @staticmethod
    def _numbers(cell: str) -> list[str]:
        """Every number in a cell, signed with an ASCII minus."""
        return re.findall(r"-?\d+(?:\.\d+)?", cell.replace("−", "-"))

    def test_fig08_measured_column_matches_run(self):
        rows = self._table_rows("Fig. 8")
        assert rows["property"][2] == "measured"
        result = fig08_patterns.run()
        fit = measured_mmx_beams()
        coverage = ablations.run_orthogonality(
            num_placements=1).coverage_angle_orthogonal_deg
        expected = {  # render() prints these with format_table's .3g
            "Beam 1 peak": [f"{result.beam1_peak_deg:.3g}"],
            "Beam 0 peaks": [f"{result.beam0_peak_abs_deg:.3g}"],
            "mutual nulls": [f"{result.beam1_depth_at_beam0_peak_db:.3g}",
                             f"{result.beam0_depth_at_beam1_peak_db:.3g}"],
            "azimuth 3 dB beamwidth": [
                f"{result.beam1_beamwidth_deg:.3g}",
                f"{half_power_beamwidth_deg(fit.beam1):.0f}"],
            "field of view": [f"{coverage:.0f}"],
        }
        for label, numbers in expected.items():
            measured = self._numbers(rows[label][2])
            assert measured[:len(numbers)] == numbers, label
        bound = float(self._numbers(rows["mutual nulls"][2])[-1])
        assert max(pattern_orthogonality_db(fit.beam1, fit.beam0),
                   pattern_orthogonality_db(fit.beam0, fit.beam1)) < bound

    def test_fig09_measured_column_matches_run(self):
        rows = self._table_rows("Fig. 9")
        assert rows["claim"][2] == "measured"
        result = fig09_waveforms.run()
        for label, case in [
                ("distinct-loss capture decodes via ASK", result.ask_case),
                ("equal-loss capture decodes via FSK", result.fsk_case)]:
            assert rows[label][2] == (f"{case.decoded_branch.upper()} "
                                      f"branch, {case.bit_errors} bit "
                                      "errors"), label
        expected = {
            "chance both beams see the same loss":
                f"{result.ambiguous_fraction:.1%}",
            "those placements still decodable":
                f"{result.ambiguous_decoded_fraction:.1%}",
        }
        for label, printed in expected.items():
            assert self._numbers(rows[label][2])[0] == printed[:-1], label

    def test_table1_rows_match_run(self):
        rows = self._table_rows("Table 1")
        assert rows["check"][2] == "measured"
        result = table1.run()
        mmx, wifi, bt = (result.row(name)
                         for name in ("mmX", "WiFi", "Bluetooth"))
        mmwave = [result.row(name) for name in ("MiRa", "OpenMili")]
        # The mmX row's paper figures, at the precision render() prints.
        printed = [f"{mmx.cost_usd:,.0f}", f"{mmx.power_w:.3g}",
                   f"{mmx.tx_power_dbm:.0f}",
                   f"{mmx.bandwidth_hz / 1e6:.0f}",
                   f"{mmx.bitrate_bps / 1e6:.0f}",
                   f"{mmx.energy_per_bit_j * 1e9:.1f}",
                   f"{mmx.range_m:.0f}"]
        assert [float(n) for n in self._numbers(rows["mmX row"][1])] \
            == [float(p) for p in printed]
        assert rows["mmX row"][2].startswith("identical")

        def verdict(label: str) -> str:
            return rows[label][2].split()[0]

        def yes(holds: bool) -> str:
            return "yes" if holds else "no"

        assert verdict("mmX cheapest mmWave platform") \
            == yes(result.mmx_cheapest_mmwave)
        assert self._numbers(rows["mmX cheapest mmWave platform"][2]) \
            == [f"{result.row('MiRa').cost_usd / mmx.cost_usd:.0f}"]
        assert verdict("mmX lowest-power mmWave platform") \
            == yes(result.mmx_lowest_power_mmwave)
        energy = "mmX energy/bit < WiFi (17.5 nJ) and Bluetooth (29 nJ)"
        assert [float(n) for n in self._numbers(energy)] == [
            float(f"{s.energy_per_bit_j * 1e9:.1f}") for s in (wifi, bt)]
        assert verdict(energy) == yes(
            mmx.energy_per_bit_j < min(wifi.energy_per_bit_j,
                                       bt.energy_per_bit_j))
        assert verdict("bitrate ordering BT < mmX ≈ WiFi < MiRa/OpenMili") \
            == yes(bt.bitrate_bps < min(mmx.bitrate_bps, wifi.bitrate_bps)
                   and max(mmx.bitrate_bps, wifi.bitrate_bps)
                   < min(s.bitrate_bps for s in mmwave))


@pytest.fixture
def trace_calls(monkeypatch):
    """Count ``trace_paths`` calls through every module that imports it."""
    original = raytrace.trace_paths
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") \
                and getattr(module, "trace_paths", None) is original:
            monkeypatch.setattr(module, "trace_paths", counting)
    return calls


class TestTraceOncePerPlacement:
    """Geometry does not depend on the carrier or the beam design."""

    def test_fig12_traces_each_point_once(self, trace_calls):
        fig12_range.run(num_points=2, num_carriers=3)
        assert len(trace_calls) == 4  # 2 distances x 2 orientations

    def test_oracle_traces_each_placement_once(self, trace_calls):
        ablations.run_oracle_comparison(num_placements=3)
        assert len(trace_calls) == 3

    def test_orthogonality_traces_each_placement_once(self, trace_calls):
        ablations.run_orthogonality(num_placements=3)
        assert len(trace_calls) == 3


class TestDeterminism:
    def test_fig11_deterministic(self):
        a = fig11_ber_cdf.run(seed=5, num_placements=8)
        b = fig11_ber_cdf.run(seed=5, num_placements=8)
        assert np.array_equal(a.ber_with_otam, b.ber_with_otam)

    def test_fig11_seed_sensitivity(self):
        a = fig11_ber_cdf.run(seed=5, num_placements=8)
        b = fig11_ber_cdf.run(seed=6, num_placements=8)
        assert not np.array_equal(a.ber_with_otam, b.ber_with_otam)

    def test_fig10_deterministic(self):
        a = fig10_snr_map.run(seed=2, grid_step_m=1.2)
        b = fig10_snr_map.run(seed=2, grid_step_m=1.2)
        assert np.array_equal(a.snr_with_otam_db, b.snr_with_otam_db,
                              equal_nan=True)

    def test_fig13_deterministic(self):
        a = fig13_multinode.run(seed=1, node_counts=(2,), trials_per_count=2)
        b = fig13_multinode.run(seed=1, node_counts=(2,), trials_per_count=2)
        assert np.array_equal(a.mean_sinr_db, b.mean_sinr_db)


class TestOracleAblation:
    def test_runs_and_renders(self):
        from repro.experiments import ablations
        result = ablations.run_oracle_comparison(num_placements=20)
        assert result.num_placements == 20
        assert "phased array" in ablations.render_oracle(result)

    def test_oracle_never_worse_on_outage(self):
        from repro.experiments import ablations
        result = ablations.run_oracle_comparison(num_placements=30)
        assert result.oracle_outage <= result.otam_outage
