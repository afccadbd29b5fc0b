"""Grid scans and the command-line interface: determinism, formats, exit codes."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import memchan.scan
from memchan.cli import main
from memchan.scan import (
    COLUMNS,
    FIGURE_IDS,
    QUANTITIES,
    ScanSpec,
    emit_figure_data,
    figure_specs,
    format_rows,
    run_scan,
    write_rows,
)


def small_spec(quantity="classical-lower"):
    return ScanSpec.from_ranges(
        quantity=quantity,
        n=4,
        nbar=8.0,
        etas=(0.7, 0.9),
        temps=(0.0,),
        s_min=0.0,
        s_max=1.0,
        s_steps=3,
    )


class TestScanSpec:
    def test_from_ranges_grid(self):
        spec = small_spec()
        assert spec.s_values == (0.0, 0.5, 1.0)
        assert spec.etas == (0.7, 0.9)

    def test_rejects_unknown_quantity(self):
        with pytest.raises(ValueError):
            ScanSpec(
                quantity="banana", n=4, nbar=8.0, etas=(0.9,), temps=(0.0,), s_values=(0.0,)
            )

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            ScanSpec(
                quantity="quantum", n=4, nbar=8.0, etas=(), temps=(0.0,), s_values=(0.0,)
            )
        with pytest.raises(ValueError):
            ScanSpec.from_ranges(
                quantity="quantum", n=4, nbar=8.0, etas=(0.9,), temps=(0.0,),
                s_min=0.0, s_max=1.0, s_steps=0,
            )

    def test_rejects_nonfinite_grid_entries(self):
        # every grid value goes through ChannelConfig's checks, not only the first
        for grids in (
            {"etas": (0.9,), "temps": (0.0, float("nan")), "s_values": (0.0,)},
            {"etas": (0.9,), "temps": (0.0, float("inf")), "s_values": (0.0,)},
            {"etas": (0.9,), "temps": (0.0,), "s_values": (0.0, float("inf"))},
            {"etas": (0.9, float("nan")), "temps": (0.0,), "s_values": (0.0,)},
            # finite but past channel.MAX_TEMP and MAX_ABS_S
            {"etas": (0.9,), "temps": (0.0, 2e6), "s_values": (0.0,)},
            {"etas": (0.9,), "temps": (0.0,), "s_values": (0.0, -61.0)},
        ):
            with pytest.raises(ValueError):
                ScanSpec(quantity="quantum", n=4, nbar=8.0, **grids)

    def test_out_of_domain_grid_value_raises_channel_message(self):
        for grids, message in (
            ({"etas": (0.9, 1.5), "temps": (0.0,), "s_values": (0.0,)}, r"eta must be in \[0, 1\], got 1.5"),
            ({"etas": (0.9,), "temps": (0.0, 2e6), "s_values": (0.0,)}, r"temp must lie in \[0, 1e\+06\]"),
            ({"etas": (0.9,), "temps": (0.0,), "s_values": (0.0, 1.0, -61.0)}, r"s must lie in \[-60, 60\]"),
        ):
            with pytest.raises(ValueError, match=message):
                ScanSpec(quantity="quantum", n=4, nbar=8.0, **grids)

    def test_rejects_non_integer_counts(self):
        # a float or bool count would otherwise fail mid-run in the pool or in np.linspace
        grids = {"etas": (0.9,), "temps": (0.0,)}
        one = ScanSpec(quantity="quantum", n=4, nbar=8.0, s_values=(0.0,), **grids)
        for bad in (
            lambda: run_scan(one, jobs=2.0),
            lambda: run_scan(one, jobs=True),
            lambda: ScanSpec.from_ranges("quantum", 4, 8.0, s_min=0.0, s_max=1.0, s_steps=2.0, **grids),
            lambda: ScanSpec.from_ranges("quantum", 4, 8.0, s_min=0.0, s_max=1.0, s_steps=True, **grids),
            lambda: figure_specs("6", s_steps=2.0),
            lambda: figure_specs("3a", s_steps=2.0),
        ):
            with pytest.raises(ValueError, match="must be an integer"):
                bad()

    def test_integer_counts_are_stored_as_int(self):
        spec = ScanSpec.from_ranges("quantum", 4, 8.0, (0.9,), (0.0,), 0.0, 1.0, np.int64(2))
        assert spec.s_values == (0.0, 1.0)

    def test_separability_requires_two_modes(self):
        with pytest.raises(ValueError):
            ScanSpec(
                quantity="separability", n=4, nbar=8.0, etas=(0.9,), temps=(0.0,),
                s_values=(1.0,),
            )

    def test_delegates_channel_validation(self):
        with pytest.raises(ValueError):
            ScanSpec(
                quantity="quantum", n=4, nbar=-1.0, etas=(0.9,), temps=(0.0,),
                s_values=(0.0,),
            )


class TestRunScan:
    def test_row_grid_and_ordering(self):
        rows = run_scan(small_spec())
        assert len(rows) == 6
        assert [row["eta"] for row in rows] == [0.7] * 3 + [0.9] * 3
        assert [row["s"] for row in rows[:3]] == [0.0, 0.5, 1.0]
        assert all(set(COLUMNS) <= set(row) for row in rows)

    def test_parallel_matches_serial(self):
        serial = run_scan(small_spec(), jobs=1)
        parallel = run_scan(small_spec(), jobs=np.int64(2))  # numpy integers count as integers
        assert serial == parallel

    def test_rejects_fewer_than_one_job(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_scan(small_spec(), jobs=0)

    def test_rows_see_a_wrapper_set_on_the_module(self, monkeypatch):
        # the benchmark's tracer wraps these names; a table of function
        # objects captured at import would bypass the wrapper
        calls = []

        class Stub:
            value, converged = 0.25, True

        def wrapper(cfg):
            calls.append(cfg)
            return Stub()

        monkeypatch.setattr(memchan.scan, "maximize_quantum", wrapper)
        spec = ScanSpec(quantity="quantum", n=2, nbar=8.0, etas=(0.9,), temps=(0.0,), s_values=(0.0, 1.0))
        rows = run_scan(spec)
        assert [cfg.s for cfg in calls] == [0.0, 1.0]
        assert [(row["value_bits"], row["converged"]) for row in rows] == [(0.25, True)] * 2

    def test_values_are_deterministic_across_runs(self):
        a = run_scan(small_spec("quantum"))
        b = run_scan(small_spec("quantum"))
        assert a == b


class TestSerialization:
    def test_csv_roundtrip_and_digits(self, tmp_path):
        rows = run_scan(small_spec())
        path = write_rows(rows, tmp_path / "out.csv", "csv")
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        for raw, row in zip(parsed, rows):
            assert float(raw["value_bits"]) == pytest.approx(row["value_bits"], rel=1e-11)
            assert raw["analytic_valid"] in ("true", "false")
        # twelve significant digits survive the trip
        assert any(len(raw["value_bits"].replace(".", "").lstrip("0")) >= 11 for raw in parsed)

    def test_json_roundtrip(self, tmp_path):
        rows = run_scan(small_spec())
        path = write_rows(rows, tmp_path / "out.json", "json")
        parsed = json.loads(path.read_text())
        assert [r["quantity"] for r in parsed] == ["classical-lower"] * 6
        for raw, row in zip(parsed, rows):
            assert raw["value_bits"] == pytest.approx(row["value_bits"], rel=1e-11)

    def test_reruns_are_byte_identical(self, tmp_path):
        rows = run_scan(small_spec())
        p1 = write_rows(rows, tmp_path / "a.csv", "csv")
        p2 = write_rows(run_scan(small_spec()), tmp_path / "b.csv", "csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_format_rows_matches_file_output(self, tmp_path):
        rows = run_scan(small_spec())
        path = write_rows(rows, tmp_path / "c.csv", "csv")
        assert path.read_text() == format_rows(rows, "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            format_rows([], "yaml")


class TestFigures:
    def test_all_panels_have_specs(self):
        for fid in FIGURE_IDS:
            specs = figure_specs(fid, s_steps=3)
            assert specs
            for spec in specs:
                assert spec.quantity in QUANTITIES

    def test_two_use_panel_runs_at_n2(self):
        for spec in figure_specs("6", s_steps=2):
            assert spec.n == 2

    def test_emit_seed_entropy_panel(self, tmp_path):
        paths = emit_figure_data("5", tmp_path, s_steps=3)
        assert [p.name for p in paths] == ["fig5.csv"]
        with open(paths[0], newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 3
        assert parsed[0]["quantity"] == "seed-entropy"
        assert float(parsed[0]["value_bits"]) == pytest.approx(0.0, abs=1e-8)

    def test_emit_two_use_panel_includes_boundary_file(self, tmp_path):
        paths = emit_figure_data("6", tmp_path, s_steps=2)
        names = [p.name for p in paths]
        assert "fig6.csv" in names
        assert "fig6_boundary.csv" in names

    def test_unknown_panel_rejected(self):
        with pytest.raises(ValueError):
            figure_specs("7a")

    def test_unknown_format_rejected_before_any_scan(self, tmp_path, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before checking the format")

        monkeypatch.setattr(memchan.scan, "run_scan", no_scan)
        out_dir = tmp_path / "never-made"
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            emit_figure_data("6", out_dir, s_steps=7, fmt="xml")
        assert not out_dir.exists()

    def test_bad_jobs_rejected_before_any_scan(self, tmp_path, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before checking jobs")

        monkeypatch.setattr(memchan.scan, "run_scan", no_scan)
        out_dir = tmp_path / "never-made"
        for jobs in (0, True):
            with pytest.raises(ValueError, match="jobs"):
                emit_figure_data("6", out_dir, s_steps=7, jobs=jobs)
            assert not out_dir.exists()


class TestCli:
    def test_scan_to_stdout(self, capsys):
        code = main(
            [
                "scan", "--quantity", "classical-lower", "--n", "2", "--eta", "0.9",
                "--temp", "0", "--s-min", "0", "--s-max", "1", "--s-steps", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        header, *data = out.strip().splitlines()
        assert header == ",".join(COLUMNS)
        assert len(data) == 2

    def test_scan_local_quantity_writes_local_rows(self, capsys):
        code = main(
            [
                "scan", "--quantity", "quantum-local", "--n", "2",
                "--eta", "0.9", "--s-steps", "2", "--s-max", "1",
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [row["quantity"] for row in rows] == ["quantum-local"] * 2

    def test_scenario_option_is_gone(self, capsys):
        # the -local quantities name every local scan
        with pytest.raises(SystemExit) as err:
            main(["scan", "--quantity", "quantum", "--scenario", "local", "--n", "2"])
        assert err.value.code == 2
        assert "--scenario" in capsys.readouterr().err

    def test_scan_writes_file(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        code = main(
            [
                "scan", "--quantity", "classical-upper", "--n", "4", "--eta", "0.7,0.9",
                "--s-steps", "2", "--s-max", "1", "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        assert len(json.loads(out.read_text())) == 4

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code = main(["scan", "--quantity", "classical-upper", "--n", "2", "--s-steps", "1",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        # the progress tick comes first, then one error line and no traceback
        assert err.splitlines()[-1].startswith("error:") and "Traceback" not in err

    def test_bad_eta_list_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["scan", "--quantity", "quantum", "--eta", "0.9,x"])
        assert err.value.code == 2

    def test_invalid_channel_exits_2(self, capsys):
        for bad in (["--eta", "1.5"], ["--temp", "nan"], ["--temp", "0,inf"], ["--nbar", "nan"],
                    ["--s-min", "nan"], ["--temp", "0,2e6"], ["--s-max", "61", "--s-steps", "3"]):
            code = main(["scan", "--quantity", "quantum", "--n", "2", "--s-steps", "1", *bad])
            assert code == 2
            assert "error:" in capsys.readouterr().err

    def test_failed_evaluation_exits_2(self, monkeypatch, capsys):
        def unphysical(*args):
            raise ValueError("symplectic eigenvalue below vacuum limit")

        monkeypatch.setattr("memchan.scan.env_min_ppt_symplectic", unphysical)
        code = main(["scan", "--quantity", "separability", "--n", "2", "--s-steps", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_separability_scan_at_strong_squeezing(self, capsys):
        code = main(
            ["scan", "--quantity", "separability", "--n", "2", "--s-min", "20", "--s-max", "20",
             "--s-steps", "1"]
        )
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [(row["T"], row["value_bits"]) for row in rows] == [("0", "1.03057681122e-09")]

    def test_budget_below_node_resolution_exits_0(self, capsys):
        code = main(["scan", "--quantity", "quantum", "--n", "2", "--nbar", "1e-11", "--s-steps", "1"])
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [row["value_bits"] for row in rows] == ["0"]

    def test_figure_without_s_points_exits_2(self, tmp_path, capsys):
        code = main(["figure", "3a", "--s-steps", "0", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_figure_with_no_jobs_exits_2_before_writing(self, tmp_path, capsys):
        out_dir = tmp_path / "d"
        code = main(["figure", "6", "--jobs", "0", "--out-dir", str(out_dir)])
        assert code == 2
        assert "error: jobs must be >= 1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_figure_subcommand(self, tmp_path):
        code = main(["figure", "5", "--s-steps", "2", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig5.csv").exists()

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "memchan.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},  # as pytest imports it
        )
        assert proc.returncode == 0
        assert "scan" in proc.stdout and "figure" in proc.stdout
