"""Command-line interface: fit, simulate, compare, report, exit codes."""

import csv
import io
import json

import numpy as np
import pytest

from smoothsel.cli import main


def write_xy(path, x, y, header=("x", "y")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for xi, yi in zip(x, y):
            writer.writerow([repr(float(xi)), repr(float(yi))])


class TestFitCommand:
    def test_constant_response_selects_order_zero(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_xy(data, np.linspace(0, 1, 50), np.full(50, 1.7))
        code = main(["fit", str(data)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected_order"] == 0
        assert payload["link"] == "identity"

    def test_output_files_and_curve(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 120)
        y = np.sin(2 * np.pi * x) + 0.2 * rng.standard_normal(120)
        data = tmp_path / "data.csv"
        write_xy(data, x, y)
        out = tmp_path / "result.json"
        code = main(["fit", str(data), "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["selected_order"] >= 1
        curve = tmp_path / "result_curve.csv"
        assert curve.exists()
        rows = list(csv.DictReader(io.StringIO(curve.read_text())))
        assert rows[0].keys() == {"x", "fitted", "order", "posterior"}
        posterior = [
            float(r["posterior"]) for r in rows if r["posterior"] != ""
        ]
        assert len(posterior) == payload["max_order"] + 1
        assert sum(posterior) == pytest.approx(1.0, abs=1e-8)

    def test_custom_column_names(self, tmp_path, capsys):
        data = tmp_path / "named.csv"
        write_xy(
            data, np.linspace(0, 1, 60), np.full(60, 0.4), header=("dose", "level")
        )
        code = main(
            ["fit", str(data), "--predictor", "dose", "--response", "level"]
        )
        assert code == 0
        capsys.readouterr()

    def test_binary_routing(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 80)
        y = (rng.uniform(size=80) < 0.3 + 0.5 * x).astype(float)
        data = tmp_path / "bin.csv"
        write_xy(data, x, y)
        code = main(["fit", str(data), "--binary", "--mc-draws", "1000", "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["link"] == "probit"
        assert payload["omega_prior"] is None
        assert sum(payload["posterior"]) == pytest.approx(1.0, abs=1e-8)

    def test_mc_draws_below_minimum_is_input_error(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 80)
        y = (rng.uniform(size=80) < 0.3 + 0.5 * x).astype(float)
        data = tmp_path / "bin.csv"
        write_xy(data, x, y)
        code = main(["fit", str(data), "--binary", "--mc-draws", "500"])
        assert code == 2
        assert "mc_draws must be >= 1000, got 500" in capsys.readouterr().err

    def test_missing_column_names_it(self, tmp_path, capsys):
        data = tmp_path / "cols.csv"
        write_xy(data, [0.1, 0.5, 0.9], [1.0, 2.0, 3.0], header=("a", "b"))
        code = main(["fit", str(data)])
        assert code == 2
        err = capsys.readouterr().err
        assert "x" in err

    def test_malformed_cell_reports_row(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("x,y\n0.1,1.0\n0.5,oops\n0.9,3.0\n")
        code = main(["fit", str(data)])
        assert code == 2
        err = capsys.readouterr().err
        assert "3" in err and "y" in err

    def test_degenerate_predictor_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "deg.csv"
        write_xy(data, np.full(30, 0.5), np.linspace(0, 1, 30))
        code = main(["fit", str(data)])
        assert code == 2
        capsys.readouterr()

    def test_omega_prior_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 80)
        y = x + 0.1 * rng.standard_normal(80)
        data = tmp_path / "zs.csv"
        write_xy(data, x, y)
        code = main(["fit", str(data), "--omega-prior", "zellner-siow"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["omega_prior"]["kind"] == "zellner-siow"


class TestSimulateAndCompare:
    def test_three_rep_csv_reproducible(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        base = [
            "simulate",
            "--function", "poly5",
            "--n", "100",
            "--snr", "1",
            "--reps", "3",
            "--seed", "7",
            "--no-timing",
        ]
        assert main(base + ["--output", str(first)]) == 0
        assert main(base + ["--output", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        rows = first.read_text().strip().splitlines()
        assert len(rows) == 4

    def test_simulate_defaults_to_bayes_only(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(
            [
                "simulate",
                "--function", "poly5",
                "--n", "80",
                "--snr", "2",
                "--reps", "2",
                "--seed", "1",
                "--output", str(out),
            ]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert "order_cv" not in header
        assert "time_bayes" in header
        summary = capsys.readouterr().out
        assert "records" in summary

    def test_compare_includes_cv_columns(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = main(
            [
                "compare",
                "--function", "pwlinear",
                "--n", "80",
                "--snr", "1",
                "--reps", "2",
                "--seed", "2",
                "--output", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        header = out.read_text().splitlines()[0]
        for column in ("order_cv", "supnorm_cv", "time_cv"):
            assert column in header

    def test_methods_flag_drops_cv(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = main(
            [
                "compare",
                "--function", "poly5",
                "--n", "80",
                "--snr", "1",
                "--reps", "2",
                "--seed", "3",
                "--methods", "bayes",
                "--output", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert "order_cv" not in out.read_text().splitlines()[0]

    def test_zero_reps_rejected(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--function", "poly5",
                "--n", "80",
                "--snr", "1",
                "--reps", "0",
                "--output", str(tmp_path / "zero.csv"),
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_unknown_function_rejected(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--function", "spline",
                "--n", "80",
                "--snr", "1",
                "--reps", "2",
                "--output", str(tmp_path / "f.csv"),
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_grid_is_function_by_n_by_snr(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "simulate",
                "--function", "poly5",
                "--n", "60,80",
                "--snr", "1,2",
                "--reps", "2",
                "--seed", "5",
                "--output", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 8
        cells = {(r["n"], r["snr"]) for r in rows}
        assert len(cells) == 4


class TestReport:
    def make_results(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main(
            [
                "compare",
                "--function", "poly5",
                "--n", "80",
                "--snr", "2",
                "--reps", "4",
                "--seed", "9",
                "--output", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        return out

    def test_frequency_rows_sum_to_reps(self, tmp_path, capsys):
        results = self.make_results(tmp_path, capsys)
        code = main(["report", str(results)])
        assert code == 0
        text = capsys.readouterr().out
        assert "# selection frequency" in text
        assert "# timing quantiles" in text
        section = text.split("# selection frequency")[1].split("# timing")[0]
        rows = [r for r in section.strip().splitlines() if r and "," in r]
        header, body = rows[0], rows[1:]
        assert header.startswith("order,count_bayes,count_cv")
        totals = [0, 0]
        for line in body:
            _, bayes_count, cv_count = line.split(",")
            totals[0] += int(bayes_count)
            totals[1] += int(cv_count)
        assert totals == [4, 4]

    def test_quantiles_monotone(self, tmp_path, capsys):
        results = self.make_results(tmp_path, capsys)
        code = main(["report", str(results)])
        assert code == 0
        text = capsys.readouterr().out
        section = text.split("# timing quantiles")[1]
        rows = [r for r in section.strip().splitlines() if r and "," in r]
        assert rows[0].startswith("metric,q2.5,q50,q97.5")
        for line in rows[1:]:
            _, lo, mid, hi = line.split(",")
            assert float(lo) <= float(mid) <= float(hi)

    def test_markdown_format(self, tmp_path, capsys):
        results = self.make_results(tmp_path, capsys)
        code = main(["report", str(results), "--format", "markdown"])
        assert code == 0
        text = capsys.readouterr().out
        assert "|" in text and "---" in text

    def test_report_to_file(self, tmp_path, capsys):
        results = self.make_results(tmp_path, capsys)
        out = tmp_path / "tables.csv"
        code = main(["report", str(results), "--output", str(out)])
        assert code == 0
        capsys.readouterr()
        assert "# selection frequency" in out.read_text()

    def test_empty_file_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2
        capsys.readouterr()

    def test_schema_mismatch_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        assert main(["report", str(bad)]) == 2
        capsys.readouterr()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_xy(data, [0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
        assert main(["fit", str(data), "--bogus"]) == 2
        capsys.readouterr()

    def test_missing_input_file(self, capsys):
        assert main(["fit", "/nonexistent/file.csv"]) == 2
        capsys.readouterr()
