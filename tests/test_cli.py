"""CLI subcommands: config validation, CSV/SVG artifacts, determinism."""

import json
import xml.dom.minidom


import pytest

from refugebif import continuation, timestepping
from refugebif.cli import main
from refugebif.config import load_config, parse_config
from refugebif.errors import ConfigError, NumericalError, ParameterError, StepError

from conftest import REFUGE_BOX


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "geometry": {"n": 8, "refuge_box": list(REFUGE_BOX)},
        "params": {"lambda": 1.0, "mu": 0.4, "c": 1.0, "m": 1.0, "b": 1.0},
        "continuation": {"mu_min": 0.2},
        "time": {"dt": 0.05, "t_max": 20.0, "initial_u": 0.5, "initial_v": 0.1},
        "output": {"directory": str(tmp_path / "out"), "snapshot_every": 20},
    }
    for block, values in overrides.items():
        cfg.setdefault(block, {}).update(values)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    footer = [l for l in lines[1:] if l.startswith("#")]
    return header, rows, footer


class TestConfig:
    def test_defaults_parse(self):
        cfg = parse_config({})
        assert cfg.grid.n_x == 64
        assert cfg.params.lam == 1.0
        assert cfg.mu_min == 1e-3

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"geom": {}})

    def test_unknown_block_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"params": {"lambda": 1.0, "lam": 1.0}})

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            parse_config({"params": {"variant": "cubic"}})

    def test_newton_block_tunes_corrector(self):
        cfg = parse_config({"newton": {"tol_residual": 1e-9, "max_iters": 20}})
        assert cfg.continuation.corrector.tol_residual == 1e-9
        assert cfg.continuation.corrector.max_iters == 20
        # without the block the corrector keeps its bounded default
        assert parse_config({}).continuation.corrector.max_iters == 12
        # a partial block keeps the corrector's other defaults
        partial = parse_config({"newton": {"tol_residual": 1e-9}}).continuation.corrector
        assert partial.tol_residual == 1e-9 and partial.max_iters == 12

    @pytest.mark.parametrize(
        "block,values",
        [
            ("geometry", {"domain_length": [1, "x"]}),
            ("geometry", {"n": 8.9}),
            ("geometry", {"n": True}),
            ("time", {"dt": float("nan")}),
            ("time", {"clamp_negative": "false"}),
            ("newton", {"tol_residual": float("nan")}),
            ("params", {"mu": float("nan")}),
            ("output", {"snapshot_every": 0}),
        ],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, block, values):
        with pytest.raises(ConfigError):
            parse_config({block: values})
        cfg = write_config(tmp_path, **{block: values})
        assert main(["analyze", "--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "time,error",
        [
            ({"t_max": 1e300, "dt": 1e-300}, ParameterError),  # t_max / dt overflows
            ({"initial_u": -0.5}, ConfigError),
            ({"initial_v": -0.5}, ConfigError),
        ],
    )
    def test_bad_time_block_exits_2(self, tmp_path, capsys, time, error):
        cfg = write_config(tmp_path, time=time)
        with pytest.raises(error):
            load_config(cfg)
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_zero_initial_densities_accepted(self):
        initial = parse_config({"time": {"initial_u": 0.0, "initial_v": 0.0}}).initial
        assert (initial.u, initial.v) == (0.0, 0.0)

    def test_integral_float_accepted(self):
        assert parse_config({"geometry": {"n": 8.0}}).grid.n_x == 8

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(p)


class TestAnalyze:
    def test_reference_mu_lambda(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["analyze", "--config", str(cfg), "--quiet"]) == 0
        header, rows, _ = read_csv(tmp_path / "out" / "analytics.csv")
        assert header[:2] == ["variant", "mu_lambda"]
        assert len(rows) == 2
        for row in rows:
            assert float(row[1]) == 0.5

    def test_no_refuge_identical_kernel_stats(self, tmp_path):
        cfg = write_config(tmp_path, geometry={"refuge_box": None})
        assert main(["analyze", "--config", str(cfg), "--quiet"]) == 0
        _, rows, _ = read_csv(tmp_path / "out" / "analytics.csv")
        assert rows[0][1:] == rows[1][1:]

    def test_kernel_dump_shape(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["analyze", "--config", str(cfg), "--quiet"])
        header, rows, _ = read_csv(tmp_path / "out" / "kernel_nonlinear.csv")
        assert header == ["x", "y", "value"]
        assert len(rows) == 64

    def test_invalid_refuge_box_exits_without_files(self, tmp_path):
        cfg = write_config(tmp_path, geometry={"refuge_box": [0.0, 0.375, 0.25, 0.625]})
        assert main(["analyze", "--config", str(cfg), "--quiet"]) == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, output={"directroy": "typo"})
        assert main(["analyze", "--config", str(cfg), "--quiet"]) == 2
        assert not (tmp_path / "out").exists()


class TestTrace:
    def test_branch_csv_contract(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["trace", "--config", str(cfg), "--quiet"]) == 0
        path = tmp_path / "out" / "branch_nonlinear_lambda_1.0.csv"
        header, rows, _ = read_csv(path)
        assert header == ["variant", "lambda", "mu", "avg_v", "max_v", "min_u", "newton_iters"]
        mus = [float(r[2]) for r in rows]
        assert all(b < a for a, b in zip(mus, mus[1:]))
        assert mus[-1] == 0.2
        # round-trip formatting
        assert float(rows[0][3]) == pytest.approx(1e-3, rel=1e-9)

    def test_single_variant_flag(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["trace", "--config", str(cfg), "--variant", "linear", "--quiet"]) == 0
        out = tmp_path / "out"
        assert (out / "branch_linear_lambda_1.0.csv").exists()
        assert not (out / "branch_nonlinear_lambda_1.0.csv").exists()

    def test_svg_overlay_markers(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["trace", "--config", str(cfg), "--quiet"])
        doc = xml.dom.minidom.parse(str(tmp_path / "out" / "trace.svg"))
        assert doc.documentElement.getAttribute("version") == "1.1"
        assert len(doc.getElementsByTagName("polyline")) == 2
        assert len(doc.getElementsByTagName("circle")) > 0  # linear marker o
        assert len(doc.getElementsByTagName("path")) > 0    # nonlinear marker x

    def test_rerun_bitwise_identical(self, tmp_path):
        cfg_a = write_config(tmp_path, name="a.json", output={"directory": str(tmp_path / "a")})
        cfg_b = write_config(tmp_path, name="b.json", output={"directory": str(tmp_path / "b")})
        main(["trace", "--config", str(cfg_a), "--quiet"])
        main(["trace", "--config", str(cfg_b), "--quiet"])
        for name in ("branch_nonlinear_lambda_1.0.csv", "branch_linear_lambda_1.0.csv", "trace.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_mu_min_above_onset_exits_2(self, tmp_path, capsys):
        # mu_lambda = 0.5 here; trace_branch refuses mu_min at or above it
        cfg = write_config(tmp_path, continuation={"mu_min": 0.6})
        assert main(["trace", "--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not list(tmp_path.glob("out/branch_*.csv"))

    def test_unseeded_branch_exits_1(self, tmp_path, capsys):
        # at lambda = 80 on this grid the corrector does not land the first
        # seed point on the positive branch: the run's own failure, unpatched
        cfg = write_config(
            tmp_path,
            geometry={"n": 16, "refuge_box": [0.125, 0.125, 0.875, 0.875]},
            params={"lambda": 80.0},
            continuation={"mu_min": 0.000988},
        )
        assert main(["trace", "--config", str(cfg), "--variant", "nonlinear", "--quiet"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: failed to land on the positive branch at avg_v=0.08"
        ]
        assert not (tmp_path / "out").exists()

    def test_numerical_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def failing(*args):
            raise NumericalError("corrector diverged")

        monkeypatch.setattr(continuation, "trace_branch", failing)
        cfg = write_config(tmp_path)
        assert main(["trace", "--config", str(cfg), "--quiet"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: corrector diverged"]


class TestSimulate:
    def test_above_onset_predators_die_out(self, tmp_path):
        cfg = write_config(
            tmp_path,
            params={"mu": 0.6},
            time={"dt": 0.05, "t_max": 200.0, "steady_tol": 1e-10},
        )
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 0
        _, rows, footer = read_csv(tmp_path / "out" / "simulate_nonlinear.csv")
        assert float(rows[-1][2]) < 1e-6  # avg_v column
        assert footer == ["# steady: true"]

    def test_predator_free_run_reaches_carrying_capacity(self, tmp_path):
        cfg = write_config(
            tmp_path,
            time={"dt": 0.05, "t_max": 300.0, "initial_v": 0.0, "steady_tol": 1e-10},
        )
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 0
        _, rows, _ = read_csv(tmp_path / "out" / "simulate_nonlinear.csv")
        assert abs(float(rows[-1][1]) - 1.0) < 1e-6  # avg_u column

    def test_zero_horizon_emits_initial_row_only(self, tmp_path):
        cfg = write_config(tmp_path, time={"t_max": 0.0})
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 0
        header, rows, footer = read_csv(tmp_path / "out" / "simulate_nonlinear.csv")
        assert header == ["t", "avg_u", "avg_v", "min_u", "max_v", "clamped_fraction"]
        assert len(rows) == 1
        assert float(rows[0][0]) == 0.0
        assert footer == ["# steady: false"]

    def test_variant_default_from_config(self, tmp_path):
        cfg = write_config(tmp_path, params={"variant": "linear"}, time={"t_max": 0.5})
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 0
        out = tmp_path / "out"
        assert (out / "simulate_linear.csv").exists()
        assert not (out / "simulate_nonlinear.csv").exists()

    def test_failed_second_run_writes_no_file(self, tmp_path, capsys, monkeypatch):
        real, calls = timestepping.evolve_to_steady, []

        def failing_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise StepError("step failed")
            return real(*args)

        monkeypatch.setattr(timestepping, "evolve_to_steady", failing_second)
        cfg = write_config(tmp_path, time={"t_max": 0.5})
        assert main(["simulate", "--config", str(cfg), "--variant", "both", "--quiet"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: step failed"]
        assert len(calls) == 2 and not list(tmp_path.glob("out/*"))


class TestReproduceFig1:
    def test_six_branch_files_and_svg(self, tmp_path):
        cfg = write_config(tmp_path, continuation={"mu_min": 0.25}, params={"m": 2.0})
        assert main(["reproduce-fig1", "--config", str(cfg), "--quiet"]) == 0
        out = tmp_path / "out"
        for lam in ("0.5", "1.0", "1.5"):
            for variant in ("nonlinear", "linear"):
                header, rows, _ = read_csv(out / f"branch_{variant}_lambda_{lam}.csv")
                assert rows[0][0] == variant
                assert float(rows[0][1]) == float(lam)
        doc = xml.dom.minidom.parse(str(out / "fig1.svg"))
        assert len(doc.getElementsByTagName("polyline")) == 6
        # paper parameters c = m = 1 are forced even if the config disagrees
        mus = [float(r[2]) for r in read_csv(out / "branch_nonlinear_lambda_0.5.csv")[1]]
        assert abs(mus[0] - 1.0 / 3.0) < 0.01

    def test_failed_third_trace_writes_no_file(self, tmp_path, capsys, monkeypatch):
        real, calls = continuation.trace_branch, []

        def failing_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise NumericalError("corrector diverged")
            return real(*args)

        monkeypatch.setattr(continuation, "trace_branch", failing_third)
        cfg = write_config(tmp_path, continuation={"mu_min": 0.25})
        assert main(["reproduce-fig1", "--config", str(cfg), "--quiet"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: corrector diverged"]
        assert len(calls) == 3 and not list(tmp_path.glob("out/*"))
