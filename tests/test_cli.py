import csv
import io
import json
import math

import pytest

from dunkl_appell import (
    AppellFamily,
    ConfigurationError,
    DunklContext,
    OperatorSpec,
    central_moments,
    moments_closed,
)
from dunkl_appell import appell
from dunkl_appell.cli import COLUMNS, emit, grid_points, main, parse_config

from conftest import shrink_sinx_modulus

HEADER = "x,n,Kf,f,abs_err,omega1,omega2,bound,margin,theorem"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    rows = list(csv.DictReader(io.StringIO(out)))
    return rows


class TestGridPoints:
    def test_inclusive_endpoints(self):
        xs = grid_points(0.0, 2.0, 0.1)
        assert len(xs) == 21
        assert xs[0] == 0.0
        assert abs(xs[-1] - 2.0) < 1e-12

    def test_single_point(self):
        assert grid_points(1.0, 1.0, 0.5) == [1.0]


class TestEmit:
    def test_header_is_bit_exact(self, capsys):
        emit([], "csv", None)
        out = capsys.readouterr().out
        assert out == HEADER + "\n"

    def test_seventeen_significant_digits_round_trip(self, capsys):
        row = {c: None for c in COLUMNS}
        row.update(x=1 / 3, n=7, Kf=math.pi, f=0.1, abs_err=0.0)
        emit([row], "csv", None)
        out = capsys.readouterr().out
        parsed = parse_csv(out)[0]
        assert float(parsed["x"]) == 1 / 3
        assert float(parsed["Kf"]) == math.pi
        assert float(parsed["f"]) == 0.1
        assert parsed["theorem"] == ""

    def test_json_mirrors_field_names(self, capsys):
        row = {c: None for c in COLUMNS}
        row.update(x=0.25, n=3, Kf=1.0)
        emit([row], "json", None)
        data = json.loads(capsys.readouterr().out)
        assert data == [row]


class TestMomentsMode:
    def test_unit_family_identities(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--mu", "0.5", "--family", "unit", "--n", "10", "--x", "1"
        )
        assert code == 0
        assert out.splitlines()[0] == HEADER
        row = parse_csv(out)[0]
        assert abs(float(row["Kf"]) - 1.0) <= 1e-12
        assert abs(float(row["omega1"])) <= 1e-12
        assert float(row["n"]) == 10

    def test_rows_sorted_by_n_then_x(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--mu", "0", "--n", "10,5", "--x-grid", "0:1:0.5"
        )
        assert code == 0
        rows = parse_csv(out)
        keys = [(int(r["n"]), float(r["x"])) for r in rows]
        assert keys == sorted(keys)

    def test_rows_equal_the_library_bit_for_bit(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--mu", "0.5", "--family", "gould-hopper",
            "--gh-a", "0.5", "--gh-d", "1", "--n", "10,300", "--x-grid", "0:2.4:0.3",
        )
        assert code == 0
        family = AppellFamily.gould_hopper(DunklContext(0.5), 0.5, 1)
        for row in parse_csv(out):
            x, spec = float(row["x"]), OperatorSpec(family=family, n=int(row["n"]))
            _, m1, _ = moments_closed(spec, x)
            cm = central_moments(spec, x)
            assert float(row["Kf"]) == m1
            assert float(row["abs_err"]) == abs(m1 - x)
            assert float(row["omega1"]) == cm.omega1
            assert float(row["omega2"]) == cm.omega2


class TestEvalMode:
    def test_classical_second_moment(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--mu", "0", "--family", "unit", "--f", "square",
            "--n", "20", "--x", "1",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["Kf"]) - 1.05) <= 1e-10
        assert row["bound"] == ""

    def test_requires_function(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--n", "5", "--x", "1")
        assert code == 1
        assert "--f" in err


class TestConvergeMode:
    def test_sup_error_halves_for_square(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--mu", "0", "--family", "unit", "--f", "square",
            "--n", "5,10,20,40", "--x-grid", "0:2:0.1",
        )
        assert code == 0
        errs = [float(r["abs_err"]) for r in parse_csv(out)]
        assert len(errs) == 4
        for a, b in zip(errs, errs[1:]):
            assert abs(b / a - 0.5) <= 0.05  # halving within 10%

    def test_reaches_past_old_overflow_point(self, capsys):
        # n*x reaches 800; e_mu(n*x) itself would overflow past about 709
        code, out, _ = run_cli(
            capsys, "converge", "--mu", "0", "--family", "unit", "--f", "sinx",
            "--n", "400", "--x-grid", "0:2:0.5",
        )
        assert code == 0
        assert len(parse_csv(out)) == 1


class TestBoundsMode:
    def test_all_margins_positive(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--theorem", "T2", "--f", "sinx", "--mu", "0.5",
            "--family", "gould-hopper", "--gh-a", "0.5", "--gh-d", "1",
            "--n", "20", "--x-grid", "0:2:0.1",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 21
        assert all(float(r["margin"]) > 0.0 for r in rows)
        assert all(r["theorem"] == "T2" for r in rows)
        assert "violations 0" in err

    def test_sabotaged_modulus_exits_two(self, capsys, monkeypatch):
        shrink_sinx_modulus(monkeypatch)
        code, out, err = run_cli(
            capsys, "bounds", "--theorem", "T2", "--f", "sinx", "--mu", "0.5",
            "--family", "unit", "--n", "10", "--x-grid", "0:2:0.1",
        )
        assert code == 2
        assert any(float(r["margin"]) < -1e-9 for r in parse_csv(out))

    @pytest.mark.parametrize("given", [["--M", "0.001"], ["--beta", "1"]])
    def test_lone_hoelder_value_is_an_error(self, capsys, given):
        # half a pair must not fall back silently to the registry's M = 1
        code, _, err = run_cli(
            capsys, "bounds", "--theorem", "T3", "--f", "sinx", "--mu", "0.5",
            "--n", "10", "--x-grid", "0:1:0.5", *given,
        )
        assert code == 1
        assert "both M and beta" in err

    def test_another_theorems_input_is_an_error(self, capsys):
        # --M belongs to T3 and --interval-end to T4; T2 must not ignore them
        code, out, err = run_cli(
            capsys, "bounds", "--theorem", "T2", "--f", "sinx", "--mu", "0.5",
            "--n", "10", "--x-grid", "0:1:0.5", "--M", "0.001",
            "--interval-end", "0.1",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: theorem T2 takes no M or interval_end")

    def test_second_modulus_needs_interval_end(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--theorem", "T4", "--f", "cosx",
            "--n", "10", "--x-grid", "0:2:0.5",
        )
        assert code == 1
        assert "interval_end" in err


class TestJsonOutput:
    def test_round_trip_is_bit_exact(self, capsys, tmp_path):
        common = [
            "moments", "--mu", "0.5", "--family", "gould-hopper",
            "--n", "7", "--x-grid", "0:1:0.25",
        ]
        code, csv_out, _ = run_cli(capsys, *common, "--format", "csv")
        assert code == 0
        dest = tmp_path / "report.json"
        code = main(common + ["--format", "json", "--out", str(dest)])
        assert code == 0
        json_rows = json.loads(dest.read_text())
        csv_rows = parse_csv(csv_out)
        assert len(json_rows) == len(csv_rows)
        for jr, cr in zip(json_rows, csv_rows):
            for col in COLUMNS:
                if jr[col] is None:
                    assert cr[col] == ""
                elif isinstance(jr[col], float):
                    assert float(cr[col]) == jr[col]  # lossless both ways


class TestErrors:
    def test_unknown_function_names_parameter(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--f", "wavelet", "--n", "5", "--x", "1")
        assert code == 1
        assert "wavelet" in err

    def test_inadmissible_family(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--family", "custom-coeffs", "--coeffs", "0,1",
            "--n", "5", "--x", "1",
        )
        assert code == 1
        assert "Appell" in err

    def test_unverified_family_fails_at_weights(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--family", "custom-coeffs", "--coeffs", "2,-1",
            "--f", "sinx", "--n", "5", "--x", "1",
        )
        assert code == 1
        assert "unverified" in err

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--n", "5", "--x-grid", "2:0:0.1")
        assert code == 1
        assert "x-grid" in err

    @pytest.mark.parametrize("flag, value", [
        ("--x-grid", "0:inf:1"),
        ("--x-grid", "nan:1:0.1"),
        ("--x-grid", "0:1:inf"),
        ("--x", "inf"),
        ("--x", "nan"),
        ("--tol", "inf"),
        ("--tol", "nan"),
    ])
    def test_non_finite_values_rejected(self, flag, value):
        # an infinite stop used to make grid_points append forever, and an
        # infinite tolerance dropped most of the weight mass
        with pytest.raises(ConfigurationError, match=flag):
            parse_config(["moments", "--n", "5", flag, value])

    def test_bad_flag(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--frobnicate", "1")
        assert code == 1

    def test_missing_mode(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_negative_mu_rejected(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--mu", "-0.2", "--n", "5", "--x", "1")
        assert code == 1

    def test_full_weight_window_is_numeric_error(self, capsys, monkeypatch):
        monkeypatch.setattr(appell, "MAX_WINDOW", 3)
        code, _, err = run_cli(capsys, "eval", "--f", "sinx", "--n", "5", "--x", "2")
        assert code == 1
        assert "truncation" in err.lower()

    def test_tolerance_below_rounding_level(self, capsys):
        # the window meets a 1e-17 tail bound in about 30 terms; the emitted
        # sum then differs from one by more than 1e-17 only through rounding
        argv = ("eval", "--f", "sinx", "--n", "5", "--x", "1")
        code, out, _ = run_cli(capsys, *argv, "--tol", "1e-17")
        assert code == 0
        _, ref, _ = run_cli(capsys, *argv)
        tight, default = parse_csv(out)[0], parse_csv(ref)[0]
        assert abs(float(tight["Kf"]) - float(default["Kf"])) <= 1e-13


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"mu": 0.5, "x": 1.0, "n_list": "10"}))
        code, out, _ = run_cli(capsys, "moments", "--config", str(conf))
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["omega2"]) > 0.1  # mu=0.5 enlarges the variance
        # explicit flag overrides the config file value
        code, out, _ = run_cli(capsys, "moments", "--config", str(conf), "--mu", "0")
        row = parse_csv(out)[0]
        assert float(row["omega2"]) == pytest.approx(0.1, rel=1e-12)

    def test_unknown_config_key(self, capsys, tmp_path):
        conf = tmp_path / "bad.json"
        conf.write_text(json.dumps({"wavelength": 3}))
        code, _, err = run_cli(capsys, "moments", "--config", str(conf), "--n", "5", "--x", "1")
        assert code == 1
        assert "wavelength" in err

    @pytest.mark.parametrize("conf, flags", [
        ({"n_list": 5}, ["--n", "5"]),
        ({"tol": "1e-3"}, ["--tol", "1e-3"]),
        ({"x_grid": [0, 1, 0.5], "coeffs": [1, 0.5]},
         ["--x-grid", "0:1:0.5", "--coeffs", "1,0.5"]),
    ])
    def test_values_convert_like_flags(self, tmp_path, conf, flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(conf))
        assert parse_config(["moments", "--config", str(path)]) == parse_config(
            ["moments", *flags]
        )

    @pytest.mark.parametrize("conf, named", [
        ({"mu": "abc"}, "'mu'"),
        ({"n_list": [5, "a"]}, "'n_list'"),
        ({"gh_d": 1.5}, "'gh_d'"),
        ({"gh_cap": True}, "'gh_cap'"),
        ({"tol": [1e-3]}, "'tol'"),
        ({"x_grid": [0, 1]}, "'x_grid'"),
        ({"family": "hermite"}, "'family'"),
        (5, "JSON object"),
    ])
    def test_bad_value_is_an_error(self, capsys, tmp_path, conf, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(conf))
        code, _, err = run_cli(capsys, "moments", "--config", str(path), "--x", "1")
        assert code == 1
        assert err.startswith("error:") and named in err
