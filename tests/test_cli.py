import csv
import dataclasses
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
from dunkl_appell import appell, bounds, cli
from dunkl_appell.cli import COLUMNS, RunConfig, emit, grid_points, main, parse_config
from dunkl_appell.functions import BUILTIN_REGISTRY

from conftest import shrink_sinx_modulus

HEADER = "x,n,Kf,f,abs_err,omega1,omega2,bound,margin,theorem"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    rows = list(csv.DictReader(io.StringIO(out)))
    return rows


class TestParser:
    def test_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_no_value_carries_over_between_parses(self):
        first = parse_config(
            ["eval", "--mu", "0.7", "--f", "sinx", "--n", "3,4", "--x", "0.5", "--tol", "1e-10"]
        )
        second = parse_config(["moments", "--n", "5", "--x-grid", "0:1:0.5"])
        assert first == RunConfig(
            mode="eval", mu=0.7, function="sinx", n_list=[3, 4], x=0.5, tol=1e-10
        )
        assert second == RunConfig(mode="moments", n_list=[5], x_grid=(0.0, 1.0, 0.5))

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--n", "5", "--bogus", "1"],
            ["eval", "--family", "nope"],
            ["moments", "--n", "x"],
            [],
        ],
    )
    def test_errors_still_raise_configuration_error(self, argv):
        parse_config(["moments", "--n", "5", "--x", "1"])
        with pytest.raises(ConfigurationError):
            parse_config(argv)
        assert parse_config(["moments", "--n", "2", "--x", "1"]).n_list == [2]


class TestGridPoints:
    def test_inclusive_endpoints(self):
        xs = grid_points(0.0, 2.0, 0.1)
        assert len(xs) == 21
        assert xs[0] == 0.0
        assert abs(xs[-1] - 2.0) < 1e-12

    def test_single_point(self):
        assert grid_points(1.0, 1.0, 0.5) == [1.0]

    @pytest.mark.parametrize("grid", [
        "0:2:0.1", "0:2:0.05", "0:2:0.01", "0:2:0.5", "0:2.4:0.3", "0:0.2:0.01",
        "0:1:0.5", "0:1:0.25", "-1:1:0.5", "0:100000:50000", "10:45:0.5", "50:450:10",
    ])
    def test_grids_in_use_keep_their_points(self, grid):
        # the former stop test, x > stop + 1e-9, on the grids the tests, CI
        # and the benchmark's commands run
        start, stop, step = map(float, grid.split(":"))
        want, x = [], start
        while x <= stop + 1e-9:
            want.append(x)
            x = start + len(want) * step
        assert grid_points(start, stop, step) == want

    @pytest.mark.parametrize("grid", ["0:2:0.1", "0.3:2.4:0.05", "10:45:0.125"])
    def test_rows_sit_on_the_modulus_nodes(self, capsys, grid):
        # --x-grid and a modulus window of the same start, stop and step
        # take one grid rule, so their points agree bit for bit
        start, stop, step = map(float, grid.split(":"))
        nodes = []
        bounds.modulus1(lambda t: nodes.append(t) or t, 1.0, (start, stop), grid_step=step)
        code, out, _ = run_cli(capsys, "eval", "--f", "id", "--n", "5", "--x-grid", grid)
        assert code == 0
        xs = [float(row["x"]) for row in parse_csv(out)]
        assert [x.hex() for x in xs] == [t.hex() for t in nodes]
        assert [x.hex() for x in grid_points(start, stop, step)] == [t.hex() for t in nodes]

    @pytest.mark.parametrize("mode", ["eval", "converge"])
    @pytest.mark.parametrize("grid", ["0:4e-9:1e-9", "0:1e-14:2.5e-15"])
    def test_steps_below_1e_9_stop_at_stop(self, capsys, mode, grid):
        # an absolute slack of 1e-9 took x = 5e-9 on the first grid and ran
        # the second on to 1e-9, 400,001 rows
        start, stop, step = map(float, grid.split(":"))
        code, out, _ = run_cli(capsys, mode, "--f", "const1", "--n", "5", "--x-grid", grid)
        rows = parse_csv(out)
        assert code == 0 and len(rows) == (5 if mode == "eval" else 1)
        assert grid_points(start, stop, step) == [k * step for k in range(5)]
        assert max(float(r["x"]) for r in rows) <= stop


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

    @pytest.mark.parametrize("mu", ["0.5", "0"])
    def test_small_nx_on_a_sparse_generator(self, capsys, mu):
        # The CI step's command: Q = 1 + 0.5 t^4 and n*x from 0 to 4, where
        # windows of a few terms leave holes in the nodes Q's support reaches
        code, out, _ = run_cli(
            capsys, "eval", "--mu", mu, "--family", "custom-coeffs", "--coeffs",
            "1,0,0,0,0.5", "--f", "sinx", "--n", "20", "--x-grid", "0:0.2:0.01",
        )
        assert code == 0
        assert out.splitlines()[0] == HEADER
        rows = parse_csv(out)
        assert len(rows) == 21 and all(len(row) == 10 for row in rows)
        assert "nan" not in out.lower() and "inf" not in out.lower()

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


class TestConvergeIsEvalReduced:
    """converge's row at each n is eval's row of largest abs_err on the same
    grid, the first of equal errors."""

    @staticmethod
    def reduced(capsys, fmt, *argv):
        code, out, _ = run_cli(capsys, "eval", *argv, "--format", fmt)
        assert code == 0
        rows = json.loads(out) if fmt == "json" else parse_csv(out)
        key = (lambda r: r["abs_err"]) if fmt == "json" else (lambda r: float(r["abs_err"]))
        worst = {}
        for row in rows:  # sorted by (n, x): the first of equal errors comes first
            n = row["n"]
            if n not in worst or key(row) > key(worst[n]):
                worst[n] = row
        return list(worst.values())

    @pytest.mark.parametrize(
        "argv",
        [
            # at n*x <= 1e-7 K 1 is 1 exactly, so every error is 0: the
            # first x must win
            ("--mu", "0.5", "--f", "const1", "--n", "20,5", "--x-grid", "0:4e-9:1e-9"),
            # unsorted --n
            ("--mu", "0.5", "--family", "gould-hopper", "--f", "sinx",
             "--n", "300,5,40", "--x-grid", "0:2:0.1"),
        ],
        ids=["tie", "unsorted-n"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_row_of_largest_error(self, capsys, argv, fmt):
        want = self.reduced(capsys, fmt, *argv)
        code, out, _ = run_cli(capsys, "converge", *argv, "--format", fmt)
        assert code == 0
        got = json.loads(out) if fmt == "json" else parse_csv(out)
        assert got == want
        assert [int(r["n"]) for r in got] == sorted(int(r["n"]) for r in got)
        if "const1" in argv:
            assert all(float(r["x"]) == 0.0 and float(r["abs_err"]) == 0.0 for r in got)


class TestConvergeWithNanErrors:
    """A nan |K f - f| wins converge's row only where it comes first, as in
    a strict > scan of eval's rows."""

    @pytest.mark.parametrize("at", [0, 2])
    def test_nan_row(self, capsys, monkeypatch, at):
        # n = 20, mu = 0.5: the grid points 0.013 + 0.11 k are no nodes, so
        # only f(x) itself is nan there, not K f
        grid = grid_points(0.013, 0.5, 0.11)
        f = lambda t: math.nan if t == grid[at] else math.sin(t)
        monkeypatch.setitem(
            BUILTIN_REGISTRY, "sinx", dataclasses.replace(BUILTIN_REGISTRY["sinx"], evaluator=f)
        )
        argv = ("--mu", "0.5", "--f", "sinx", "--n", "20", "--x-grid", "0.013:0.5:0.11")
        _, out, _ = run_cli(capsys, "eval", *argv)
        lines = out.splitlines()[1:]
        worst = max(range(len(lines)), key=lambda k: float(lines[k].split(",")[4]))
        code, got, _ = run_cli(capsys, "converge", *argv)
        assert code == 0 and got.splitlines()[1:] == [lines[worst]]
        assert ("nan" in lines[worst]) == (at == 0)


class TestEmitText:
    """CSV cells are "" for None, str() for an int or a str, and format(v,
    ".17g") for a float, whatever its value."""

    FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
              0.1, 1 / 3, 123456789.12345679, 9007199254740993.0, 1.7976931348623157e308]

    def test_cells(self, capsys):
        rows = [
            dict(cli._ROW, x=v, n=20, Kf=-v, f=None, abs_err=v / 3, theorem="T2")
            for v in self.FLOATS
        ] + [dict(cli._ROW, x=0.5, n=10**30, theorem=None, margin=-1e-300)]
        emit(rows, "csv", None)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == HEADER
        want = [
            ",".join((format(v, ".17g"), "20", format(-v, ".17g"), "", format(v / 3, ".17g"),
                      "", "", "", "", "T2"))
            for v in self.FLOATS
        ] + ["0.5," + str(10**30) + ",,,,,,," + format(-1e-300, ".17g") + ","]
        assert lines[1:] == want


class TestBoundsMode:
    def test_square_far_out_takes_its_window_modulus(self, capsys):
        # T2 on square takes its closed-form modulus on verify's window,
        # which at x = 1e6 would hold 1e9 nodes at a grid step of 1e-3
        code, out, err = run_cli(
            capsys, "bounds", "--theorem", "T2", "--f", "square", "--n", "5",
            "--x", "1000000",
        )
        assert code == 0 and len(parse_csv(out)) == 1
        assert "[modulus: window-local (consistency check, not proof)]" in err

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


_MOMENTS = ("moments", "--n", "5", "--x", "1")
_BOUNDS_AT_0 = (
    "bounds", "--f", "sinx", "--family", "gould-hopper", "--n", "20", "--x", "0",
)
# (argv without the flag, numeric flag) for every numeric flag where it is used
_NUMERIC_FLAGS = (
    (_MOMENTS, "--mu"),
    (_MOMENTS + ("--family", "gould-hopper"), "--gh-a"),
    (_MOMENTS, "--tol"),
    (("eval", "--f", "sinx", "--n", "5"), "--x"),
    (_MOMENTS + ("--family", "custom-coeffs"), "--coeffs"),
    (_BOUNDS_AT_0 + ("--theorem", "T3", "--beta", "1"), "--M"),
    (_BOUNDS_AT_0 + ("--theorem", "T3", "--M", "1"), "--beta"),
    (_BOUNDS_AT_0 + ("--theorem", "T4"), "--interval-end"),
)


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [(*base, flag, v) for base, flag in _NUMERIC_FLAGS for v in ("nan", "inf")]
        + [
            (*_BOUNDS_AT_0, "--theorem", "T4", "--interval-end", "0"),
            (*_BOUNDS_AT_0, "--theorem", "T3", "--beta", "1", "--M", "0"),
            (*_BOUNDS_AT_0, "--theorem", "T3", "--beta", "1", "--M", "-1"),
        ],
        ids=lambda argv: " ".join(argv[-2:]),
    )
    def test_inadmissible_number_is_one_error_line(self, capsys, argv):
        # a NaN or infinite --M or --interval-end used to print NaN or inf
        # bounds with exit 0, --interval-end 0 divided by zero, and --M -1
        # reported false violations
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
    def test_unwritable_out_is_one_error_line(self, capsys, tmp_path, where):
        path = tmp_path / "absent" / "r.csv" if where == "missing-dir" else tmp_path
        code, out, err = run_cli(capsys, "moments", "--n", "5", "--x", "1", "--out", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write --out {path}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_window_terms_past_double_range(self, capsys):
        # 2*mu = 2e4 against n*x = 1e3: the lower side's terms overflow
        code, out, err = run_cli(
            capsys, "eval", "--mu", "10000", "--family", "unit", "--f", "id",
            "--n", "1", "--x", "1000",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: RangeError: ") and "mu=10000.0, n=1, x=1000.0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            # rho's series sums overflow from about mu = 1e29 on; moments
            # printed nan in four columns with exit 0
            ("moments", "--mu", "1e29", "--n", "1", "--x", "1000"),
            ("moments", "--mu", "1e29", "--family", "gould-hopper", "--n", "10", "--x", "100"),
            # n past double range: n*x raised OverflowError
            ("moments", "--n", "1" + "0" * 309, "--x", "1"),
            ("eval", "--f", "sinx", "--n", str(2**1024), "--x", "1"),
        ],
        ids=["huge-mu", "huge-mu-gould-hopper", "huge-n", "huge-n-eval"],
    )
    def test_past_double_range_is_one_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

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

    @pytest.mark.parametrize(
        "coeffs", [("--coeffs", "-1,-0.5"), ("--coeffs=-1,-0.5",)], ids=["space", "equals"]
    )
    def test_negative_leading_coefficients_reach_the_family(self, capsys, coeffs):
        # A value that starts with "-" used to be taken for an option.
        code, out, err = run_cli(
            capsys, "moments", "--family", "custom-coeffs", *coeffs,
            "--n", "5", "--x", "1",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: NormalizationError:")
        assert "pass -Q" in err

    def test_negative_leading_values_parse(self):
        cfg = parse_config(["moments", "--n", "5", "--x-grid", "-1:1:0.5", "--x", "-.5"])
        assert cfg.x_grid == (-1.0, 1.0, 0.5) and cfg.x == -0.5

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--n", "5", "--x-grid", "2:0:0.1")
        assert code == 1
        assert "x-grid" in err

    _NON_FINITE = pytest.mark.parametrize("flag, value", [
        ("--x-grid", "0:inf:1"),
        ("--x-grid", "nan:1:0.1"),
        ("--x-grid", "0:1:inf"),
        ("--x-grid", "-1e308:1e308:1"),  # (stop - start) / step overflows
        ("--x-grid", "0:1e12:1e-6"),  # 1e18 points used to start building
        ("--x-grid", "0:4194304:1"),  # one point past MAX_GRID_NODES
        ("--x", "inf"),
        ("--x", "nan"),
        ("--tol", "inf"),
        ("--tol", "nan"),
    ])
    # (--config key, the name its error gives the input): the CLI names the
    # grid, which bounds.grid_points checks; OperatorSpec and the closed
    # form name the tolerance and the point
    _INPUTS = {"--x-grid": ("x_grid", "--x-grid"), "--x": ("x", "evaluation point"),
               "--tol": ("tol", "tolerance")}

    @staticmethod
    def one_error_line(code, out, err, named):
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]

    @_NON_FINITE
    def test_non_finite_values_rejected(self, capsys, flag, value):
        # an infinite stop used to make grid_points append forever, and an
        # infinite tolerance dropped most of the weight mass
        point = () if flag == "--x-grid" else ("--x", "1")  # not both: an error of its own
        code, out, err = run_cli(capsys, "moments", "--n", "5", *point, flag, value)
        self.one_error_line(code, out, err, self._INPUTS[flag][1])

    @_NON_FINITE
    def test_non_finite_config_values_rejected(self, capsys, tmp_path, flag, value):
        key, named = self._INPUTS[flag]
        path = tmp_path / "run.json"
        conf = {"n_list": [5], key: value}
        if key != "x_grid":
            conf.setdefault("x", 1)  # not both: an error of its own
        path.write_text(json.dumps(conf))
        code, out, err = run_cli(capsys, "moments", "--config", str(path))
        self.one_error_line(code, out, err, named)

    @pytest.mark.parametrize("conf, flags", [
        (None, ["--x", "3", "--x-grid", "0:1:0.5"]),
        ({"x": 3, "x_grid": [0, 1, 0.5]}, []),
        ({"x_grid": [0, 1, 0.5]}, ["--x", "3"]),
    ], ids=["flags", "config", "flag-and-config"])
    def test_point_and_grid_together_rejected(self, capsys, tmp_path, conf, flags):
        # --x was dropped without a word and the grid's rows printed
        if conf is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(conf))
            flags = ["--config", str(path), *flags]
        code, out, err = run_cli(capsys, "moments", "--n", "5", *flags)
        self.one_error_line(code, out, err, "--x or --x-grid")

    def test_grid_of_max_grid_nodes_points_accepted(self, capsys, monkeypatch):
        cfg = parse_config(["moments", "--n", "5", "--x-grid", "0:4194303:1"])
        assert cfg.x_grid == (0.0, 4194303.0, 1.0)
        # the cap is bounds.MAX_GRID_NODES, read at call time: 8 points pass
        # under a cap of 8, and 9 do not
        monkeypatch.setattr(bounds, "MAX_GRID_NODES", 8)
        code, out, _ = run_cli(capsys, "moments", "--n", "5", "--x-grid", "0:7:1")
        assert code == 0 and len(parse_csv(out)) == 8
        code, out, err = run_cli(capsys, "moments", "--n", "5", "--x-grid", "0:8:1")
        self.one_error_line(code, out, err, "holds 9 nodes, more than the limit of 8")

    def test_grid_cap_counts_without_building(self, capsys):
        code, out, err = run_cli(capsys, "moments", "--n", "5", "--x-grid", "0:1e12:1e-6")
        assert code == 1 and out == ""
        assert err.startswith("error: --x-grid") and err.count("\n") == 1
        assert "1000000000000000001 nodes" in err

    @pytest.mark.parametrize("flag, value, conf", [
        ("--n", "a", {"n_list": "a"}),
        ("--n", ",", {"n_list": []}),
        ("--coeffs", "1,a", {"coeffs": [1, "a"]}),
        ("--x-grid", "0:1", {"x_grid": [0, 1]}),
    ])
    def test_syntax_error_names_its_flag(self, capsys, tmp_path, flag, value, conf):
        # argparse showed "invalid _parse_n_list value: 'a'": a converter's
        # ValueError hid its message, which only --config printed
        code, out, err = run_cli(capsys, "moments", "--n", "5", "--x", "1", flag, value)
        self.one_error_line(code, out, err, f"argument {flag}: must ")
        assert "_parse_" not in err
        path = tmp_path / "run.json"
        path.write_text(json.dumps(conf))
        code, out, err = run_cli(capsys, "moments", "--x", "1", "--config", str(path))
        self.one_error_line(code, out, err, f"({flag}) has an invalid value")
        assert err.split(": ", 2)[2].startswith("must ")

    @pytest.mark.parametrize("argv", [
        ("bounds", "--theorem", "T2", "--f", "sinx", "--n", "20,0", "--x-grid", "0:1:0.5"),
        ("moments", "--n", "5,0", "--x", "1"),
        ("eval", "--f", "sinx", "--n", "20", "--x-grid", "0:1:0.5", "--tol", "nan"),
    ])
    def test_bad_scale_fails_before_the_first_row(self, capsys, argv):
        # every operator is built before the first row, so bounds prints no
        # summary for n = 20 before the error at n = 0
        code, out, err = run_cli(capsys, *argv)
        self.one_error_line(code, out, err, "error: DomainError: ")

    def test_bad_flag(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--frobnicate", "1")
        assert code == 1

    def test_missing_mode(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_negative_mu_rejected(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--mu", "-0.2", "--n", "5", "--x", "1")
        assert code == 1

    @pytest.mark.parametrize("a, error", [
        ("nan", "DomainError"),
        ("inf", "DomainError"),
        ("710", "RangeError"),  # exp(710) overflows
        ("1e300", "RangeError"),
    ])
    def test_gould_hopper_coefficient_out_of_range(self, capsys, a, error):
        # The generator grows until its own tail is rounding, which a
        # non-finite a would never reach; an exp(a) past double range has no
        # finite Q(1).
        code, _, err = run_cli(
            capsys, "moments", "--family", "gould-hopper", "--gh-a", a,
            "--n", "5", "--x", "1",
        )
        assert code == 1
        assert err.startswith(f"error: {error}:")

    def test_gould_hopper_gap_past_the_window_limit(self, capsys):
        # d = 2**70 used to end in an OverflowError traceback
        code, _, err = run_cli(
            capsys, "moments", "--family", "gould-hopper", "--gh-d", str(2**70),
            "--n", "5", "--x", "1",
        )
        assert code == 1
        assert err.startswith("error: RangeError:") and err.count("\n") == 1
        assert f"d = {2**70}" in err

    def test_degree_cap_is_not_an_option(self, capsys, tmp_path):
        argv = ("moments", "--family", "gould-hopper", "--n", "5", "--x", "1")
        code, _, err = run_cli(capsys, *argv, "--gh-cap", "48")
        assert code == 1
        assert "unrecognized arguments: --gh-cap" in err
        conf = tmp_path / "cap.json"
        conf.write_text(json.dumps({"gh_cap": 48}))
        code, _, err = run_cli(capsys, *argv, "--config", str(conf))
        assert code == 1
        assert "gh_cap" in err

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
        ({"gh_d": True}, "'gh_d'"),
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
