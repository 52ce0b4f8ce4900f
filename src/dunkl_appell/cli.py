"""Experiment command line: operator evaluation (``eval``), moment tables
(``moments``), convergence sweeps (``converge``) and bound verification
(``bounds``).

Every run is deterministic given its flags.  Reports share one fixed column
schema

    x,n,Kf,f,abs_err,omega1,omega2,bound,margin,theorem

with columns a mode does not produce left empty; floats are printed with 17
significant digits so the CSV is a lossless archive of the doubles.  Every
mode runs through one loop, ``run``: one operator per --n, the mode's rows
at each (``converge`` keeps ``eval``'s row of largest error), and the report
sorted by (n, x).

Exit codes: 0 on success (all bounds hold), 2 on a bound violation, 1 on
configuration or numeric errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .appell import AppellFamily
from .bounds import grid_points, verify
from .dunkl import DunklContext
from .engine import OperatorSpec, apply, central_moments
from .errors import ConfigurationError, DomainError, DunklApproxError
from .functions import lookup

COLUMNS = ("x", "n", "Kf", "f", "abs_err", "omega1", "omega2", "bound", "margin", "theorem")
# A report row is dict(_ROW, **values): every column, in order, None where unset.
_ROW = dict.fromkeys(COLUMNS)


@dataclass
class RunConfig:
    mode: str
    mu: float = 0.0
    family: str = "unit"
    gh_a: float = 0.5
    gh_d: int = 1
    coeffs: Optional[List[float]] = None
    n_list: List[int] = field(default_factory=lambda: [1])
    x: Optional[float] = None
    x_grid: Optional[Tuple[float, float, float]] = None
    function: Optional[str] = None
    tol: float = 1e-12
    output: str = "csv"
    out: Optional[str] = None
    theorem: Optional[str] = None
    M: Optional[float] = None
    beta: Optional[float] = None
    interval_end: Optional[float] = None


# ---------------------------------------------------------------- reports


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return f"{v:.17g}"


def emit(rows: List[dict], fmt: str, destination: Optional[str]) -> None:
    """Write the report rows as CSV (fixed header) or JSON (same keys)."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows([_fmt_cell(r[c]) for c in COLUMNS] for r in rows)
        text = buf.getvalue()
    else:
        text = json.dumps(rows, indent=2) + "\n"
    if destination is None:
        sys.stdout.write(text)
        return
    try:
        with open(destination, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write --out {destination}: {exc}") from None


# ---------------------------------------------------------------- modes


def _build_family(cfg: RunConfig) -> AppellFamily:
    ctx = DunklContext(cfg.mu)
    if cfg.family == "unit":
        return AppellFamily.from_coefficients(ctx, [1.0])
    if cfg.family == "gould-hopper":
        return AppellFamily.gould_hopper(ctx, cfg.gh_a, cfg.gh_d)
    if cfg.family == "custom-coeffs":
        if not cfg.coeffs:
            raise ConfigurationError("--family custom-coeffs requires --coeffs")
        return AppellFamily.from_coefficients(ctx, cfg.coeffs)
    raise ConfigurationError(
        f"--family must be unit, gould-hopper or custom-coeffs, got {cfg.family!r}"
    )


def _x_values(cfg: RunConfig) -> List[float]:
    if cfg.x_grid is not None and cfg.x is not None:
        raise ConfigurationError("give --x or --x-grid, not both")
    if cfg.x_grid is not None:
        try:
            return grid_points(*cfg.x_grid)
        except DomainError as exc:
            raise ConfigurationError(f"--x-grid: {exc}") from None
    if cfg.x is not None:
        return [cfg.x]
    raise ConfigurationError("provide --x or --x-grid")


def _target(cfg: RunConfig):
    if cfg.function is None:
        raise ConfigurationError(f"--f is required for {cfg.mode}")
    return lookup(cfg.function)


# One builder per mode: the rows at one scale and their bound violations.


def _eval_rows(cfg: RunConfig, entry, spec: OperatorSpec, xs: List[float]):
    f = entry.evaluator
    rows = []
    for x, kf in zip(xs, apply(spec, f, xs).tolist()):
        fx = f(x)
        rows.append(dict(_ROW, x=x, n=spec.n, Kf=kf, f=fx, abs_err=abs(kf - fx)))
    return rows, 0


def _moments_rows(cfg: RunConfig, entry, spec: OperatorSpec, xs: List[float]):
    rows = []
    for x in xs:
        cm = central_moments(spec, x)
        m1 = x + cm.omega1  # the closed-form first raw moment, bit for bit
        rows.append(dict(_ROW, x=x, n=spec.n, Kf=m1, f=x, abs_err=abs(m1 - x),
                         omega1=cm.omega1, omega2=cm.omega2))
    return rows, 0


def _converge_rows(cfg: RunConfig, entry, spec: OperatorSpec, xs: List[float]):
    # max keeps the first of equal errors, as a strict > scan does
    rows, _ = _eval_rows(cfg, entry, spec, xs)
    return [max(rows, key=lambda row: row["abs_err"])], 0


def _bounds_rows(cfg: RunConfig, entry, spec: OperatorSpec, xs: List[float]):
    rep = verify(spec, entry, cfg.theorem, xs, M=cfg.M, beta=cfg.beta,
                 interval_end=cfg.interval_end)
    print(
        f"# {rep.theorem} {rep.function} n={rep.n}: "
        f"min margin {rep.min_margin:.6g}, violations {rep.violations} "
        f"[modulus: {rep.modulus_source}]",
        file=sys.stderr,
    )
    return [
        dict(_ROW, x=p.x, n=rep.n, Kf=p.kf, f=p.fx, abs_err=p.actual_error,
             omega1=p.omega1, omega2=p.omega2, bound=p.bound, margin=p.margin,
             theorem=rep.theorem)
        for p in rep.points
    ], rep.violations


_MODES = {"eval": _eval_rows, "moments": _moments_rows,
          "converge": _converge_rows, "bounds": _bounds_rows}


# ---------------------------------------------------------------- parsing


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own test takes "-1,-0.5" for an option, as it does any
        # "-" token but a lone number; here "-" or "-." then a digit starts
        # a value, so "--coeffs -1,-0.5" and "--x-grid -1:1:0.5" parse.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ConfigurationError(message)


# The converters check syntax only.  They raise ArgumentTypeError, whose text
# argparse shows after the flag, as _file_value does after the --config key.


def _comma_list(convert, kind: str):
    def parse(raw: str) -> list:
        try:
            values = [convert(tok) for tok in raw.split(",") if tok]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be comma-separated {kind}, got {raw!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"must list at least one value, got {raw!r}")
        return values

    return parse


def _parse_grid(raw: str) -> Tuple[float, float, float]:
    try:
        start, stop, step = map(float, raw.split(":"))
    except ValueError:  # not three parts, or a part that is not a number
        raise argparse.ArgumentTypeError(f"must be start:stop:step, got {raw!r}") from None
    return start, stop, step


# (flag, RunConfig field, converter, choices).  A --config file takes the
# field names as keys and converts its values with the same functions.
_FLAGS = (
    ("--mu", "mu", float, None),
    ("--family", "family", str, ("unit", "gould-hopper", "custom-coeffs")),
    ("--gh-a", "gh_a", float, None),
    ("--gh-d", "gh_d", int, None),
    ("--coeffs", "coeffs", _comma_list(float, "reals"), None),
    ("--n", "n_list", _comma_list(int, "integers"), None),
    ("--x", "x", float, None),
    ("--x-grid", "x_grid", _parse_grid, None),
    ("--f", "function", str, None),
    ("--tol", "tol", float, None),
    ("--format", "output", str, ("csv", "json")),
    ("--out", "out", str, None),
    ("--theorem", "theorem", str, ("T2", "T3", "T4")),
    ("--M", "M", float, None),
    ("--beta", "beta", float, None),
    ("--interval-end", "interval_end", float, None),
)
_FIELDS = {dest: (flag, convert, choices) for flag, dest, convert, choices in _FLAGS}


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: every default is SUPPRESS, so a parse leaves
    # nothing on the parser for the next one to see.
    parser = _Parser(prog="dunkl-appell", description=__doc__)
    sub = parser.add_subparsers(dest="mode")
    for mode in _MODES:
        p = sub.add_parser(mode, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", type=str, help="JSON file with flag defaults")
        for flag, dest, convert, choices in _FLAGS:
            p.add_argument(flag, dest=dest, type=convert, choices=choices)
    return parser


def _file_value(key: str, value):
    """Convert a --config value as the text of its flag would be.

    Lists stand for the comma-separated (``x_grid``: colon-separated) flag
    text.
    """
    flag, convert, choices = _FIELDS[key]
    if isinstance(value, list) and key in ("n_list", "coeffs", "x_grid"):
        value = (":" if key == "x_grid" else ",").join(str(v) for v in value)
    try:
        converted = convert(str(value))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigurationError(
            f"--config key {key!r} ({flag}) has an invalid value {value!r}: {exc}"
        ) from None
    if choices is not None and converted not in choices:
        raise ConfigurationError(
            f"--config key {key!r} must be one of {', '.join(choices)}, got {value!r}"
        )
    return converted


def parse_config(argv: Optional[Sequence[str]] = None) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    mode = getattr(ns, "mode", None)
    if mode is None:
        raise ConfigurationError(f"choose a mode: {', '.join(_MODES)}")
    provided = {k: v for k, v in vars(ns).items() if k not in ("mode", "config")}
    merged = {}
    config_path = getattr(ns, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                file_conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read --config {config_path!r}: {exc}") from None
        if not isinstance(file_conf, dict):
            raise ConfigurationError(f"--config {config_path!r} must hold a JSON object")
        unknown = set(file_conf) - set(_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"unknown keys in --config file: {sorted(unknown)}"
            )
        # null leaves a field at its default
        merged.update(
            (k, _file_value(k, v)) for k, v in file_conf.items() if v is not None
        )
    merged.update(provided)  # flags win over the config file
    return RunConfig(mode=mode, **merged)


def run(cfg: RunConfig) -> int:
    """Run one configuration (see the module docstring); returns the
    process exit code.  Each value is checked once, where the library takes
    it; the grid, the family and every operator are made before the first
    row, so a bad one fails before any work or summary line."""
    if cfg.mode == "bounds" and cfg.theorem is None:
        raise ConfigurationError("--theorem is required for bounds")
    entry = None if cfg.mode == "moments" else _target(cfg)
    xs = _x_values(cfg)
    family = _build_family(cfg)
    specs = [OperatorSpec(family=family, n=n, tol=cfg.tol) for n in cfg.n_list]
    rows, violations = [], 0
    for spec in specs:
        got, bad = _MODES[cfg.mode](cfg, entry, spec, xs)
        rows += got
        violations += bad
    rows.sort(key=lambda row: (row["n"], row["x"]))  # --n may list scales in any order
    emit(rows, cfg.output, cfg.out)
    return 2 if violations else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DunklApproxError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
