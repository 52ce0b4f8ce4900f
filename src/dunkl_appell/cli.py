"""Experiment command line: operator evaluation, moment tables, convergence
sweeps, bound verification and randomized self-tests.

Every run is deterministic given its flags; ``selftest`` draws its cases
from an explicit ``--seed``.  Reports share one fixed column schema

    x,n,Kf,f,abs_err,omega1,omega2,bound,margin,theorem

with columns a mode does not produce left empty; floats are printed with 17
significant digits so the CSV is a lossless archive of the doubles.

Exit codes: 0 on success (all bounds hold), 2 on a bound violation, 1 on
configuration or numeric errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .appell import AppellFamily
from .bounds import VerifyParams, verify
from .dunkl import DunklContext
from .engine import OperatorSpec, apply, central_moments
from .errors import ConfigurationError, DunklApproxError
from .functions import lookup
from .series import PowerSeries, exp_series

COLUMNS = ("x", "n", "Kf", "f", "abs_err", "omega1", "omega2", "bound", "margin", "theorem")

_MODES = ("eval", "moments", "converge", "bounds", "selftest")


@dataclass
class RunConfig:
    mode: str
    mu: float = 0.0
    family: str = "unit"
    gh_a: float = 0.5
    gh_d: int = 1
    gh_cap: int = 48
    coeffs: Optional[List[float]] = None
    n_list: List[int] = field(default_factory=lambda: [1])
    x: Optional[float] = None
    x_grid: Optional[Tuple[float, float, float]] = None
    function: Optional[str] = None
    tol: float = 1e-12
    cap: int = 10_000
    output: str = "csv"
    out: Optional[str] = None
    theorem: Optional[str] = None
    M: Optional[float] = None
    beta: Optional[float] = None
    interval_end: Optional[float] = None
    grid_step: float = 1e-3
    sabotage_modulus: float = 1.0
    seed: int = 0

    def validate(self):
        if self.mode not in _MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if not self.n_list:
            raise ConfigurationError("--n must list at least one operator scale")
        if any(n < 1 for n in self.n_list):
            raise ConfigurationError(f"--n entries must be >= 1, got {self.n_list}")
        if self.x_grid is not None:
            start, stop, step = self.x_grid
            if step <= 0.0:
                raise ConfigurationError(f"--x-grid step must be positive, got {step}")
            if start > stop:
                raise ConfigurationError(
                    f"--x-grid start {start} exceeds stop {stop}"
                )
        if self.tol <= 0.0:
            raise ConfigurationError(f"--tol must be positive, got {self.tol}")
        if self.output not in ("csv", "json"):
            raise ConfigurationError(f"--format must be csv or json, got {self.output!r}")


def grid_points(start: float, stop: float, step: float) -> List[float]:
    """Inclusive arithmetic grid, robust to step rounding."""
    out = []
    k = 0
    while True:
        x = start + k * step
        if x > stop + 1e-9:
            break
        out.append(x)
        k += 1
    return out


def _thread_count() -> int:
    raw = os.environ.get("DUNKL_APPROX_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigurationError(
            f"DUNKL_APPROX_THREADS must be an integer, got {raw!r}"
        ) from None


def _pmap(fn, items):
    t = _thread_count()
    if t <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=t) as ex:
        return list(ex.map(fn, items))


# ---------------------------------------------------------------- reports


def _row(**kw):
    return {c: kw.get(c) for c in COLUMNS}


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
        for r in rows:
            writer.writerow([_fmt_cell(r[c]) for c in COLUMNS])
        text = buf.getvalue()
    else:
        text = json.dumps(rows, indent=2) + "\n"
    if destination is None:
        sys.stdout.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------- modes


def _build_family(cfg: RunConfig) -> AppellFamily:
    ctx = DunklContext(cfg.mu)
    if cfg.family == "unit":
        return AppellFamily.from_coefficients(ctx, [1.0])
    if cfg.family == "gould-hopper":
        return AppellFamily.gould_hopper(ctx, cfg.gh_a, cfg.gh_d, cfg.gh_cap)
    if cfg.family == "custom-coeffs":
        if not cfg.coeffs:
            raise ConfigurationError("--family custom-coeffs requires --coeffs")
        return AppellFamily.from_coefficients(ctx, cfg.coeffs)
    raise ConfigurationError(
        f"--family must be unit, gould-hopper or custom-coeffs, got {cfg.family!r}"
    )


def _x_values(cfg: RunConfig) -> List[float]:
    if cfg.x_grid is not None:
        return grid_points(*cfg.x_grid)
    if cfg.x is not None:
        return [cfg.x]
    raise ConfigurationError("provide --x or --x-grid")


def _mode_eval(cfg: RunConfig) -> Tuple[List[dict], int]:
    if cfg.function is None:
        raise ConfigurationError("--f is required for eval")
    entry = lookup(cfg.function)
    family = _build_family(cfg)
    xs = _x_values(cfg)

    def one(nx):
        n, x = nx
        spec = OperatorSpec(family=family, n=n, tol=cfg.tol, cap=cfg.cap)
        kf = apply(spec, entry.evaluator, x)
        fx = entry.evaluator(x)
        return _row(x=x, n=n, Kf=kf, f=fx, abs_err=abs(kf - fx))

    rows = _pmap(one, [(n, x) for n in cfg.n_list for x in xs])
    return sorted(rows, key=lambda r: (r["n"], r["x"])), 0


def _mode_moments(cfg: RunConfig) -> Tuple[List[dict], int]:
    family = _build_family(cfg)
    xs = _x_values(cfg)

    def one(nx):
        n, x = nx
        spec = OperatorSpec(family=family, n=n, tol=cfg.tol, cap=cfg.cap)
        cm = central_moments(spec, x)
        m1 = x + cm.omega1  # the closed-form first raw moment, bit for bit
        return _row(
            x=x, n=n, Kf=m1, f=x, abs_err=abs(m1 - x),
            omega1=cm.omega1, omega2=cm.omega2,
        )

    rows = _pmap(one, [(n, x) for n in cfg.n_list for x in xs])
    return sorted(rows, key=lambda r: (r["n"], r["x"])), 0


def _mode_converge(cfg: RunConfig) -> Tuple[List[dict], int]:
    if cfg.function is None:
        raise ConfigurationError("--f is required for converge")
    entry = lookup(cfg.function)
    family = _build_family(cfg)
    xs = _x_values(cfg)

    def one(n):
        spec = OperatorSpec(family=family, n=n, tol=cfg.tol, cap=cfg.cap)
        best = None
        for x in xs:
            kf = apply(spec, entry.evaluator, x)
            fx = entry.evaluator(x)
            err = abs(kf - fx)
            if best is None or err > best[0]:
                best = (err, x, kf, fx)
        err, x, kf, fx = best
        return _row(x=x, n=n, Kf=kf, f=fx, abs_err=err)

    rows = _pmap(one, list(cfg.n_list))
    return sorted(rows, key=lambda r: (r["n"], r["x"])), 0


def _mode_bounds(cfg: RunConfig) -> Tuple[List[dict], int]:
    if cfg.theorem is None:
        raise ConfigurationError("--theorem is required for bounds")
    if cfg.function is None:
        raise ConfigurationError("--f is required for bounds")
    entry = lookup(cfg.function)
    family = _build_family(cfg)
    xs = _x_values(cfg)
    params = VerifyParams(
        M=cfg.M,
        beta=cfg.beta,
        interval_end=cfg.interval_end,
        grid_step=cfg.grid_step,
        modulus_scale=cfg.sabotage_modulus,
    )

    def one(n):
        spec = OperatorSpec(family=family, n=n, tol=cfg.tol, cap=cfg.cap)
        return verify(spec, entry, cfg.theorem, xs, params)

    reports = _pmap(one, list(cfg.n_list))
    rows = []
    violations = 0
    for rep in reports:
        violations += rep.violations
        print(
            f"# {rep.theorem} {rep.function} n={rep.n}: "
            f"min margin {rep.min_margin:.6g}, violations {rep.violations} "
            f"[modulus: {rep.modulus_source}]",
            file=sys.stderr,
        )
        for p in rep.points:
            rows.append(
                _row(
                    x=p.x, n=rep.n, Kf=p.kf, f=p.fx, abs_err=p.actual_error,
                    omega1=p.omega1, omega2=p.omega2,
                    bound=p.bound, margin=p.margin, theorem=rep.theorem,
                )
            )
    rows.sort(key=lambda r: (r["n"], r["x"]))
    return rows, (2 if violations > 0 else 0)


# ---------------------------------------------------------------- selftest


def _random_series(ctx: DunklContext, rng: random.Random, degree: int) -> PowerSeries:
    return PowerSeries(
        ctx, [rng.uniform(-1.0, 1.0) for _ in range(degree + 1)]
    )


def _selftest_product_rule(rng: random.Random, cases: int) -> float:
    """Dunkl product-rule identity on random polynomial pairs.

    L(A*B) must equal A*LB + reflect(B)*LA + A' * (B - reflect(B))
    coefficientwise.
    """
    worst = 0.0
    mus = (0.0, 0.5, 1.3)
    for c in range(cases):
        ctx = DunklContext(mus[c % len(mus)])
        A = _random_series(ctx, rng, rng.randint(0, 10))
        B = _random_series(ctx, rng, rng.randint(0, 10))
        lhs = A.multiply(B).dunkl_derivative()
        rhs = (
            A.multiply(B.dunkl_derivative())
            + B.reflect().multiply(A.dunkl_derivative())
            + A.derivative().multiply(B - B.reflect())
        )
        m = max(len(lhs.coeffs), len(rhs.coeffs))
        la = lhs.coeffs + (0.0,) * (m - len(lhs.coeffs))
        rb = rhs.coeffs + (0.0,) * (m - len(rhs.coeffs))
        worst = max(worst, max(abs(p - q) for p, q in zip(la, rb)))
    return worst


def _selftest_roundtrip(rng: random.Random, cases: int) -> float:
    """Generating-series consistency on random admissible families.

    Coefficient i of Q(t) * e_mu(x t) must equal q_i(x) / gamma_mu(i).
    """
    worst = 0.0
    for _ in range(cases):
        mu = rng.uniform(0.0, 1.5)
        ctx = DunklContext(mu)
        while True:
            coeffs = [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, 11))]
            if abs(coeffs[0]) >= 0.2:
                Q = PowerSeries(ctx, coeffs)
                if Q.eval(1.0) > 0.1:
                    break
        family = AppellFamily(ctx, Q)
        x = rng.uniform(0.0, 2.0)
        depth = Q.degree + 15
        product = Q.multiply(exp_series(ctx, x, depth))
        for i in range(depth + 1):
            qi = family.poly(i)
            value = sum(c * x**j for j, c in enumerate(qi)) / ctx.gamma(i)
            worst = max(worst, abs(product.coeffs[i] - value))
    return worst


def _selftest_reflect(rng: random.Random, cases: int) -> float:
    worst = 0.0
    for _ in range(cases):
        ctx = DunklContext(rng.uniform(0.0, 2.0))
        S = _random_series(ctx, rng, rng.randint(0, 12))
        if S.reflect().reflect() != S:
            return math.inf
        t = rng.uniform(-2.0, 2.0)
        worst = max(worst, abs(S.reflect().eval(t) - S.eval(-t)))
    return worst


def _mode_selftest(cfg: RunConfig) -> Tuple[List[dict], int]:
    rng = random.Random(cfg.seed)
    suites = (
        ("product-rule", _selftest_product_rule, 100, 1e-11),
        ("generating-series-roundtrip", _selftest_roundtrip, 20, 1e-10),
        ("reflection", _selftest_reflect, 50, 1e-12),
    )
    failed = 0
    for name, fn, cases, tol in suites:
        worst = fn(rng, cases)
        ok = worst <= tol
        failed += 0 if ok else 1
        print(
            f"selftest {name}: {cases} cases, max error {worst:.3e} "
            f"(tol {tol:.0e}) {'PASS' if ok else 'FAIL'}"
        )
    return [], (1 if failed else 0)


# ---------------------------------------------------------------- parsing


_DEFAULTS = {f: getattr(RunConfig("eval"), f) for f in (
    "mu", "family", "gh_a", "gh_d", "gh_cap", "coeffs", "x", "x_grid",
    "function", "tol", "cap", "output", "out", "theorem", "M", "beta",
    "interval_end", "grid_step", "sabotage_modulus", "seed",
)}
_DEFAULTS["n_list"] = [1]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigurationError(message)


def _parse_n_list(raw: str) -> List[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok]
    except ValueError:
        raise ConfigurationError(f"--n must be comma-separated integers, got {raw!r}") from None


def _parse_coeffs(raw: str) -> List[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok]
    except ValueError:
        raise ConfigurationError(f"--coeffs must be comma-separated reals, got {raw!r}") from None


def _parse_grid(raw: str) -> Tuple[float, float, float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"--x-grid must be start:stop:step, got {raw!r}")
    try:
        return (float(parts[0]), float(parts[1]), float(parts[2]))
    except ValueError:
        raise ConfigurationError(f"--x-grid must be start:stop:step, got {raw!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="dunkl-appell", description=__doc__)
    sub = parser.add_subparsers(dest="mode")
    for mode in _MODES:
        p = sub.add_parser(mode, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", type=str, help="JSON file with flag defaults")
        p.add_argument("--mu", type=float)
        p.add_argument("--family", choices=("unit", "gould-hopper", "custom-coeffs"))
        p.add_argument("--gh-a", dest="gh_a", type=float)
        p.add_argument("--gh-d", dest="gh_d", type=int)
        p.add_argument("--gh-cap", dest="gh_cap", type=int)
        p.add_argument("--coeffs", type=_parse_coeffs)
        p.add_argument("--n", dest="n_list", type=_parse_n_list)
        p.add_argument("--x", type=float)
        p.add_argument("--x-grid", dest="x_grid", type=_parse_grid)
        p.add_argument("--f", dest="function", type=str)
        p.add_argument("--tol", type=float)
        p.add_argument("--cap", type=int)
        p.add_argument("--format", dest="output", choices=("csv", "json"))
        p.add_argument("--out", type=str)
        p.add_argument("--theorem", choices=("T2", "T3", "T4"))
        p.add_argument("--M", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--interval-end", dest="interval_end", type=float)
        p.add_argument("--grid-step", dest="grid_step", type=float)
        p.add_argument("--seed", type=int)
        # Negative-control hook for the verification harness.
        p.add_argument(
            "--sabotage-modulus", dest="sabotage_modulus", type=float,
            help=argparse.SUPPRESS,
        )
    return parser


def parse_config(argv: Optional[Sequence[str]] = None) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    mode = getattr(ns, "mode", None)
    if mode is None:
        raise ConfigurationError(f"choose a mode: {', '.join(_MODES)}")
    provided = {k: v for k, v in vars(ns).items() if k not in ("mode", "config")}
    merged = dict(_DEFAULTS)
    config_path = getattr(ns, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                file_conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read --config {config_path!r}: {exc}") from None
        unknown = set(file_conf) - set(_DEFAULTS)
        if unknown:
            raise ConfigurationError(
                f"unknown keys in --config file: {sorted(unknown)}"
            )
        if "n_list" in file_conf and isinstance(file_conf["n_list"], str):
            file_conf["n_list"] = _parse_n_list(file_conf["n_list"])
        if "x_grid" in file_conf and isinstance(file_conf["x_grid"], str):
            file_conf["x_grid"] = _parse_grid(file_conf["x_grid"])
        merged.update(file_conf)
    merged.update(provided)  # flags win over the config file
    if merged.get("x_grid") is not None and not isinstance(merged["x_grid"], tuple):
        merged["x_grid"] = tuple(merged["x_grid"])
    merged["n_list"] = list(merged["n_list"])
    cfg = RunConfig(mode=mode, **merged)
    cfg.validate()
    return cfg


def run(cfg: RunConfig) -> int:
    """Dispatch one validated configuration; returns the process exit code."""
    dispatch = {
        "eval": _mode_eval,
        "moments": _mode_moments,
        "converge": _mode_converge,
        "bounds": _mode_bounds,
        "selftest": _mode_selftest,
    }
    rows, status = dispatch[cfg.mode](cfg)
    if cfg.mode != "selftest":
        emit(rows, cfg.output, cfg.out)
    return status


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
