"""The four workloads: seeded inputs, the timed operation, the output checks.

Each workload object is built from a seed alone (``build`` is what
``setup_s`` times) and offers

* ``count`` distinct points and ``order``, the seeded sequence in which the
  closed loop visits them; the loop runs whole cycles of ``count``
  operations, so every point carries the same weight in the metrics;
* ``op(k)``, the timed operation on point ``k``, returning a comparable value;
* ``check(refs, acc)``, which validates each point's reference output
  against independent references outside the timed region and returns one
  pass flag per point, feeding errors into a ``checks.Accuracy``;
* ``reach_families()``, the families the ``apply`` reach probe uses.

Sampling is stratified on the variable that sets the cost (n*x), so that
the work per run depends little on the seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

from dunkl_appell import AppellFamily, DunklContext, OperatorSpec, cli, engine, functions

from checks import t2_holds


def _log_uniform_int(rng, lo, hi):
    return int(round(10.0 ** rng.uniform(math.log10(lo), math.log10(hi))))


def _finite(*values):
    return all(math.isfinite(v) for v in values)


@dataclass(frozen=True)
class Point:
    spec: OperatorSpec
    x: float
    fname: str = ""


class DeskSweep:
    """apply(spec, f, x) on shared families at n*x in [0, 600]."""

    PER_COMBO = 30  # stratified n*x cells per (mu, family, f)
    ZEROS = 2  # extra x = 0 points per combination
    FUNCS = ("sinx", "expnegx", "sqrtx", "square")

    def __init__(self, seed):
        rng = random.Random(seed)
        self.families = []
        self.points = []
        for mu in (0.0, 0.5):
            ctx = DunklContext(mu)
            for family in (
                AppellFamily.from_coefficients(ctx, [1.0]),
                AppellFamily.gould_hopper(ctx, 0.5, 1),
            ):
                self.families.append(family)
                for fname in self.FUNCS:
                    cells = [600.0 * (k + rng.random()) / self.PER_COMBO for k in range(self.PER_COMBO)]
                    for nx in cells + [0.0] * self.ZEROS:
                        n = _log_uniform_int(rng, 20, 1000)
                        self.points.append(Point(OperatorSpec(family=family, n=n), nx / n, fname))
        self.count = len(self.points)
        self.order = rng.sample(range(self.count), self.count)

    def op(self, k):
        p = self.points[k]
        return engine.apply(p.spec, functions.BUILTIN_REGISTRY[p.fname].evaluator, p.x)

    def check(self, refs, acc):
        flags = []
        for p, kf in zip(self.points, refs):
            entry = functions.lookup(p.fname)
            omega2 = engine.central_moments(p.spec, p.x).omega2
            ok = _finite(kf) and acc.check_point(p.spec, p.x, omega2)
            if p.fname == "square":
                # K(t^2) is the second raw moment, known in closed form.
                m2 = engine.moments_closed(p.spec, p.x)[2]
                ok = ok and abs(kf - m2) <= 1e-8 * max(1.0, m2)
            else:
                ok = ok and t2_holds(entry, p.spec, p.x, kf, omega2)
            flags.append(ok)
        return flags

    def reach_families(self):
        return self.families


class MomentsTable:
    """moments_closed + central_moments (the CLI ``moments`` path) on nine
    shared families at n*x log-spaced over [0, 1e6]."""

    PER_COMBO = 200  # stratified log10(n*x) cells in [-1, 6]
    ZEROS = 4

    def __init__(self, seed):
        rng = random.Random(seed)
        self.families = []
        self.points = []
        for mu in (0.0, 0.5, 1.3):
            ctx = DunklContext(mu)
            for family in (
                AppellFamily.from_coefficients(ctx, [1.0]),
                AppellFamily.gould_hopper(ctx, 0.5, 1),
                AppellFamily.from_coefficients(ctx, [1.0, 0.5, 0.25]),
            ):
                self.families.append(family)
                cells = [
                    10.0 ** (-1.0 + 7.0 * (k + rng.random()) / self.PER_COMBO)
                    for k in range(self.PER_COMBO)
                ]
                for nx in cells + [0.0] * self.ZEROS:
                    n = _log_uniform_int(rng, 10, 100_000)
                    self.points.append(Point(OperatorSpec(family=family, n=n), nx / n))
        self.count = len(self.points)
        self.order = rng.sample(range(self.count), self.count)

    def op(self, k):
        p = self.points[k]
        m1 = engine.moments_closed(p.spec, p.x)[1]
        cm = engine.central_moments(p.spec, p.x)
        return (m1, cm.omega1, cm.omega2)

    def check(self, refs, acc):
        flags = []
        for p, (m1, omega1, omega2) in zip(self.points, refs):
            ok = (
                _finite(m1, omega1, omega2)
                and omega2 >= 0.0
                and abs(omega1 - (m1 - p.x)) <= 1e-12 * max(1.0, p.x)
            )
            flags.append(acc.check_point(p.spec, p.x, omega2) and ok)
        return flags

    def reach_families(self):
        return self.families


@dataclass(frozen=True)
class FarPoint:
    mu: float
    a: float
    d: int
    n: int
    x: float


class FarField:
    """A fresh context and Gould-Hopper family per point, then
    central_moments at n*x in [1e3, 1e6]; nothing is shared between points."""

    POINTS = 300  # stratified log10(n*x) cells in [3, 6]

    def __init__(self, seed):
        rng = random.Random(seed)
        self.points = []
        for k in range(self.POINTS):
            nx = 10.0 ** (3.0 + 3.0 * (k + rng.random()) / self.POINTS)
            n = _log_uniform_int(rng, 1_000, 1_000_000)
            self.points.append(
                FarPoint(
                    mu=rng.uniform(0.0, 2.0),
                    a=1.0 - rng.random(),  # in (0, 1]
                    d=rng.choice((1, 2, 3)),
                    n=n,
                    x=nx / n,
                )
            )
        self.count = len(self.points)
        self.order = rng.sample(range(self.count), self.count)

    @staticmethod
    def spec(p):
        family = AppellFamily.gould_hopper(DunklContext(p.mu), p.a, p.d)
        return OperatorSpec(family=family, n=p.n)

    def op(self, k):
        p = self.points[k]
        cm = engine.central_moments(self.spec(p), p.x)
        return (cm.omega1, cm.omega2)

    def check(self, refs, acc):
        flags = []
        for p, (omega1, omega2) in zip(self.points, refs):
            ok = _finite(omega1, omega2) and omega2 >= 0.0
            flags.append(acc.check_point(self.spec(p), p.x, omega2) and ok)
        return flags

    def reach_families(self):
        return [self.spec(p).family for p in self.points[:3]]


COLUMNS = "x,n,Kf,f,abs_err,omega1,omega2,bound,margin,theorem"

# (label, argv without --out, report rows); every command keeps n*x <= 600.
CLI_COMMANDS = (
    ("eval", "eval --mu 0.5 --family gould-hopper --gh-a 0.5 --gh-d 1 --f sinx "
             "--n 50,100,200 --x-grid 0:2:0.1", 63),
    ("moments", "moments --mu 0.5 --family gould-hopper --gh-a 0.5 --gh-d 1 "
                "--n 10,100,300 --x-grid 0:2:0.05", 123),
    ("converge", "converge --mu 0 --family unit --f sinx "
                 "--n 5,10,20,40,80,160,300 --x-grid 0:2:0.01", 7),
    ("bounds_T2", "bounds --theorem T2 --f square --mu 0.5 --family unit "
                  "--n 20,50 --x-grid 0:2:0.1", 42),
    ("bounds_T4", "bounds --theorem T4 --f sinx --mu 0.5 --family unit "
                  "--interval-end 2 --n 20,50 --x-grid 0:2:0.1", 42),
)


class CliRuns:
    """The fixed command set, run in-process through cli.main; the seed
    shuffles the order within each set."""

    SETS = 1000  # precomputed set orders; the loop cycles through them

    def __init__(self, seed, out_dir: Path):
        rng = random.Random(seed)
        self.labels = [label for label, _, _ in CLI_COMMANDS]
        self.rows = [rows for _, _, rows in CLI_COMMANDS]
        self.paths = [out_dir / f"cli-{label}.csv" for label in self.labels]
        self.argv = [
            argv.split() + ["--out", str(path)]
            for (_, argv, _), path in zip(CLI_COMMANDS, self.paths)
        ]
        self.count = len(CLI_COMMANDS)
        self.rows_per_set = sum(self.rows)
        self.order = [k for _ in range(self.SETS) for k in rng.sample(range(self.count), self.count)]

    def op(self, k):
        with contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(self.argv[k])
        return status, self.paths[k].read_text()

    def check(self, refs, acc):
        flags = []
        for k, (status, text) in enumerate(refs):
            lines = text.splitlines()
            table = [line.split(",") for line in lines[1:]]
            ok = (
                status == 0
                and lines[:1] == [COLUMNS]
                and len(table) == self.rows[k]
                and all(len(row) == 10 for row in table)
                and all(_finite(*(float(c) for c in row[:9] if c)) for row in table)
            )
            label = self.labels[k]
            if ok and label.startswith("bounds"):
                ok = all(float(row[8]) >= -1e-9 for row in table)  # zero violations
            elif ok and label in ("eval", "moments"):
                ok = self._check_rows(label, table, acc)
            flags.append(ok)
        return flags

    @staticmethod
    def _family():
        return AppellFamily.gould_hopper(DunklContext(0.5), 0.5, 1)

    def _check_rows(self, label, table, acc):
        """Rows must equal the library called directly, and pass the
        accuracy checks at their points."""
        family = self._family()
        ok = True
        for row in table:
            x, n = float(row[0]), int(row[1])
            spec = OperatorSpec(family=family, n=n)
            if label == "eval":
                kf = engine.apply(spec, functions.lookup("sinx").evaluator, x)
                ok = acc.check_mass(spec, x) and float(row[2]) == kf and ok
            else:
                omega2 = engine.central_moments(spec, x).omega2
                ok = ok and float(row[6]) == omega2
                ok = acc.check_drift(spec, x, omega2) and acc.check_rho(spec, x) and ok
        return ok

    def reach_families(self):
        return [
            self._family(),
            AppellFamily.from_coefficients(DunklContext(0.0), [1.0]),
            AppellFamily.from_coefficients(DunklContext(0.5), [1.0]),
        ]


WORKLOADS = {
    "desk-sweep": DeskSweep,
    "moments-table": MomentsTable,
    "far-field": FarField,
    "cli-runs": CliRuns,
}


def build(name, seed, out_dir):
    if name == "cli-runs":
        return CliRuns(seed, out_dir)
    return WORKLOADS[name](seed)
