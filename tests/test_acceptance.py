"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id> <label>: PASS|FAIL` line (visible with
`pytest -s` or in captured output).  The partition-of-unity criterion at the
end audits the weights at every point the earlier criteria grew a weight window
for, recorded by wrapping the window kernel for the duration of this module.
"""

import functools
import math
import random

import pytest

from dunkl_appell import (
    AppellFamily,
    DunklContext,
    OperatorSpec,
    PowerSeries,
    VerifyParams,
    apply,
    central_moments,
    dunkl_exp,
    exp_series,
    lookup,
    moments_closed,
    verify,
)
from dunkl_appell.cli import main as cli_main
from dunkl_appell.engine import exp_ratio

from conftest import shrink_sinx_modulus
from oracles import emu_brute, gamma_mu_closed_form, grid

RECORDED = []


@pytest.fixture(scope="module", autouse=True)
def record_weight_points():
    # Every weight window, of one point or of a batch, for weights or for
    # apply, is grown here; C9 rebuilds the weights at each recorded point.
    windows = AppellFamily.windows

    def recording(self, n, x, tol):
        RECORDED.extend((self, n, p, t) for p, t in zip(list(x), tol))
        return windows(self, n, x, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AppellFamily, "windows", recording)
        yield


def criterion(cid, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            import conftest

            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"ACCEPTANCE {cid} {label}: FAIL"
                print(line)
                conftest.ACCEPTANCE_LINES.append(line)
                raise
            line = f"ACCEPTANCE {cid} {label}: PASS"
            print(line)
            conftest.ACCEPTANCE_LINES.append(line)

        return wrapper

    return deco


def unit_spec(mu, n):
    fam = AppellFamily.from_coefficients(DunklContext(mu), [1.0])
    return OperatorSpec(family=fam, n=n, tol=1e-12)


def gh_spec(mu, a, d, n):
    fam = AppellFamily.gould_hopper(DunklContext(mu), a, d)
    return OperatorSpec(family=fam, n=n, tol=1e-12)


@criterion("C1", "classical reductions")
def test_c1_classical_reductions():
    ctx0 = DunklContext(0.0)
    for i in range(21):
        assert ctx0.gamma(i) == float(math.factorial(i))
    for k in range(-20, 21):
        x = k * 0.5
        ref = math.exp(x)
        assert abs(dunkl_exp(ctx0, x).value - ref) <= 1e-13 * ref
    fam = AppellFamily.from_coefficients(ctx0, [1.0])
    for n, x in ((1, 2.0), (10, 0.5), (4, 1.25)):
        ws = fam.weights(n, x, tol=1e-12)
        for i, w in enumerate(ws.weights):
            poisson = math.exp(-n * x) * (n * x) ** i / math.factorial(i)
            assert abs(w - poisson) <= 1e-12


@criterion("C2", "factorial recursion vs log-gamma oracle")
def test_c2_recursion_oracle():
    for mu in (0.0, 0.5, 1.7):
        ctx = DunklContext(mu)
        for i in range(51):
            ref = gamma_mu_closed_form(mu, i)
            assert abs(ctx.gamma(i) - ref) <= 1e-12 * ref


@criterion("C3", "generating-series round-trip")
def test_c3_generating_series_roundtrip():
    rng = random.Random(20240301)
    for _ in range(20):
        mu = rng.uniform(0.0, 1.5)
        ctx = DunklContext(mu)
        while True:
            coeffs = [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, 11))]
            if abs(coeffs[0]) >= 0.2:
                Q = PowerSeries(ctx, coeffs)
                if Q.eval(1.0) > 0.1:
                    break
        fam = AppellFamily(ctx, Q)
        x = rng.uniform(0.0, 2.0)
        depth = Q.degree + 12
        product = Q.multiply(exp_series(ctx, x, depth))
        for i in range(depth + 1):
            qi = fam.poly(i)
            val = sum(c * x**j for j, c in enumerate(qi)) / ctx.gamma(i)
            assert abs(product.coeffs[i] - val) <= 1e-10


@criterion("C4", "Dunkl product rule")
def test_c4_product_rule():
    rng = random.Random(20240302)
    mus = (0.0, 0.5, 1.3)
    for case in range(100):
        ctx = DunklContext(mus[case % 3])
        A = PowerSeries(ctx, [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, 11))])
        B = PowerSeries(ctx, [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, 11))])
        lhs = A.multiply(B).dunkl_derivative()
        rhs = (
            A.multiply(B.dunkl_derivative())
            + B.reflect().multiply(A.dunkl_derivative())
            + A.derivative().multiply(B - B.reflect())
        )
        m = max(len(lhs.coeffs), len(rhs.coeffs))
        la = lhs.coeffs + (0.0,) * (m - len(lhs.coeffs))
        rb = rhs.coeffs + (0.0,) * (m - len(rhs.coeffs))
        assert max(abs(p - q) for p, q in zip(la, rb)) <= 1e-11


def _oracle_grid_specs():
    for make in (
        lambda mu, n: unit_spec(mu, n),
        lambda mu, n: gh_spec(mu, 0.5, 1, n),
        lambda mu, n: gh_spec(mu, 0.3, 2, n),
    ):
        for mu in (0.0, 0.5, 1.0):
            for n in (1, 10, 50):
                yield make(mu, n)


@criterion("C5", "moment oracle equivalence")
def test_c5_moment_oracles():
    for spec in _oracle_grid_specs():
        for x in (0.0, 0.5, 2.0):
            m0, m1, m2 = moments_closed(spec, x)
            assert m0 == 1.0
            assert abs(apply(spec, lambda t: 1.0, x) - m0) <= 1e-8
            assert abs(apply(spec, lambda t: t, x) - m1) <= 1e-8
            assert abs(apply(spec, lambda t: t * t, x) - m2) <= 1e-8
            printed = central_moments(spec, x).omega2
            combined = m2 - 2.0 * x * m1 + x * x
            assert abs(printed - combined) <= 1e-10 * max(abs(printed), abs(combined)) + 1e-16


@criterion("C6", "constant-generator identities")
def test_c6_unit_family_identities():
    for mu in (0.0, 0.5):
        for n in (1, 10):
            for x in (0.0, 0.5, 2.0):
                cm = central_moments(unit_spec(mu, n), x)
                assert abs(cm.omega1) <= 1e-13
                rho = emu_brute(mu, -n * x) / emu_brute(mu, n * x)
                target = (x / n) * (1.0 + 2.0 * mu * rho)
                assert abs(cm.omega2 - target) <= 1e-10 * max(1.0, target)


@criterion("C7", "uniform convergence at desk scale")
def test_c7_convergence():
    xs = grid(0.0, 2.0, 0.1)
    for mu in (0.0, 0.5):
        for name in ("sinx", "expnegx", "square"):
            f = lookup(name).evaluator
            sups = []
            for n in (5, 10, 20, 40, 80):
                spec = unit_spec(mu, n)
                sups.append(max(abs(apply(spec, f, x) - f(x)) for x in xs))
            assert all(b < a for a, b in zip(sups, sups[1:])), (mu, name, sups)
    # scaled error for t**2 approaches the variance leading coefficient
    n = 80
    for mu in (0.0, 0.5):
        spec = unit_spec(mu, n)
        for x in grid(0.1, 2.0, 0.1):
            err = abs(apply(spec, lambda t: t * t, x) - x * x)
            lead = x * (1.0 + 2.0 * mu * exp_ratio(spec, x))
            assert abs(n * err - lead) <= 0.05 * lead


@criterion("C8", "quantitative bounds hold, negative control fails")
def test_c8_bound_verification(capsys, monkeypatch):
    xs = grid(0.0, 2.0, 0.1)
    for n in (10, 40, 160):
        assert verify(unit_spec(0.5, n), lookup("sinx"), "T2", xs).violations == 0
        assert verify(unit_spec(0.5, n), lookup("sqrtx"), "T3", xs,
                      VerifyParams(M=1.0, beta=0.5)).violations == 0
        assert verify(gh_spec(0.5, 0.5, 1, n), lookup("cosx"), "T4", xs,
                      VerifyParams(interval_end=2.0)).violations == 0
    # negative control: a deliberately shrunken modulus must produce
    # violations both in the library and through the CLI exit code
    shrink_sinx_modulus(monkeypatch)
    sab = verify(unit_spec(0.5, 10), lookup("sinx"), "T2", xs)
    assert sab.violations > 0
    code = cli_main([
        "bounds", "--theorem", "T2", "--f", "sinx", "--mu", "0.5",
        "--family", "unit", "--n", "10", "--x-grid", "0:2:0.1",
    ])
    capsys.readouterr()  # swallow the CLI report
    assert code == 2


@criterion("C9", "partition of unity across all generated weights")
def test_c9_partition_of_unity():
    if not RECORDED:  # standalone run of this test: generate a sweep
        for spec in _oracle_grid_specs():
            for x in (0.0, 0.5, 1.0, 2.0):
                spec.family.weights(spec.n, x, tol=1e-12)
    points = list(RECORDED)  # the weights below record their points too
    assert len(points) > 100
    for family, n, x, tol in points:
        ws = family.weights(n, x, tol=tol)
        assert abs(math.fsum(ws.weights) + ws.tail_mass - 1.0) <= 1e-12
        assert all(w >= 0.0 for w in ws.weights)
