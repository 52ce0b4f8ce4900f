import math
import random

import pytest

from dunkl_appell import (
    AppellFamily,
    ConfigurationError,
    DomainError,
    DunklContext,
    OperatorSpec,
    apply,
    central_moments,
    modulus1,
    modulus2,
    theorem2_bound,
    theorem3_bound,
    theorem4_bound,
    verify,
)
from dunkl_appell import BUILTIN_REGISTRY, bounds
from dunkl_appell.bounds import ANALYTIC, WINDOW_LOCAL
from dunkl_appell.functions import FunctionEntry, lookup

from conftest import shrink_sinx_modulus
from oracles import grid, modulus1_loop, modulus2_loop

HUGE = pytest.param(10**400, id="1e400")  # an int past double range


def unit_spec(mu, n):
    return OperatorSpec(family=AppellFamily.from_coefficients(DunklContext(mu), [1.0]), n=n)


def gh_spec(mu, a, d, n):
    fam = AppellFamily.gould_hopper(DunklContext(mu), a, d)
    return OperatorSpec(family=fam, n=n)


class TestModulus1:
    def test_identity_function(self):
        est = modulus1(lambda t: t, 0.3, (0.0, 5.0), grid_step=1e-3)
        assert abs(est - 0.3) <= 2e-3
        assert type(est) is float

    def test_sine_against_analytic(self):
        est = modulus1(math.sin, 0.5, (0.0, 2.0 * math.pi), grid_step=1e-3)
        assert abs(est - 2.0 * math.sin(0.25)) <= 1e-3

    def test_constant_is_zero(self):
        assert modulus1(lambda t: 4.2, 0.7, (0.0, 3.0)) == 0.0

    def test_monotone_in_delta(self):
        vals = [
            modulus1(math.cos, d, (0.0, 6.0), grid_step=1e-3)
            for d in (0.1, 0.2, 0.4, 0.8)
        ]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_lipschitz_overshoot_bound(self):
        # estimate <= L * delta for a Lipschitz-L function
        est = modulus1(math.sin, 0.25, (0.0, 7.0), grid_step=1e-3)
        assert est <= 0.25 + 2e-3

    def test_step_precondition(self):
        with pytest.raises(DomainError):
            modulus1(math.sin, 0.1, (0.0, 1.0), grid_step=0.05)


class TestModulus1Windows:
    """The sliding-window max - min equals the loop over shifts bit for bit."""

    @staticmethod
    def walk(step):
        rng = random.Random(17)
        values = [0.0]
        for _ in range(4000):
            values.append(values[-1] + rng.gauss(0.0, 1.0))
        return lambda t: values[round(t / step)]

    @pytest.mark.parametrize(
        "delta, step, window",
        [
            (8e-3, 1e-3, (0.0, 2.0)),  # 8 shifts
            (1.0 / math.sqrt(20), 1e-3, (0.0, 3.0)),  # 223 shifts, as at n = 20
            (0.5, 1e-3, (0.0, 0.1)),  # a window shorter than the shifts
            (0.25, 1e-3, (0.0, 0.0)),  # one grid point
        ],
    )
    def test_matches_shift_loop(self, delta, step, window):
        for f in (math.sin, math.sqrt, lambda t: t * t, self.walk(step)):
            got = modulus1(f, delta, window, grid_step=step)
            assert got == modulus1_loop(f, delta, window, step)

    def test_reversed_window_rejected(self):
        with pytest.raises(DomainError, match="no point"):
            modulus1(math.sin, 0.5, (1.0, 0.0))


class TestGridNodeLimit:
    """A modulus grid of more than bounds.MAX_GRID_NODES nodes raises
    DomainError before f runs."""

    @staticmethod
    def counted():
        calls = []
        return (lambda t: calls.append(t) or t * t), calls

    def test_a_grid_at_the_limit_still_runs(self, monkeypatch):
        monkeypatch.setattr(bounds, "MAX_GRID_NODES", 2001)  # (0, 2) at 1e-3
        f, calls = self.counted()
        got = modulus1(f, 0.5, (0.0, 2.0), grid_step=1e-3)
        assert len(calls) == 2001
        assert got == modulus1_loop(lambda t: t * t, 0.5, (0.0, 2.0), 1e-3)
        assert modulus2(f, 0.5, (0.0, 2.0), grid_step=1e-3) > 0.0

    @pytest.mark.parametrize("modulus", [modulus1, modulus2])
    def test_past_the_limit_f_never_runs(self, monkeypatch, modulus):
        monkeypatch.setattr(bounds, "MAX_GRID_NODES", 2000)
        f, calls = self.counted()
        with pytest.raises(DomainError, match="holds 2001 nodes, more than the limit of 2000"):
            modulus(f, 0.5, (0.0, 2.0), grid_step=1e-3)
        assert calls == []

    def test_an_unbounded_window_is_refused(self):
        with pytest.raises(DomainError, match="holds inf nodes"):
            modulus1(math.sin, 0.5, (0.0, math.inf))


@pytest.mark.parametrize("value", [0.0, -1e-3, math.nan, math.inf, HUGE, "x"])
@pytest.mark.parametrize("modulus", [modulus1, modulus2])
@pytest.mark.parametrize("argument", ["scale", "grid_step"])
def test_non_positive_or_non_finite_arguments_rejected(value, modulus, argument):
    # a zero step divided by zero, a negative one gave an empty grid and a
    # zero modulus, NaN raised ValueError and an infinite scale OverflowError
    scale, step = (value, 1e-3) if argument == "scale" else (0.1, value)
    with pytest.raises(DomainError, match="finite and positive"):
        modulus(math.sin, scale, (0.0, 2.0), grid_step=step)


@pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf, HUGE, "x"])
def test_grid_step_must_be_finite_and_positive(step):
    # a step past double range raised OverflowError from (hi - lo) / step
    with pytest.raises(DomainError, match="grid step must be finite and positive"):
        bounds.grid_points(0.0, 1.0, step)
    assert bounds.grid_points(0.0, 1.0, "0.5") == [0.0, 0.5, 1.0]


class TestModulus2:
    @pytest.mark.parametrize(
        "s, window",
        [
            (8e-3, (0.0, 2.0)),  # 8 shifts
            (0.5, (0.0, 3.0)),  # 500 shifts
            (0.25, (0.0, 0.5)),  # the shifts fill the window
        ],
    )
    def test_matches_shift_loop(self, s, window):
        walk = TestModulus1Windows.walk(1e-3)
        for f in (math.sin, math.sqrt, lambda t: t * t, walk):
            got = modulus2(f, s, window, grid_step=1e-3)
            assert got == modulus2_loop(f, s, window, 1e-3)

    def test_affine_annihilated(self):
        est = modulus2(lambda t: 3.0 * t - 1.0, 0.5, (0.0, 4.0), grid_step=1e-3)
        assert est <= 1e-12

    def test_square_exact_second_difference(self):
        est = modulus2(lambda t: t * t, 0.2, (0.0, 3.0), grid_step=1e-3)
        assert abs(est - 0.08) <= 2e-3

    def test_cosine_against_finer_grid(self):
        coarse = modulus2(math.cos, 0.3, (0.0, 7.0), grid_step=2e-3)
        fine = modulus2(math.cos, 0.3, (0.0, 7.0), grid_step=2.5e-4)
        assert abs(coarse - fine) <= 1e-4

    def test_window_must_fit_double_shift(self):
        with pytest.raises(DomainError):
            modulus2(math.cos, 1.0, (0.0, 1.5))

    def test_monotone_in_s(self):
        vals = [
            modulus2(math.sin, s, (0.0, 8.0), grid_step=1e-3)
            for s in (0.1, 0.2, 0.4)
        ]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestTheorem2Bound:
    def test_classical_worked_example(self):
        # unit family at mu=0: omega2 = x/n exactly, so with w(d) = d the
        # bound at n=100, x=1 is (1 + 1) * 0.1
        spec = unit_spec(0.0, 100)
        bound = theorem2_bound(spec, 1.0, lambda d: d)
        assert abs(bound - 0.2) <= 1e-12
        actual = abs(apply(spec, lambda t: t, 1.0) - 1.0)
        assert actual <= bound

    def test_zero_modulus_gives_zero_bound(self):
        assert theorem2_bound(unit_spec(0.5, 10), 1.0, lambda d: 0.0) == 0.0

    def test_at_origin_all_mass_on_first_node(self):
        spec = unit_spec(0.0, 25)
        w = lookup("sinx").analytic_modulus
        assert theorem2_bound(spec, 0.0, w) == w(0.2)
        assert apply(spec, math.sin, 0.0) == 0.0

    @pytest.mark.parametrize("value", [math.nan, -1.0, -5e-324, math.inf])
    def test_modulus_value_must_be_finite_and_nonnegative(self, value):
        # nan gave a nan bound, -1.0 a negative one (-2.01 at n = 20, x = 1)
        with pytest.raises(DomainError, match=rf"theorem T2 needs .* got {value}"):
            theorem2_bound(unit_spec(0.5, 20), 1.0, lambda d: value)
        assert theorem2_bound(unit_spec(0.5, 20), 1.0, lambda d: -0.0) == 0.0


class TestTheorem3Bound:
    def test_exponent_validation(self):
        spec = unit_spec(0.5, 10)
        for beta in (0.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                theorem3_bound(spec, 1.0, 1.0, beta)
        with pytest.raises(DomainError):
            theorem3_bound(spec, 1.0, 0.0, 0.5)

    @pytest.mark.parametrize("M", [-1.0, math.nan, math.inf, HUGE, "x", None])
    def test_constant_must_be_finite_and_positive(self, M):
        # 10**400 raised OverflowError from M * omega2**(beta/2), and a str
        # TypeError from the comparison
        with pytest.raises(DomainError, match="Hoelder constant"):
            theorem3_bound(unit_spec(0.5, 10), 1.0, M, 0.5)

    def test_constant_is_read_by_the_real_rule(self):
        spec = unit_spec(0.5, 10)
        want = theorem3_bound(spec, 1.0, 1.0, 0.5)
        assert theorem3_bound(spec, 1.0, "1", 0.5) == theorem3_bound(spec, 1.0, 1, 0.5) == want

    def test_lipschitz_case_dominates_first_central_moment(self):
        # beta = 1: the bound sqrt(omega2) dominates |omega1|
        for spec in (gh_spec(0.5, 0.5, 1, 10), gh_spec(1.0, 0.3, 2, 40)):
            for x in grid(0.0, 2.0, 0.25):
                cm = central_moments(spec, x)
                assert abs(cm.omega1) <= theorem3_bound(spec, x, 1.0, 1.0) + 1e-15

    def test_square_root_holder_pair(self):
        spec = unit_spec(0.5, 20)
        for x in grid(0.25, 4.0, 0.25):
            bound = theorem3_bound(spec, x, 1.0, 0.5)
            actual = abs(apply(spec, math.sqrt, x) - math.sqrt(x))
            assert actual <= bound

    def test_degenerate_point(self):
        spec = unit_spec(0.0, 10)
        assert theorem3_bound(spec, 0.0, 1.0, 0.5) == 0.0


class TestTheorem4Bound:
    def test_cosine_bound_holds_on_grid(self):
        spec = gh_spec(0.5, 0.5, 1, 50)
        w2 = lookup("cosx").analytic_modulus2
        for x in grid(0.0, 2.0, 0.2):
            bound = theorem4_bound(spec, x, 2.0, w2, 1.0)
            actual = abs(apply(spec, math.cos, x) - math.cos(x))
            assert actual <= bound

    def test_affine_with_bounded_extension(self):
        # f affine on the window: second modulus vanishes, only the
        # sup-norm term remains, and it still dominates the actual error
        cap = 10.0
        f = lambda t: min(t, cap)
        spec = gh_spec(0.5, 0.5, 1, 50)
        for x in grid(0.0, 2.0, 0.5):
            bound = theorem4_bound(spec, x, 2.0, lambda s: 0.0, cap)
            actual = abs(apply(spec, f, x) - f(x))
            assert actual <= bound

    def test_constant_function(self):
        spec = unit_spec(0.5, 10)
        bound = theorem4_bound(spec, 1.0, 2.0, lambda s: 0.0, 1.0)
        s2 = math.sqrt(central_moments(spec, 1.0).omega2)
        assert bound == pytest.approx(2.0 * s2 / 2.0, rel=1e-12)
        assert abs(apply(spec, lambda t: 1.0, 1.0) - 1.0) <= bound

    @pytest.mark.parametrize(
        "name", [e.name for e in BUILTIN_REGISTRY.values() if e.analytic_modulus2]
    )
    def test_point_mass_takes_the_general_formula(self, name):
        # omega2 = 0 at x = 0 for the unit family at mu = 0, a point mass:
        # the bound is 0.75 (2 + a) w2(0), which is 0, and K f(0) = f(0)
        spec, entry = unit_spec(0.0, 10), lookup(name)
        w2 = entry.analytic_modulus2
        assert central_moments(spec, 0.0).omega2 == 0.0
        bound = theorem4_bound(spec, 0.0, 2.0, w2, 1.0)
        assert bound == 0.75 * (2.0 + 2.0) * w2(0.0) == 0.0
        if entry.sup_norm is not None:
            rep = verify(spec, entry, "T4", [0.0], interval_end=2.0)
            assert rep.passed and rep.points[0].bound == 0.0

    @pytest.mark.parametrize("value", [math.nan, -1.0, -5e-324, math.inf])
    def test_modulus_value_must_be_finite_and_nonnegative(self, value):
        # nan gave a nan bound, -1.0 a negative one
        with pytest.raises(DomainError, match=rf"theorem T4 needs .* got {value}"):
            theorem4_bound(unit_spec(0.5, 20), 1.0, 2.0, lambda s: value, 1.0)

    def test_domain_validation(self):
        spec = unit_spec(0.0, 10)
        with pytest.raises(DomainError):
            theorem4_bound(spec, 3.0, 2.0, lambda s: 0.0, 1.0)
        with pytest.raises(DomainError):
            theorem4_bound(spec, 1.0, -2.0, lambda s: 0.0, 1.0)
        with pytest.raises(DomainError):
            theorem4_bound(spec, 1.0, 2.0, lambda s: 0.0, -1.0)

    @pytest.mark.parametrize(
        "interval_end, sup_norm",
        [(0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan), (2.0, math.inf),
         pytest.param(10**400, 1.0, id="1e400-1.0"), pytest.param(2.0, 10**400, id="2.0-1e400"),
         ("x", 1.0), (2.0, None)],
    )
    def test_inputs_must_be_finite(self, interval_end, sup_norm):
        # x = 0 lies in [0, a] for a = inf; a = 0 used to divide by zero;
        # 10**400 raised OverflowError, from a + EDGE_SLACK and from the bound
        spec = gh_spec(0.5, 0.5, 1, 10)
        with pytest.raises(DomainError):
            theorem4_bound(spec, 0.0, interval_end, lambda s: 0.0, sup_norm)
        with pytest.raises(DomainError):
            theorem4_bound(spec, 1.0, interval_end, lambda s: 0.0, sup_norm)


class TestVerify:
    XS = grid(0.0, 2.0, 0.1)

    @pytest.mark.parametrize("n", [10, 40, 160])
    def test_first_modulus_with_analytic_metadata(self, n):
        rep = verify(unit_spec(0.5, n), lookup("sinx"), "T2", self.XS)
        assert rep.passed and rep.violations == 0
        assert rep.modulus_source == ANALYTIC
        assert rep.min_margin > 0.0
        assert len(rep.points) == len(self.XS)

    @pytest.mark.parametrize("n", [10, 40, 160])
    def test_hoelder_with_registry_pair(self, n):
        rep = verify(unit_spec(0.5, n), lookup("sqrtx"), "T3", self.XS)
        assert rep.passed

    @pytest.mark.parametrize("n", [10, 40, 160])
    def test_second_modulus_with_analytic_metadata(self, n):
        rep = verify(
            gh_spec(0.5, 0.5, 1, n),
            lookup("cosx"),
            "T4",
            self.XS,
            interval_end=2.0,
        )
        assert rep.passed

    def test_negative_control_produces_violations(self, monkeypatch):
        shrink_sinx_modulus(monkeypatch)
        rep = verify(unit_spec(0.5, 10), lookup("sinx"), "T2", self.XS)
        assert not rep.passed
        assert rep.violations > 0
        assert rep.min_margin < -1e-9

    @pytest.mark.parametrize("n, xs", [(20, XS), (50, XS), (10**12, [0.0, 1e-6])])
    def test_square_takes_its_window_modulus(self, n, xs):
        # square has no global modulus: T2 takes its exact modulus on the
        # window and labels the report window-local
        entry = lookup("square")
        rep = verify(unit_spec(0.5, n), entry, "T2", xs)
        w = entry.window_modulus(1.0 / math.sqrt(n), bounds._window_end(xs, n))
        assert rep.modulus_source == WINDOW_LOCAL and rep.passed
        assert [p.bound for p in rep.points] == [
            (1.0 + p.inputs.lambda_n) * w for p in rep.points
        ]

    @pytest.mark.parametrize("n", [20, 50, 1000])
    def test_square_window_modulus_at_least_grid_estimate(self, n):
        # The grid misses the maximizing pair (b - delta, b) by at most one
        # step in each end, and w(t^2; d) on [0, b] grows with b and d.
        lo, b = 0.0, bounds._window_end(self.XS, n)
        delta, step = 1.0 / math.sqrt(n), 1e-3
        w = lookup("square").window_modulus
        est = modulus1(lambda t: t * t, delta, (lo, b), grid_step=step)
        assert w(delta - step, b - step) <= est <= w(delta, b)

    def test_missing_hoelder_metadata(self):
        with pytest.raises(ConfigurationError):
            verify(unit_spec(0.0, 10), lookup("square"), "T3", self.XS)

    @pytest.mark.parametrize("params", [dict(M=0.001), dict(beta=1.0)])
    def test_lone_hoelder_value_is_rejected(self, params):
        # half a pair must not fall back silently to the registry's pair
        with pytest.raises(ConfigurationError, match="both M and beta"):
            verify(unit_spec(0.5, 10), lookup("sinx"), "T3", self.XS, **params)

    @pytest.mark.parametrize(
        "theorem, params, named",
        [
            ("T2", dict(M=0.001), "M"),
            ("T2", dict(beta=1.0), "beta"),
            ("T2", dict(interval_end=2.0), "interval_end"),
            ("T2", dict(M=0.001, interval_end=0.1), "M or interval_end"),
            ("T3", dict(M=1.0, beta=1.0, interval_end=2.0), "interval_end"),
            ("T4", dict(M=1.0, interval_end=2.0), "M"),
            ("T4", dict(beta=1.0, interval_end=2.0), "beta"),
        ],
    )
    def test_another_theorems_input_is_rejected(self, theorem, params, named):
        with pytest.raises(ConfigurationError, match=f"{theorem} takes no {named};"):
            verify(unit_spec(0.5, 10), lookup("cosx"), theorem, self.XS, **params)

    @pytest.mark.parametrize("theorem, value", [
        ("T2", math.nan), ("T2", -1.0), ("T2", math.inf),
        ("T4", math.nan), ("T4", -1.0), ("T4", math.inf),
    ])
    def test_nan_modulus_is_a_domain_error(self, theorem, value):
        # a NaN modulus gave NaN margins (counted as violations, exit 2) and
        # a negative one negative bounds; the rule now refuses the value
        if theorem == "T2":
            entry = FunctionEntry("badmod", math.sin, analytic_modulus=lambda d: value)
            params = {}
        else:
            entry = FunctionEntry(
                "badmod", math.sin, analytic_modulus2=lambda s: value, sup_norm=1.0
            )
            params = dict(interval_end=2.0)
        with pytest.raises(DomainError, match=f"theorem {theorem} needs a modulus"):
            verify(unit_spec(0.5, 10), entry, theorem, self.XS, **params)

    def test_nan_margin_counts_as_violation(self):
        # NaN compares false against the slack, so a NaN margin fails
        point = bounds.BoundPoint(
            x=1.0, kf=math.nan, fx=0.0, actual_error=math.nan, bound=1.0,
            margin=math.nan, omega1=0.0, omega2=0.1, inputs=bounds.BoundInputs("T2"),
        )
        rep = bounds.BoundReport("T2", 10, "f", ANALYTIC, [point])
        assert rep.violations == 1 and not rep.passed and math.isnan(rep.min_margin)

    @pytest.mark.parametrize(
        "name, theorem, params, error",
        [
            ("square", "T3", dict(), ConfigurationError),  # no Hoelder pair
            ("sinx", "T3", dict(M=-1.0, beta=1.0), DomainError),
            ("sinx", "T4", dict(interval_end=0.0), DomainError),
            ("sin_bare", "T2", dict(), ConfigurationError),  # no modulus
            ("sin_bare", "T4", dict(interval_end=2.0), ConfigurationError),  # no w2
        ],
    )
    def test_empty_grid_gets_the_same_checks(self, name, theorem, params, error):
        # an empty grid used to return a passing report before any check
        entry = FunctionEntry(name, math.sin, sup_norm=1.0) if name == "sin_bare" else lookup(name)
        with pytest.raises(error):
            verify(gh_spec(0.5, 0.5, 1, 10), entry, theorem, [], **params)

    def test_unbounded_function_rejected_for_second_modulus(self):
        with pytest.raises(ConfigurationError, match="unbounded"):
            verify(
                unit_spec(0.0, 10),
                lookup("sqrtx"),
                "T4",
                self.XS,
                interval_end=2.0,
            )

    def test_grid_outside_interval_rejected(self):
        # verify and theorem4_bound share one check: a point may lie 1e-12
        # past interval_end (a grid's rounding), and no further
        spec, entry = unit_spec(0.0, 10), lookup("cosx")
        for x, a, accepted in [(2.0 + 1e-13, 2.0, True), (3.0, 2.0, False)]:
            if accepted:
                assert verify(spec, entry, "T4", [0.0, x], interval_end=a).passed
                assert theorem4_bound(spec, x, a, entry.analytic_modulus2, 1.0) > 0.0
                continue
            with pytest.raises(DomainError, match="past interval_end"):
                verify(spec, entry, "T4", [0.0, x], interval_end=a)
            with pytest.raises(DomainError, match="past interval_end"):
                theorem4_bound(spec, x, a, entry.analytic_modulus2, 1.0)

    def test_unknown_theorem(self):
        with pytest.raises(ConfigurationError):
            verify(unit_spec(0.0, 10), lookup("sinx"), "T9", self.XS)

    def test_empty_grid_vacuous(self):
        rep = verify(unit_spec(0.0, 10), lookup("sinx"), "T2", [])
        assert rep.passed and rep.points == []

    def test_bound_shrinks_with_n(self):
        # for every registry function with an analytic modulus the T2
        # bounds at n = 160 sit below those at n = 10 pointwise
        for name in ("sinx", "cosx", "expnegx", "sqrtx", "id"):
            entry = lookup(name)
            lo = verify(unit_spec(0.5, 10), entry, "T2", self.XS)
            hi = verify(unit_spec(0.5, 160), entry, "T2", self.XS)
            for a, b in zip(hi.points, lo.points):
                assert a.bound <= b.bound

    def test_points_carry_moment_data(self):
        rep = verify(unit_spec(0.0, 10), lookup("sinx"), "T2", [1.0])
        p = rep.points[0]
        assert p.omega2 == pytest.approx(0.1, rel=1e-12)
        assert p.inputs.lambda_n == pytest.approx(1.0, rel=1e-12)
        assert p.inputs.s == pytest.approx(0.1**0.25, rel=1e-12)
