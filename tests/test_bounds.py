import math

import pytest

from dunkl_appell import (
    AppellFamily,
    ConfigurationError,
    DomainError,
    DunklContext,
    OperatorSpec,
    VerifyParams,
    apply,
    central_moments,
    modulus1,
    modulus2,
    theorem2_bound,
    theorem3_bound,
    theorem4_bound,
    verify,
)
from dunkl_appell.bounds import ANALYTIC, GRID_ESTIMATE
from dunkl_appell.functions import lookup

from conftest import shrink_sinx_modulus
from oracles import grid


def unit_spec(mu, n):
    return OperatorSpec(family=AppellFamily.from_coefficients(DunklContext(mu), [1.0]), n=n)


def gh_spec(mu, a, d, n):
    fam = AppellFamily.gould_hopper(DunklContext(mu), a, d, degree_cap=48)
    return OperatorSpec(family=fam, n=n)


class TestModulus1:
    def test_identity_function(self):
        est = modulus1(lambda t: t, 0.3, (0.0, 5.0), grid_step=1e-3)
        assert abs(est.value - 0.3) <= 2e-3
        assert est.kind == "first"

    def test_sine_against_analytic(self):
        est = modulus1(math.sin, 0.5, (0.0, 2.0 * math.pi), grid_step=1e-3)
        assert abs(est.value - 2.0 * math.sin(0.25)) <= 1e-3

    def test_constant_is_zero(self):
        assert modulus1(lambda t: 4.2, 0.7, (0.0, 3.0)).value == 0.0

    def test_monotone_in_delta(self):
        vals = [
            modulus1(math.cos, d, (0.0, 6.0), grid_step=1e-3).value
            for d in (0.1, 0.2, 0.4, 0.8)
        ]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_lipschitz_overshoot_bound(self):
        # estimate <= L * delta for a Lipschitz-L function
        est = modulus1(math.sin, 0.25, (0.0, 7.0), grid_step=1e-3)
        assert est.value <= 0.25 + 2e-3

    def test_step_precondition(self):
        with pytest.raises(DomainError):
            modulus1(math.sin, 0.1, (0.0, 1.0), grid_step=0.05)


class TestModulus2:
    def test_affine_annihilated(self):
        est = modulus2(lambda t: 3.0 * t - 1.0, 0.5, (0.0, 4.0), grid_step=1e-3)
        assert est.value <= 1e-12

    def test_square_exact_second_difference(self):
        est = modulus2(lambda t: t * t, 0.2, (0.0, 3.0), grid_step=1e-3)
        assert abs(est.value - 0.08) <= 2e-3

    def test_cosine_against_finer_grid(self):
        coarse = modulus2(math.cos, 0.3, (0.0, 7.0), grid_step=2e-3)
        fine = modulus2(math.cos, 0.3, (0.0, 7.0), grid_step=2.5e-4)
        assert abs(coarse.value - fine.value) <= 1e-4

    def test_window_must_fit_double_shift(self):
        with pytest.raises(DomainError):
            modulus2(math.cos, 1.0, (0.0, 1.5))

    def test_monotone_in_s(self):
        vals = [
            modulus2(math.sin, s, (0.0, 8.0), grid_step=1e-3).value
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


class TestTheorem3Bound:
    def test_exponent_validation(self):
        spec = unit_spec(0.5, 10)
        for beta in (0.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                theorem3_bound(spec, 1.0, 1.0, beta)
        with pytest.raises(DomainError):
            theorem3_bound(spec, 1.0, 0.0, 0.5)

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

    def test_degenerate_scale_uses_floor(self):
        # omega2 = 0 at x = 0 for the unit family: the modulus factor is
        # evaluated at a tiny floor and the sup-norm term drops
        spec = unit_spec(0.0, 10)
        w2 = lookup("cosx").analytic_modulus2
        bound = theorem4_bound(spec, 0.0, 2.0, w2, 1.0)
        assert bound == pytest.approx(0.75 * 4.0 * w2(1e-8), rel=1e-12)

    def test_domain_validation(self):
        spec = unit_spec(0.0, 10)
        with pytest.raises(DomainError):
            theorem4_bound(spec, 3.0, 2.0, lambda s: 0.0, 1.0)
        with pytest.raises(DomainError):
            theorem4_bound(spec, 1.0, -2.0, lambda s: 0.0, 1.0)
        with pytest.raises(DomainError):
            theorem4_bound(spec, 1.0, 2.0, lambda s: 0.0, -1.0)


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
            VerifyParams(interval_end=2.0),
        )
        assert rep.passed

    def test_negative_control_produces_violations(self, monkeypatch):
        shrink_sinx_modulus(monkeypatch)
        rep = verify(unit_spec(0.5, 10), lookup("sinx"), "T2", self.XS)
        assert not rep.passed
        assert rep.violations > 0
        assert rep.min_margin < -1e-9

    def test_grid_estimated_modulus_is_labeled(self):
        rep = verify(unit_spec(0.0, 10), lookup("square"), "T2", self.XS)
        assert rep.modulus_source == GRID_ESTIMATE
        assert rep.passed  # windowed estimate stays generous for t**2

    def test_missing_hoelder_metadata(self):
        with pytest.raises(ConfigurationError):
            verify(unit_spec(0.0, 10), lookup("square"), "T3", self.XS)

    @pytest.mark.parametrize("params", [VerifyParams(M=0.001), VerifyParams(beta=1.0)])
    def test_lone_hoelder_value_is_rejected(self, params):
        # half a pair must not fall back silently to the registry's pair
        with pytest.raises(ConfigurationError, match="both M and beta"):
            verify(unit_spec(0.5, 10), lookup("sinx"), "T3", self.XS, params)

    @pytest.mark.parametrize(
        "theorem, params, named",
        [
            ("T2", VerifyParams(M=0.001), "M"),
            ("T2", VerifyParams(beta=1.0), "beta"),
            ("T2", VerifyParams(interval_end=2.0), "interval_end"),
            ("T2", VerifyParams(M=0.001, interval_end=0.1), "M or interval_end"),
            ("T3", VerifyParams(M=1.0, beta=1.0, interval_end=2.0), "interval_end"),
            ("T4", VerifyParams(M=1.0, interval_end=2.0), "M"),
            ("T4", VerifyParams(beta=1.0, interval_end=2.0), "beta"),
        ],
    )
    def test_another_theorems_input_is_rejected(self, theorem, params, named):
        with pytest.raises(ConfigurationError, match=f"{theorem} takes no {named};"):
            verify(unit_spec(0.5, 10), lookup("cosx"), theorem, self.XS, params)

    @pytest.mark.parametrize(
        "theorem, params",
        [
            ("T2", VerifyParams(grid_step=1e-3)),
            ("T3", VerifyParams(grid_step=1e-3)),
            ("T4", VerifyParams(interval_end=2.0, grid_step=1e-3)),
        ],
    )
    def test_grid_step_is_legal_for_every_theorem(self, theorem, params):
        assert verify(unit_spec(0.5, 10), lookup("cosx"), theorem, self.XS, params).passed

    def test_unbounded_function_rejected_for_second_modulus(self):
        with pytest.raises(ConfigurationError, match="unbounded"):
            verify(
                unit_spec(0.0, 10),
                lookup("sqrtx"),
                "T4",
                self.XS,
                VerifyParams(interval_end=2.0),
            )

    def test_grid_outside_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            verify(
                unit_spec(0.0, 10),
                lookup("cosx"),
                "T4",
                [0.0, 3.0],
                VerifyParams(interval_end=2.0),
            )

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
