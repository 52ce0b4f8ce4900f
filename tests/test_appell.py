import math

import pytest

from dunkl_appell import (
    AppellFamily,
    DomainError,
    DunklContext,
    NormalizationError,
    NotAppellGeneratorError,
    PositivityViolationError,
    PowerSeries,
    TruncationFailureError,
    exp_series,
)
from dunkl_appell import appell
from dunkl_appell.appell import POSITIVE_BY_COEFFICIENTS, UNVERIFIED

from oracles import gamma_mu_closed_form, ln_gamma_mu, weight_brute


class TestConstruction:
    def test_unit_family(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.5), [1.0])
        assert fam.Q_at_1 == 1.0
        assert fam.positivity == POSITIVE_BY_COEFFICIENTS
        assert not fam.truncated

    def test_classical_linear_generator(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [1.0, 1.0])
        assert fam.positivity == POSITIVE_BY_COEFFICIENTS
        assert fam.Q_at_1 == 2.0

    def test_zero_constant_term_rejected(self):
        with pytest.raises(NotAppellGeneratorError):
            AppellFamily.from_coefficients(DunklContext(0.0), [0.0, 1.0])

    def test_nonpositive_normalization_rejected(self):
        with pytest.raises(NormalizationError):
            AppellFamily.from_coefficients(DunklContext(0.0), [1.0, -2.0])

    def test_negative_mu_rejected(self):
        with pytest.raises(DomainError):
            AppellFamily.from_coefficients(DunklContext(-0.2), [1.0])

    def test_signed_coefficients_are_unverified(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [2.0, -1.0])
        assert fam.positivity == UNVERIFIED


class TestGouldHopper:
    def test_zero_coefficient_gives_unit(self):
        fam = AppellFamily.gould_hopper(DunklContext(0.5), 0.0, 3)
        assert fam.Q.coeffs == (1.0,)
        assert not fam.truncated

    def test_quadratic_exponent_coefficients(self):
        fam = AppellFamily.gould_hopper(DunklContext(0.0), 0.5, 1, degree_cap=8)
        c = fam.Q.coeffs
        assert len(c) == 9
        for k in range(5):
            assert c[2 * k] == pytest.approx(0.5**k / math.factorial(k), rel=1e-15)
        assert all(c[j] == 0.0 for j in range(9) if j % 2 == 1)
        assert fam.truncated

    def test_cubic_exponent_coefficients(self):
        fam = AppellFamily.gould_hopper(DunklContext(0.0), 1.0, 2, degree_cap=6)
        c = fam.Q.coeffs
        nz = {i: v for i, v in enumerate(c) if v != 0.0}
        assert nz == {0: 1.0, 3: 1.0, 6: 0.5}

    def test_negative_coefficient_rejected(self):
        with pytest.raises(DomainError):
            AppellFamily.gould_hopper(DunklContext(0.0), -0.1, 1)

    def test_bad_gap_rejected(self):
        with pytest.raises(DomainError):
            AppellFamily.gould_hopper(DunklContext(0.0), 0.5, 0)


class TestPolynomials:
    def test_constant_polynomial(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.3), [2.5, 1.0])
        assert fam.poly(0) == [2.5]

    def test_unit_family_gives_monomials(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [1.0])
        for i in range(8):
            p = fam.poly(i)
            assert p[-1] == 1.0
            assert all(c == 0.0 for c in p[:-1])

    def test_generating_series_roundtrip(self):
        # coefficient i of Q(t) e_mu(x t) equals q_i(x) / gamma_mu(i)
        mu, x = 0.6, 1.3
        ctx = DunklContext(mu)
        coeffs = [1.0, -0.3, 0.5, 0.2, -0.1, 0.4, 0.05, -0.2, 0.3, 0.1, 0.25]
        Q = PowerSeries(ctx, coeffs)
        fam = AppellFamily(ctx, Q)
        depth = Q.degree + 15
        product = Q.multiply(exp_series(ctx, x, depth))
        for i in range(depth + 1):
            qi = fam.poly(i)
            value = sum(c * x**j for j, c in enumerate(qi)) / ctx.gamma(i)
            assert abs(product.coeffs[i] - value) <= 1e-10

    def test_truncated_family_rejects_deep_indices(self):
        fam = AppellFamily.gould_hopper(DunklContext(0.0), 0.5, 1, degree_cap=8)
        fam.poly(8)
        with pytest.raises(DomainError):
            fam.poly(9)

    def test_rejects_negative_index(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [1.0])
        with pytest.raises(DomainError):
            fam.poly(-1)


class TestWeights:
    def test_at_origin_weights_are_normalized_coefficients(self):
        fam = AppellFamily.gould_hopper(DunklContext(0.7), 0.5, 1, degree_cap=8)
        ws = fam.weights(3, 0.0, tol=1e-12)
        c = fam.Q.coeffs
        for i, w in enumerate(ws.weights):
            expected = c[i] / fam.Q_at_1 if i < len(c) else 0.0
            assert abs(w - expected) <= 1e-15

    def test_poisson_reduction(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [1.0])
        ws = fam.weights(1, 2.0, tol=1e-12)
        for i, w in enumerate(ws.weights):
            poisson = math.exp(-2.0) * 2.0**i / math.factorial(i)
            assert abs(w - poisson) <= 1e-12

    def test_gould_hopper_against_double_sum_oracle(self):
        mu = 0.5
        fam = AppellFamily.gould_hopper(DunklContext(mu), 0.5, 1, degree_cap=48)
        ws = fam.weights(10, 1.0, tol=1e-12)
        assert abs(sum(ws.weights) + ws.tail_mass - 1.0) <= 1e-12
        assert ws.tail_mass <= 1e-12
        for i, w in enumerate(ws.weights):
            ref = weight_brute(fam.Q.coeffs, mu, 10, 1.0, i)
            assert abs(w - ref) <= 1e-12

    def test_all_weights_nonnegative(self):
        fam = AppellFamily.gould_hopper(DunklContext(1.0), 0.3, 2, degree_cap=48)
        for n, x in ((1, 0.0), (1, 2.0), (10, 0.5), (50, 2.0)):
            ws = fam.weights(n, x, tol=1e-12)
            assert all(w >= 0.0 for w in ws.weights)

    def test_unverified_family_requires_override(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [2.0, -1.0])
        with pytest.raises(DomainError, match="unverified"):
            fam.weights(1, 1.0)

    def test_override_then_positivity_violation(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [2.0, -1.0])
        with pytest.raises(PositivityViolationError) as exc_info:
            fam.weights(1, 0.1, allow_unverified=True)
        assert exc_info.value.index is not None

    def test_full_window_raises_naming_nx(self, monkeypatch):
        # the mass at n*x = 2 needs far more than three terms of the window
        monkeypatch.setattr(appell, "MAX_WINDOW", 3)
        fam = AppellFamily.gould_hopper(DunklContext(0.5), 0.5, 1, degree_cap=48)
        with pytest.raises(TruncationFailureError, match=r"n\*x = 2\b"):
            fam.weights(1, 2.0, tol=1e-12)

    def test_mass_mode_guard_prevents_early_stop(self):
        # with a loose tolerance the mass test passes almost at once; the
        # emitted window must still hold the weight peak near index n*x
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [1.0])
        ws = fam.weights(1, 3.0, tol=0.95)
        assert ws.start <= 3 < ws.start + len(ws.weights)  # ceil(nx) = 3

    def test_unit_weights_match_poisson_far_from_origin(self):
        # n*x = 1e4: the window starts far above index 0, and the Poisson
        # weights come from the log-gamma oracle, not the ratio recurrence
        nx = 1e4
        ws = AppellFamily.from_coefficients(DunklContext(0.0), [1.0]).weights(1, nx)
        assert ws.start > 0
        for i, w in enumerate(ws.weights, ws.start):
            ref = math.exp(i * math.log(nx) - nx - ln_gamma_mu(0.0, i))
            assert abs(w - ref) <= 1e-12

    def test_domain_validation(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [1.0])
        with pytest.raises(DomainError):
            fam.weights(0, 1.0)
        with pytest.raises(DomainError):
            fam.weights(1, -1.0)
        for x in (math.inf, math.nan):
            with pytest.raises(DomainError):
                fam.weights(1, x)
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                fam.weights(1, 1.0, tol=tol)

    def test_parallel_generation_matches_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        fam = AppellFamily.gould_hopper(DunklContext(0.5), 0.5, 1, degree_cap=48)
        jobs = [(n, x) for n in (1, 5, 20) for x in (0.0, 0.7, 2.0)]
        serial = [fam.weights(n, x, tol=1e-12) for n, x in jobs]
        with ThreadPoolExecutor(max_workers=6) as ex:
            parallel = list(ex.map(lambda j: fam.weights(*j, tol=1e-12), jobs))
        for a, b in zip(serial, parallel):
            assert a.weights == b.weights and a.tail_mass == b.tail_mass


class TestReductionChain:
    def test_gh_zero_equals_unit_weights(self):
        ctx = DunklContext(0.8)
        gh = AppellFamily.gould_hopper(ctx, 0.0, 2)
        unit = AppellFamily.from_coefficients(ctx, [1.0])
        w1 = gh.weights(5, 1.2, tol=1e-12)
        w2 = unit.weights(5, 1.2, tol=1e-12)
        assert w1.weights == w2.weights

    def test_unit_weights_match_dunkl_szasz_form(self):
        # weight_i = (nx)^i / (gamma_mu(i) * e_mu(nx))
        mu, n, x = 0.8, 5, 1.2
        fam = AppellFamily.from_coefficients(DunklContext(mu), [1.0])
        ws = fam.weights(n, x, tol=1e-12)
        from oracles import emu_brute

        e = emu_brute(mu, n * x)
        for i, w in enumerate(ws.weights):
            ref = (n * x) ** i / gamma_mu_closed_form(mu, i) / e
            assert abs(w - ref) <= 1e-13
