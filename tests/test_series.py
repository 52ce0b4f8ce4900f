import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_appell import AppellFamily, DomainError, DunklContext, PowerSeries

from oracles import exp_series, gamma_mu_closed_form, multiply, product_rule_rhs, reflect

CTX0 = DunklContext(0.0)


def series_strategy(mu, max_degree=10):
    ctx = DunklContext(mu)
    return st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=max_degree + 1
    ).map(lambda cs: PowerSeries(ctx, cs))


def coeffs_close(a: PowerSeries, b: PowerSeries, tol: float):
    m = max(len(a.coeffs), len(b.coeffs))
    ca = a.coeffs + (0.0,) * (m - len(a.coeffs))
    cb = b.coeffs + (0.0,) * (m - len(b.coeffs))
    return max(abs(p - q) for p, q in zip(ca, cb)) <= tol


class TestConstruction:
    def test_needs_a_coefficient(self):
        with pytest.raises(DomainError):
            PowerSeries(CTX0, [])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            PowerSeries(CTX0, [1.0, float("inf")])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 2])
    def test_rejects_each_non_finite_value(self, bad, at):
        coeffs = [1.0, 0.5, 0.25]
        coeffs[at] = bad
        with pytest.raises(DomainError, match="finite"):
            PowerSeries(CTX0, coeffs)

    @pytest.mark.parametrize("big", [10**400, -10**400])
    def test_rejects_an_int_past_double_range(self, big):
        # float() raised a bare OverflowError
        with pytest.raises(DomainError, match="finite"):
            PowerSeries(CTX0, [1.0, big])
        with pytest.raises(DomainError, match="finite"):
            AppellFamily.from_coefficients(CTX0, [big])

    def test_rejects_empty_iterables(self):
        for empty in ([], (), iter(()), (c for c in ())):
            with pytest.raises(DomainError, match="at least one"):
                PowerSeries(CTX0, empty)

    @pytest.mark.parametrize(
        "bad, error",
        [(None, TypeError), ([1.0], TypeError), (object(), TypeError), ("abc", ValueError), ("", ValueError)],
    )
    def test_non_numeric_raises_what_float_raises(self, bad, error):
        with pytest.raises(error):
            PowerSeries(CTX0, [1.0, bad])

    @pytest.mark.parametrize("text", ["12", b"12", bytearray(b"12")], ids=["str", "bytes", "bytearray"])
    def test_rejects_text_as_the_coefficient_sequence(self, text):
        # "12" gave 1 + 2t, and b"12" the byte values 49 + 50t
        with pytest.raises(DomainError, match=f"a {type(text).__name__} is not a sequence of coefficients"):
            PowerSeries(CTX0, text)
        with pytest.raises(DomainError, match=f"a {type(text).__name__} is not a sequence of coefficients"):
            AppellFamily.from_coefficients(CTX0, text)

    def test_converts_each_coefficient_to_float(self):
        for coeffs in ([1, 2, 1], np.array([1.0, 2.0, 1.0]), (c for c in (1, 2.0, 1))):
            S = PowerSeries(CTX0, coeffs)
            assert S.coeffs == (1.0, 2.0, 1.0)
            assert all(type(c) is float for c in S.coeffs)

    def test_immutable(self):
        S = PowerSeries(CTX0, [1.0, 2.0])
        with pytest.raises(AttributeError):
            S.coeffs = (3.0,)


class TestEval:
    def test_constant(self):
        assert PowerSeries(CTX0, [1.0]).eval(7.0) == 1.0

    def test_one_plus_t_at_minus_one(self):
        assert PowerSeries(CTX0, [1.0, 1.0]).eval(-1.0) == 0.0

    def test_exponential_prefix(self):
        # coefficients of exp(t^2 / 2) up to degree 20, evaluated at 1
        coeffs = [0.0] * 21
        for k in range(11):
            coeffs[2 * k] = 0.5**k / math.factorial(k)
        val = PowerSeries(CTX0, coeffs).eval(1.0)
        assert abs(val - math.exp(0.5)) <= 1e-10


class TestDerivative:
    def test_constant_to_zero(self):
        assert PowerSeries(CTX0, [5.0]).derivative().coeffs == (0.0,)

    def test_t_squared(self):
        assert PowerSeries(CTX0, [0.0, 0.0, 1.0]).derivative().coeffs == (0.0, 2.0)

    def test_exp_prefix_self_similarity(self):
        S = PowerSeries(CTX0, [1.0, 1.0, 0.5, 1.0 / 6.0])
        assert S.derivative().coeffs == (1.0, 1.0, 0.5)


class TestDunklDerivative:
    @given(series_strategy(0.0))
    @settings(max_examples=50)
    def test_mu_zero_reduces_to_derivative(self, S):
        assert S.dunkl_derivative().coeffs == S.derivative().coeffs

    def test_monomial_example(self):
        ctx = DunklContext(0.5)
        S = PowerSeries(ctx, [0.0, 1.0])
        assert S.dunkl_derivative().coeffs == (2.0,)

    def test_eigenrelation_on_exponential_coefficients(self):
        ctx = DunklContext(0.5)
        x = 1.5
        E = exp_series(ctx, x, 30)
        LE = E.dunkl_derivative()
        for i in range(30):
            assert abs(LE.coeffs[i] - x * E.coeffs[i]) <= 1e-12 * max(
                1.0, abs(x * E.coeffs[i])
            )

    @given(series_strategy(0.8), st.floats(min_value=0.2, max_value=2.0))
    @settings(max_examples=50)
    def test_pointwise_difference_quotient_form(self, S, t):
        # L S at t equals S'(t) + mu * (S(t) - S(-t)) / t
        mu = 0.8
        lhs = S.dunkl_derivative().eval(t)
        rhs = S.derivative().eval(t) + mu * (S.eval(t) - S.eval(-t)) / t
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.3])
    def test_second_power_on_monomials(self, mu):
        ctx = DunklContext(mu)
        for j in range(2, 31):
            mono = PowerSeries(ctx, [0.0] * j + [1.0])
            twice = mono.dunkl_derivative().dunkl_derivative()
            expected = (j + 2 * mu * (j & 1)) * (j - 1 + 2 * mu * ((j - 1) & 1))
            got = twice.coeffs[j - 2]
            assert abs(got - expected) <= 1e-12 * expected
            assert all(c == 0.0 for k, c in enumerate(twice.coeffs) if k != j - 2)


class TestReflect:
    def test_sign_alternation(self):
        S = PowerSeries(CTX0, [1.0, 1.0, 1.0])
        assert reflect(S).coeffs == (1.0, -1.0, 1.0)

    @given(series_strategy(0.5))
    @settings(max_examples=50)
    def test_involution(self, S):
        assert reflect(reflect(S)) == S

    def test_even_series_fixed(self):
        S = PowerSeries(CTX0, [2.0, 0.0, -3.0, 0.0, 1.0])
        assert reflect(S) == S

    @given(series_strategy(0.0), st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=50)
    def test_eval_commutes_with_reflection(self, S, t):
        assert abs(reflect(S).eval(t) - S.eval(-t)) <= 1e-12 * max(
            1.0, abs(S.eval(-t))
        )


class TestMultiply:
    def test_difference_of_squares(self):
        A = PowerSeries(CTX0, [1.0, 1.0])
        B = PowerSeries(CTX0, [1.0, -1.0])
        assert multiply(A, B).coeffs == (1.0, 0.0, -1.0)

    @given(series_strategy(0.5))
    @settings(max_examples=50)
    def test_multiplicative_identity(self, S):
        one = PowerSeries(S.ctx, [1.0])
        assert multiply(S, one) == S

    def test_context_mismatch(self):
        A = PowerSeries(DunklContext(0.0), [1.0])
        B = PowerSeries(DunklContext(0.5), [1.0])
        with pytest.raises(DomainError):
            multiply(A, B)

    def test_length_policy(self):
        A = PowerSeries(CTX0, [1.0] * 4)
        B = PowerSeries(CTX0, [1.0] * 7)
        assert len(multiply(A, B)) == 10

    def test_product_rule_fixed_degree_eight(self):
        import random

        rng = random.Random(1234)
        ctx = DunklContext(0.7)
        for _ in range(20):
            A = PowerSeries(ctx, [rng.uniform(-1.0, 1.0) for _ in range(9)])
            B = PowerSeries(ctx, [rng.uniform(-1.0, 1.0) for _ in range(9)])
            lhs = multiply(A, B).dunkl_derivative()
            rhs = product_rule_rhs(A, B)
            assert coeffs_close(lhs, rhs, 1e-12)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.3])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_product_rule(self, mu, data):
        ctx = DunklContext(mu)
        A = data.draw(series_strategy(mu))
        B = data.draw(series_strategy(mu))
        A = PowerSeries(ctx, A.coeffs)
        B = PowerSeries(ctx, B.coeffs)
        lhs = multiply(A, B).dunkl_derivative()
        rhs = product_rule_rhs(A, B)
        assert coeffs_close(lhs, rhs, 1e-11)


class TestExpSeries:
    def test_coefficients_match_closed_form(self):
        ctx = DunklContext(0.7)
        x = 1.3
        E = exp_series(ctx, x, 25)
        for i in range(26):
            ref = x**i / gamma_mu_closed_form(0.7, i)
            assert abs(E.coeffs[i] - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_degree_validation(self):
        with pytest.raises(DomainError):
            exp_series(CTX0, 1.0, -1)
