import math

import pytest

from dunkl_appell import (
    DomainError,
    DunklContext,
    RangeError,
    dunkl_exp,
    dunkl_exp_neg_ratio,
    theta,
)
from dunkl_appell.dunkl import RATIO_CROSSOVER

from oracles import emu_brute, gamma_mu_closed_form


@pytest.mark.parametrize("i,expected", [(0, 0), (7, 1), (2, 0), (1, 1), (100, 0)])
def test_theta_parity(i, expected):
    assert theta(i) == expected


def test_theta_rejects_negative():
    with pytest.raises(DomainError):
        theta(-1)


class TestContext:
    def test_mu_domain(self):
        with pytest.raises(DomainError):
            DunklContext(-0.5)
        with pytest.raises(DomainError):
            DunklContext(-2.0)
        with pytest.raises(DomainError):
            DunklContext(float("nan"))

    def test_negative_mu_flag(self):
        assert DunklContext(-0.3).negative_mu
        assert not DunklContext(0.0).negative_mu
        assert not DunklContext(1.7).negative_mu

    def test_gamma_zero_is_one_exactly(self):
        for mu in (0.0, 0.5, 1.7, -0.3):
            assert DunklContext(mu).gamma(0) == 1.0


class TestGamma:
    def test_factorial_reduction_exact(self):
        ctx = DunklContext(0.0)
        for i in range(21):
            assert ctx.gamma(i) == float(math.factorial(i))

    def test_example_values(self):
        assert DunklContext(0.0).gamma(4) == 24.0
        # closed form gives 2*Gamma(mu+3/2)/Gamma(mu+1/2) = 1 + 2*mu
        assert DunklContext(0.5).gamma(1) == 2.0

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.7])
    def test_recursion_consistency_and_closed_form(self, mu):
        ctx = DunklContext(mu)
        for i in range(51):
            g = ctx.gamma(i)
            assert g > 0.0 and math.isfinite(g)
            # same computation path: exact float identity
            assert ctx.gamma(i + 1) == (i + 1 + 2 * mu * theta(i + 1)) * g
            ref = gamma_mu_closed_form(mu, i)
            assert abs(g - ref) <= 1e-12 * ref

    def test_negative_mu_stays_positive(self):
        ctx = DunklContext(-0.4)
        for i in range(100):
            assert ctx.gamma(i) > 0.0

    def test_overflow_raises_with_index(self):
        ctx = DunklContext(0.0)
        with pytest.raises(RangeError, match="gamma_mu"):
            ctx.gamma(400)
        # the context stays usable below the overflow point
        assert ctx.gamma(20) == float(math.factorial(20))

    def test_rejects_negative_index(self):
        with pytest.raises(DomainError):
            DunklContext(0.0).gamma(-3)


class TestDunklExp:
    def test_classical_reduction_relative(self):
        ctx = DunklContext(0.0)
        for x in [k * 0.5 for k in range(-20, 21)]:
            ref = math.exp(x)
            val = dunkl_exp(ctx, x, tol=1e-15).value
            assert abs(val - ref) <= 1e-13 * ref

    def test_zero_argument(self):
        for mu in (0.0, 0.5, 1.7):
            ev = dunkl_exp(DunklContext(mu), 0.0)
            assert ev.value == 1.0
            assert ev.terms_used == 1
            assert ev.tail_bound == 0.0

    def test_against_brute_force(self):
        ev = dunkl_exp(DunklContext(0.5), 2.0, tol=1e-14)
        ref = emu_brute(0.5, 2.0, nterms=200)
        assert abs(ev.value - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.3])
    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 5.0, 20.0])
    def test_at_least_one_for_nonnegative_args(self, mu, x):
        assert dunkl_exp(DunklContext(mu), x).value >= 1.0

    def test_tail_bound_is_honest(self):
        for mu in (0.0, 0.8):
            for x in (0.5, 3.0, 10.0, -4.0):
                ev = dunkl_exp(DunklContext(mu), x, tol=1e-12)
                assert ev.tail_bound >= 0.0
                ref = emu_brute(mu, x, nterms=400)
                slack = 1e-12 * (1.0 + abs(ev.value)) + 1e-12
                assert abs(ev.value - ref) <= ev.tail_bound + slack

    def test_terms_scale_with_argument(self):
        ctx = DunklContext(0.0)
        small = dunkl_exp(ctx, 1.0).terms_used
        large = dunkl_exp(ctx, 50.0).terms_used
        assert large > small > 1

    def test_domain_errors(self):
        ctx = DunklContext(0.5)
        with pytest.raises(DomainError):
            dunkl_exp(ctx, float("inf"))
        with pytest.raises(DomainError):
            dunkl_exp(ctx, float("nan"))
        with pytest.raises(DomainError):
            dunkl_exp(ctx, 1.0, tol=0.0)

    def test_overflow_raises(self):
        with pytest.raises(RangeError):
            dunkl_exp(DunklContext(0.0), 800.0)
        with pytest.raises(RangeError):
            dunkl_exp(DunklContext(1.0), 800.0)


class TestNegRatio:
    def test_classical_value(self):
        r = dunkl_exp_neg_ratio(DunklContext(0.0), 3.0)
        assert abs(r - math.exp(-6.0)) <= 1e-14 * math.exp(-6.0)

    def test_zero_is_exact(self):
        for mu in (0.0, 0.5, 1.7):
            assert dunkl_exp_neg_ratio(DunklContext(mu), 0.0) == 1.0

    def test_against_brute_force_quotient(self):
        r = dunkl_exp_neg_ratio(DunklContext(1.0), 5.0)
        ref = emu_brute(1.0, -5.0, nterms=300) / emu_brute(1.0, 5.0, nterms=300)
        assert abs(r - ref) <= 1e-10

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.7])
    def test_bounded_by_one(self, mu):
        ctx = DunklContext(mu)
        for y in (0.0, 0.1, 1.0, 4.0, 30.0):
            r = dunkl_exp_neg_ratio(ctx, y)
            assert abs(r) <= 1.0 + 1e-12

    def test_rejects_negative_argument(self):
        with pytest.raises(DomainError):
            dunkl_exp_neg_ratio(DunklContext(0.5), -1.0)


def _bessel_ratio(mu, y):
    """(I_{mu-1/2}(y) - I_{mu+1/2}(y)) / (I_{mu-1/2}(y) + I_{mu+1/2}(y)) in mpmath.

    The difference cancels about log10(y / mu) <= 12 digits on the grids
    below; 40 digits leave more than 25.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        if y == 0.0:
            return 1.0
        if mu == 0.0:
            return float(mp.exp(-2 * mp.mpf(y)))
        a = mp.besseli(mp.mpf(mu) - 0.5, y)
        b = mp.besseli(mp.mpf(mu) + 0.5, y)
        return float((a - b) / (a + b))


class TestNegRatioOracle:
    # Every route sums positive terms, or terms whose differences are formed
    # exactly, and stops at relative tolerance 1e-15, so a few ulps of
    # relative error are expected (1.6e-15 measured).  1e-12 leaves room
    # for libm differences while still catching the cancellation of the
    # alternating e_mu series, which costs about 1e-9 at mu = 1e-6, y = 20,
    # and the old flush of rho to zero.
    REL = 1e-12

    @pytest.mark.parametrize("mu", [0.0, 1e-6, 0.1, 0.5, 1.0, 1.3, 2.0, 3.0])
    @pytest.mark.parametrize(
        "y",
        [0.0, 1.0, 20.0, RATIO_CROSSOVER - 1.0, RATIO_CROSSOVER + 1.0,
         651.0, 1e3, 1e4, 1e6],
    )
    def test_matches_bessel_form(self, mu, y):
        ref = _bessel_ratio(mu, y)
        r = dunkl_exp_neg_ratio(DunklContext(mu), y)
        assert abs(r - ref) <= self.REL * ref

    @pytest.mark.parametrize("mu", [7.5, 20.0])
    def test_crossover_moves_to_mu_squared(self, mu):
        # Below mu**2 the expansion's leading terms grow, so the positive
        # series runs there, rescaled once its sums pass double range.
        for y in (RATIO_CROSSOVER + 1.0, mu * mu - 1.0, mu * mu + 1.0, 2000.0):
            ref = _bessel_ratio(mu, y)
            r = dunkl_exp_neg_ratio(DunklContext(mu), y)
            assert abs(r - ref) <= self.REL * ref, y
