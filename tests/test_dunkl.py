import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunkl_appell import (
    DomainError,
    DunklContext,
    PowerSeries,
    RangeError,
    dunkl_exp,
    dunkl_exp_neg_ratio,
)
from dunkl_appell import dunkl

from oracles import (
    emu_brute,
    gamma_mu,
    gamma_mu_closed_form,
    ratio_expansion_loop,
    ratio_series_loop,
)


@pytest.mark.parametrize("i,expected", [(0, 0), (7, 1), (2, 0), (1, 1), (100, 0)])
def test_theta_parity(i, expected):
    # The Dunkl operator maps t**i to (i + 2 mu theta(i)) t**(i-1); the
    # package writes the parity theta(i) as i & 1 wherever it uses it.
    mu = 0.25
    image = PowerSeries(DunklContext(mu), [0.0] * i + [1.0]).dunkl_derivative()
    assert image.coeffs[max(i - 1, 0)] == i + 2 * mu * expected


class TestContext:
    def test_mu_domain(self):
        with pytest.raises(DomainError):
            DunklContext(-0.5)
        with pytest.raises(DomainError):
            DunklContext(-2.0)
        with pytest.raises(DomainError):
            DunklContext(float("nan"))

    @pytest.mark.parametrize("mu", [
        -0.2, -1e-300, -0.49, math.inf,
        # an int past double range raised a bare OverflowError from float()
        pytest.param(10**400, id="int-1e400"), pytest.param(-10**400, id="int--1e400"),
    ])
    def test_requires_finite_nonnegative_mu(self, mu):
        with pytest.raises(DomainError, match="mu must be a finite real >= 0"):
            DunklContext(mu)

    @pytest.mark.parametrize("mu", ["a", "", None, [0.5], object()])
    def test_value_float_refuses_is_a_domain_error(self, mu):
        # float()'s ValueError and TypeError escaped bare
        with pytest.raises(DomainError, match=re.escape(f"mu must be a finite real >= 0, got {mu!r}")):
            DunklContext(mu)

    def test_a_str_float_reads_is_accepted(self):
        assert DunklContext("1").mu == 1.0

    def test_negative_zero_is_accepted(self):
        assert DunklContext(-0.0).mu == 0.0

    def test_gamma_zero_is_one_exactly(self):
        for mu in (0.0, 0.5, 1.7):
            assert gamma_mu(mu, 0) == 1.0


class TestGamma:
    """gamma_mu's product recursion, former package code kept in oracles."""

    def test_factorial_reduction_exact(self):
        for i in range(21):
            assert gamma_mu(0.0, i) == float(math.factorial(i))

    def test_example_values(self):
        assert gamma_mu(0.0, 4) == 24.0
        # closed form gives 2*Gamma(mu+3/2)/Gamma(mu+1/2) = 1 + 2*mu
        assert gamma_mu(0.5, 1) == 2.0

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.7])
    def test_recursion_consistency_and_closed_form(self, mu):
        for i in range(51):
            g = gamma_mu(mu, i)
            assert g > 0.0 and math.isfinite(g)
            # same computation path: exact float identity
            assert gamma_mu(mu, i + 1) == (i + 1 + 2 * mu * ((i + 1) & 1)) * g
            ref = gamma_mu_closed_form(mu, i)
            assert abs(g - ref) <= 1e-12 * ref

    def test_overflow_raises_with_index(self):
        with pytest.raises(RangeError, match="gamma_mu"):
            gamma_mu(0.0, 400)
        # indices below the overflow point stay usable
        assert gamma_mu(0.0, 20) == float(math.factorial(20))

    def test_rejects_negative_index(self):
        with pytest.raises(DomainError):
            gamma_mu(0.0, -3)


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
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                dunkl_exp(ctx, 1.0, tol=tol)

    @pytest.mark.parametrize("x, tol, message", [
        pytest.param(1.0, 10**400, "tolerance must be finite and positive, got inf", id="tol-1e400"),
        pytest.param(10**400, 1e-15, "e_mu argument must be a finite real, got inf", id="x-1e400"),
        pytest.param(-10**400, 1e-15, "e_mu argument must be a finite real, got -inf", id="x--1e400"),
        pytest.param(1.0, "x", "tolerance must be finite and positive, got 'x'", id="tol-str"),
        pytest.param(None, 1e-15, "e_mu argument must be a finite real, got None", id="x-None"),
    ])
    def test_inputs_are_read_by_the_real_rule(self, x, tol, message):
        # the ints raised OverflowError and a str tol TypeError
        with pytest.raises(DomainError, match=re.escape(message)):
            dunkl_exp(DunklContext(0.5), x, tol=tol)

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_readable_inputs_are_their_floats(self, mu):
        ctx = DunklContext(mu)
        assert dunkl_exp(ctx, 1.0, tol="1e-3") == dunkl_exp(ctx, 1.0, tol=1e-3)
        assert dunkl_exp(ctx, "-2.5") == dunkl_exp(ctx, -2.5)
        assert dunkl_exp(ctx, 3) == dunkl_exp(ctx, 3.0)

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
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                dunkl_exp_neg_ratio(DunklContext(0.5), 5.0, tol=tol)

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_tolerance_is_read_by_the_real_rule(self, mu):
        # 10**400 raised OverflowError and '1e-3' TypeError
        ctx = DunklContext(mu)
        for tol in (10**400, "x", None, -1):
            with pytest.raises(DomainError, match="tolerance must be finite and positive"):
                dunkl_exp_neg_ratio(ctx, 30.0, tol=tol)
        want = dunkl_exp_neg_ratio(ctx, 30.0, tol=1e-3)
        assert dunkl_exp_neg_ratio(ctx, 30.0, tol="1e-3") == want
        assert dunkl_exp_neg_ratio(ctx, 30.0, tol=1) == dunkl_exp_neg_ratio(ctx, 30.0, tol=1.0)


def _bessel_ratio(mu, y):
    """(I_{mu-1/2}(y) - I_{mu+1/2}(y)) / (I_{mu-1/2}(y) + I_{mu+1/2}(y)) in mpmath.

    The difference cancels about log10(y / mu) digits: at most 12 on most
    grids below, where 40 digits leave more than 25, and up to 336 at
    mu = 5e-324, y = 1e12, so the precision grows with it to keep 28.
    """
    mp = pytest.importorskip("mpmath")
    if y == 0.0:
        return 1.0
    cancelled = math.ceil(math.log10(y) - math.log10(mu)) if mu > 0.0 else 0
    with mp.workdps(28 + max(12, cancelled)):
        if mu == 0.0:
            return float(mp.exp(-2 * mp.mpf(y)))
        a = mp.besseli(mp.mpf(mu) - 0.5, y)
        b = mp.besseli(mp.mpf(mu) + 0.5, y)
        return float((a - b) / (a + b))


def _crossover(mu, tol=1e-15):
    """The last y routed to the series and the first routed to the
    expansion, adjacent doubles bisected on the rule.  It holds at
    max(1e3, mu**2) for every mu > 0 (y_c is 393 at mu = 5e-324)."""
    lo, hi = 0.5, max(1e3, mu * mu)
    assert dunkl._expansion_exact(mu, hi, tol) and not dunkl._expansion_exact(mu, lo, tol)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        if dunkl._expansion_exact(mu, mid, tol):
            hi = mid
        else:
            lo = mid


class TestNegRatioOracle:
    # Every route sums positive terms, or terms whose differences are formed
    # exactly, and stops at relative tolerance 1e-15, so a few ulps of
    # relative error are expected (5.5e-15 measured, where the expansion's
    # terms sum to e**4 times rho's numerator at y = (mu**2 - 1)/4).  1e-12
    # leaves room for libm differences while still catching the
    # cancellation of the alternating e_mu series, which costs about 1e-9
    # at mu = 1e-6, y = 20, and the old flush of rho to zero.
    REL = 1e-12
    MUS = [1e-6, 0.05, 0.5, 1.0, 1.3, 3.0, 6.0, 7.5, 10.0, 20.0, 50.0, 100.0]
    TINY = [1e-20, 1e-25, 1e-30, 1e-100, 1e-300]  # y_c above 40
    BAND = [1e-18, 3e-18, 6e-18]  # y_c near 40

    @pytest.mark.parametrize(
        "mu", [0.0, 1e-6, 0.1, 0.5, 1.0, 1.3, 2.0, 3.0, 6.0, 7.5, 20.0, 50.0, 100.0]
    )
    @pytest.mark.parametrize(
        "y",
        [0.0, 1.0, 20.0, 39.0, 41.0, 651.0, 1e3, 1e4, 1e6],
    )
    def test_matches_bessel_form(self, mu, y):
        ref = _bessel_ratio(mu, y)
        r = dunkl_exp_neg_ratio(DunklContext(mu), y)
        assert abs(r - ref) <= self.REL * ref

    @pytest.mark.parametrize("mu", [7.5, 20.0])
    def test_crossover_moves_to_mu_squared(self, mu):
        # Below (mu**2 - 1)/4 the expansion's terms grow after the first, so
        # the positive series runs there (rescaling its sums once they pass
        # double range, as at mu = 100, y = 1e3 in the grid above).
        for y in (41.0, mu * mu - 1.0, mu * mu + 1.0, 2000.0):
            ref = _bessel_ratio(mu, y)
            r = dunkl_exp_neg_ratio(DunklContext(mu), y)
            assert abs(r - ref) <= self.REL * ref, y

    @pytest.mark.parametrize("mu", MUS)
    def test_either_side_of_the_crossover(self, mu):
        below, above = _crossover(mu)
        assert below < above <= max(40.0, mu * mu)
        ctx = DunklContext(mu)
        for y, route in ((below, dunkl._ratio_series), (above, dunkl._ratio_expansion)):
            r = dunkl_exp_neg_ratio(ctx, y)
            assert r == route(mu, y, 1e-15), y
            ref = _bessel_ratio(mu, y)
            assert abs(r - ref) <= self.REL * ref, y

    def test_crossover_values(self):
        # The omitted part of I_nu sets it for small mu, the terms' growth
        # for large mu; either way it stays below max(40, mu**2) from
        # mu = 6.5e-18 on (40.2 at 1e-18, 366 at 1e-300).
        assert 26.0 < _crossover(1e-6)[1] < 26.5
        for mu in (0.05, 0.5, 1.0, 1.3, 3.0, 6.0, 7.5, 8.0):
            assert 18.5 < _crossover(mu)[1] < 21.0, mu
        for mu in (10.0, 20.0, 50.0, 100.0):
            assert _crossover(mu)[1] == pytest.approx((mu * mu - 1.0) / 4.0), mu
        for k in range(-36, 13):
            mu = 10.0 ** (k / 4.0)
            assert _crossover(mu)[1] <= max(40.0, mu * mu), mu

    def test_band_where_the_expansion_diverges(self):
        # At mu = 7.5 the expansion's terms turn to grow again before they
        # fall below tol for y up to about 17: the expansion raises there
        # (it used to run on to NaN), and rho comes from the series.
        ctx = DunklContext(7.5)
        for y in [15.0 + 0.25 * i for i in range(9)]:
            with pytest.raises(RangeError, match="diverges"):
                dunkl._ratio_expansion(7.5, y, 1e-15)
            r = dunkl_exp_neg_ratio(ctx, y)
            assert r == dunkl._ratio_series(7.5, y, 1e-15)
            ref = _bessel_ratio(7.5, y)
            assert abs(r - ref) <= self.REL * ref, y

    @pytest.mark.parametrize(
        "mu, y, tol",
        [
            (1e-6, 20.0, 1e-15),
            (0.5, 0.3, 1e-15),
            (1.3, 19.0, 2.220446049250313e-16),
            (7.5, 17.0, 1e-12),
            (20.0, 399.0, 1e-15),  # rescales its sums
            (100.0, 2499.0, 1e-15),
        ],
    )
    def test_series_matches_pre_hoist_loop(self, mu, y, tol):
        assert dunkl._ratio_series(mu, y, tol) == ratio_series_loop(mu, y, tol)

    @given(
        mu=st.floats(1e-6, 10.0),
        # where in [y_c, 1e12] on a log scale, or far-field's n*x itself
        place=st.one_of(st.floats(0.0, 1.0), st.floats(1e3, 1e6)),
        tol=st.sampled_from([2.220446049250313e-16, 1e-15, 1e-12]),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    @example(mu=1e-6, place=1e3, tol=1e-15)
    @example(mu=10.0, place=1e6, tol=1e-15)
    @example(mu=0.5, place=0.0, tol=1e-15)  # the crossover itself
    @example(mu=10.0, place=1.0, tol=2.220446049250313e-16)  # y = 1e12
    def test_expansion_matches_the_frozen_loop(self, mu, place, tol):
        # The loop test reads |g| once per term: k |g| and mu |g| equal
        # |k g| and |mu g| for k, mu > 0, so every y the rule routes to the
        # expansion gives the loop's rho bit for bit.
        y_c = _crossover(mu, tol)[1]
        y = place if place >= 1e3 else y_c * (1e12 / y_c) ** place
        assert dunkl._expansion_exact(mu, y, tol)
        assert dunkl._ratio_expansion(mu, y, tol).hex() == ratio_expansion_loop(mu, y, tol).hex()

    @given(
        mu=st.floats(1e-6, 10.0),
        y=st.one_of(st.floats(0.0, 1e12), st.floats(1e3, 1e6)),
        tol=st.floats(5e-324, 2.220446049250313e-16, exclude_max=True),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    @example(mu=0.5, y=19.5, tol=1e-300)
    @example(mu=0.5, y=1e6, tol=5e-324)
    def test_tolerance_below_eps_is_eps(self, mu, y, tol):
        # tol is floored at machine epsilon by a comparison, on both routes
        ctx = DunklContext(mu)
        want = dunkl_exp_neg_ratio(ctx, y, tol=2.220446049250313e-16)
        assert dunkl_exp_neg_ratio(ctx, y, tol=tol).hex() == want.hex()

    @pytest.mark.parametrize("mu", TINY)
    @pytest.mark.parametrize(
        "y",
        [39.0, 40.0, 40.5, 42.0, 45.0, 60.0, 100.0, 135.0, 136.0, 200.0, 365.0,
         366.0, 400.0],
    )
    def test_tiny_mu_past_the_cap(self, mu, y):
        # Here the expansion at y = 40 leaves out exp(-2y) 2y/mu of rho
        # (1.4e-8 at mu = 1e-25; at mu = 1e-100, y = 80, all of it), so the
        # series runs until the rule holds: y = 42.5 at mu = 1e-20, 135.2 at
        # 1e-100 and 366.0 at 1e-300.
        ref = _bessel_ratio(mu, y)
        r = dunkl_exp_neg_ratio(DunklContext(mu), y)
        assert abs(r - ref) <= self.REL * ref, (mu, y)

    @pytest.mark.parametrize("mu", MUS + TINY + BAND)
    def test_tiny_mu_routes_by_the_rule_at_every_y(self, mu):
        # Every mu, tiny or not: the series up to y_c, the expansion from it
        # on, with no cap, out to the largest double.
        ctx = DunklContext(mu)
        below, above = _crossover(mu)
        ys = [below, above, 40.0, 2.0 * max(40.0, mu * mu), 1e6, 1e12, 1e300, 1.7e308]
        for y in ys:
            route = dunkl._ratio_series if y < above else dunkl._ratio_expansion
            assert dunkl_exp_neg_ratio(ctx, y) == route(mu, y, 1e-15), y

    @pytest.mark.parametrize("mu", [5e-324, 1e-310, 1e-306])
    def test_rule_where_2y_over_mu_overflows(self, mu):
        # Below y = 1e3, 2y/mu overflows only for mu < 1.2e-305, and the rule
        # then takes ln(2y/mu) as a difference.  Its decision must match the
        # exponent formed in mpmath away from the crossover (393 at 5e-324).
        mp = pytest.importorskip("mpmath")
        below, above = _crossover(mu)
        assert 2.0 * below / mu == math.inf and 370.0 < above < 400.0
        for y in (1.0, 100.0, 0.999 * below, 1.001 * above, 999.0):
            with mp.workdps(50):
                exponent = 2 * mp.mpf(y) - mp.log(2 * mp.mpf(y) / mp.mpf(mu))
            assert dunkl._expansion_exact(mu, y, 1e-15) == (exponent >= -mp.log(1e-15)), y
            route = dunkl._ratio_series if y < above else dunkl._ratio_expansion
            assert dunkl_exp_neg_ratio(DunklContext(mu), y) == route(mu, y, 1e-15), y

    @pytest.mark.parametrize("mu", [1e-18, 2e-18, 3e-18, 6e-18])
    @pytest.mark.parametrize("y", [39.9, 40.0, 40.1, 40.5])
    def test_band_where_the_cap_sat(self, mu, y):
        # y_c is 40.2 at mu = 1e-18 and 39.3 at 6e-18 (tol 1e-15): the rule
        # routes both sides of y = 40.
        ref = _bessel_ratio(mu, y)
        r = dunkl_exp_neg_ratio(DunklContext(mu), y)
        assert abs(r - ref) <= self.REL * ref, (mu, y)

    @pytest.mark.parametrize("mu", [5e-324, 1e-300, 1e-18, 0.5, 100.0])
    @pytest.mark.parametrize("y", [1e8, 1e12, 1e300, 1e308, 1.7e308])
    def test_rule_is_total(self, mu, y):
        # The rule holds without overflow in 2y/mu or 2y, so rho comes from
        # the expansion's few terms, not from a series of about 2y terms.
        # Past y = 1e12 the leading term mu/(2y) is all of rho that a double
        # keeps, formed as (mu/2)/y, since 2y overflows past y = 8.99e307
        # (-mu/(2y) made it 0.0 there).
        assert dunkl._expansion_exact(mu, y, 1e-15)
        r = dunkl_exp_neg_ratio(DunklContext(mu), y)
        ref = _bessel_ratio(mu, y) if y <= 1e12 else 0.5 * mu / y
        assert abs(r - ref) <= self.REL * ref, (r, ref)

    @pytest.mark.parametrize("mu", [1e29, 1e100, 1e300])
    def test_huge_mu_raises_where_the_series_overflows(self, mu):
        # the series' sums overflow: rho was inf (NaN moments downstream)
        with pytest.raises(RangeError, match=re.escape(f"y=1000.0 (mu={mu!r})")):
            dunkl_exp_neg_ratio(DunklContext(mu), 1e3)

    def test_mu_1e28_stays_finite(self):
        assert dunkl_exp_neg_ratio(DunklContext(1e28), 1e3) == 1.0
