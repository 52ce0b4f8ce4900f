import copy
import itertools
import math
import pickle
import random
import re
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunkl_appell import (
    AppellFamily,
    DomainError,
    DunklContext,
    NormalizationError,
    NotAppellGeneratorError,
    PowerSeries,
    RangeError,
    TruncationFailureError,
)
from dunkl_appell import appell, engine
from dunkl_appell.appell import POSITIVE_BY_COEFFICIENTS, UNVERIFIED
from dunkl_appell.engine import OperatorSpec, apply, central_moments

from conftest import batches_hex, window_hex
from oracles import (
    exp_series,
    family_poly,
    gamma_mu,
    gamma_mu_closed_form,
    gould_hopper_functionals,
    gould_hopper_loop,
    gould_hopper_loop_terms,
    ln_gamma_mu,
    multiply,
    poisson_weight,
    weight_brute,
    window_loop,
)


class TestConstruction:
    def test_unit_family(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.5), [1.0])
        assert fam.Q_at_1 == 1.0
        assert fam.positivity == POSITIVE_BY_COEFFICIENTS

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

    def test_nonpositive_generator_error_names_the_negated_generator(self):
        # Q = -1 - 0.5 t gives the operator of -Q = 1 + 0.5 t, which is admissible.
        with pytest.raises(NormalizationError, match=r"pass -Q, which gives the same operator"):
            AppellFamily.from_coefficients(DunklContext(0.5), [-1.0, -0.5])
        fam = AppellFamily.from_coefficients(DunklContext(0.5), [1.0, 0.5])
        assert fam.positivity == POSITIVE_BY_COEFFICIENTS

    def test_negative_mu_rejected(self):
        with pytest.raises(DomainError):
            AppellFamily.from_coefficients(DunklContext(-0.2), [1.0])

    def test_support_is_the_nonzero_indices(self):
        coeffs = [2.0, -0.0, 0.0, 5e-324, 0.0, -0.5, 0.0, 0.25, -0.0]
        fam = AppellFamily.from_coefficients(DunklContext(0.5), coeffs)
        assert fam.support == (0, 3, 5, 7)
        assert AppellFamily.gould_hopper(DunklContext(0.0), 0.5, 3).support[:3] == (0, 4, 8)

    def test_q1_overflow_raises_range_error(self):
        with pytest.raises(RangeError, match="double range"):
            AppellFamily.from_coefficients(DunklContext(0.0), [1e308, 0.0, 1e308])

    def test_signed_coefficients_are_unverified(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [2.0, -1.0])
        assert fam.positivity == UNVERIFIED

    def test_negative_zero_coefficient_is_proven(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.5), [1.0, -0.0, 0.5, -0.0])
        assert fam.positivity == POSITIVE_BY_COEFFICIENTS

    @pytest.mark.parametrize("at", [1, 2, 4])
    @pytest.mark.parametrize("value", [-5e-324, -1e-300, -0.5])
    def test_any_negative_coefficient_is_unverified(self, at, value):
        coeffs = [2.0, 1.0, 0.0, 0.25, 1.0]
        coeffs[at] = value
        fam = AppellFamily.from_coefficients(DunklContext(0.5), coeffs)
        assert fam.positivity == UNVERIFIED


def _slot_hex(v):
    """A family slot with every float as its hex string."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, PowerSeries):
        return (v.ctx, [c.hex() for c in v.coeffs])
    return v


def _moments_hex(fam, x):
    """central_moments at n = 1000 as hex strings, or the error it raises."""
    try:
        cm = central_moments(OperatorSpec(fam, 1000), x)
    except RangeError as exc:
        return repr(exc)
    return cm.omega1.hex(), cm.omega2.hex()


class TestGouldHopper:
    def test_zero_coefficient_gives_unit(self):
        fam = AppellFamily.gould_hopper(DunklContext(0.5), 0.0, 3)
        assert fam.Q.coeffs == (1.0,)

    def test_quadratic_exponent_coefficients(self):
        fam = AppellFamily.gould_hopper(DunklContext(0.0), 0.5, 1)
        c = fam.Q.coeffs
        deg = fam.Q.degree
        assert deg % 2 == 0
        for k in range(deg // 2 + 1):
            # the ratio recurrence rounds twice per step
            exact = 0.5**k / math.factorial(k)
            assert abs(c[2 * k] - exact) <= 2 * k * 2.0**-53 * exact
        assert all(c[j] == 0.0 for j in range(deg + 1) if j % 2 == 1)

    def test_cubic_exponent_coefficients(self):
        fam = AppellFamily.gould_hopper(DunklContext(0.0), 1.0, 2)
        c = fam.Q.coeffs
        nz = {i: v for i, v in enumerate(c) if v != 0.0}
        assert list(nz) == list(range(0, fam.Q.degree + 1, 3))
        assert (nz[0], nz[3], nz[6]) == (1.0, 1.0, 0.5)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(DomainError):
            AppellFamily.gould_hopper(DunklContext(0.0), -0.1, 1)

    @pytest.mark.parametrize("a", [math.inf, math.nan])
    def test_non_finite_coefficient_rejected(self, a):
        with pytest.raises(DomainError, match="finite"):
            AppellFamily.gould_hopper(DunklContext(0.0), a, 1)

    @pytest.mark.parametrize("a", [710.0, 1e300])
    def test_overflowing_exponential_raises(self, a):
        with pytest.raises(RangeError, match="double range"):
            AppellFamily.gould_hopper(DunklContext(0.0), a, 1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.5, 5.0, 10.0, 50.0])
    def test_value_at_one_is_exp_a(self, a, d):
        # The ratio recurrence's rounding walks like sqrt(a) ulps (6.0 eps
        # measured at a = 50); the cut tail is below half an ulp.
        q1 = AppellFamily.gould_hopper(DunklContext(0.5), a, d).Q_at_1
        exact = gould_hopper_functionals(0.5, a, d)["q1"]
        assert abs(q1 - exact) <= 4 * math.sqrt(a + 1.0) * 2.0**-52 * exact

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.5, 5.0, 10.0, 50.0])
    def test_cut_tail_below_half_an_ulp(self, a, d):
        # The omitted coefficients a**k / k!, weighted by their squared
        # index, sum to under half an ulp of exp(a).
        deg = AppellFamily.gould_hopper(DunklContext(0.0), a, d).Q.degree
        p = d + 1
        first = deg // p + 1  # the first omitted k
        with mp.workdps(30):
            tail = mp.nsum(
                lambda k: (k * p) ** 2 * mp.mpf(a) ** k / mp.factorial(k), [first, mp.inf]
            )
            assert tail <= 2.0**-53 * mp.exp(a)

    @pytest.mark.parametrize("a", ["a", None])
    def test_value_float_refuses_is_a_domain_error(self, a):
        # float()'s ValueError and TypeError escaped bare
        with pytest.raises(DomainError, match=re.escape(f"exponent coefficient a must be a finite real >= 0, got {a!r}")):
            AppellFamily.gould_hopper(DunklContext(0.5), a, 1)

    def test_bad_gap_rejected(self):
        with pytest.raises(DomainError):
            AppellFamily.gould_hopper(DunklContext(0.0), 0.5, 0)

    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    @pytest.mark.parametrize("a", [0.0, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0, 5.0, 50.0, 700.0])
    def test_matches_tail_loop_bit_for_bit(self, a, d):
        fam = AppellFamily.gould_hopper(DunklContext(0.5), a, d)
        coeffs, q1 = gould_hopper_loop(a, d)
        assert [c.hex() for c in fam.Q.coeffs] == [c.hex() for c in coeffs]
        assert fam.Q_at_1.hex() == q1.hex()
        assert fam.positivity == POSITIVE_BY_COEFFICIENTS
        # the handed-over support and the skipped checks give the family the
        # generic constructor builds, slot for slot, but for the two slots
        # the generic family has not: _jet, the generator's closed form
        # (TestGouldHopperClosedForm holds it to the untruncated generator
        # and its moments to the generic family's), and _terms, the loop's
        # terms and gap
        assert fam.support == tuple(range(0, len(coeffs), d + 1))
        ctx = fam.ctx
        generic = AppellFamily(ctx, PowerSeries(ctx, coeffs))
        for slot in AppellFamily.__slots__:
            if slot not in ("_jet", "_terms"):
                assert _slot_hex(getattr(fam, slot)) == _slot_hex(getattr(generic, slot)), slot
        terms, step = fam._terms
        assert step == d + 1 and [t.hex() for t in terms] == [c.hex() for c in coeffs[::step]]
        # the moments read no coefficient: a family whose tuple is not built
        # gives the same bits
        for nx in (0.0, 20.0, 1e6):
            fresh = AppellFamily.gould_hopper(ctx, a, d)
            assert _moments_hex(fam, nx / 1000) == _moments_hex(fresh, nx / 1000), nx

    @pytest.mark.parametrize("d", [1, 7])
    @pytest.mark.parametrize("a", [710.0, 1e300])
    def test_overflow_where_the_tail_loop_overflows(self, a, d):
        with pytest.raises(OverflowError):
            gould_hopper_loop(a, d)
        with pytest.raises(RangeError, match="double range"):
            AppellFamily.gould_hopper(DunklContext(0.5), a, d)

    @pytest.mark.parametrize("a, d", [
        (-0.1, 1), (-5e-324, 2), (math.inf, 1), (math.nan, 3), (0.5, 0), (0.5, -1),
        # d is an integer, as n is for OperatorSpec: no float, no bool
        (0.5, 1.0), (0.5, 1.5), (0.5, math.nan), (0.5, math.inf), (0.5, True),
        # an int a past double range raised a bare OverflowError from float()
        pytest.param(10**400, 1, id="int-a-1e400"), pytest.param(-10**400, 1, id="int-a--1e400"),
    ])
    def test_domain_errors_kept(self, a, d):
        with pytest.raises(DomainError):
            AppellFamily.gould_hopper(DunklContext(0.5), a, d)

    def test_numpy_integer_gap_is_the_equal_int(self):
        fam = AppellFamily.gould_hopper(DunklContext(0.5), 0.5, np.int64(2))
        ref = AppellFamily.gould_hopper(DunklContext(0.5), 0.5, 2)
        assert [c.hex() for c in fam.Q.coeffs] == [c.hex() for c in ref.Q.coeffs]
        assert fam.support == ref.support

    @pytest.mark.parametrize("a, d", [(0.5, 2**70), (50.0, 2**70), (5e-324, 10**400)])
    def test_gap_past_the_window_limit_raises(self, a, d):
        # 2**70 used to reach the coefficient list's allocation and raise
        # OverflowError; the second term alone would sit at index d + 1
        with pytest.raises(RangeError, match=rf"a = {a}, d = {d}\)"):
            AppellFamily.gould_hopper(DunklContext(0.5), a, d)

    @pytest.mark.parametrize(
        "d, error", [(10**5000, RangeError), (-10**5000, DomainError)], ids=["1e5000", "-1e5000"]
    )
    def test_gap_of_more_digits_than_python_prints(self, d, error):
        # the message formatted d itself and raised Python's ValueError
        with pytest.raises(error, match=f"<(negative )?int of {d.bit_length()} bits>"):
            AppellFamily.gould_hopper(DunklContext(0.5), 0.5, d)

    @pytest.mark.parametrize("a, d", [(0.0, 2**70), (0.0, 10**400), (1e-300, 2**70)])
    def test_gap_past_the_window_limit_with_one_term(self, a, d):
        # the tail test takes no second term: a = 0, or a * (d+1)**2 below
        # half an ulp, so the generator is the constant one whatever d is
        fam = AppellFamily.gould_hopper(DunklContext(0.5), a, d)
        assert fam.Q.coeffs == (1.0,) and fam.support == (0,)

    def test_stored_length_checked_against_the_limit_at_call_time(self, monkeypatch):
        # a = 0.5, d = 1 stores 33 coefficients
        monkeypatch.setattr(appell, "MAX_WINDOW", 33)
        assert len(AppellFamily.gould_hopper(DunklContext(0.5), 0.5, 1).Q.coeffs) == 33
        monkeypatch.setattr(appell, "MAX_WINDOW", 32)
        with pytest.raises(RangeError, match="MAX_WINDOW = 32"):
            AppellFamily.gould_hopper(DunklContext(0.5), 0.5, 1)


class TestDeferredTuple:
    """A Gould-Hopper family builds its coefficient tuple, support and Q(1)
    on the first read of any of them, as the tail loop gives them, and
    keeps every other slot."""

    CASES = [(0.0, 1), (1e-300, 3), (0.5, 1), (0.5, 2), (5.0, 3), (50.0, 7), (700.0, 1)]

    @staticmethod
    def unbuilt(fam):
        return fam._Q is fam._support is fam._Q_at_1 is None

    @pytest.mark.parametrize("a, d", CASES)
    def test_slots_match_the_tail_loop_in_any_read_order(self, a, d):
        coeffs, q1 = gould_hopper_loop(a, d)
        want = {
            "Q": [c.hex() for c in coeffs],
            "support": tuple(range(0, len(coeffs), d + 1)),
            "Q_at_1": q1.hex(),
            "positivity": POSITIVE_BY_COEFFICIENTS,
        }
        for order in itertools.permutations(want):
            fam = AppellFamily.gould_hopper(DunklContext(0.5), a, d)
            assert self.unbuilt(fam)
            for slot in order:
                got = getattr(fam, slot)
                got = [c.hex() for c in got.coeffs] if slot == "Q" else got
                got = got.hex() if slot == "Q_at_1" else got
                assert got == want[slot], (order, slot)
            assert fam.Q.ctx is fam.ctx

    @pytest.mark.parametrize("a, d", CASES)
    def test_moments_first_build_nothing_and_keep_their_result(self, a, d, monkeypatch):
        fam = AppellFamily.gould_hopper(DunklContext(0.5), a, d)
        spec = OperatorSpec(fam, 1000)
        first = central_moments(spec, 1.5)
        assert self.unbuilt(fam)
        functionals, last = fam._functionals, fam._last_moments
        assert fam.Q_at_1 > 0.0  # the build
        assert fam._functionals is functionals and fam._last_moments is last
        calls = []
        monkeypatch.setattr(engine, "dunkl_exp_neg_ratio", lambda *args, **kw: calls.append(args))
        assert central_moments(spec, 1.5) == first and calls == []

    @pytest.mark.parametrize("a, d", [(0.5, 1), (1.3, 2), (5.0, 3)])
    def test_apply_after_moments_is_apply_on_a_fresh_family(self, a, d):
        xs = [0.0, 0.05, 1.0, 30.0]
        for mu in (0.0, 0.5):
            fam = AppellFamily.gould_hopper(DunklContext(mu), a, d)
            for x in xs:
                central_moments(OperatorSpec(fam, 20), x)
            got = apply(OperatorSpec(fam, 20), math.sin, xs)
            fresh = AppellFamily.gould_hopper(DunklContext(mu), a, d)
            want = apply(OperatorSpec(fresh, 20), math.sin, xs)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
            assert fam._arrays is not None  # apply kept its arrays next to the moments


def _loop_bound(a):
    """K(a) = ceil(2e a) + 110, the bound on the tail loop's term count
    that ``gould_hopper`` derives."""
    return math.ceil(2.0 * math.e * a) + 110


class TestDeferredLoop:
    """Construction runs the tail loop only where the closed-form bound
    cannot rule out its errors; elsewhere the first read of Q, support or
    Q_at_1 runs it, with the MAX_WINDOW read at construction."""

    @given(
        a=st.floats(0.0, 720.0),
        d=st.integers(1, 2**21),
        limit=st.sampled_from([64, 2**20]),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    @example(a=0.5, d=5000, limit=2**20)  # deferred
    @example(a=3.2, d=8191, limit=2**20)  # deferred: K (d+1) = 2**20
    @example(a=3.2, d=8192, limit=2**20)  # one past it: eager
    @example(a=0.5, d=100_000, limit=2**20)  # eager, past the limit
    @example(a=708.99, d=1, limit=2**20)  # deferred, the last a below 709
    @example(a=709.5, d=1, limit=2**20)  # eager, e**a still finite
    @example(a=710.0, d=1, limit=2**20)  # eager, e**a past double range
    @example(a=0.0, d=2**21, limit=64)  # the constant generator at any gap
    @example(a=0.5, d=1, limit=64)  # 33 coefficients fit
    def test_guard_is_sound(self, a, d, limit):
        try:
            terms = gould_hopper_loop_terms(a, d)
        except OverflowError:
            terms = None
        loop_raises = terms is None or (len(terms) - 1) * (d + 1) >= limit
        ctx = DunklContext(0.5)
        with mock.patch.object(appell, "MAX_WINDOW", limit):
            if loop_raises:
                with pytest.raises(RangeError):
                    AppellFamily.gould_hopper(ctx, a, d)
                return
            fam = AppellFamily.gould_hopper(ctx, a, d)
        if len(fam._terms) == 3:  # deferred: the bound holds
            assert len(terms) <= _loop_bound(a)
        loop = mock.Mock(side_effect=AssertionError("the tail loop ran"))
        with mock.patch.object(appell, "_gould_hopper_terms", loop):
            central_moments(OperatorSpec(fam, 1000), 1.5)
        assert fam._Q is fam._support is fam._Q_at_1 is None
        # the build keeps the limit read at construction, so never raises
        coeffs, q1 = gould_hopper_loop(a, d)
        with mock.patch.object(appell, "MAX_WINDOW", 1):
            assert [c.hex() for c in fam.Q.coeffs] == [c.hex() for c in coeffs]
        assert fam.support == tuple(range(0, len(coeffs), d + 1))
        assert fam.Q_at_1.hex() == q1.hex()
        assert fam._terms == (terms, d + 1)

    @pytest.mark.parametrize("a, d, deferred", [
        (0.5, 1, True), (1.0, 3, True), (50.0, 7, True), (700.0, 1, True),
        (0.5, 5000, True), (0.5, 10_000, False), (709.0, 1, False),
        (0.0, 2**70, False),
    ])
    def test_construction_runs_the_loop_only_where_the_bound_fails(self, a, d, deferred):
        # far-field's families (a in (0, 1], d in {1, 2, 3}) defer the loop
        loop = mock.Mock(wraps=appell._gould_hopper_terms)
        with mock.patch.object(appell, "_gould_hopper_terms", loop):
            fam = AppellFamily.gould_hopper(DunklContext(0.5), a, d)
            assert loop.call_count == (0 if deferred else 1)
            if deferred:
                assert fam._terms == (a, d + 1, appell.MAX_WINDOW)
            fam.Q_at_1
            fam.support
            assert loop.call_count == 1

    @pytest.mark.parametrize("a", [0.0, 0.5, 3.2, 10.0, 50.0, 300.0, 708.9])
    def test_term_count_within_the_bound_at_the_widest_deferred_gap(self, a):
        # the widest gap the guard defers at, where the weight i**2 is largest
        step = 2**20 // _loop_bound(a)
        terms = gould_hopper_loop_terms(a, step - 1)
        assert len(terms) <= _loop_bound(a)
        fam = AppellFamily.gould_hopper(DunklContext(0.0), a, step - 1)
        assert len(fam._terms) == 3 and fam.Q.coeffs[::step] == tuple(terms)


class TestRoundTrip:
    """pickle and copy.deepcopy rebuild a series through ``PowerSeries._of``,
    so every family and spec holding one round-trips."""

    @staticmethod
    def families(ctx):
        built = AppellFamily.gould_hopper(ctx, 0.5, 1)
        built.Q  # the tuple is built
        return {
            "unit": AppellFamily.from_coefficients(ctx, [1.0]),
            "coeffs": AppellFamily.from_coefficients(ctx, [1.0, 0.5, 0.25]),
            "gh-built": built,
            "gh-unbuilt": AppellFamily.gould_hopper(ctx, 0.5, 1),
            "gh-eager": AppellFamily.gould_hopper(ctx, 0.5, 10_000),
        }

    @pytest.mark.parametrize("copier", [
        lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("name", ["unit", "coeffs", "gh-built", "gh-unbuilt", "gh-eager"])
    def test_family_and_spec_round_trip(self, name, copier):
        xs = [0.0, 0.05, 1.0, 3.0]
        for mu in (0.0, 0.5):
            ctx = DunklContext(mu)
            spec = OperatorSpec(self.families(ctx)[name], 20)
            copies = [OperatorSpec(copier(spec.family), 20), copier(spec)]
            unbuilt = spec.family._Q is None
            assert unbuilt == (name in ("gh-unbuilt", "gh-eager"))
            want_m = [central_moments(spec, x) for x in xs]
            want_a = apply(spec, math.sin, xs).tobytes()
            for got in copies:
                assert (got.family._Q is None) == unbuilt  # the copy keeps the state
                assert type(got.family.Q) is PowerSeries and got.family.Q == spec.family.Q
                assert got.family.ctx.mu == mu
                got_m = [central_moments(got, x) for x in xs]
                assert [m.omega1.hex() for m in got_m] == [m.omega1.hex() for m in want_m]
                assert [m.omega2.hex() for m in got_m] == [m.omega2.hex() for m in want_m]
                assert apply(got, math.sin, xs).tobytes() == want_a

    def test_series_round_trip(self):
        Q = PowerSeries(DunklContext(0.3), [1.0, 0.5, 0.25])
        for got in (pickle.loads(pickle.dumps(Q)), copy.deepcopy(Q)):
            assert got == Q and type(got.coeffs) is tuple
            with pytest.raises(AttributeError, match="immutable"):
                got.coeffs = (1.0,)


class TestPolynomials:
    def test_constant_polynomial(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.3), [2.5, 1.0])
        assert family_poly(fam, 0) == [2.5]

    def test_unit_family_gives_monomials(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [1.0])
        for i in range(8):
            p = family_poly(fam, i)
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
        product = multiply(Q, exp_series(ctx, x, depth))
        for i in range(depth + 1):
            qi = family_poly(fam, i)
            value = sum(c * x**j for j, c in enumerate(qi)) / gamma_mu(mu, i)
            assert abs(product.coeffs[i] - value) <= 1e-10

    def test_rejects_negative_index(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [1.0])
        with pytest.raises(DomainError):
            family_poly(fam, -1)


class TestWeights:
    def test_at_origin_weights_are_normalized_coefficients(self):
        fam = AppellFamily.gould_hopper(DunklContext(0.7), 0.5, 1)
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
        fam = AppellFamily.gould_hopper(DunklContext(mu), 0.5, 1)
        ws = fam.weights(10, 1.0, tol=1e-12)
        assert abs(sum(ws.weights) + ws.tail_mass - 1.0) <= 1e-12
        assert ws.tail_mass <= 1e-12
        for i, w in enumerate(ws.weights):
            ref = weight_brute(fam.Q.coeffs, mu, 10, 1.0, i)
            assert abs(w - ref) <= 1e-12

    def test_all_weights_nonnegative(self):
        fam = AppellFamily.gould_hopper(DunklContext(1.0), 0.3, 2)
        for n, x in ((1, 0.0), (1, 2.0), (10, 0.5), (50, 2.0)):
            ws = fam.weights(n, x, tol=1e-12)
            assert all(w >= 0.0 for w in ws.weights)
        # Random nonnegative generators, with zeros, signed zeros and values
        # near 1e-300: their weights are sums of products of nonnegative
        # numbers, so none falls below 0.0 and none needs a clamp.
        rng = random.Random(15)
        values = (1e-300, 3e-300, 0.5, 1.0, 2.5, 0.0, -0.0)
        for _ in range(400):
            mu = rng.choice((0.0, 1e-300, 0.3, 1.3, 7.0))
            coeffs = [rng.choice(values[:5])]
            coeffs += [rng.choice(values) for _ in range(rng.randint(0, 6))]
            fam = AppellFamily.from_coefficients(DunklContext(mu), coeffs)
            n = rng.randint(1, 1000)
            nx = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-6.0, 4.0)
            tol = 10.0 ** rng.uniform(-40.0, -6.0)
            ws = fam.weights(n, nx / n, tol)
            assert (ws.weights >= 0.0).all(), (mu, coeffs, n, nx, tol)

    def test_unverified_family_is_rejected(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [2.0, -1.0])
        with pytest.raises(DomainError, match="unverified"):
            fam.weights(1, 1.0)

    def test_full_window_raises_naming_nx(self, monkeypatch):
        # the mass at n*x = 2 needs far more than three terms of the window;
        # the family's 33 coefficients exceed the limit too, but its deferred
        # build runs under the MAX_WINDOW read at construction
        fam = AppellFamily.gould_hopper(DunklContext(0.5), 0.5, 1)
        monkeypatch.setattr(appell, "MAX_WINDOW", 3)
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

    @pytest.mark.parametrize("n", [2.5, True, 0, np.float64(3.0)])
    def test_scale_takes_the_integer_rule(self, n):
        # windows checked only n < 1, so weights(2.5, x) and weights(True, x)
        # went through
        fam = AppellFamily.gould_hopper(DunklContext(0.5), 0.5, 1)
        with pytest.raises(DomainError, match="scale n must be an integer >= 1"):
            fam.weights(n, 1.0)
        with pytest.raises(DomainError, match="scale n must be an integer >= 1"):
            list(fam.windows(n, [1.0], [1e-12]))

    @pytest.mark.parametrize("n", [2**1024 - 2**970, 10**400], ids=["rounds-up", "1e400"])
    def test_scale_past_double_range_is_refused_as_by_operator_spec(self, n):
        # only OperatorSpec applied the double-range guard, so n * x raised
        # a bare OverflowError here
        fam = AppellFamily.gould_hopper(DunklContext(0.5), 0.5, 1)
        below = "scale n must be an integer >= 1 below double range"
        with pytest.raises(DomainError, match=below):
            fam.weights(n, 1.0)
        with pytest.raises(DomainError, match=below):
            list(fam.windows(n, [1.0], [1e-12]))

    def test_numpy_integer_scale_is_the_equal_int(self):
        fam = AppellFamily.gould_hopper(DunklContext(0.5), 0.5, 1)
        got, ref = fam.weights(np.int64(3), 1.0), fam.weights(3, 1.0)
        assert got.start == ref.start
        assert [w.hex() for w in got.weights.tolist()] == [w.hex() for w in ref.weights.tolist()]
        assert batches_hex(fam.windows(np.int64(3), [1.0], [1e-12])) == batches_hex(
            fam.windows(3, [1.0], [1e-12])
        )

    def test_parallel_generation_matches_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        fam = AppellFamily.gould_hopper(DunklContext(0.5), 0.5, 1)
        jobs = [(n, x) for n in (1, 5, 20) for x in (0.0, 0.7, 2.0)]
        serial = [fam.weights(n, x, tol=1e-12) for n, x in jobs]
        with ThreadPoolExecutor(max_workers=6) as ex:
            parallel = list(ex.map(lambda j: fam.weights(*j, tol=1e-12), jobs))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.weights, b.weights) and a.tail_mass == b.tail_mass


class TestBlockWindow:
    """The grown window against the term-by-term loop it replaced."""

    @staticmethod
    def family(mu, shape):
        ctx = DunklContext(mu)
        if shape == "unit":
            return AppellFamily.from_coefficients(ctx, [1.0])
        a, d = shape
        return AppellFamily.gould_hopper(ctx, a, d)

    def test_matches_term_by_term_loop(self):
        # Same stop rule, so the same window; the terms differ only in
        # rounding (u * (nx/d) against (u * nx)/d), which stays below
        # 1e-13 of the peak weight here (2.6e-15 measured).  Tolerances down
        # to 1e-40 make some sides take several blocks, and mu = 3 puts
        # q >= 1 on the first terms below the mode.
        rng = random.Random(11)
        for _ in range(150):
            mu = rng.choice((0.0, 0.05, 0.5, 1.3, 3.0))
            fam = self.family(mu, rng.choice(("unit", (0.5, 1), (1.0, 2))))
            n = rng.randint(1, 500)
            x = 10.0 ** rng.uniform(-3.0, 4.0) / n if rng.random() > 0.05 else 0.0
            tol = 10.0 ** rng.uniform(-40.0, -2.0)
            ws = fam.weights(n, x, tol=tol)
            lo, u, total = window_loop(mu, n * x, tol)
            ref = np.convolve(fam.Q.coeffs, u) / (fam.Q_at_1 * total)
            assert ws.start == lo
            assert len(ws.weights) == len(ref)
            assert np.max(np.abs(ws.weights - ref)) <= 1e-13 * ref.max()

    @pytest.mark.parametrize("nx", [1e6, 1e8])
    def test_unit_weights_match_poisson_at_large_nx(self, nx):
        # 151,583 terms at nx = 1e8; every 300th index and both ends are
        # checked against the 40-digit oracle (3e-18 off measured).
        pytest.importorskip("mpmath")
        ws = AppellFamily.from_coefficients(DunklContext(0.0), [1.0]).weights(
            1000, nx / 1000, tol=5e-14
        )
        w = ws.weights
        ks = list(range(0, len(w), 300)) + [len(w) - 1]
        for k in ks:
            assert abs(w[k] - poisson_weight(nx, ws.start + k)) <= 1e-12

    def test_window_cap_counts_every_term(self, monkeypatch):
        fam = self.family(0.5, "unit")  # one weight per term of the window
        full = fam.weights(1, 2000.0, tol=1e-12)
        monkeypatch.setattr(appell, "MAX_WINDOW", len(full.weights))
        assert np.array_equal(fam.weights(1, 2000.0, tol=1e-12).weights, full.weights)
        monkeypatch.setattr(appell, "MAX_WINDOW", len(full.weights) - 1)
        with pytest.raises(TruncationFailureError, match=r"n\*x = 2000\b"):
            fam.weights(1, 2000.0, tol=1e-12)

    def test_window_past_the_int64_range_fails_as_truncation(self, monkeypatch):
        # Indices near 1e300 have no int64 form; the window must still fill
        # MAX_WINDOW and raise, as at any n*x it cannot reach.
        monkeypatch.setattr(appell, "MAX_WINDOW", 1000)
        fam = self.family(0.5, "unit")
        with pytest.raises(TruncationFailureError, match=r"n\*x = 1e\+300\b"):
            fam.weights(1, 1e300)

    def test_weights_are_a_read_only_float_array(self):
        ws = self.family(0.5, (0.5, 1)).weights(10, 1.0)
        assert isinstance(ws.weights, np.ndarray) and ws.weights.dtype == np.float64
        with pytest.raises(ValueError):
            ws.weights[0] = 1.0
        assert ws.tail_mass == 1.0 - math.fsum(ws.weights.tolist())

class TestReductionChain:
    def test_gh_zero_equals_unit_weights(self):
        ctx = DunklContext(0.8)
        gh = AppellFamily.gould_hopper(ctx, 0.0, 2)
        unit = AppellFamily.from_coefficients(ctx, [1.0])
        w1 = gh.weights(5, 1.2, tol=1e-12)
        w2 = unit.weights(5, 1.2, tol=1e-12)
        assert np.array_equal(w1.weights, w2.weights)

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


class TestWeightRows:
    """windows grows the windows of many points in one pass, one row each;
    each row must be the window of its point alone, bit for bit."""

    @staticmethod
    def family(mu, shape):
        return TestBlockWindow.family(mu, shape)

    @staticmethod
    def rows(batches):
        return [w for batch in batches_hex(batches) for w in batch]

    @staticmethod
    def alone(fam, n, x, tol):
        ((window,),) = fam.windows(n, [x], [tol])
        return window_hex(window)

    @staticmethod
    def grid(n, rng):
        # x = 0, duplicates and a shuffled order, n*x up to about 2000
        xs = [0.0, 0.0, 1.0 / n] + [10.0 ** rng.uniform(-3.0, 3.3) / n for _ in range(12)]
        xs += xs[3:6]
        rng.shuffle(xs)
        return xs

    @pytest.mark.parametrize("n", [1, 5, 300, 1000])
    @pytest.mark.parametrize("shape", ["unit", (0.5, 1)])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.3])
    def test_rows_equal_single_points(self, mu, shape, n):
        rng = random.Random(f"{mu} {shape} {n}")
        fam = self.family(mu, shape)
        xs = self.grid(n, rng)
        tols = [10.0 ** rng.uniform(-13.5, -9.0) for _ in xs]
        rows = self.rows(fam.windows(n, xs, tols))
        assert len(rows) == len(xs)
        for x, tol, row in zip(xs, tols, rows):
            assert row == self.alone(fam, n, x, tol)

    def test_tiny_tolerances_take_a_second_pass(self):
        # At tol 1e-40 the sides run past the first pass's 8*sqrt(n*x) + 40
        # terms, and the pass is repeated with twice the width.
        fam = self.family(0.5, (1.0, 2))
        xs, tols = [3.0, 50.0, 800.0], [1e-40, 1e-12, 1e-40]
        rows = self.rows(fam.windows(1, xs, tols))
        _, up, down, _ = rows[2]
        assert max(len(up), len(down)) > 8 * math.sqrt(800.0) + 40
        for x, tol, row in zip(xs, tols, rows):
            assert row == self.alone(fam, 1, x, tol)

    @pytest.mark.parametrize("limit", ["MAX_WINDOW", "BATCH_TERMS"])
    def test_batches_split_at_max_window(self, monkeypatch, limit):
        fam = self.family(0.5, (0.5, 1))
        xs = [k * 0.05 for k in range(60)]
        tols = [1e-13] * len(xs)
        whole = list(fam.windows(20, xs, tols))
        monkeypatch.setattr(appell, limit, 600)
        split = list(fam.windows(20, xs, tols))
        assert len(whole) == 1 and len(split) > 3
        for batch in split:
            terms = sum(len(up) + len(down) for _, up, down, _ in batch)
            assert len(batch) == 1 or terms <= 600
        assert self.rows(whole) == self.rows(split)

    @pytest.mark.parametrize("mu", [0.0, 1.3])
    def test_rows_without_lower_sides(self, mu):
        # Below n*x = 1 every mode is index 0 and a batch of such rows grows
        # no lower sides; the same rows in a batch that does grow them, and
        # alone, come out the same.
        fam = self.family(mu, (0.5, 1))
        xs = [0.003, 0.9, 0.0, 0.45]
        low = self.rows([next(fam.windows(1, xs, [1e-13] * 4))])
        mixed = self.rows([next(fam.windows(1, xs + [7.0], [1e-13] * 5))])
        assert [(lo, down) for lo, _, down, _ in low] == [(0, [])] * 4
        for x, a, b in zip(xs, low, mixed):
            assert a == b == self.alone(fam, 1, x, 1e-13)

    def test_window_cap_counts_every_term(self, monkeypatch):
        fam = self.family(0.5, "unit")
        full = self.alone(fam, 1, 2000.0, 1e-12)
        terms = len(full[1]) + len(full[2])
        monkeypatch.setattr(appell, "MAX_WINDOW", terms)
        assert self.rows(fam.windows(1, [2000.0], [1e-12])) == [full]
        monkeypatch.setattr(appell, "MAX_WINDOW", terms - 1)
        with pytest.raises(TruncationFailureError, match=r"n\*x = 2000\b"):
            list(fam.windows(1, [1.0, 2000.0], [1e-12, 1e-12]))

    def test_window_past_the_int64_range_fails_as_truncation(self, monkeypatch):
        monkeypatch.setattr(appell, "MAX_WINDOW", 1000)
        with pytest.raises(TruncationFailureError, match=r"n\*x = 1e\+300\b"):
            list(self.family(0.5, "unit").windows(1, [1e300], [1e-12]))

    def test_empty_grid_yields_nothing(self):
        assert list(self.family(0.5, "unit").windows(5, [], [])) == []

    def test_rows_are_read_only(self):
        fam = self.family(0.5, (0.5, 1))
        for nx in (0.0, 0.5, 7.0):  # the mode alone, an upper side alone, both
            ws = fam.weights(10, nx / 10, 1e-12)
            with pytest.raises(ValueError):
                ws.weights[0] = 1.0

    def test_validation(self):
        fam = self.family(0.0, "unit")
        bad = [
            (0, [1.0], [1e-12]),
            (1, [1.0, -1.0], [1e-12, 1e-12]),
            (1, [math.nan], [1e-12]),
            (1, [math.inf], [1e-12]),
            (1, [1.0], [0.0]),
            (1, [1.0], [math.nan]),
            (1, [1.0, 2.0], [1e-12]),
            (1, [[1.0]], [1e-12]),
        ]
        for n, xs, tols in bad:
            with pytest.raises(DomainError):
                list(fam.windows(n, xs, tols))
        signed = AppellFamily.from_coefficients(DunklContext(0.0), [2.0, -1.0])
        with pytest.raises(DomainError, match="unverified"):
            list(signed.windows(1, [1.0], [1e-12]))
