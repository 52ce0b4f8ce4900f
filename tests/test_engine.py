import math
import random
import re
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunkl_appell import (
    AppellFamily,
    CentralMoments,
    DomainError,
    DunklContext,
    EvaluationError,
    OperatorSpec,
    PowerSeries,
    QFunctionals,
    RangeError,
    TranscriptionError,
    TruncationFailureError,
    apply,
    central_moments,
    central_moments_series,
    moments_closed,
    q_functionals,
)
from dunkl_appell import appell, engine
from dunkl_appell.engine import exp_ratio, nodes

from conftest import batches_hex
from oracles import (
    apply_mp,
    block_windows,
    classical_functionals,
    closed_form_magnitudes,
    closed_form_printed,
    contract_masked,
    emu_brute,
    gould_hopper_dps,
    gould_hopper_functionals,
    gould_hopper_sums,
    horner_at_one,
    parity_sums_dense,
    q_functionals_dense,
)

EPS = 2.0**-52


def unit_spec(mu, n, **kw):
    fam = AppellFamily.from_coefficients(DunklContext(mu), [1.0])
    return OperatorSpec(family=fam, n=n, **kw)


def gh_spec(mu, a, d, n, **kw):
    fam = AppellFamily.gould_hopper(DunklContext(mu), a, d)
    return OperatorSpec(family=fam, n=n, **kw)


class TestApply:
    @pytest.mark.parametrize("mu", [0.0, 0.5])
    @pytest.mark.parametrize("n,x", [(1, 0.0), (5, 0.7), (20, 2.0)])
    def test_constant_function(self, mu, n, x):
        spec = gh_spec(mu, 0.5, 1, n)
        assert abs(apply(spec, lambda t: 1.0, x) - 1.0) <= 2e-12

    @pytest.mark.parametrize("mu", [0.0, 0.7])
    @pytest.mark.parametrize("n,x", [(1, 0.5), (10, 1.0), (40, 2.0)])
    def test_identity_reproduced_by_unit_family(self, mu, n, x):
        spec = unit_spec(mu, n)
        assert abs(apply(spec, lambda t: t, x) - x) <= 2e-12 * max(1.0, x)

    def test_classical_second_moment(self):
        spec = unit_spec(0.0, 20)
        got = apply(spec, lambda t: t * t, 1.0)
        assert abs(got - 1.05) <= 1e-10

    def test_non_finite_function_value_names_node(self):
        spec = unit_spec(0.0, 1)
        with pytest.raises(EvaluationError, match="node"):
            apply(spec, lambda t: float("inf") if t > 0 else 1.0, 1.0)

    def test_error_names_first_non_finite_node_in_index_order(self):
        # mu = 0.7, n = 1: index 3 sits at node 4.4 and index 4 at node 4.0,
        # so the first bad node in index order is not the smallest one.
        spec = unit_spec(0.7, 1)
        first = nodes(spec, 4)[3]
        f = lambda t: math.inf if t > 4.2 else (math.nan if t > 3.9 else 1.0)
        with pytest.raises(EvaluationError, match=rf"value inf at node {first}$"):
            apply(spec, f, 1.0)

    def test_zero_weight_node_never_evaluated(self):
        # At x = 0 the weights are Q's coefficients, and exp(t**2/2) has none
        # at odd powers, so the odd nodes carry zero weight.
        spec = gh_spec(0.5, 0.5, 1, 3)
        ws = spec.family.weights(3, 0.0)
        seen = []
        apply(spec, lambda t: seen.append(t) or 1.0, 0.0)
        wanted = nodes(spec, len(ws.weights), ws.start)[ws.weights > 0.0]
        assert 0.0 in ws.weights
        assert seen == wanted.tolist()

    @pytest.mark.parametrize("mu", [0.5, 1.3])
    @pytest.mark.parametrize("family", ["unit", "gould-hopper"])
    def test_partition_of_unity_at_nx_1e8(self, mu, family):
        spec = unit_spec(mu, 1000) if family == "unit" else gh_spec(mu, 0.5, 1, 1000)
        assert abs(apply(spec, lambda t: 1.0, 1e5) - 1.0) <= 1e-12


class TestApplyGrid:
    """apply on a grid: one weight pass, each value equal bit for bit to the
    value at that point alone."""

    FUNCS = (math.sin, lambda t: math.exp(-t), lambda t: t * t, math.sqrt)

    @staticmethod
    def grid(n, rng):
        xs = [0.0, 0.0, 1.0 / n] + [10.0 ** rng.uniform(-3.0, 3.0) / n for _ in range(12)]
        xs += xs[3:6]
        rng.shuffle(xs)
        return xs

    @pytest.mark.parametrize("n", [1, 5, 300, 1000])
    @pytest.mark.parametrize("family", ["unit", "gould-hopper"])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.3])
    def test_grid_equals_points(self, mu, family, n):
        spec = unit_spec(mu, n) if family == "unit" else gh_spec(mu, 0.5, 1, n)
        rng = random.Random(f"{mu} {family} {n}")
        xs = self.grid(n, rng)
        for f in self.FUNCS:
            got = apply(spec, f, xs)
            assert isinstance(got, np.ndarray) and got.shape == (len(xs),)
            want = [apply(spec, f, x) for x in xs]
            assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize(
        "xs",
        [
            [0.0, 2.0, 0.5, 2.0, 9.0],  # windows that overlap
            [0.0, 300.0, 800.0],  # windows apart and in order
        ],
    )
    def test_f_called_once_per_node_in_index_order(self, xs):
        # The x = 0 row has zero weight at odd nodes; f runs exactly on the
        # nodes where some row's weight is nonzero, each once, in index order.
        spec = gh_spec(0.7, 0.5, 1, 4)
        seen = []
        got = apply(spec, lambda t: seen.append(t) or math.cos(t), xs)
        tols = [engine._point_tol(spec, x) for x in xs]
        rows = [spec.family.weights(4, x, tol) for x, tol in zip(xs, tols)]
        used = sorted({ws.start + k for ws in rows for k in ws.weights.nonzero()[0]})
        lo = min(used)
        assert seen == nodes(spec, max(used) - lo + 1, lo)[np.array(used) - lo].tolist()
        assert len(seen) == len(set(seen))
        assert got.tobytes() == np.array([apply(spec, math.cos, x) for x in xs]).tobytes()

    def test_error_names_first_non_finite_node_in_index_order(self):
        # As in the one-point case: index 3 sits at node 4.4 and index 4 at 4.0.
        spec = unit_spec(0.7, 1)
        first = nodes(spec, 4)[3]
        f = lambda t: math.inf if t > 4.2 else (math.nan if t > 3.9 else 1.0)
        with pytest.raises(EvaluationError, match=rf"value inf at node {first}$"):
            apply(spec, f, [0.0, 1.0, 1.5])

    def test_empty_grid_gives_empty_array(self):
        got = apply(unit_spec(0.5, 10), math.sin, [])
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    @pytest.mark.parametrize("x", [1.0, [0.0, 1.0], []])
    def test_unverified_family_is_rejected(self, x):
        # Q = 2 - t: apply takes its windows from the kernel, which refuses
        # the family before any point, on a float, a grid or an empty grid.
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [2.0, -1.0])
        with pytest.raises(DomainError, match="unverified"):
            apply(OperatorSpec(family=fam, n=5), math.sin, x)

    def test_float_gives_float_and_only_1d_grids_are_taken(self):
        spec = unit_spec(0.5, 10)
        assert type(apply(spec, math.sin, 1.0)) is float
        assert type(apply(spec, math.sin, np.float64(1.0))) is float
        with pytest.raises(DomainError):
            apply(spec, math.sin, [[1.0, 2.0]])

    def test_several_batches_give_identical_values(self, monkeypatch):
        spec = gh_spec(0.5, 0.5, 1, 50)
        xs = np.arange(0.0, 3.0, 0.05)
        tols = [engine._point_tol(spec, x) for x in xs]
        whole = apply(spec, math.sin, xs)
        monkeypatch.setattr(appell, "MAX_WINDOW", 2000)
        assert len(list(spec.family.windows(50, xs, tols))) > 3
        assert apply(spec, math.sin, xs).tobytes() == whole.tobytes()

    def test_row_too_wide_alone_raises(self, monkeypatch):
        monkeypatch.setattr(appell, "MAX_WINDOW", 500)
        spec = unit_spec(0.5, 100)
        apply(spec, math.sin, [0.0, 0.5])
        with pytest.raises(TruncationFailureError, match=r"n\*x = 3000\b"):
            apply(spec, math.sin, [0.0, 0.5, 30.0])


class TestApplyMpOracle:
    """apply against the direct sum of its weights in 40-digit mpmath."""

    @staticmethod
    def funcs(x):
        # (f for apply, the same f in mpmath)
        mp = pytest.importorskip("mpmath")
        return [
            (math.sin, mp.sin),
            (lambda t: math.exp(-t), lambda t: mp.exp(-t)),
            (lambda t: abs(t - x), lambda t: abs(t - x)),
            (math.sqrt, mp.sqrt),
        ]

    @staticmethod
    def assert_within_budget(family, n, x, pairs):
        spec = OperatorSpec(family=family, n=n)
        mu = family.ctx.mu
        want, sups, count = apply_mp(family.Q.coeffs, mu, n, x, [g for _, g in pairs])
        # apply's window leaves out at most tol of the mass (tol/2 a side),
        # and renormalizing moves K f by at most that mass times max|f| +
        # |K f| <= 2 max|f|; its two sums, each of fewer than count products
        # and terms, add at most count eps relative each
        tol = engine._point_tol(spec, x)
        for (f, _), value, sup in zip(pairs, want, sups):
            budget = (2.0 * tol + 2.0 * count * EPS) * sup
            assert abs(apply(spec, f, x) - value) <= budget, (n, x, f)

    @pytest.mark.parametrize("mu", [0.0, 1e-6, 0.5, 1.3, 100.0])
    def test_within_the_mass_budget(self, mu):
        ctx = DunklContext(mu)
        families = (
            AppellFamily.from_coefficients(ctx, [1.0]),
            AppellFamily.gould_hopper(ctx, 0.5, 1),
            AppellFamily.from_coefficients(ctx, [1.0, 0.0, 0.0, 0.0, 0.5]),
        )
        for family in families:
            for n, x in ((10, 0.05), (40, 0.75), (1000, 1.0)):  # n*x = 0.5, 30, 1e3
                self.assert_within_budget(family, n, x, self.funcs(x))

    @pytest.mark.slow
    @pytest.mark.parametrize("mu", [0.5, 1.3, 100.0])
    def test_larger_window_within_the_mass_budget(self, mu):
        # n*x = 1e4: windows of about 1,500 terms, out of tier-1's time
        ctx = DunklContext(mu)
        for family in (
            AppellFamily.from_coefficients(ctx, [1.0]),
            AppellFamily.gould_hopper(ctx, 0.5, 1),
        ):
            sin, _, dist, _ = self.funcs(1.0)
            self.assert_within_budget(family, 10_000, 1.0, [sin, dist])


class TestApplyCorrelation:
    """apply sums f against Q once per batch; the weights stay the oracle."""

    FUNCS = (math.sin, math.cos, lambda t: math.exp(-t), lambda t: t * t, math.sqrt)

    @staticmethod
    def family(mu, kind):
        # a tuple (a, d) is a Gould-Hopper generator, a list Q's coefficients
        ctx = DunklContext(mu)
        if isinstance(kind, list):
            return AppellFamily.from_coefficients(ctx, kind)
        return AppellFamily.gould_hopper(ctx, *kind)

    @pytest.mark.parametrize("n", [1, 5, 300, 1000])
    @pytest.mark.parametrize("kind", [[1.0], (0.5, 1), (5.0, 3), [1.0, 0.5, 0.25]])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.3])
    def test_matches_weighted_sum_of_weights(self, mu, kind, n):
        # Summing f against Q first and against the window terms second
        # only reorders the rounding of sum_j w_j f(t_j): the two agree
        # within 16 eps of the sum of the terms' magnitudes.
        spec = OperatorSpec(family=self.family(mu, kind), n=n)
        rng = random.Random(f"{mu} {kind} {n}")
        xs = [0.0, 1e-5 / n, 1.0 / n] + [10.0 ** rng.uniform(-2.0, 4.0) / n for _ in range(3)]
        weights = [spec.family.weights(n, x, engine._point_tol(spec, x)) for x in xs]
        for f in self.FUNCS:
            for got, ws in zip(apply(spec, f, xs).tolist(), weights):
                t = nodes(spec, len(ws.weights), ws.start).tolist()
                terms = [w * f(v) for w, v in zip(ws.weights.tolist(), t) if w]
                scale = math.fsum(map(abs, terms))
                assert abs(got - math.fsum(terms)) <= 16 * EPS * scale

    @pytest.mark.parametrize("kind", [(0.5, 1), (5.0, 3), [1.0, 0.0, 0.5, 0.0]])
    def test_f_called_only_where_weights_are_nonzero(self, kind):
        # Windows of one to three terms (n*x up to 4e-5) are shorter than the
        # gap of 4 between the nonzero coefficients of exp(5 t**4), so their
        # weights have zeros between nonzero ones; longer windows have none,
        # and no window has a weight past Q's last nonzero coefficient.
        spec = OperatorSpec(family=self.family(0.7, kind), n=4)
        xs = [1e-5, 0.0, 50.0, 1e-6]
        seen = []
        apply(spec, lambda t: seen.append(t) or 1.0, xs)
        tols = [engine._point_tol(spec, x) for x in xs]
        rows = [spec.family.weights(4, x, tol) for x, tol in zip(xs, tols)]
        used = sorted({ws.start + k for ws in rows for k in ws.weights.nonzero()[0]})
        assert any(1 < len(ws.weights) - spec.family.Q.degree < 4 for ws in rows)
        assert seen == nodes(spec, used[-1] + 1)[used].tolist()

    def test_windows_far_apart_share_no_array(self):
        # n*x = 1e8 puts the second window 1e8 nodes past the first; a dense
        # array over that gap would take about 800 MB.
        spec = unit_spec(0.5, 1000)
        xs = [0.0, 1e5]
        seen = []
        f = lambda t: seen.append(t) or math.sin(t)
        tracemalloc.start()
        try:
            got = apply(spec, f, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert got.tobytes() == np.array([apply(spec, math.sin, x) for x in xs]).tobytes()
        tols = [engine._point_tol(spec, x) for x in xs]
        rows = [spec.family.weights(1000, x, tol) for x, tol in zip(xs, tols)]
        used = [nodes(spec, len(ws.weights), ws.start)[ws.weights > 0.0] for ws in rows]
        assert seen == np.concatenate(used).tolist()

    def test_grid_builds_no_weight_sequence(self, monkeypatch):
        spec = gh_spec(0.5, 0.5, 1, 20)
        xs = [0.0, 0.3, 1.0, 2.0]
        want = apply(spec, math.sin, xs)

        def refuse(*args, **kwargs):
            raise AssertionError("apply built a WeightSequence")

        monkeypatch.setattr(appell, "WeightSequence", refuse)
        assert apply(spec, math.sin, xs).tobytes() == want.tobytes()
        assert apply(spec, math.sin, 1.0) == want[2]
        with pytest.raises(AssertionError, match="WeightSequence"):
            spec.family.weights(20, 1.0)


class TestOperatorSpec:
    @pytest.mark.parametrize(
        "n, tol", [(0, 1e-12), (1, 0.0), (1, -1e-12), (1, math.inf), (1, math.nan)]
    )
    def test_rejects_bad_scale_and_tolerance(self, n, tol):
        with pytest.raises(DomainError):
            unit_spec(0.5, n, tol=tol)

    @pytest.mark.parametrize(
        "n", [2.5, 2.0, True, False, math.nan, math.inf, -math.inf, np.float64(3.0),
              np.bool_(True), "3", -1, np.int64(0)]
    )
    def test_rejects_a_scale_that_is_not_an_integer_from_one(self, n):
        with pytest.raises(DomainError, match="scale n must be an integer >= 1"):
            unit_spec(0.5, n)

    @pytest.mark.parametrize(
        "n", [2**1024, 2**1024 - 2**970, 10**309], ids=["2**1024", "rounds-up", "1e309"]
    )
    def test_rejects_a_scale_past_double_range(self, n):
        # n*x raised a bare OverflowError
        with pytest.raises(DomainError, match="scale n must be an integer >= 1 below double range"):
            unit_spec(0.5, n)

    @pytest.mark.parametrize("n", [10**5000, -10**5000], ids=["1e5000", "-1e5000"])
    def test_scale_of_more_digits_than_python_prints(self, n):
        # the message formatted n itself and raised Python's ValueError
        with pytest.raises(DomainError, match=f"got <(negative )?int of {n.bit_length()} bits>"):
            unit_spec(0.5, n)

    @pytest.mark.parametrize("tol", [10**400, -10**400, 0])
    def test_rejects_a_tolerance_past_double_range(self, tol):
        # 0 < 10**400 < inf held, so the spec was made and apply overflowed
        with pytest.raises(DomainError, match="tolerance"):
            unit_spec(0.5, 5, tol=tol)

    @pytest.mark.parametrize("bad", ["a", None])
    def test_a_value_float_refuses_is_a_domain_error(self, bad):
        # float()'s ValueError and TypeError escaped bare from the real rule
        spec = unit_spec(0.5, 5)
        with pytest.raises(DomainError, match=re.escape(f"tolerance must be a finite real >= 0, got {bad!r}")):
            unit_spec(0.5, 5, tol=bad)
        with pytest.raises(DomainError, match=re.escape(f"evaluation point must be a finite real >= 0, got {bad!r}")):
            central_moments(spec, bad)
        assert spec.family._last_moments is None
        # a str that float() reads stays an input
        assert unit_spec(0.5, 5, tol="1e-10").tol == 1e-10
        assert central_moments(spec, "1") == central_moments(spec, 1.0)

    def test_tolerance_is_stored_as_a_float(self):
        spec = unit_spec(0.5, 5, tol=np.float64(1e-10))
        assert type(spec.tol) is float and spec.tol == 1e-10
        assert type(unit_spec(0.5, 5, tol=1).tol) is float

    def test_largest_scale_below_double_range(self):
        n = 2**1024 - 2**970 - 1  # float(n) rounds down to the largest double
        assert central_moments(unit_spec(0.5, n), 1.0).omega2 == 1.0 / float(n)

    def test_fields_cannot_be_assigned(self):
        spec = unit_spec(0.5, 5)
        for name, value in (("n", 7), ("tol", 1e-10), ("family", None), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(spec, name, value)
        assert spec.n == 5 and spec.tol == 1e-12 and not hasattr(spec, "other")

    def test_replace_and_make_run_the_checks(self):
        spec = unit_spec(0.5, 5)
        for bad in ({"n": 0}, {"n": 2.0}, {"tol": math.nan}, {"tol": 0.0}):
            with pytest.raises(DomainError):
                spec._replace(**bad)
        for bad in ((spec.family, 0, 1e-12), (spec.family, 5, math.nan)):
            with pytest.raises(DomainError):
                OperatorSpec._make(bad)
        wider = spec._replace(n=np.int64(7), tol=np.float64(1e-10))
        assert type(wider) is OperatorSpec and wider.family is spec.family
        assert type(wider.n) is int and wider.n == 7
        assert type(wider.tol) is float and wider.tol == 1e-10
        assert OperatorSpec._make((spec.family, np.int32(5), 1e-12)) == spec

    def test_equal_fields_give_equal_specs(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.5), [1.0, 0.5])
        spec = OperatorSpec(fam, 5)
        same = [OperatorSpec(family=fam, n=5), OperatorSpec(fam, 5, 1e-12),
                OperatorSpec(fam, n=np.int64(5), tol=1e-12)]
        for other in same:
            assert other == spec and hash(other) == hash(spec)
        assert spec != OperatorSpec(fam, 6) and spec != OperatorSpec(fam, 5, 1e-10)
        # a named tuple: it unpacks, indexes and equals a plain tuple
        family, n, tol = spec
        assert (family, n, tol) == spec == (fam, 5, 1e-12)
        assert spec[0] is fam and spec[1:] == (5, 1e-12)
        assert spec._fields == ("family", "n", "tol")

    def test_repr_names_the_fields(self):
        spec = unit_spec(0.5, 5)
        assert repr(spec) == f"OperatorSpec(family={spec.family!r}, n=5, tol=1e-12)"

    @pytest.mark.parametrize("n", [np.int64(10), np.int32(10), np.uint8(10)])
    def test_numpy_integer_scale_is_the_equal_int(self, n):
        spec, ref = gh_spec(0.5, 0.5, 1, n), gh_spec(0.5, 0.5, 1, 10)
        assert type(spec.n) is int and spec.n == 10
        assert central_moments(spec, 0.7) == central_moments(ref, 0.7)
        assert apply(spec, math.sin, 0.7) == apply(ref, math.sin, 0.7)


def parity(fam):
    """The classical functionals of a family from its parity sums."""
    return classical_functionals(q_functionals(fam), fam.Q_at_1, fam.ctx.mu)


def parity_scale(fam):
    """The magnitude of the terms each classical functional is formed
    from: the identities with every difference a sum, on the sums of |c_i|."""
    sums = parity_sums_dense([abs(c) for c in fam.Q.coeffs])
    return classical_functionals(sums, abs(fam.Q_at_1), fam.ctx.mu, minus=1.0)


class TestQFunctionals:
    def test_unit_family(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.9), [1.0])
        assert q_functionals(fam) == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        F = parity(fam)
        assert F["q1"] == 1.0 and F["qm1"] == 1.0
        for name in ("dq1", "dqm1", "ddq1", "lq1", "lqm1", "dlq1", "ldq1", "llq1"):
            assert F[name] == 0.0

    def test_gould_hopper_closed_forms(self):
        # Q = exp(t^2 / 2) has even powers only: E0 = E1 = sqrt(e), and
        # Q'' = (1 + t^2) exp(t^2/2) gives E2 = 2 sqrt(e)
        fam = AppellFamily.gould_hopper(DunklContext(0.0), 0.5, 1)
        F = q_functionals(fam)
        root_e = math.exp(0.5)
        for value, exact in zip(F, (root_e, root_e, 2.0 * root_e)):
            assert abs(value - exact) <= 1e-12 * exact
        assert F[3:] == (0.0, 0.0, 0.0)

    def test_dunkl_value_matches_difference_quotient(self):
        # (LQ)(1) = Q'(1) + mu (Q(1) - Q(-1)), by Horner's scheme on Q and Q'
        mu = 0.8
        ctx = DunklContext(mu)
        rng = random.Random(7)
        for _ in range(10):
            coeffs = [rng.uniform(0.1, 1.0) for _ in range(rng.randint(1, 9))]
            Q = PowerSeries(ctx, coeffs)
            expected = Q.derivative().eval(1.0) + mu * (Q.eval(1.0) - Q.eval(-1.0))
            got = parity(AppellFamily(ctx, Q))["lq1"]
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    @pytest.mark.parametrize("mu", [0.0, 1e-6, 0.5, 5.0])
    def test_sums_do_not_depend_on_mu(self, mu):
        coeffs = [1.0, 0.5, 0.25, 0.0, 2.0, 1e-3]
        ref = q_functionals(AppellFamily.from_coefficients(DunklContext(0.0), coeffs))
        assert q_functionals(AppellFamily.from_coefficients(DunklContext(mu), coeffs)) == ref

    def test_cancellation_at_tiny_mu(self):
        # Q = 1 + t/2 + t^2/4 at mu = 1e-6: (LQ)(-1) = (1 + 2 mu)/2 - 2/4 is
        # mu.  Formed from d(i) it cancels to about 1e-6 (1 + 3e-11); from
        # the sums it is Q'(-1) + 2 mu O0 = (0.5 - 0.5) + mu, with no rounding.
        mp = pytest.importorskip("mpmath")
        mu = 1e-6
        fam = AppellFamily.from_coefficients(DunklContext(mu), [1.0, 0.5, 0.25])
        assert parity(fam)["lqm1"] == mu
        assert abs(q_functionals_dense(fam.Q.coeffs, mu)["lqm1"] - mu) > 1e-12 * mu
        with mp.workdps(50):
            for n in (1, 10, 1000, 1_000_000):
                for x in (1e-4, 0.3, 7.0, 1e3):
                    assert_closed_form_within_rounding(OperatorSpec(family=fam, n=n), x)


def assert_closed_form_within_rounding(spec, x):
    """The closed form at x against the printed formulas at the working
    mpmath precision, from the family's stored coefficients, its Q(1) and
    the same rho.  The engine forms each value from the N terms of its
    support in at most N + 10 roundings of half an ulp, each relative to
    the magnitude of the terms it acts on (``closed_form_magnitudes``)."""
    import mpmath as mp

    fam, n = spec.family, spec.n
    mu, rho = fam.ctx.mu, exp_ratio(spec, x)
    sums = parity_sums_dense([mp.mpf(c) for c in fam.Q.coeffs])
    F = SimpleNamespace(**classical_functionals(sums, mp.mpf(fam.Q_at_1), mp.mpf(mu)))
    want = closed_form_printed(F, mp.mpf(mu), n, mp.mpf(x), mp.mpf(rho))
    scale = closed_form_magnitudes(
        parity_sums_dense([abs(c) for c in fam.Q.coeffs]), fam.Q_at_1, mu, n, x, rho
    )
    tol = (len(fam.support) + 10) * EPS / 2
    got = engine._closed_form(spec, x)
    for name, g, w, m in zip(("m1", "m2", "omega1", "omega2"), got, want, scale):
        assert abs(g - w) <= tol * m, (name, n, x, g, float(w))


class TestRecords:
    """QFunctionals and CentralMoments are immutable named tuples whose
    fields keep their names and order."""

    def test_fields_in_order(self):
        assert QFunctionals._fields == ("e0", "e1", "e2", "o0", "o1", "o2")
        assert CentralMoments._fields == ("omega1", "omega2", "source")

    def test_returned_by_every_entry_point(self):
        spec = gh_spec(0.5, 0.5, 1, 20)
        F = q_functionals(spec.family)
        assert type(F) is QFunctionals
        assert F == tuple(getattr(F, name) for name in QFunctionals._fields)
        for cm, source in (
            (central_moments(spec, 0.7), "closed-form"),
            (central_moments_series(spec, 0.7), "series-summed"),
        ):
            assert type(cm) is CentralMoments
            assert cm == (cm.omega1, cm.omega2, source)

    @pytest.mark.parametrize("name", ["e0", "omega2", "extra"])
    def test_refuse_attribute_assignment(self, name):
        spec = gh_spec(0.5, 0.5, 1, 20)
        for record in (q_functionals(spec.family), central_moments(spec, 0.7)):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)


class TestQFunctionalsPass:
    """The ten functionals from the parity sums against the series
    transforms and the mpmath closed forms."""

    @staticmethod
    def composed(Q):
        """The ten functionals from the series transforms and Horner's scheme."""
        dQ, lQ = Q.derivative(), Q.dunkl_derivative()
        return {
            "q1": Q.eval(1.0),
            "qm1": Q.eval(-1.0),
            "dq1": dQ.eval(1.0),
            "dqm1": dQ.eval(-1.0),
            "ddq1": dQ.derivative().eval(1.0),
            "lq1": lQ.eval(1.0),
            "lqm1": lQ.eval(-1.0),
            "dlq1": lQ.derivative().eval(1.0),
            "ldq1": dQ.dunkl_derivative().eval(1.0),
            "llq1": lQ.dunkl_derivative().eval(1.0),
        }

    def assert_matches_composition(self, fam):
        # Horner's scheme over the L stored coefficients, after at most two
        # products per coefficient, rounds L + 2 times; the parity form, at
        # most N + 1 times per sum over the N terms of the support and three
        # times combining them.  Each rounding is at most half an ulp of the
        # magnitude of the terms, which the parity scale bounds for both.
        F = parity(fam)
        ref = self.composed(fam.Q)
        scale = parity_scale(fam)
        tol = (len(fam.Q) + len(fam.support) + 6) * EPS / 2
        for name in ref:
            assert abs(F[name] - ref[name]) <= tol * scale[name], (name, len(fam.Q))

    @pytest.mark.parametrize("mu", [0.0, 0.3, 1.3, 5.0])
    def test_random_dense_polynomials(self, mu):
        ctx = DunklContext(mu)
        rng = random.Random(int(10 * mu) + 3)
        for length in [1, 2, 3, 600] + [rng.randint(1, 600) for _ in range(12)]:
            c = [rng.uniform(-1.0, 1.0) if rng.random() < 0.7 else 0.0
                 for _ in range(length)]
            c[0] = 1.0 + sum(map(abs, c))  # keeps Q(1) positive
            self.assert_matches_composition(AppellFamily(ctx, PowerSeries(ctx, c)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.5, 5.0, 10.0, 50.0])
    def test_gould_hopper_matches_composition(self, a, d):
        for mu in (0.0, 0.3, 1.3, 5.0):
            fam = AppellFamily.gould_hopper(DunklContext(mu), a, d)
            self.assert_matches_composition(fam)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 1.3, 5.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.5, 5.0, 10.0, 50.0])
    def test_gould_hopper_closed_forms(self, a, d, mu):
        # The coefficients a**k / k! come from a ratio recurrence, two
        # roundings per step, and the terms near the peak k ~ a dominate, so
        # the error walks like sqrt(a) ulps: at most 1.03 sqrt(a+1) eps was
        # measured (7.4 eps at a = 50).  The cut tail adds under half an ulp,
        # and the parity form rounds N + 4 times over the N terms.
        fam = AppellFamily.gould_hopper(DunklContext(mu), a, d)
        F, scale = parity(fam), parity_scale(fam)
        exact = gould_hopper_functionals(mu, a, d)
        assert set(exact) == set(F)
        tol = (4 * math.sqrt(a + 1.0) + (len(fam.support) + 4) / 2) * EPS
        for name, value in exact.items():
            assert abs(F[name] - value) <= tol * scale[name], name

    def test_overflow_raises_range_error(self):
        # Q = 1 + 1e308 t: its sums are finite and do not depend on mu, but
        # at mu = 1e155 the moments leave double range (S holds mu2**2 O0 /
        # Q(1) = 4e310)
        ctx = DunklContext(1e155)
        fam = AppellFamily(ctx, PowerSeries(ctx, [1.0, 1e308]))
        assert q_functionals(fam) == (1.0, 0.0, 0.0, 1e308, 1e308, 0.0)
        spec = OperatorSpec(family=fam, n=3)
        for x in (0.0, 0.5, 40.0):
            for entry in (central_moments, moments_closed):
                with pytest.raises(RangeError, match=re.escape(f"(n=3, x={x}, mu=1e+155)")):
                    entry(spec, x)
            assert fam._last_moments is None

    def test_sums_of_the_order_of_q1_pass_double_range(self):
        # At mu = 5 the same generator's moments are of order 100, but the
        # unscaled pass formed 4 mu**2 O0 = 1e310 and raised RangeError.  A
        # power-of-two multiple of Q gives the same operator, and Q 2**-1000
        # kept its sums in range before the pass took the coefficients over
        # 2**-e, Q(1) = m 2**e: both give the same moments bit for bit.
        ctx = DunklContext(5.0)
        fam = AppellFamily(ctx, PowerSeries(ctx, [1.0, 1e308]))
        small = AppellFamily(ctx, PowerSeries(ctx, [2.0**-1000, 1e308 * 2.0**-1000]))
        for x in (0.0, 0.5, 40.0):
            got, want = moments_closed(OperatorSpec(fam, 3), x), moments_closed(OperatorSpec(small, 3), x)
            assert [v.hex() for v in got] == [v.hex() for v in want]
            assert central_moments(OperatorSpec(fam, 3), x) == central_moments(OperatorSpec(small, 3), x)
        assert central_moments(OperatorSpec(fam, 3), 0.0) == (11 / 3, 121 / 9, "closed-form")


class TestMomentsClosed:
    def test_zeroth_is_exactly_one(self):
        for spec in (unit_spec(0.5, 4), gh_spec(1.0, 0.3, 2, 7)):
            m0, _, _ = moments_closed(spec, 1.3)
            assert m0 == 1.0

    def test_unit_family_first_moment_is_x(self):
        spec = unit_spec(0.5, 4)
        _, m1, _ = moments_closed(spec, 1.0)
        assert m1 == 1.0

    def test_matches_series_summation(self):
        spec = gh_spec(0.5, 0.5, 1, 10)
        _, m1, m2 = moments_closed(spec, 1.0)
        s1 = apply(spec, lambda t: t, 1.0)
        s2 = apply(spec, lambda t: t * t, 1.0)
        assert abs(m1 - s1) <= 1e-8
        assert abs(m2 - s2) <= 1e-8

    def test_classical_reduction(self):
        spec = unit_spec(0.0, 20)
        _, m1, m2 = moments_closed(spec, 1.0)
        assert m1 == 1.0
        assert abs(m2 - 1.05) <= 1e-13

    def test_first_raw_moment_is_x_plus_omega1(self):
        spec = gh_spec(1.3, 0.3, 2, 17)
        for x in (0.0, 0.4, 3.0, 500.0):
            assert moments_closed(spec, x)[1] == x + central_moments(spec, x).omega1


class TestCentralMoments:
    @pytest.mark.parametrize("mu", [0.0, 0.5])
    @pytest.mark.parametrize("n", [1, 10])
    @pytest.mark.parametrize("x", [0.0, 0.5, 2.0])
    def test_unit_family_identities(self, mu, n, x):
        cm = central_moments(unit_spec(mu, n), x)
        assert abs(cm.omega1) <= 1e-13
        rho = emu_brute(mu, -n * x) / emu_brute(mu, n * x)
        target = (x / n) * (1.0 + 2.0 * mu * rho)
        assert abs(cm.omega2 - target) <= 1e-10 * max(1.0, target)
        assert cm.source == "closed-form"

    def test_classical_szasz_variance_is_exact(self):
        cm = central_moments(unit_spec(0.0, 10), 1.5)
        assert cm.omega2 == 0.15
        assert central_moments(unit_spec(0.0, 10), 0.0).omega2 == 0.0

    def test_at_origin_matches_series(self):
        spec = gh_spec(0.5, 0.5, 1, 10)
        closed = central_moments(spec, 0.0)
        summed = central_moments_series(spec, 0.0)
        assert abs(closed.omega1 - summed.omega1) <= 1e-10
        assert abs(closed.omega2 - summed.omega2) <= 1e-10
        assert summed.source == "series-summed"

    @pytest.mark.parametrize("n,x", [(1, 0.0), (1, 2.0), (10, 0.5), (50, 2.0)])
    def test_second_central_moment_nonnegative(self, n, x):
        for spec in (unit_spec(1.0, n), gh_spec(0.5, 0.3, 2, n)):
            assert central_moments(spec, x).omega2 >= 0.0

    def test_series_route_agrees_on_a_sweep(self):
        spec = gh_spec(1.0, 0.3, 2, 10)
        for x in (0.0, 0.5, 1.0, 2.0):
            closed = central_moments(spec, x)
            summed = central_moments_series(spec, x)
            assert abs(closed.omega1 - summed.omega1) <= 1e-8
            assert abs(closed.omega2 - summed.omega2) <= 1e-8

    def test_nan_fails_the_transcription_check(self, monkeypatch):
        # diff > bound is False for NaN, so a NaN omega2 used to pass; skew2
        # enters omega2 alone, so m1 and m2 stay finite
        original = engine._functionals

        def nan_skew2(family):
            *head, skew2, s0, s1 = original(family)
            return (*head, math.nan, s0, s1)

        monkeypatch.setattr(engine, "_functionals", nan_skew2)
        with pytest.raises(TranscriptionError):
            central_moments(gh_spec(0.5, 0.5, 1, 30), 1.2)

    def test_non_finite_raw_moments_raise_range_error(self, monkeypatch):
        # x*x overflows from x = 1.34e154 (the check used to report a
        # transcription error on the nan it made), and Q = 1 + 1e308 t -
        # 1e308 t**2 at mu = 0 makes m2 non-finite, which the check's floor
        # let through for m2 = inf
        spec = unit_spec(0.5, 1)
        with pytest.raises(RangeError, match=r"\(n=1, x=1e\+200, mu=0\.5\)"):
            central_moments(spec, 1e200)
        fam = AppellFamily.from_coefficients(DunklContext(0.0), [1.0, 1e308, -1e308])
        wide = OperatorSpec(family=fam, n=1)
        for x in (0.0, 1e-300, 0.5, 1e200):  # Q(1) = 1, Q'(1) + Q''(1) = -3e308
            with pytest.raises(RangeError, match=re.escape(f"(n=1, x={x}, mu=0.0)")):
                moments_closed(wide, x)
            assert fam._last_moments is None
        # a rho of NaN makes the raw moments NaN
        monkeypatch.setattr(engine, "dunkl_exp_neg_ratio", lambda *a, **k: math.nan)
        with pytest.raises(RangeError):
            central_moments(gh_spec(0.5, 0.5, 1, 30), 1.2)

    def test_q1_times_n_past_double_range(self):
        # Q = 1e300 gives the unit family's operator; Q(1) n = 1e310 used to
        # overflow, which dropped m2's x/n term and failed the check
        big = AppellFamily.from_coefficients(DunklContext(0.5), [1e300])
        for x in (0.5, 3.0):
            got = central_moments(OperatorSpec(family=big, n=10**10), x)
            want = central_moments(unit_spec(0.5, 10**10), x)
            assert got.omega1 == want.omega1 == 0.0
            assert abs(got.omega2 - want.omega2) <= 4 * EPS * want.omega2

    @pytest.mark.parametrize("x", [10**400, -10**400])
    def test_point_past_double_range_is_a_domain_error(self, x):
        # an int past double range passed 0 <= x < inf, and float(x) raised;
        # apply's np.asarray raised OverflowError, for the point and a grid
        # that holds it
        spec = unit_spec(0.5, 3)
        with pytest.raises(DomainError, match="evaluation point"):
            central_moments(spec, x)
        for points in (x, [0.5, x], (x, 1.0)):
            with pytest.raises(DomainError, match="evaluation point"):
                apply(spec, math.sin, points)
        with pytest.raises(DomainError, match="evaluation point"):
            spec.family.weights(3, x)

    def test_omega1_of_an_even_generator_is_exact(self):
        # Gould-Hopper with d odd has no odd powers, so O0 = 0 and n*omega1 =
        # Q'(1)/Q(1) = a (d+1) at every (mu, n, x): omega1 is that product
        # over n, bit for bit
        rng = random.Random(26)
        for _ in range(3000):
            mu, a, d = rng.uniform(0.0, 2.0), 1.0 - rng.random(), rng.choice((1, 3, 5))
            n = rng.choice((1, 10, 1000, 1_000_000))
            x = 10.0 ** rng.uniform(-4.0, 3.0)
            spec = gh_spec(mu, a, d, n)
            fam = spec.family
            F = q_functionals(fam)
            assert F.o0 == F.o1 == 0.0
            want = a * (d + 1) / n
            assert central_moments(spec, x).omega1 == want, (mu, a, d, n, x)


class TestExpRatio:
    def test_flushes_underflow_to_zero(self):
        # exp(-1200) underflows; for mu > 0 rho stays near mu / (2nx).
        assert exp_ratio(unit_spec(0.0, 600), 1.0) == 0.0
        # (I_0(1000) - I_1(1000)) / (I_0(1000) + I_1(1000)), mpmath at 40 digits
        ref = 2.501251095237174717e-4
        assert abs(exp_ratio(unit_spec(0.5, 1000), 1.0) - ref) <= 1e-14 * ref

    def test_moments_survive_huge_arguments(self):
        spec = unit_spec(0.5, 1000)
        _, m1, _ = moments_closed(spec, 2.0)
        assert m1 == 2.0

    def test_matches_direct_ratio_in_range(self):
        spec = unit_spec(0.5, 4)
        ref = emu_brute(0.5, -4.0) / emu_brute(0.5, 4.0)
        assert abs(exp_ratio(spec, 1.0) - ref) <= 1e-12


class TestLargeArguments:
    @pytest.mark.parametrize("n", [640, 660, 700])
    def test_omega2_continuous_across_old_flush_point(self, n):
        # Here rho is near mu/(2nx), about 4e-4; taking it as zero moves the
        # closed-form omega2 off the series route by about 3.8e-4 relative.
        spec = gh_spec(0.5, 0.5, 1, n)
        closed = central_moments(spec, 1.0).omega2
        summed = central_moments_series(spec, 1.0).omega2
        assert abs(closed - summed) <= 1e-8 * summed

    @pytest.mark.parametrize("nx", [1e3, 1e4, 1e5, 1e6, 1e7])
    @pytest.mark.parametrize("family", ["unit", "gould-hopper"])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.3])
    def test_weights_past_the_old_overflow_point(self, mu, family, nx):
        # Each weight window holds about 15 * sqrt(nx) terms (15,000 at 1e6,
        # 47,000 at 1e7); only its tail bounds set that length.
        if family == "unit":
            spec = unit_spec(mu, 1000)
        else:
            spec = gh_spec(mu, 0.5, 1, 1000)
        x = nx / 1000
        assert abs(apply(spec, lambda t: 1.0, x) - 1.0) <= 1e-12
        closed = central_moments(spec, x).omega2
        summed = central_moments_series(spec, x).omega2
        assert abs(closed - summed) <= 1e-8 * summed


GH_AS = [0.0, 1e-300, 1e-3, 0.3466, 0.5, 1.0, 5.0, 50.0, 700.0]  # 0.3466: skew2 near 0
GH_DS = [1, 2, 3, 4, 7]
# and gaps near MAX_WINDOW = 2**20: two terms at d = 2**19, one at 2**40
GH_CASES = [(a, d) for a in GH_AS for d in GH_DS] + [(1e-20, 2**19), (1e-300, 2**40)]
GH_MUS = [0.0, 1e-6, 0.5, 1.3, 5.0]
GH_NS = [1, 1000, 10**6, 10**12]
GH_NX = [0.0, 0.3, 20.0, 1e3, 1e6]
U = 2.0**-53  # half an ulp of 1: one rounding, relative
TINY = 2.0**-1074  # the subnormal spacing: one rounding of a subnormal result

# Roundings in each sum of ``appell._gould_hopper_jet`` (e0, e1, e2, o0, o1,
# o2), counting exp and expm1 as two (C math libraries keep them within one
# ulp) and the halvings as exact: with p = a m one, P = p (m-1) two, R = p**2
# three, minus = -expm1(-2a) two and plus = 1 + e**(-2a) three, e0 = plus/2
# three, e1 = p minus/2 four, e2 = (P minus + R plus)/2 eight, o0 = minus/2
# two, o1 = p plus/2 five and o2 = (P plus + R minus)/2 seven.  Every sum has
# nonnegative terms, so its magnitude is its value; at even m the sums are
# 1, p, P + R and three zeros, with fewer roundings.  Its q1 is 1.0 exactly.
GH_ROUNDINGS = (3, 4, 8, 2, 5, 7)


def gh_exact(a, d, mu):
    """The seven closed-form coefficients from ``oracles.gould_hopper_sums``
    by the ``engine._functionals`` definitions, and the magnitudes of the
    terms each is formed from, at 50 digits: every value but skew1 and
    skew2 is a product or sum of nonnegative terms, its own magnitude;
    skew1 = mu2 (e0 - o0) has mu2 (e0 + o0), and skew2 = mu2 (2r - 1) has
    mu2 (2r + 1), with r = Q(-1)/Q(1) = e0 - o0."""
    import mpmath as mp

    with mp.workdps(gould_hopper_dps(a)):  # mu2 e0 - odd = mu2 r cancels
        e0, e1, e2, o0, o1, o2 = gould_hopper_sums(a, d)
        mu2 = 2 * mp.mpf(mu)
        w1, odd = e1 + o1, mu2 * o0
        values = (w1, odd, 1 + 2 * w1, mu2 * e0 - odd, mu2 * e0 - 3 * odd,
                  w1 + e2 + o2 + mu2 * odd, 2 * mu2 * o1)
        magnitudes = values[:3] + (mu2 * (e0 + o0), mu2 * (2 * (e0 - o0) + 1)) + values[5:]
    return values, magnitudes


def gh_exact_moments(F, M, n, x, rho):
    """omega1 and omega2 by ``engine._closed_form``'s formulas from the
    exact coefficients F, each with the magnitude of its terms from M."""
    w1, odd, _, _, skew2, s0, s1 = F
    omega1 = (w1 + rho * odd) / n  # nonnegative terms: its own magnitude
    omega2 = (1 + rho * skew2) * x / n + (s0 + rho * s1) / n / n
    return omega1, omega2, omega1, (1 + rho * M[4]) * x / n + (s0 + rho * s1) / n / n


class TestGouldHopperClosedForm:
    """A Gould-Hopper family's moments come from its generator's closed-form
    jet (``appell._gould_hopper_jet``), held to the untruncated generator at
    50 digits (``oracles.gould_hopper_sums``) and to the coefficient pass on
    the family's own coefficient tuple."""

    @pytest.mark.parametrize("a, d", [(0.5, 1), (0.5, 2), (1.3, 4), (5.0, 2)])
    def test_oracle_is_the_series_summed(self, a, d):
        # the parity sums of sum_k a**k t**(k m) / k! over e**a, summed term
        # by term at 50 digits
        mp = pytest.importorskip("mpmath")
        m = d + 1
        with mp.workdps(gould_hopper_dps(a)):
            want = [mp.mpf(0)] * 6
            for k in range(200):
                i, c = k * m, mp.mpf(a) ** k / mp.factorial(k)
                for j, f in enumerate((1, i, i * (i - 1))):
                    want[j + 3 * (i & 1)] += f * c
            got = gould_hopper_sums(a, d)
            for g, w in zip(got, want):
                assert abs(g - w / mp.exp(a)) <= mp.mpf(10) ** -45 * (1 + abs(g))

    @pytest.mark.parametrize("a, d", GH_CASES + [pytest.param(0.0, 10**400, id="0.0-1e400")])
    def test_functionals_match_the_oracle(self, a, d):
        # Q's functionals, its parity sums over Q(1) (the jet): one tuple
        # of floats at every mu, each sum within its GH_ROUNDINGS of the
        # untruncated generator's and q1 = 1.0; at a = 0 the constant
        # generator's, with no a (d+1) formed for d past double range
        mp = pytest.importorskip("mpmath")
        jet = appell._gould_hopper_jet(a, d + 1)
        assert len(jet) == 7 and all(type(v) is float for v in jet) and jet[6] == 1.0
        for mu in GH_MUS:
            fam = AppellFamily.gould_hopper(DunklContext(mu), a, d)
            assert [v.hex() for v in fam._jet] == [v.hex() for v in jet], mu
        with mp.workdps(50):
            for k, (got, want) in enumerate(zip(jet, gould_hopper_sums(a, d))):
                if want == 0:  # no odd powers, or a = 0
                    assert got == 0.0, k
                else:
                    # a sum below double range (e1 at a = 1e-300) rounds to 0
                    assert abs(got - want) <= GH_ROUNDINGS[k] * (U * want + TINY), k

    @pytest.mark.parametrize("a, d", GH_CASES)
    def test_raw_moments_match_the_oracle(self, a, d):
        # m1 = x + (w1 + rho odd)/n and m2 = x**2 + (lead + rho skew1) x/n +
        # (s0 + rho s1)/n/n from the coefficients ``engine._functionals``
        # forms on the jet, whose roundings add to the jet's (GH_ROUNDINGS):
        # w1 = e1 + o1 six, odd = mu2 o0 three, lead = 1 + 2 w1 seven, skew1
        # = mu2 e0 - odd five (of the magnitude mu2 (e0 + o0)), s0 = w1 +
        # (e2 + o2) + mu2 odd eleven, s1 = 2 mu2 o1 six.  The moments' own
        # operations then give m1 nine and m2 fifteen, each of the magnitude
        # of the terms, or of the subnormal spacing; rho is the engine's own
        mp = pytest.importorskip("mpmath")
        for mu in GH_MUS:
            fam = AppellFamily.gould_hopper(DunklContext(mu), a, d)
            with mp.workdps(50):
                (w1, odd, lead, skew1, _, s0, s1), M = gh_exact(a, d, mu)
                for n in GH_NS:
                    spec = OperatorSpec(family=fam, n=n)
                    for nx in GH_NX:
                        x = nx / n
                        _, m1, m2 = moments_closed(spec, x)
                        X, rho = mp.mpf(x), mp.mpf(exp_ratio(spec, x))
                        want1 = X + (w1 + rho * odd) / n  # nonnegative terms
                        s = (s0 + rho * s1) / n / n
                        want2 = X * X + (lead + rho * skew1) * X / n + s
                        scale2 = X * X + (lead + rho * M[3]) * X / n + s
                        assert abs(m1 - want1) <= 9 * (U * want1 + TINY), (mu, n, nx)
                        assert abs(m2 - want2) <= 15 * (U * scale2 + TINY), (mu, n, nx)

    @pytest.mark.parametrize("a, d", GH_CASES)
    def test_moments_match_the_oracle(self, a, d):
        # omega1 = (w1 + rho odd)/n adds three roundings to the coefficients'
        # and omega2 = (1 + rho skew2) x/n + (s0 + rho s1)/n/n seven, each of
        # the magnitude of the terms, or of the subnormal spacing where a
        # result is subnormal (a = 1e-300 at n = 1e6); rho is the engine's
        # own.  The budgets, six and twelve, were counted when the closed
        # form gave w1 in one rounding and s1 in five; formed from the jet
        # (``test_raw_moments_match_the_oracle`` counts it) they use at
        # most 2.4 and 3.5 of them
        mp = pytest.importorskip("mpmath")
        for mu in GH_MUS:
            fam = AppellFamily.gould_hopper(DunklContext(mu), a, d)
            with mp.workdps(50):
                F, M = gh_exact(a, d, mu)
                for n in GH_NS:
                    spec = OperatorSpec(family=fam, n=n)
                    for nx in GH_NX:
                        x = nx / n
                        cm = central_moments(spec, x)
                        want1, want2, scale1, scale2 = gh_exact_moments(
                            F, M, n, mp.mpf(x), mp.mpf(exp_ratio(spec, x))
                        )
                        assert abs(cm.omega1 - want1) <= 6 * (U * scale1 + TINY), (mu, n, nx)
                        assert abs(cm.omega2 - want2) <= 12 * (U * scale2 + TINY), (mu, n, nx)
                        if d % 2:
                            assert cm.omega1 == a * (d + 1) / n, (mu, n, nx)

    @pytest.mark.parametrize("a, d", GH_CASES)
    def test_agrees_with_the_coefficient_pass(self, a, d):
        # Against the same family's tuple through the generic constructor,
        # whose moments the coefficient pass gives.  The budget adds
        # - the pass's roundings against the tuple's exact sums, (N + 10)
        #   half-ulps of ``closed_form_magnitudes`` as in
        #   ``assert_closed_form_within_rounding``;
        # - the closed form's against the untruncated generator, as above;
        # - the tuple's own distance from the untruncated generator: the cut
        #   tail, below half an ulp of Q(1) in every sum the i**2 weight
        #   covers, so half an ulp of each sum over Q(1), and the ratio
        #   recurrence's roundings, which the sums over Q(1) share but for
        #   a spread of at most 2 U sqrt(Var(w) Var(k)) under the Poisson
        #   weights c_k / Q(1), w the sum's factor: four more half-ulps of
        #   each term, and one for Q(1) itself.
        # The magnitudes are formed from the sums over 2**-k, Q(1) = m 2**k,
        # as the pass forms them, so a = 700, whose sums pass double range,
        # is held to the same budget.
        mp = pytest.importorskip("mpmath")
        base = AppellFamily.gould_hopper(DunklContext(0.0), a, d)
        coeffs, k = base.Q.coeffs, math.frexp(base.Q_at_1)[1]
        abs_sums = parity_sums_dense([math.ldexp(abs(c), -k) for c in coeffs])
        for mu in GH_MUS:
            ctx = DunklContext(mu)
            fam = AppellFamily.gould_hopper(ctx, a, d)
            generic = AppellFamily(ctx, fam.Q)
            N = len(generic.support)
            mu2 = 2.0 * mu
            with mp.workdps(50):
                F, M = gh_exact(a, d, mu)
            for n in GH_NS:
                spec, pass_spec = OperatorSpec(fam, n), OperatorSpec(generic, n)
                for nx in GH_NX:
                    x = nx / n
                    cm = central_moments(spec, x)
                    ref = central_moments(pass_spec, x)
                    rho = exp_ratio(spec, x)
                    q1 = math.ldexp(generic.Q_at_1, -k)
                    scale = closed_form_magnitudes(abs_sums, q1, mu, n, x, rho)
                    with mp.workdps(50):
                        _, _, scale1, scale2 = (float(v) for v in gh_exact_moments(F, M, n, x, rho))
                    tail1 = U * (1.0 + mu2 * rho) / n
                    tail2 = U * ((2.0 + mu2 * mu2 + 2.0 * mu2 * rho) / n + 4.0 * mu2 * rho * x) / n
                    budget1 = (N + 10) * U * scale[2] + (6 + 5) * (U * scale1 + TINY) + tail1
                    budget2 = (N + 10) * U * scale[3] + (12 + 5) * (U * scale2 + TINY) + tail2
                    assert abs(cm.omega1 - ref.omega1) <= budget1, (mu, n, nx)
                    assert abs(cm.omega2 - ref.omega2) <= budget2, (mu, n, nx)

    def test_moments_where_the_sums_pass_double_range(self):
        # e2 of exp(700 t**2) is about 2e310: the coefficient pass raised
        # RangeError (m2 = inf), where every moment is of order one.  It now
        # sums the coefficients over 2**1011 (Q(1) = 1.01e304) and agrees
        # with the closed form in a within the rounding budget of
        # ``test_gould_hopper_closed_forms``: the coefficients' ratio
        # recurrence, at most 1.03 sqrt(a + 1) eps, and (N + 4) / 2 eps for
        # the pass over the N terms, relative to the moments (every term
        # is positive).
        fam = AppellFamily.gould_hopper(DunklContext(0.5), 700.0, 1)
        cm = central_moments(OperatorSpec(fam, n=10**6), 2.0)
        assert cm.omega1 == 700 * 2 / 1e6
        assert math.isfinite(cm.omega2) and abs(cm.omega2 - 3.96e-6) <= 1e-8
        generic = AppellFamily(fam.ctx, fam.Q)
        budget = (4 * math.sqrt(701.0) + (len(generic.support) + 4) / 2) * EPS
        for n in (10, 10**6):
            for x in (0.0, 0.5, 2.0):
                want = central_moments(OperatorSpec(fam, n), x)
                got = central_moments(OperatorSpec(generic, n), x)
                assert abs(got.omega1 - want.omega1) <= budget * want.omega1, (n, x)
                assert abs(got.omega2 - want.omega2) <= budget * want.omega2, (n, x)

    @pytest.mark.parametrize("d", [1, 2, 10**400])
    def test_zero_exponent_is_the_constant_generator(self, d):
        # a = 0 at every d, one past double range included: the unit
        # family's coefficients, bit for bit, and no a * (d+1) formed
        for mu in GH_MUS:
            ctx = DunklContext(mu)
            fam = AppellFamily.gould_hopper(ctx, 0.0, d)
            unit = engine._functionals(AppellFamily.from_coefficients(ctx, [1.0]))
            assert [v.hex() for v in engine._functionals(fam)] == [v.hex() for v in unit]


# Families whose supports are full, sparse, or hold signed zeros and
# subnormal coefficients.
BIT_FAMILIES = {
    "unit": [1.0],
    "quadratic": [1.0, 0.5, 0.25],
    "gh(0.5,1)": (0.5, 1),
    "gh(5,3)": (5.0, 3),
    "gh(1,9)": (1.0, 9),
    "zero-runs": [1.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.125],
    "signed-zeros": [2.0, -0.0, 0.0, -0.0, 0.75, -0.0, 0.0, 0.0, 0.3, -0.0],
    "subnormal": [1.0, 5e-324, 0.0, 0.0, 5e-324, -0.0, 0.25, 0.0, 0.0, 0.0, 5e-324],
    "mixed-sign": [1.0, 0.0, -0.25, 0.0, 0.0, 0.5, -0.0, 0.0, 1e-3],
}
BIT_MUS = [0.0, 1e-20, 0.5, 1.3, 7.5, 20.0]
BIT_NS = [1, 10, 1000, 1_000_000]
# n*x at zero, on each side of rho's crossover (about 19 to 21 for mu in
# [0.5, 7.5], 42.5 at mu = 1e-20 and 99.75 at mu = 20) and far past it.
BIT_NX = [0.0, 0.3, 18.5, 19.5, 20.5, 21.5, 42.0, 43.0, 99.5, 100.0, 1e6]


def bit_family(mu, name):
    spec = BIT_FAMILIES[name]
    if isinstance(spec, tuple):
        return AppellFamily.gould_hopper(DunklContext(mu), *spec)
    return AppellFamily.from_coefficients(DunklContext(mu), spec)


class TestEvaluationCounts:
    @staticmethod
    def counting(monkeypatch, name):
        calls = []
        original = getattr(engine, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
        return calls

    def test_one_rho_per_central_moments_call(self, monkeypatch):
        calls = self.counting(monkeypatch, "dunkl_exp_neg_ratio")
        central_moments(gh_spec(0.5, 0.5, 1, 30), 1.2)
        assert len(calls) == 1
        # moments_closed, then central_moments at the same point, share one rho
        spec = gh_spec(0.5, 0.5, 1, 30)
        _, m1, _ = moments_closed(spec, 1.2)
        assert m1 == 1.2 + central_moments(spec, 1.2).omega1
        assert len(calls) == 2

    def test_a_new_point_scale_tolerance_or_family_recomputes(self, monkeypatch):
        calls = self.counting(monkeypatch, "dunkl_exp_neg_ratio")
        spec = gh_spec(0.5, 0.5, 1, 30)
        central_moments(spec, 1.2)
        central_moments(spec, 1.2)
        assert len(calls) == 1
        for other, x in [
            (spec, 0.4),  # x
            (OperatorSpec(family=spec.family, n=31), 0.4),  # n
            (OperatorSpec(family=spec.family, n=31, tol=1e-16), 0.4),  # tol
            (gh_spec(0.5, 0.5, 1, 31, tol=1e-16), 0.4),  # family
        ]:
            before = len(calls)
            central_moments(other, x)
            assert len(calls) == before + 1
        # tol enters the key as min(1e-15, tol): 1e-12 and 1e-13 are one key
        central_moments(OperatorSpec(family=spec.family, n=30, tol=1e-12), 1.2)
        central_moments(OperatorSpec(family=spec.family, n=30, tol=1e-13), 1.2)
        assert len(calls) == 6

    def test_an_evaluation_that_raises_stores_nothing(self, monkeypatch):
        spec = gh_spec(0.5, 0.5, 1, 30)
        central_moments(spec, 1.2)
        entry = spec.family._last_moments
        for x in (-1.0, -1e-300, math.nan, math.inf):
            # the closed form refuses x itself, before rho sees n*x
            with pytest.raises(DomainError, match="evaluation point"):
                central_moments(spec, x)
            assert spec.family._last_moments is entry
        original = engine._functionals

        def skewed(family):  # an omega2 coefficient that m2 does not share
            *head, skew2, s0, s1 = original(family)
            return (*head, skew2 + 1.0, s0, s1)

        monkeypatch.setattr(engine, "_functionals", skewed)
        with pytest.raises(TranscriptionError):
            central_moments(spec, 0.4)
        assert spec.family._last_moments is entry
        calls = self.counting(monkeypatch, "dunkl_exp_neg_ratio")
        assert central_moments(spec, 1.2).omega2 == entry[3][3]
        assert calls == []

    @pytest.mark.parametrize("name", BIT_FAMILIES)
    @pytest.mark.parametrize("mu", BIT_MUS)
    def test_stored_result_equals_a_fresh_family(self, mu, name):
        fam = bit_family(mu, name)
        for n in BIT_NS:
            spec = OperatorSpec(family=fam, n=n)
            for nx in BIT_NX:
                x = nx / n
                first = engine._closed_form(spec, x)
                hit = engine._closed_form(spec, x)
                assert hit is first is fam._last_moments[3]
                fresh = engine._closed_form(OperatorSpec(family=bit_family(mu, name), n=n), x)
                assert [(type(v), v.hex()) for v in hit] == [
                    (type(v), v.hex()) for v in fresh
                ], (n, x)

    # x is taken as float(x) + 0.0: each pair is one key, and every result
    # is a float whatever form x came in.
    @pytest.mark.parametrize(
        "a,b",
        [
            (0.0, -0.0),
            (-0.0, 0.0),
            (1, 1.0),
            (1.0, 1),
            (np.float64(1.3), 1.3),
            (1.3, np.float64(1.3)),
        ],
    )
    @pytest.mark.parametrize("name", ["unit", "gh(0.5,1)", "signed-zeros", "mixed-sign"])
    def test_one_key_per_value_of_x(self, name, a, b):
        for mu in (0.0, 0.5):
            for n in (1, 10):
                fam = bit_family(mu, name)
                spec = OperatorSpec(family=fam, n=n)
                engine._closed_form(spec, a)
                stored = fam._last_moments
                hit = engine._closed_form(spec, b)
                assert hit is stored[3]
                assert type(stored[1]) is float and math.copysign(1.0, stored[1]) == 1.0
                fresh = engine._closed_form(OperatorSpec(family=bit_family(mu, name), n=n), b)
                assert [(type(v), v.hex()) for v in hit] == [
                    (type(v), v.hex()) for v in fresh
                ], (mu, n)
                assert all(type(v) is float for v in hit)

    def test_two_threads_on_one_family_get_the_serial_values(self):
        # One point on each side of rho's crossover (n*x = 12 and 36).
        points = (0.4, 1.2)
        serial = {x: central_moments(gh_spec(0.5, 0.5, 1, 30), x) for x in points}
        spec = gh_spec(0.5, 0.5, 1, 30)
        got = [[], []]

        def alternate(k):
            for i in range(3000):
                x = points[(i + k) % 2]
                got[k].append((x, central_moments(spec, x)))

        threads = [threading.Thread(target=alternate, args=(k,)) for k in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in (0, 1):
            assert len(got[k]) == 3000
            for x, cm in got[k]:
                assert cm.omega1.hex() == serial[x].omega1.hex()
                assert cm.omega2.hex() == serial[x].omega2.hex()

    def test_functionals_built_once_per_family(self, monkeypatch):
        calls = self.counting(monkeypatch, "_parity_sums")
        coeffs = [1.0, 0.5, 0.25]
        spec = OperatorSpec(AppellFamily.from_coefficients(DunklContext(0.5), coeffs), 30)
        for x in (0.0, 0.5, 1.2):
            central_moments(spec, x)
            moments_closed(OperatorSpec(family=spec.family, n=7), x)
        assert len(calls) == 1
        # a new family
        central_moments(OperatorSpec(AppellFamily.from_coefficients(DunklContext(0.5), coeffs), 30), 1.2)
        assert len(calls) == 2
        # a Gould-Hopper family arrives with its jet: no pass at all
        central_moments(gh_spec(0.5, 0.5, 1, 30), 1.2)
        assert len(calls) == 2


class TestBitIdentity:
    """Q(1) and the parity sums equal, bit for bit, Horner's scheme and the
    dense pass in ``oracles``; the ten functionals from the sums agree with
    the dense pass that forms each directly, and the closed-form moments
    with the printed formulas at 50 digits, within their rounding counts."""

    @pytest.mark.parametrize("name", BIT_FAMILIES)
    @pytest.mark.parametrize("mu", BIT_MUS)
    def test_q1_and_functionals(self, mu, name):
        fam = bit_family(mu, name)
        coeffs = fam.Q.coeffs
        assert fam.Q_at_1.hex() == fam.Q.eval(1.0).hex() == horner_at_one(coeffs).hex()
        F = q_functionals(fam)
        assert [v.hex() for v in F] == [v.hex() for v in parity_sums_dense(coeffs)]
        # Each dense functional rounds at most N + 2 times over the N terms
        # of the support, each parity value N + 4 times, at most half an
        # ulp of the magnitude of the terms each time
        got, scale = parity(fam), parity_scale(fam)
        tol = (2 * len(fam.support) + 6) * EPS / 2
        for key, want in q_functionals_dense(coeffs, mu).items():
            assert abs(got[key] - want) <= tol * scale[key], key

    @pytest.mark.parametrize("name", BIT_FAMILIES)
    @pytest.mark.parametrize("mu", BIT_MUS)
    def test_closed_form(self, mu, name):
        mp = pytest.importorskip("mpmath")
        fam = bit_family(mu, name)
        with mp.workdps(50):
            for n in BIT_NS:
                spec = OperatorSpec(family=fam, n=n)
                for nx in BIT_NX:
                    assert_closed_form_within_rounding(spec, nx / n)

    def test_fresh_gould_hopper_sweep(self):
        # The far-field domain, a fresh family per point: mu in [0, 2], a in
        # (0, 1], d in {1, 2, 3}, n*x log-uniform in [1e3, 1e6], and every
        # tenth point at n*x in [0.5, 18], below rho's crossover (19 to 26
        # for mu in [1e-6, 2])
        from dunkl_appell import dunkl

        mp = pytest.importorskip("mpmath")
        rng = random.Random(25)
        with mp.workdps(50):
            for k in range(300):
                mu, a, d = rng.uniform(0.0, 2.0), 1.0 - rng.random(), rng.choice((1, 2, 3))
                nx = rng.uniform(0.5, 18.0) if k % 10 == 0 else 10.0 ** rng.uniform(3.0, 6.0)
                n = rng.randint(1_000, 1_000_000)
                x = nx / n
                if k % 10 == 0 and mu > 0.0:
                    assert not dunkl._expansion_exact(mu, n * x, 1e-15), (mu, nx)
                spec = gh_spec(mu, a, d, n)
                assert_closed_form_within_rounding(spec, x)
                cm = central_moments(spec, x)
                assert cm[:2] == engine._closed_form(spec, x)[2:], k

    def test_grid_straddles_rho_crossover(self, monkeypatch):
        from dunkl_appell import dunkl

        routes = {}
        for route in ("_ratio_series", "_ratio_expansion"):
            original = getattr(dunkl, route)

            def counted(mu, y, tol, route=route, original=original):
                routes.setdefault(mu, set()).add(route)
                return original(mu, y, tol)

            monkeypatch.setattr(dunkl, route, counted)
        fam = {mu: bit_family(mu, "unit") for mu in BIT_MUS}
        for mu in BIT_MUS:
            for nx in BIT_NX:
                exp_ratio(OperatorSpec(family=fam[mu], n=1), nx)
        for mu in BIT_MUS[1:]:
            assert routes[mu] == {"_ratio_series", "_ratio_expansion"}, mu


# The window kernel and apply's contraction against their frozen forms in
# ``oracles``: mu at 0, tiny and up to 3; n*x at 0, below 1 (no lower side),
# at 1 and up to 1e6; tolerances down to 1e-40, where the first block runs
# short and rows are redone.
KERNEL_MUS = [0.0, 1e-20, 0.5, 1.3, 3.0]
KERNEL_NX = [0.0, 1e-5, 0.5, 1.0, 2.0, 20.0, 600.0, 1e6]
KERNEL_TOLS = [1e-12, 5e-14, 1e-25, 1e-40]
KERNEL_FAMILIES = ["unit", "gh(0.5,1)", "sparse", "trailing-zero", "signed-zeros"]

# ``engine.ROWS`` for each form of apply's window sums: at 1 every cluster
# takes the array form, above every grid here the scalar one.
FORMS = {"array": 1, "scalar": 10**9}


def kernel_family(mu, name):
    if name == "sparse":  # Q = 1 + 0.5 t^4: a gap of 4 in its support
        return AppellFamily.from_coefficients(DunklContext(mu), [1.0, 0.0, 0.0, 0.0, 0.5])
    if name == "trailing-zero":  # a stored zero past the support's end
        return AppellFamily.from_coefficients(DunklContext(mu), [1.0, 0.5, 0.0])
    return bit_family(mu, name)


class TestKernelBitIdentity:
    """``AppellFamily.windows`` and ``apply`` equal, by ``float.hex``, the
    block kernel and the masked contraction frozen in ``oracles``."""

    @staticmethod
    def frozen(mu, n, xs, tols):
        return block_windows(mu, n, xs, tols, appell.MAX_WINDOW, appell.BATCH_TERMS)

    @pytest.mark.parametrize("mu", KERNEL_MUS)
    def test_point_windows(self, mu):
        fam = kernel_family(mu, "unit")
        redone = 0
        for nx in KERNEL_NX:
            for tol in KERNEL_TOLS:
                got = list(fam.windows(7, [nx / 7], [tol]))
                want = self.frozen(mu, 7, [nx / 7], [tol])
                assert batches_hex(got) == batches_hex(want), (nx, tol)
                ((window,),) = got
                redone += max(len(window[1]), len(window[2])) > 8.0 * math.sqrt(nx) + 41
        assert redone  # some first blocks ran short

    @pytest.mark.parametrize("mu", KERNEL_MUS)
    @pytest.mark.parametrize("tol", KERNEL_TOLS)
    def test_grid_windows(self, mu, tol):
        fam = kernel_family(mu, "unit")
        xs = [nx / 3 for nx in KERNEL_NX[::-1] + KERNEL_NX]
        got = list(fam.windows(3, xs, [tol] * len(xs)))
        assert batches_hex(got) == batches_hex(self.frozen(mu, 3, xs, [tol] * len(xs)))

    @pytest.mark.parametrize("mu", KERNEL_MUS)
    def test_batches_with_every_mode_at_zero(self, mu):
        fam = kernel_family(mu, "unit")
        xs = [0.0, 1e-5, 0.25, 0.5, 0.999]
        tols = [1e-12, 1e-40, 5e-14, 1e-25, 1e-12]
        got = list(fam.windows(1, xs, tols))
        assert all(not w[2].size for batch in got for w in batch)
        assert batches_hex(got) == batches_hex(self.frozen(mu, 1, xs, tols))

    @pytest.mark.parametrize("mu", KERNEL_MUS)
    def test_batches_split_by_batch_terms(self, mu, monkeypatch):
        monkeypatch.setattr(appell, "BATCH_TERMS", 600)
        fam = kernel_family(mu, "unit")
        xs = [k * 0.37 for k in range(60)]
        tols = [KERNEL_TOLS[k % 4] for k in range(60)]
        got = list(fam.windows(20, xs, tols))
        assert len(got) > 3
        assert batches_hex(got) == batches_hex(self.frozen(mu, 20, xs, tols))

    @pytest.mark.parametrize("mu", KERNEL_MUS)
    def test_window_past_int64_fails_as_any_other(self, mu, monkeypatch):
        monkeypatch.setattr(appell, "MAX_WINDOW", 1000)
        fam = kernel_family(mu, "unit")
        with pytest.raises(OverflowError):
            self.frozen(mu, 1, [2.0**64], [1e-12])
        with pytest.raises(TruncationFailureError, match="reached 1000 terms"):
            list(fam.windows(1, [1.0, 2.0**64], [1e-12, 1e-12]))

    @pytest.mark.parametrize("name", KERNEL_FAMILIES)
    @pytest.mark.parametrize("mu", KERNEL_MUS)
    def test_apply(self, mu, name, monkeypatch):
        fam = kernel_family(mu, name)
        f = lambda t: math.cos(3.0 * t) - 0.25
        for n in (1, 20):
            spec = OperatorSpec(family=fam, n=n)
            xs = [nx / n for nx in KERNEL_NX]
            tols = [engine._point_tol(spec, x) for x in xs]
            want = []
            for batch in self.frozen(mu, n, xs, tols):
                want += contract_masked(mu, n, fam.Q.coeffs, f, batch)
            for form, rows in FORMS.items():
                monkeypatch.setattr(engine, "ROWS", rows)
                got = apply(spec, f, xs)
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in want], (n, form)
                for x, v in zip(xs, want):
                    assert apply(spec, f, x).hex() == v.hex(), (n, x, form)

    @pytest.mark.parametrize("mu", KERNEL_MUS)
    def test_apply_where_windows_are_shorter_than_the_gap(self, mu, monkeypatch):
        # Q = 1 + 0.5 t^4 at n*x near 0: windows of one to three terms, so
        # the nodes a window reaches through Q's support leave holes
        fam = kernel_family(mu, "sparse")
        spec = OperatorSpec(family=fam, n=1)
        xs = [0.0, 1e-5, 0.2, 0.21, 3.0, 3.01, 9.0]
        tols = [engine._point_tol(spec, x) for x in xs]
        batches = self.frozen(mu, 1, xs, tols)
        assert any(len(w[1]) + len(w[2]) < 4 for batch in batches for w in batch)
        want = []
        for batch in batches:
            want += contract_masked(mu, 1, fam.Q.coeffs, math.sin, batch)
        for form, rows in FORMS.items():
            monkeypatch.setattr(engine, "ROWS", rows)
            got = apply(spec, math.sin, xs).tolist()
            assert [v.hex() for v in got] == [v.hex() for v in want], form
            assert [apply(spec, math.sin, x).hex() for x in xs] == [v.hex() for v in want], form

    @pytest.mark.parametrize("name", ["unit", "gh(0.5,1)", "sparse"])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.3])
    def test_a_grid_above_rows(self, mu, name):
        # the default ROWS: 129 dyadic points, one batch and cluster at n = 7,
        # several at n = 300, against the frozen forms and each point alone
        fam = kernel_family(mu, name)
        f = lambda t: math.cos(3.0 * t) - 0.25
        xs = [k / 64 for k in range(129)]
        assert len(xs) >= engine.ROWS
        for n in (7, 300):
            spec = OperatorSpec(family=fam, n=n)
            tols = [engine._point_tol(spec, x) for x in xs]
            want = []
            for batch in self.frozen(mu, n, xs, tols):
                want += contract_masked(mu, n, fam.Q.coeffs, f, batch)
            got = [v.hex() for v in apply(spec, f, xs).tolist()]
            assert got == [v.hex() for v in want], n
            assert got == [apply(spec, f, x).hex() for x in xs], n

    @pytest.mark.parametrize("mu", [0.0, 0.7])
    @pytest.mark.parametrize("start", [0, 1, 6, 7])
    def test_nodes(self, mu, start):
        spec = unit_spec(mu, 7)
        i = np.arange(start, start + 9)
        want = (i + 2.0 * mu * (i & 1)) / 7 if mu else i / 7
        got = nodes(spec, 9, start)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


class TestApplyProperty:
    """On drawn grids (unsorted, with duplicates, x = 0, windows far apart,
    n*x up to 1e6) of the sparse generator, with a tolerance that can make a
    side run past its first block, apply equals the frozen block kernel and
    masked contraction, and each grid value the value at that point alone,
    by ``float.hex``."""

    @given(
        mu=st.sampled_from([0.0, 0.5, 1.3]),
        n=st.integers(min_value=1, max_value=1000),
        nxs=st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 1e3), st.floats(1e3, 1e6)),
            min_size=1, max_size=5,
        ),
        repeats=st.integers(min_value=0, max_value=2),
        tol=st.sampled_from([1e-12, 1e-40]),
    )
    @example(mu=0.5, n=1, nxs=[800.0, 0.0, 3.0, 1e6], repeats=2, tol=1e-40)
    @settings(derandomize=True, max_examples=30, deadline=None)
    def test_apply_equals_the_frozen_kernel_and_each_point(self, mu, n, nxs, repeats, tol):
        fam = kernel_family(mu, "sparse")
        spec = OperatorSpec(family=fam, n=n, tol=tol)
        xs = [nx / n for nx in nxs]
        xs += xs[:repeats]  # duplicates
        f = lambda t: math.cos(3.0 * t) - 0.25
        tols = [engine._point_tol(spec, x) for x in xs]
        want = []
        for batch in block_windows(mu, n, xs, tols, appell.MAX_WINDOW, appell.BATCH_TERMS):
            want += contract_masked(mu, n, fam.Q.coeffs, f, batch)
        for form, rows in FORMS.items():  # each grid through both forms
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "ROWS", rows)
                got = [v.hex() for v in apply(spec, f, xs).tolist()]
                assert got == [v.hex() for v in want], form
                assert got == [apply(spec, f, x).hex() for x in xs], form

    def test_example_takes_a_second_pass(self):
        # the explicit example's n*x = 800 at tol 1e-40 runs past 8 sqrt(800) + 40
        spec = OperatorSpec(family=kernel_family(0.5, "sparse"), n=1, tol=1e-40)
        (window,) = next(spec.family.windows(1, [800.0], [engine._point_tol(spec, 800.0)]))
        assert max(len(window[1]), len(window[2])) > 8.0 * math.sqrt(800.0) + 41


class TestTargetValuesPassThrough:
    """f's values are read as numpy reads floats, and whatever f or that
    reading raises passes through, on a float and on a grid alike."""

    @pytest.mark.parametrize("x", [1.0, [0.5, 1.0]])
    def test_what_reading_a_value_raises_passes_through(self, x):
        spec = unit_spec(0.5, 20)
        with pytest.raises(ValueError, match="could not convert string to float: 'abc'"):
            apply(spec, lambda t: "abc", x)
        with pytest.raises(TypeError, match="complex"):
            apply(spec, lambda t: 1j, x)
        with pytest.raises(ZeroDivisionError):
            apply(spec, lambda t: 1.0 / 0.0, x)

    @pytest.mark.parametrize("x", [1.0, [0.5, 1.0]])
    def test_none_reads_as_nan(self, x):
        with pytest.raises(EvaluationError, match="non-finite value nan at node 0.0$"):
            apply(unit_spec(0.5, 20), lambda t: None, x)

    @pytest.mark.parametrize("x", [1.0, [0.5, 1.0]])
    def test_a_numeric_str_reads_as_its_number(self, x):
        spec = unit_spec(0.5, 20)
        got = np.asarray(apply(spec, lambda t: "1.5", x))
        assert got.tobytes() == np.asarray(apply(spec, lambda t: 1.5, x)).tobytes()


class TestSumPastDoubleRange:
    """K f is a convex combination of f's values; finite values whose
    weighted sum overflows raise RangeError, not a silent inf."""

    @pytest.mark.parametrize("family", ["gh(0.5,1)", "unit"])
    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_one_point(self, mu, family):
        spec = OperatorSpec(family=kernel_family(mu, family), n=50)
        with pytest.raises(RangeError, match=r"n=50, x=1\.0"):
            apply(spec, lambda t: 1.7e308, 1.0)

    @pytest.mark.parametrize("family", ["gh(0.5,1)", "unit"])
    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_grid_names_the_first_point(self, mu, family):
        spec = OperatorSpec(family=kernel_family(mu, family), n=50)
        with pytest.raises(RangeError, match=r"n=50, x=0\.5"):
            apply(spec, lambda t: 1.7e308, [0.5, 1.0])

    def test_finite_sums_keep_their_bits(self):
        spec = OperatorSpec(family=kernel_family(0.5, "gh(0.5,1)"), n=50)
        tols = [engine._point_tol(spec, 1.0)]
        (batch,) = block_windows(0.5, 50, [1.0], tols, appell.MAX_WINDOW, appell.BATCH_TERMS)
        (want,) = contract_masked(0.5, 50, spec.family.Q.coeffs, lambda t: 1e300, batch)
        assert apply(spec, lambda t: 1e300, 1.0).hex() == want.hex()

    def test_non_finite_value_still_names_its_node(self):
        spec = unit_spec(0.0, 50)
        with pytest.raises(EvaluationError, match="node"):
            apply(spec, lambda t: math.inf if t > 1.0 else 1e308, 1.0)


class TestBadPointInAGridAboveRows:
    """A grid of more than ``engine.ROWS`` points, which takes the array
    form, raises at a bad point the error, and the message, that the point
    raises alone."""

    @staticmethod
    def raised(spec, f, x):
        with pytest.raises(Exception) as caught:
            apply(spec, f, x)
        return type(caught.value), str(caught.value)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, -math.inf])
    def test_point(self, bad):
        spec = gh_spec(0.5, 0.5, 1, 20)
        xs = [k / 64 for k in range(129)]
        assert len(xs) > engine.ROWS
        xs[-5] = bad
        got = self.raised(spec, math.sin, xs)
        assert got[0] is DomainError
        assert got == self.raised(spec, math.sin, bad)

    def test_non_finite_value_of_f(self):
        spec = gh_spec(0.5, 0.5, 1, 20)  # node 1.0 is index 20, even
        f = lambda t: math.inf if t == 1.0 else math.sin(t)
        xs = [k / 64 for k in range(129)]
        got = self.raised(spec, f, xs)
        assert got[0] is EvaluationError and "node 1.0" in got[1]
        assert got == self.raised(spec, f, 1.0)

    def test_sum_past_double_range(self):
        spec = gh_spec(0.5, 0.5, 1, 20)
        xs = [0.75 + k / 64 for k in range(129)]
        got = self.raised(spec, lambda t: 1.7e308, xs)
        assert got[0] is RangeError and "x=0.75" in got[1]
        assert got == self.raised(spec, lambda t: 1.7e308, 0.75)


class TestTermsPastDoubleRange:
    """Where 2*mu is large against n*x the weights peak near (n*x)**2/(2 mu),
    far below the window's anchor floor(n*x), and the lower side's terms
    grow on the way there.  Terms that leave double range before the side's
    bound is met raise RangeError; they used to end the side at the mode,
    so apply(t) read 1909 at mu = 1e4, n*x = 1e3, where m1 is 1000."""

    @pytest.mark.parametrize("mu, nx", [(1e4, 1e3), (1e5, 1e4)])
    def test_every_entry_raises(self, mu, nx):
        fam = kernel_family(mu, "unit")
        where = rf"mu={mu}, n=1, x={nx}\)"
        with pytest.raises(RangeError, match=where):
            list(fam.windows(1, [1.0, nx], [1e-12, 1e-12]))
        with pytest.raises(RangeError, match=where):
            fam.weights(1, nx)
        with pytest.raises(RangeError, match=where):
            apply(OperatorSpec(family=fam, n=1), lambda t: t, [1.0, nx])

    @pytest.mark.parametrize("mu, nx", [(1e3, 1e3), (1e4, 1e2)])
    def test_windows_that_stay_in_range_keep_their_bits(self, mu, nx):
        fam = kernel_family(mu, "unit")
        spec = OperatorSpec(family=fam, n=1)
        tols = [engine._point_tol(spec, nx)]
        (batch,) = block_windows(mu, 1, [nx], tols, appell.MAX_WINDOW, appell.BATCH_TERMS)
        assert batches_hex(fam.windows(1, [nx], tols)) == batches_hex([batch])
        (want,) = contract_masked(mu, 1, fam.Q.coeffs, lambda t: t, batch)
        got = apply(spec, lambda t: t, nx)
        assert got.hex() == want.hex()
        assert got == pytest.approx(central_moments(spec, nx).omega1 + nx, rel=1e-12)


class TestNodes:
    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.49])
    def test_strictly_increasing_below_half(self, mu):
        spec = unit_spec(mu, 7)
        ns = nodes(spec, 60)
        assert all(b > a for a, b in zip(ns, ns[1:]))

    def test_start_index_selects_a_slice(self):
        spec = unit_spec(0.7, 7)
        assert np.array_equal(nodes(spec, 5, 10), nodes(spec, 15)[10:])

    def test_interleaving_breaks_at_half(self):
        # for mu >= 1/2 the odd nodes overtake the next even ones, so the
        # monotonicity property is specific to mu < 1/2
        spec = unit_spec(0.7, 7)
        ns = nodes(spec, 10)
        assert ns[1] > ns[2]


class TestConvergence:
    def test_sup_error_decreases_with_n(self):
        spec_for = lambda n: unit_spec(0.5, n)
        xs = [k * 0.2 for k in range(11)]
        sups = []
        for n in (5, 10, 20):
            spec = spec_for(n)
            sups.append(max(abs(apply(spec, lambda t: t * t, x) - x * x) for x in xs))
        assert sups[2] < sups[1] < sups[0]
