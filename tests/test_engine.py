import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

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
    closed_form_printed,
    contract_masked,
    emu_brute,
    gould_hopper_functionals,
    horner_at_one,
    q_functionals_dense,
)

EPS = 2.0**-52
# For each functional at -1, the one at +1 whose terms are its terms' absolute
# values when the coefficients are nonnegative.
AT_PLUS_ONE = {"qm1": "q1", "dqm1": "dq1", "lqm1": "lq1"}


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

    def test_largest_scale_below_double_range(self):
        n = 2**1024 - 2**970 - 1  # float(n) rounds down to the largest double
        assert central_moments(unit_spec(0.5, n), 1.0).omega2 == 1.0 / float(n)

    @pytest.mark.parametrize("n", [np.int64(10), np.int32(10), np.uint8(10)])
    def test_numpy_integer_scale_is_the_equal_int(self, n):
        spec, ref = gh_spec(0.5, 0.5, 1, n), gh_spec(0.5, 0.5, 1, 10)
        assert type(spec.n) is int and spec.n == 10
        assert central_moments(spec, 0.7) == central_moments(ref, 0.7)
        assert apply(spec, math.sin, 0.7) == apply(ref, math.sin, 0.7)


class TestQFunctionals:
    def test_unit_family(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.9), [1.0])
        F = q_functionals(fam)
        assert F.q1 == 1.0 and F.qm1 == 1.0
        for name in ("dq1", "dqm1", "ddq1", "lq1", "lqm1", "dlq1", "ldq1", "llq1"):
            assert getattr(F, name) == 0.0

    def test_gould_hopper_closed_forms(self):
        # Q = exp(t^2 / 2): Q(1) = Q(-1) = Q'(1) = sqrt(e)
        fam = AppellFamily.gould_hopper(DunklContext(0.0), 0.5, 1)
        F = q_functionals(fam)
        root_e = math.exp(0.5)
        assert abs(F.q1 - root_e) <= 1e-12 * root_e
        assert abs(F.qm1 - root_e) <= 1e-12 * root_e
        assert abs(F.dq1 - root_e) <= 1e-12 * root_e
        # Q'' = (1 + t^2) exp(t^2/2) at 1 is 2 sqrt(e)
        assert abs(F.ddq1 - 2.0 * root_e) <= 1e-12 * root_e

    def test_dunkl_value_matches_difference_quotient(self):
        mu = 0.8
        ctx = DunklContext(mu)
        rng = random.Random(7)
        for _ in range(10):
            coeffs = [rng.uniform(0.1, 1.0) for _ in range(rng.randint(1, 9))]
            fam = AppellFamily(ctx, PowerSeries(ctx, coeffs))
            F = q_functionals(fam)
            expected = F.dq1 + mu * (F.q1 - F.qm1)
            assert abs(F.lq1 - expected) <= 1e-12 * max(1.0, abs(expected))


class TestRecords:
    """QFunctionals and CentralMoments are immutable named tuples whose
    fields keep their names and order."""

    def test_fields_in_order(self):
        assert QFunctionals._fields == (
            "q1", "qm1", "dq1", "dqm1", "ddq1", "lq1", "lqm1", "dlq1", "ldq1", "llq1"
        )
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

    @pytest.mark.parametrize("name", ["q1", "omega2", "extra"])
    def test_refuse_attribute_assignment(self, name):
        spec = gh_spec(0.5, 0.5, 1, 20)
        for record in (q_functionals(spec.family), central_moments(spec, 0.7)):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)


class TestQFunctionalsPass:
    """The one-pass functionals against the series transforms and oracles."""

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
        F = q_functionals(fam)
        ref = self.composed(fam.Q)
        # Sum of |terms| of each functional: the +1 functional of |Q|.
        scale = self.composed(PowerSeries(fam.ctx, map(abs, fam.Q.coeffs)))
        for name in ref:
            bound = 4 * EPS * scale[AT_PLUS_ONE.get(name, name)]
            assert abs(getattr(F, name) - ref[name]) <= bound, (name, len(fam.Q))

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
        # measured (7.4 eps at a = 50).  The cut tail adds under half an ulp.
        F = q_functionals(AppellFamily.gould_hopper(DunklContext(mu), a, d))
        exact = gould_hopper_functionals(mu, a, d)
        assert set(exact) == set(QFunctionals._fields)
        for name, value in exact.items():
            bound = 4 * math.sqrt(a + 1.0) * EPS * exact[AT_PLUS_ONE.get(name, name)]
            assert abs(getattr(F, name) - value) <= bound, name

    def test_overflow_raises_range_error(self):
        ctx = DunklContext(5.0)
        fam = AppellFamily(ctx, PowerSeries(ctx, [1.0, 1e308]))
        with pytest.raises(RangeError, match="Q-functional"):
            q_functionals(fam)


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
        # diff > bound is False for NaN, so a NaN omega2 used to pass
        monkeypatch.setattr(engine, "dunkl_exp_neg_ratio", lambda *a, **k: math.nan)
        with pytest.raises(TranscriptionError):
            central_moments(gh_spec(0.5, 0.5, 1, 30), 1.2)


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

        def skewed(family):  # an 'odd' coefficient that m2 does not share
            F, curv, const, lead, odd, skew = original(family)
            return F, curv, const, lead, odd + 1.0, skew

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
        calls = self.counting(monkeypatch, "q_functionals")
        spec = gh_spec(0.5, 0.5, 1, 30)
        for x in (0.0, 0.5, 1.2):
            central_moments(spec, x)
            moments_closed(OperatorSpec(family=spec.family, n=7), x)
        assert len(calls) == 1
        central_moments(gh_spec(0.5, 0.5, 1, 30), 1.2)  # a new family
        assert len(calls) == 2


class TestBitIdentity:
    """Q(1), the Q-functionals and the closed-form moments equal, bit for
    bit, Horner's scheme, the dense functional pass and the printed
    formulas in ``oracles``."""

    @staticmethod
    def dense(fam):
        q1 = horner_at_one(fam.Q.coeffs)
        return QFunctionals(q1, **q_functionals_dense(fam.Q.coeffs, fam.ctx.mu))

    @pytest.mark.parametrize("name", BIT_FAMILIES)
    @pytest.mark.parametrize("mu", BIT_MUS)
    def test_q1_and_functionals(self, mu, name):
        fam = bit_family(mu, name)
        ref = self.dense(fam)
        assert fam.Q_at_1.hex() == fam.Q.eval(1.0).hex() == ref.q1.hex()
        F = q_functionals(fam)
        for name in QFunctionals._fields:
            assert getattr(F, name).hex() == getattr(ref, name).hex(), name

    @pytest.mark.parametrize("name", BIT_FAMILIES)
    @pytest.mark.parametrize("mu", BIT_MUS)
    def test_closed_form(self, mu, name):
        fam = bit_family(mu, name)
        ref = self.dense(fam)
        for n in BIT_NS:
            spec = OperatorSpec(family=fam, n=n)
            for nx in BIT_NX:
                x = nx / n
                got = engine._closed_form(spec, x)
                want = closed_form_printed(ref, mu, n, x, exp_ratio(spec, x))
                assert [v.hex() for v in got] == [v.hex() for v in want], (n, x)

    def test_fresh_gould_hopper_sweep(self):
        # The far-field domain, a fresh family per point: mu in [0, 2], a in
        # (0, 1], d in {1, 2, 3}, n*x log-uniform in [1e3, 1e6], and every
        # tenth point at n*x in [0.5, 18], below rho's crossover (19 to 26
        # for mu in [1e-6, 2])
        from dunkl_appell import dunkl

        rng = random.Random(25)
        for k in range(300):
            mu, a, d = rng.uniform(0.0, 2.0), 1.0 - rng.random(), rng.choice((1, 2, 3))
            nx = rng.uniform(0.5, 18.0) if k % 10 == 0 else 10.0 ** rng.uniform(3.0, 6.0)
            n = rng.randint(1_000, 1_000_000)
            x = nx / n
            if k % 10 == 0 and mu > 0.0:
                assert not dunkl._expansion_exact(mu, n * x, 1e-15), (mu, nx)
            spec = gh_spec(mu, a, d, n)
            ref = self.dense(spec.family)
            want = closed_form_printed(ref, mu, n, x, exp_ratio(spec, x))[2:]
            cm = central_moments(spec, x)
            got = [cm.omega1.hex(), cm.omega2.hex()]
            assert got == [v.hex() for v in want], (k, mu, a, d, n, x)

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
    def test_apply(self, mu, name):
        fam = kernel_family(mu, name)
        f = lambda t: math.cos(3.0 * t) - 0.25
        for n in (1, 20):
            spec = OperatorSpec(family=fam, n=n)
            xs = [nx / n for nx in KERNEL_NX]
            tols = [engine._point_tol(spec, x) for x in xs]
            want = []
            for batch in self.frozen(mu, n, xs, tols):
                want += contract_masked(mu, n, fam.Q.coeffs, f, batch)
            got = apply(spec, f, xs)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want], n
            for x, v in zip(xs, want):
                assert apply(spec, f, x).hex() == v.hex(), (n, x)

    @pytest.mark.parametrize("mu", KERNEL_MUS)
    def test_apply_where_windows_are_shorter_than_the_gap(self, mu):
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
        assert [v.hex() for v in apply(spec, math.sin, xs).tolist()] == [v.hex() for v in want]

    @pytest.mark.parametrize("mu", [0.0, 0.7])
    @pytest.mark.parametrize("start", [0, 1, 6, 7])
    def test_nodes(self, mu, start):
        spec = unit_spec(mu, 7)
        i = np.arange(start, start + 9)
        want = (i + 2.0 * mu * (i & 1)) / 7 if mu else i / 7
        got = nodes(spec, 9, start)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


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
