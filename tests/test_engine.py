import math

import numpy as np
import pytest

from dunkl_appell import (
    AppellFamily,
    DomainError,
    DunklContext,
    EvaluationError,
    OperatorSpec,
    PowerSeries,
    apply,
    central_moments,
    central_moments_series,
    moments_closed,
    q_functionals,
)
from dunkl_appell import engine
from dunkl_appell.engine import exp_ratio, nodes

from oracles import emu_brute


def unit_spec(mu, n, **kw):
    fam = AppellFamily.from_coefficients(DunklContext(mu), [1.0])
    return OperatorSpec(family=fam, n=n, **kw)


def gh_spec(mu, a, d, n, **kw):
    fam = AppellFamily.gould_hopper(DunklContext(mu), a, d, degree_cap=48)
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


class TestOperatorSpec:
    @pytest.mark.parametrize(
        "n, tol", [(0, 1e-12), (1, 0.0), (1, -1e-12), (1, math.inf), (1, math.nan)]
    )
    def test_rejects_bad_scale_and_tolerance(self, n, tol):
        with pytest.raises(DomainError):
            unit_spec(0.5, n, tol=tol)


class TestQFunctionals:
    def test_unit_family(self):
        fam = AppellFamily.from_coefficients(DunklContext(0.9), [1.0])
        F = q_functionals(fam)
        assert F.q1 == 1.0 and F.qm1 == 1.0
        for name in ("dq1", "dqm1", "ddq1", "lq1", "lqm1", "dlq1", "ldq1", "llq1"):
            assert getattr(F, name) == 0.0

    def test_gould_hopper_closed_forms(self):
        # Q = exp(t^2 / 2): Q(1) = Q(-1) = Q'(1) = sqrt(e)
        fam = AppellFamily.gould_hopper(DunklContext(0.0), 0.5, 1, degree_cap=48)
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
        import random

        rng = random.Random(7)
        for _ in range(10):
            coeffs = [rng.uniform(0.1, 1.0) for _ in range(rng.randint(1, 9))]
            fam = AppellFamily(ctx, PowerSeries(ctx, coeffs))
            F = q_functionals(fam)
            expected = F.dq1 + mu * (F.q1 - F.qm1)
            assert abs(F.lq1 - expected) <= 1e-12 * max(1.0, abs(expected))


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

    def test_functionals_built_once_per_family(self, monkeypatch):
        calls = self.counting(monkeypatch, "q_functionals")
        spec = gh_spec(0.5, 0.5, 1, 30)
        for x in (0.0, 0.5, 1.2):
            central_moments(spec, x)
            moments_closed(OperatorSpec(family=spec.family, n=7), x)
        assert len(calls) == 1
        central_moments(gh_spec(0.5, 0.5, 1, 30), 1.2)  # a new family
        assert len(calls) == 2


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
