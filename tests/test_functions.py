import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_appell import ConfigurationError, lookup
from dunkl_appell.functions import BUILTIN_REGISTRY
from dunkl_appell.bounds import modulus1, modulus2

REQUIRED = {"const1", "id", "square", "sinx", "cosx", "sqrtx", "expnegx"}


def test_registry_contains_required_catalog():
    assert REQUIRED <= set(BUILTIN_REGISTRY)


def test_lookup_unknown_name():
    with pytest.raises(ConfigurationError, match="nosuch"):
        lookup("nosuch")


@pytest.mark.parametrize("name", sorted(REQUIRED))
def test_metadata_shape(name):
    e = lookup(name)
    assert callable(e.evaluator)
    if e.sup_norm is not None:
        assert e.sup_norm is not None and e.sup_norm >= 0.0
    if e.holder is not None:
        M, beta = e.holder
        assert M > 0.0 and 0.0 < beta <= 1.0


@pytest.mark.parametrize(
    "name,delta", [("sinx", 0.3), ("cosx", 0.3), ("expnegx", 0.4), ("sqrtx", 0.25), ("id", 0.5)]
)
def test_analytic_modulus_dominates_grid_estimate(name, delta):
    # grid search lower-bounds the true modulus; the analytic value must
    # sit above it but within the grid resolution slack
    e = lookup(name)
    est = modulus1(e.evaluator, delta, (0.0, 8.0), grid_step=1e-3)
    w = e.analytic_modulus(delta)
    assert est <= w + 1e-12
    assert w <= est + 5e-3


@pytest.mark.parametrize(
    "name,s", [("sinx", 0.3), ("cosx", 0.3), ("expnegx", 0.3), ("square", 0.2), ("sqrtx", 0.2)]
)
def test_analytic_second_modulus_dominates_grid_estimate(name, s):
    e = lookup(name)
    est = modulus2(e.evaluator, s, (0.0, 8.0), grid_step=1e-3)
    w2 = e.analytic_modulus2(s)
    assert est <= w2 + 1e-12
    assert w2 <= est + 5e-3


@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=1e-3, max_value=50.0),
)
@settings(max_examples=200)
def test_square_window_modulus_is_the_sup_on_the_window(u, v, b):
    # |u^2 - v^2| over u, v in [0, b] with |u - v| <= d, attained at (b - d, b);
    # b*b - (b - d)**2 cancels, so it is exact only to a few ulps of b*b
    w = lookup("square").window_modulus
    u, v = min(u, b), min(v, b)
    d = abs(u - v)
    assert abs(u * u - v * v) <= w(d, b) * (1.0 + 1e-12)
    assert w(d, b) == pytest.approx(b * b - (b - d) ** 2, abs=1e-14 * b * b)
    assert w(2.0 * b, b) == b * b


@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=200)
def test_sqrt_hoelder_pair_is_valid(u, v):
    M, beta = lookup("sqrtx").holder
    assert abs(math.sqrt(u) - math.sqrt(v)) <= M * abs(u - v) ** beta + 1e-12


@given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=200)
def test_lipschitz_pairs_are_valid(u, v):
    for name in ("sinx", "cosx", "expnegx", "id"):
        e = lookup(name)
        M, beta = e.holder
        assert abs(e.evaluator(u) - e.evaluator(v)) <= M * abs(u - v) ** beta + 1e-12


def test_sup_norms():
    for name in ("sinx", "cosx", "expnegx", "const1"):
        e = lookup(name)
        for t in (0.0, 0.5, 3.0, 30.0):
            assert abs(e.evaluator(t)) <= e.sup_norm + 1e-15
