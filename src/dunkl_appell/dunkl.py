"""Scalar Dunkl primitives.

The building blocks are the generalized factorial sequence ``gamma_mu``,
defined with the parity theta(i) = i & 1 (0 for even i, 1 for odd) by

    gamma_mu(0) = 1,    gamma_mu(i+1) = (i+1 + 2*mu*theta(i+1)) * gamma_mu(i),

and the generalized exponential

    e_mu(x) = sum_i x**i / gamma_mu(i),

which reduces to exp(x) at mu = 0.  The factorial-like growth of gamma_mu
rules out evaluating it through gamma-function quotients at runtime (they
overflow near index 170); series terms are generated by the ratio recurrence

    term(i+1) = term(i) * x / (i+1 + 2*mu*theta(i+1)),

which never materializes gamma_mu itself.

The ratio rho(y) = e_mu(-y)/e_mu(y) that the moment formulas consume has its
own routes (see ``dunkl_exp_neg_ratio``): exp(-2y) at mu = 0, else a series
of positive terms below the least y at which a large-argument Bessel
expansion's own error bounds meet tol, and that expansion from there on.  No
route subtracts quantities much larger than rho, so rho keeps its relative
accuracy for every y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, RangeError

# Terms of e_mu decay superexponentially once the index passes |x|; this cap
# is far beyond any stopping point reachable within double range.
_MAX_EXP_TERMS = 20_000

_EPS = 2.220446049250313e-16
# Scale applied to the positive series' sums when they grow large; they only
# enter through their quotient.
_RESCALE = 1e280


class DunklContext:
    """The validated parameter mu: a finite real mu >= 0, the domain of the
    paper's operators (-0.0 counts as 0).

    A context holds nothing but mu, so it may be shared between threads.
    """

    __slots__ = ("mu",)

    def __init__(self, mu: float):
        self.mu = _nonnegative_real("mu", mu)

    def __repr__(self):
        return f"DunklContext(mu={self.mu!r})"


# The real rule's three forms: its flag positive indexes the first two, and
# the third is its flag signed.
_RULES = ("a finite real >= 0", "finite and positive", "a finite real")


def _nonnegative_real(name: str, value, positive: bool = False, signed: bool = False) -> float:
    """value as a float that is finite and >= 0 (> 0 if positive, of either
    sign if signed), else DomainError, also for a value that float()
    refuses (None, or a str it cannot read)."""
    try:
        x = float(value)
    except OverflowError:  # an int past double range
        x = math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        rule = _RULES[2 if signed else positive]
        raise DomainError(f"{name} must be {rule}, got {value!r}") from None
    if not 0.0 <= x < math.inf or positive and not x:
        if not (signed and -math.inf < x < math.inf):
            raise DomainError(f"{name} must be {_RULES[2 if signed else positive]}, got {x}")
    return x


@dataclass(frozen=True)
class ExpEvaluation:
    """Result of a truncated e_mu evaluation.

    tail_bound is a geometric estimate of the absolute truncation error,
    valid because past the stopping index the term ratio |x|/(i+1+2*mu*theta)
    is below one and shrinking.
    """

    value: float
    terms_used: int
    tail_bound: float


def _sum_series(mu: float, x: float, tol: float) -> ExpEvaluation:
    """Sum the e_mu series at x with Neumaier-compensated accumulation.

    Stops once |term| < tol * |partial sum| holds for 3 consecutive terms
    with index past |x|: before that index the terms may still be growing,
    so a single small-term test would truncate prematurely for large |x|.
    """
    term = 1.0
    total = 1.0
    comp = 0.0  # Neumaier compensation
    small_streak = 0
    abs_x = abs(x)
    i = 0
    while i < _MAX_EXP_TERMS:
        i += 1
        term = term * x / (i + 2.0 * mu * (i & 1))
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        if not math.isfinite(total):
            raise RangeError(f"e_mu({x}) overflows double range at term {i}")
        if i > abs_x and abs(term) < tol * abs(total + comp):
            small_streak += 1
            if small_streak >= 3:
                break
        else:
            small_streak = 0
    else:
        raise RangeError(f"e_mu series did not settle within {_MAX_EXP_TERMS} terms")
    value = total + comp
    # Subsequent denominators are at least i+1.
    ratio = abs_x / (i + 1.0)
    tail = abs(term) * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    return ExpEvaluation(value=value, terms_used=i + 1, tail_bound=tail)


def dunkl_exp(ctx: DunklContext, x: float, tol: float = 1e-15) -> ExpEvaluation:
    """Evaluate e_mu(x) by truncated series summation.

    For mu = 0 and x < 0 the series is exp(x) and is evaluated as the
    reciprocal of the positive-argument sum: the alternating sum loses
    relative accuracy to cancellation (absolute error on the order of
    machine epsilon times exp(|x|)), while the reciprocal stays correct to
    a few ulps.  No such identity exists for mu != 0, where the alternating
    sum is used and the same absolute-error behavior applies.  The ratio
    e_mu(-y)/e_mu(y) does not go through this function: see
    ``dunkl_exp_neg_ratio``.  x, a finite real, and tol, finite and
    positive, are read by ``_nonnegative_real``.
    """
    x = _nonnegative_real("e_mu argument", x, signed=True)
    tol = _nonnegative_real("tolerance", tol, positive=True)
    if x == 0.0:
        return ExpEvaluation(value=1.0, terms_used=1, tail_bound=0.0)
    if ctx.mu == 0.0 and x < 0.0:
        pos = _sum_series(0.0, -x, tol)
        value = 1.0 / pos.value
        return ExpEvaluation(
            value=value,
            terms_used=pos.terms_used,
            tail_bound=pos.tail_bound * value * value,
        )
    return _sum_series(ctx.mu, x, tol)


def _ratio_series(mu: float, y: float, tol: float) -> float:
    """rho as a quotient of two confluent hypergeometric series.

    The Kummer form of the Dunkl exponential, e_mu(x) = e^{-x} M(mu+1, 2mu+1, 2x),
    gives rho = M(mu, 2mu+1, 2y) / M(mu+1, 2mu+1, 2y).  The k-th term of the
    numerator is the denominator's k-th term times mu/(mu+k), so one
    recurrence drives both sums, and every term is positive.

    The term ratio decreases in k, so once it is below one the remaining
    tail is bounded by a geometric series; the numerator's tail is a smaller
    share of its sum than the denominator's, because its weights mu/(mu+k)
    decrease in k.
    """
    z = 2.0 * y
    a = mu + 1.0
    b = 2.0 * mu + 1.0
    term = num = den = 1.0
    k = 0.0
    while True:
        ratio = (a + k) * z / ((b + k) * (k + 1.0))
        if ratio < 1.0 and term * ratio < tol * (1.0 - ratio) * den:
            return num / den
        term *= ratio
        k += 1.0
        den += term
        num += term * mu / (mu + k)
        if den > _RESCALE:
            term /= _RESCALE
            num /= _RESCALE
            den /= _RESCALE


def _ratio_expansion(mu: float, y: float, tol: float) -> float:
    """rho from the large-argument expansion of I_{mu-1/2} and I_{mu+1/2}.

    Rosenblum's Bessel form of e_mu gives
    rho = (I_{mu-1/2}(y) - I_{mu+1/2}(y)) / (I_{mu-1/2}(y) + I_{mu+1/2}(y)).
    By DLMF 10.40.1 the k-th term of e^{-y} sqrt(2 pi y) I_nu(y) is
    (-1)^k prod_{j<=k} (4nu^2 - (2j-1)^2) / (k! (8y)^k).  Built from mu, the
    j-th factor is 4(mu-j)(mu+j-1) for nu = mu-1/2 and 4(mu-j+1)(mu+j) for
    nu = mu+1/2, so with

        g_k = (-1)^k mu prod_{0<j<k} (mu-j)(mu+j) / (k! (2y)^k)

    the k-th terms (k >= 1) of the two expansions are (mu-k) g_k and
    (mu+k) g_k, and both 0-th terms are 1.  Their difference -2k g_k and
    sum 2mu g_k are formed exactly, so the difference of the two Bessel
    functions never comes from cancellation.  Every g_k carries the factor
    mu, so small mu keeps its digits.

    Requires ``_expansion_exact(mu, y, tol)``.  The term ratio
    (k - mu)(k + mu)/((k+1) 2y) grows with k once k passes mu, so terms that
    then stop shrinking before they fall below tol never will: that raises
    ``RangeError`` instead of running on to NaN.
    """
    two_y = 2.0 * y  # the ratios below drop to 0 where (k + 1) * 2y overflows
    g = -(0.5 * mu) / y  # -mu / (2y) bit for bit wherever 2y is finite
    num = -g  # sum of -k g_k
    den = 1.0 + mu * g  # sum of mu g_k, plus 1
    k = 1.0
    # k, mu > 0, so k |g| and mu |g| are |k g| and |mu g| bit for bit
    while k * (ag := abs(g)) > tol * abs(num) or mu * ag > tol * abs(den):
        factor = (k - mu) * (k + mu)
        scale = (k + 1.0) * two_y
        if k > mu and factor >= scale:
            raise RangeError(
                f"rho's large-argument expansion diverges at y={y} (mu={mu}) "
                f"before its terms fall below tol={tol}"
            )
        g *= factor / scale
        k += 1.0
        num -= k * g
        den += mu * g
    return num / den


def _expansion_exact(mu: float, y: float, tol: float) -> bool:
    """Whether ``_ratio_expansion`` reaches relative accuracy tol at y,
    decided without overflow at every finite y > 0 and mu > 0.  Two bounds,
    both met from some y_c(mu, tol) on:

    * The terms do not grow after the first while k < mu: their ratios
      (mu**2 - k**2)/((k+1) 2y) decrease in k there, so the first,
      (mu**2 - 1)/(4y), must be at most one (it is not where mu**2
      overflows).  The terms' magnitudes then sum to about
      exp(mu**2/y) <= e**4 times the sum, which bounds the rounding error.
    * The part of I_nu the expansion leaves out is about exp(mu**2/y - 2y)
      of I_nu, so exp(mu**2/y - 2y) max(1, 2y/mu) of rho, which is about
      min(1, mu/(2y)) of the Bessel functions' sum; it must be below
      min(tol, 1).  Its smallest term is of the same order, so the sum also
      reaches tol before its terms grow again.  From y = 1e3 on the first
      bound implies it (mu**2/y <= 4 + 1/y, ln(2y/mu) < ln(2y) + 745);
      below, 2y/mu overflows only for mu < 1.2e-305, and its logarithm is
      then taken as a difference.

    Against 60-digit mpmath at tol = 1e-15 for y from y_c to max(40, mu**2),
    the expansion is within 4e-15 relative for mu in [1e-9, 8] and within
    5.5e-15 up to mu = 100, where the terms reach e**4 times the sum.
    """
    if y >= 1e3 or (mu * mu - 1.0) * 0.25 > y:  # the first bound decides
        return (mu * mu - 1.0) * 0.25 <= y
    excess = 2.0 * y / mu  # past double range only for mu < 1.2e-305
    ln_excess = (math.log(max(1.0, excess)) if excess < math.inf
                 else math.log(2.0 * y) - math.log(mu))
    return 2.0 * y - mu * mu / y - ln_excess >= -math.log(min(tol, 1.0))


def dunkl_exp_neg_ratio(ctx: DunklContext, y: float, tol: float = 1e-15) -> float:
    """The ratio rho = e_mu(-y)/e_mu(y) for finite y >= 0, by three routes,
    none of which subtracts large quantities:

    * mu = 0: exp(-2y), which underflows to zero past y of about 372;
    * y below a crossover y_c(mu, tol): a quotient of two positive series
      (``_ratio_series``), at most about 120 terms for mu in [1e-6, 10]
      and a little over mu**2/2 beyond;
    * otherwise: the large-argument Bessel expansion (``_ratio_expansion``),
      at most about 30 terms, where rho is close to mu/(2y) once y is large.

    y_c is the least y at which ``_expansion_exact``, the one rule between
    the last two routes, holds.  At tol = 1e-15 it is 19.5 at mu = 0.5 (19
    to 21 for mu in [0.05, 8]), 26.2 at 1e-6, 40.2 at 1e-18, 42.5 at 1e-20,
    366 at 1e-300, and (mu**2 - 1)/4 for mu >= 10.  tol is the relative
    truncation tolerance of either sum (floored at machine epsilon); the
    result is within a few ulps (at most 5.5e-15 relative measured).  A rho
    that is not finite raises RangeError: the series' sums overflow from
    about mu = 1e29 on.  A tol other than a float in (0, inf) is read by
    ``_nonnegative_real`` (finite and positive).
    """
    if not 0.0 <= y < math.inf:
        raise DomainError(f"ratio argument must be finite and nonnegative, got {y}")
    if type(tol) is not float or not 0.0 < tol < math.inf:
        tol = _nonnegative_real("tolerance", tol, positive=True)
    if y == 0.0:
        return 1.0
    mu = ctx.mu
    if mu == 0.0:
        return math.exp(-2.0 * y)
    if tol < _EPS:
        tol = _EPS
    route = _ratio_expansion if _expansion_exact(mu, y, tol) else _ratio_series
    rho = route(mu, y, tol)
    if not rho < math.inf:  # inf or NaN
        raise RangeError(f"rho = e_mu(-y)/e_mu(y) left double range at y={y} (mu={mu})")
    return rho
