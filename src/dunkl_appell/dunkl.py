"""Scalar Dunkl primitives.

The building blocks are the parity indicator ``theta``, the generalized
factorial sequence ``gamma_mu`` defined by

    gamma_mu(0) = 1,    gamma_mu(i+1) = (i+1 + 2*mu*theta(i+1)) * gamma_mu(i),

and the generalized exponential

    e_mu(x) = sum_i x**i / gamma_mu(i),

which reduces to exp(x) at mu = 0.  The factorial-like growth of gamma_mu
rules out evaluating it through gamma-function quotients at runtime (they
overflow near index 170); everything here runs on the recursion, and series
terms are generated by the ratio recurrence

    term(i+1) = term(i) * x / (i+1 + 2*mu*theta(i+1)),

which never materializes gamma_mu itself.

The ratio rho(y) = e_mu(-y)/e_mu(y) that the moment formulas consume has its
own routes (see ``dunkl_exp_neg_ratio``): exp(-2y) at mu = 0, a series of
positive terms below a crossover, and a large-argument Bessel expansion
above it.  For mu >= 0 no route subtracts quantities much larger than rho,
so rho keeps its relative accuracy for every y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, RangeError

# Terms of e_mu decay superexponentially once the index passes |x|; this cap
# is far beyond any stopping point reachable within double range.
_MAX_EXP_TERMS = 20_000

# rho switches from the positive series to the large-argument expansion at
# y = max(RATIO_CROSSOVER, mu**2).  From there on the expansion's terms shrink
# from the first one down to a smallest term of order exp(-2y) < 2e-35, and
# the part of I_nu the expansion leaves out is of that order too.
RATIO_CROSSOVER = 40.0

_EPS = 2.220446049250313e-16
# Scale applied to the positive series' sums when they grow large; they only
# enter through their quotient.
_RESCALE = 1e280


def theta(i: int) -> int:
    """Parity indicator: 0 for even i, 1 for odd i."""
    if i < 0:
        raise DomainError(f"parity index must be nonnegative, got {i}")
    return i & 1


class DunklContext:
    """The validated parameter mu, and gamma_mu computed from it.

    mu must satisfy mu > -1/2 for the recursion factors to stay positive.
    Negative mu (in (-1/2, 0)) is accepted for the scalar primitives and
    flagged via ``negative_mu``; operator construction elsewhere requires
    mu >= 0.

    A context holds nothing but mu, so it may be shared between threads.
    """

    __slots__ = ("mu",)

    def __init__(self, mu: float):
        mu = float(mu)
        if not math.isfinite(mu) or mu <= -0.5:
            raise DomainError(f"mu must be a finite real > -1/2, got {mu}")
        self.mu = mu

    @property
    def negative_mu(self) -> bool:
        """True when mu < 0: scalar primitives only, no operator use."""
        return self.mu < 0.0

    def gamma(self, i: int) -> float:
        """gamma_mu(i) via the product recursion; strictly positive and finite."""
        if i < 0:
            raise DomainError(f"gamma index must be nonnegative, got {i}")
        g = 1.0
        for k in range(1, i + 1):
            g *= k + 2.0 * self.mu * (k & 1)
            if not math.isfinite(g):
                raise RangeError(
                    f"gamma_mu({k}) exceeds double range (mu={self.mu}); "
                    f"indices up to {k - 1} are representable"
                )
        return g

    def __repr__(self):
        return f"DunklContext(mu={self.mu!r})"


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
    # Subsequent denominators are at least i+1 (mu >= 0) or i (mu < 0).
    ratio = abs_x / (i + 1.0 + 2.0 * min(mu, 0.0))
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
    ``dunkl_exp_neg_ratio``.
    """
    if not math.isfinite(x):
        raise DomainError(f"e_mu argument must be finite, got {x}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
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
    recurrence drives both sums, and for mu >= 0 every term is positive.

    The term ratio decreases in k, so once it is below one the remaining
    tail is bounded by a geometric series; the numerator's tail is a smaller
    share of its sum than the denominator's, because its weights mu/(mu+k)
    decrease in k.
    """
    z = 2.0 * y
    term = num = den = 1.0
    k = 0
    while True:
        ratio = (mu + 1.0 + k) * z / ((2.0 * mu + 1.0 + k) * (k + 1.0))
        if ratio < 1.0 and term * ratio < tol * (1.0 - ratio) * den:
            return num / den
        term *= ratio
        k += 1
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

    Requires y >= max(RATIO_CROSSOVER, mu**2): then the terms decrease from
    the first one until their size is far below tol.
    """
    g = -mu / (2.0 * y)
    num = -g  # sum of -k g_k
    den = 1.0 + mu * g  # sum of mu g_k, plus 1
    k = 1
    while abs(k * g) > tol * abs(num) or abs(mu * g) > tol * abs(den):
        g *= (k - mu) * (k + mu) / ((k + 1.0) * 2.0 * y)
        k += 1
        num -= k * g
        den += mu * g
    return num / den


def dunkl_exp_neg_ratio(ctx: DunklContext, y: float, tol: float = 1e-15) -> float:
    """The ratio rho = e_mu(-y)/e_mu(y) for finite y >= 0.

    Three routes, none of which subtracts large quantities:

    * mu = 0: exp(-2y), which underflows to zero past y of about 372;
    * y < max(RATIO_CROSSOVER, mu**2): a quotient of two positive series
      (``_ratio_series``), at most about 160 terms when mu <= 6;
    * otherwise: the large-argument Bessel expansion
      (``_ratio_expansion``), 4 to 16 terms, where rho is close to mu/(2y).

    tol is the relative truncation tolerance of either sum (floored at
    machine epsilon).  For mu >= 0 the result has relative error of a few
    ulps; past the crossover it also carries an absolute error of order
    exp(-2y) < 2e-35 from the part of I_nu the expansion leaves out.
    """
    if not 0.0 <= y < math.inf:
        raise DomainError(f"ratio argument must be finite and nonnegative, got {y}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    if y == 0.0:
        return 1.0
    mu = ctx.mu
    if mu == 0.0:
        return math.exp(-2.0 * y)
    tol = max(tol, _EPS)
    if y < max(RATIO_CROSSOVER, mu * mu):
        return _ratio_series(mu, y, tol)
    return _ratio_expansion(mu, y, tol)
