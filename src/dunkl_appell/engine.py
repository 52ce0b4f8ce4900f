"""Operator evaluation and closed-form moments.

The operator attached to a family F at scale n averages a function over the
nodes (i + 2*mu*theta(i))/n with the family's weights.  ``apply`` never
forms them: it sums f against Q's coefficients once per batch of points,
then against each point's window of terms.  The first and second raw
moments, and the central moments omega1 and omega2, also have closed forms
assembled from ten scalar functionals of the generating series Q (values
and ordinary/Dunkl derivatives at +-1) plus the exponential ratio
e_mu(-nx)/e_mu(nx).  Both routes are implemented; they serve as mutual
oracles, and the two algebraically identical expressions for omega2 are
checked against each other on every fresh evaluation.

The closed forms cost a bounded amount at every n*x.  The ratio comes from
``dunkl_exp_neg_ratio``: exp(-2nx) at mu = 0, a positive series below a
crossover set by the expansion's own error bounds, and a large-argument
Bessel expansion above it; nothing is flushed to zero.  The Q-functionals
come from one pass over Q's support (the indices of its nonzero
coefficients, which the family records), each a fixed linear form in the
coefficients.  They are computed once per family and kept on it, with the
combinations of them that the moment formulas use at every (n, x); one
evaluation of the ratio then yields m1, m2, omega1 and omega2 together,
each with the bits of its printed formula.  The family keeps the last such
evaluation, so ``moments_closed`` and ``central_moments`` share it.

``QFunctionals`` and ``CentralMoments`` are named tuples, built
positionally, so a fresh family pays no dataclass constructor per call.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, List, NamedTuple

import numpy as np

from .appell import AppellFamily, _int_text, _positive_int
from .dunkl import dunkl_exp_neg_ratio
from .errors import DomainError, EvaluationError, RangeError, TranscriptionError

# The least integer whose float overflows (it rounds up to 2**1024); n*x
# raises OverflowError from there on.
_N_OVERFLOW = 2**1024 - 2**970


@dataclass(frozen=True)
class OperatorSpec:
    """A family plus the scale n and the weights' mass tolerance.

    n must be an integer >= 1 (``appell._positive_int``; a numpy integer is
    stored as the equal int) below double range, where n*x would raise
    OverflowError; any other n raises DomainError.
    """

    family: AppellFamily
    n: int
    tol: float = 1e-12

    def __post_init__(self):
        n = _positive_int("operator scale n", self.n)
        if not n < _N_OVERFLOW:
            raise DomainError(
                f"operator scale n must be an integer >= 1 below double range, "
                f"got {_int_text(n)}"
            )
        if n is not self.n:
            object.__setattr__(self, "n", n)
        if not 0.0 < self.tol < math.inf:
            raise DomainError(f"tolerance must be finite and positive, got {self.tol}")


class QFunctionals(NamedTuple):
    """The ten scalar functionals of Q the moment formulas consume.

    q1    = Q(1)            qm1  = Q(-1)
    dq1   = Q'(1)           dqm1 = Q'(-1)
    ddq1  = Q''(1)
    lq1   = (LQ)(1)         lqm1 = (LQ)(-1)      with L the Dunkl operator
    dlq1  = (LQ)'(1)        ldq1 = (LQ')(1)
    llq1  = (LLQ)(1)

    An immutable named tuple: ``_fields`` lists the names in this order.
    """

    q1: float
    qm1: float
    dq1: float
    dqm1: float
    ddq1: float
    lq1: float
    lqm1: float
    dlq1: float
    ldq1: float
    llq1: float


class CentralMoments(NamedTuple):
    """First and second central moments at one (n, x), with provenance; a
    named tuple like ``QFunctionals``."""

    omega1: float
    omega2: float
    source: str  # 'closed-form' or 'series-summed'


def exp_ratio(spec: OperatorSpec, x: float) -> float:
    """rho = e_mu(-nx)/e_mu(nx), relatively accurate at every n*x.

    See ``dunkl_exp_neg_ratio`` for the three routes and the crossover.  At
    mu = 0 rho is exp(-2nx), which underflows to zero past n*x of about 372;
    for mu > 0 it stays near mu/(2nx) however large n*x grows.
    """
    return dunkl_exp_neg_ratio(spec.family.ctx, spec.n * x, tol=min(1e-15, spec.tol))


def nodes(spec: OperatorSpec, count: int, start: int = 0) -> np.ndarray:
    """The evaluation nodes (i + 2*mu*theta(i))/n for i = start .. start+count-1."""
    t = np.arange(start, start + count, dtype=float)
    mu2 = 2.0 * spec.family.ctx.mu
    if mu2:
        t[(start + 1) % 2 :: 2] += mu2  # the odd indices
    t /= spec.n
    return t


def apply(spec: OperatorSpec, f: Callable[[float], float], x):
    """Evaluate the operator on f at a point x, or at every point of a 1-D grid.

    A float x gives a float and a sequence a float array; a float is the
    one-point grid.  With the terms u_j of a window (``AppellFamily.windows``)
    and Q's coefficients c_k, K f(x) = sum_j u_j g_j / (Q(1) sum_j u_j),
    where g_j = sum_k c_k f(t_(j+k)) does not depend on x: each batch of
    windows shares one correlation of f with Q.  f is called once per
    distinct node of nonzero weight in a batch, in increasing index order,
    and each value equals the value at that point alone bit for bit.  A
    non-finite value of f raises EvaluationError naming the first such node
    in index order; finite values whose weighted sum leaves double range
    raise RangeError naming n and the point.

    The weight emission's mass tolerance only bounds the zeroth-moment
    truncation error; for growing targets like t or t**2 the omitted tail
    picks up a factor of the node value at the cutoff.  The mass tolerance
    is therefore derated, point by point, by the square of an a-priori
    estimate of that node, floored where cumulative-mass rounding noise
    would start to bite.
    """
    points = np.asarray(x, dtype=float)
    if points.ndim > 1:
        raise DomainError(f"x must be a float or a 1-D sequence, got shape {points.shape}")
    grid = points.reshape(-1)
    xs = grid.tolist()
    tol = [_point_tol(spec, t) for t in xs]
    values = []
    for windows in spec.family.windows(spec.n, grid, tol):
        values += _contract(spec, f, windows, xs[len(values) :])
    return np.array(values) if points.ndim else values[0]


def _point_tol(spec: OperatorSpec, x: float) -> float:
    """The mass tolerance for apply at x, derated for the largest node."""
    n = spec.n
    # max(.., 0): a point with n*x < 0 is rejected by the weights
    node_cut = x + (8.0 * math.sqrt(max(n * x, 0.0) + 1.0) + 40.0) / n
    tol = max(spec.tol / (1.0 + node_cut * node_cut), 5e-14)
    return min(tol, spec.tol)


def _contract(spec: OperatorSpec, f, windows, x) -> List[float]:
    """The value at every window of one batch, at points x, from f
    correlated with Q.

    Rows whose nodes [lo, hi + last index of Q's support] meet share a
    cluster's arrays; they are one interval unless a window is narrower
    than Q's widest gap, and g is 0.0 at the nodes no window reaches.
    """
    family = spec.family
    support = family.support
    if family._arrays is None:  # Q's coefficients and the widest gap in its support
        gap = max(map(operator.sub, support[1:], support), default=1)
        family._arrays = np.array(family.Q.coeffs), gap
    c, gap = family._arrays
    deg, top = len(c) - 1, support[-1]
    clusters = []  # [first index, last window index, rows as (r, lo, hi)]
    for lo, r in sorted((w[0], r) for r, w in enumerate(windows)):
        hi = lo + len(windows[r][1]) + len(windows[r][2]) - 1
        if not clusters or lo > clusters[-1][1] + top + 1:
            clusters.append([lo, hi, []])
        clusters[-1][1] = max(clusters[-1][1], hi)
        clusters[-1][2].append((r, lo, hi))
    values = [0.0] * len(windows)
    for first, last, rows in clusters:
        span = last - first + 1 + deg
        used = slice(0, last - first + 1 + top)
        if any(hi - lo < gap - 1 for _, lo, hi in rows):  # a window leaves holes
            mask = np.zeros(span, bool)
            for _, lo, hi in rows:
                if hi - lo >= gap - 1:  # the window spans Q's widest gap
                    mask[lo - first : hi - first + top + 1] = True
                else:
                    mask[np.add.outer(np.arange(lo, hi + 1) - first, support)] = True
            used = mask.nonzero()[0]
        t = nodes(spec, span, first)[used]
        ft = fv = np.fromiter(map(f, t.tolist()), float, len(t))
        if len(ft) < span:
            fv = np.zeros(span)
            fv[used] = ft
        _weighted_sums(fv, c, first, rows, windows, family.Q_at_1, values)
        for r, _, _ in rows:
            if not math.isfinite(values[r]):
                _non_finite(ft, t, spec.n, x[r])
    return values


# A sum past double range shows as a non-finite value that _contract reports.
@np.errstate(over="ignore", invalid="ignore")
def _weighted_sums(fv, c, first, rows, windows, q1, values) -> None:
    """K f at a cluster's rows from f at its nodes, fv from index first on."""
    g = np.correlate(fv, c, "valid")
    for r, lo, _ in rows:
        _, up, down, total = windows[r]
        mode = lo - first + len(down)
        value = up @ g[mode : mode + len(up)] + down @ g[lo - first : mode][::-1]
        values[r] = float(value) / (q1 * total)


def _non_finite(fv: np.ndarray, t: np.ndarray, n: int, x: float) -> None:
    """Raise for a non-finite K f at (n, x): EvaluationError at the first
    non-finite value of f, else RangeError for their weighted sum."""
    finite = np.isfinite(fv)
    if not finite.all():
        bad = finite.argmin()
        raise EvaluationError(
            f"target function returned non-finite value {fv[bad]} at node {t[bad]}"
        )
    raise RangeError(f"K f left double range at n={n}, x={x}, with every value of f finite")


def q_functionals(family: AppellFamily) -> QFunctionals:
    """All ten Q-functionals in one pass over Q's coefficients.

    Each functional is a fixed linear form in the coefficients c_i.  With
    d(i) = i + 2*mu*theta(i), the factor the Dunkl operator puts on t**i:

        Q(-1)     = sum (-1)**i c_i            Q''(1)   = sum i (i-1) c_i
        Q'(+-1)   = sum i (+-1)**(i-1) c_i     (LQ)'(1) = sum (i-1) d(i) c_i
        (LQ)(+-1) = sum d(i) (+-1)**(i-1) c_i  (LQ')(1) = sum i d(i-1) c_i
                                               (LLQ)(1) = sum d(i) d(i-1) c_i

    Every product is formed in the order ``PowerSeries.derivative`` and
    ``dunkl_derivative`` form their coefficients, and the sums run from the
    top coefficient down as Horner's scheme at +-1 does, so the values equal
    the transforms' composition while no intermediate series is built.  The
    pass walks only ``family.support``, the indices of the nonzero
    coefficients (a zero term leaves every sum unchanged), so a Gould-Hopper
    generator costs one step per term of its exponential, not per stored
    coefficient.  Where two sums take equal terms, one product serves both:
    d(i) = i at even i pairs Q'(1) with (LQ)(1), Q'(-1) with (LQ)(-1), Q''(1)
    with (LQ)'(1) and (LQ')(1) with (LLQ)(1); d(i-1) = i - 1 at odd i pairs
    Q''(1) with (LQ')(1) and (LQ)'(1) with (LLQ)(1).  Each sum keeps its
    terms and their order, so every value keeps its bits.  q1 is
    ``family.Q_at_1``, the normalizer the weights use.  One code path serves
    every generator; hand-derived specializations live only in tests.
    """
    mu2 = 2.0 * family.ctx.mu
    qm1 = dq1 = dqm1 = ddq1 = lq1 = lqm1 = dlq1 = ldq1 = llq1 = 0.0
    coeffs = family.Q.coeffs
    for i in reversed(family.support):
        c = coeffs[i]
        ic = i * c
        below = i - 1
        if i & 1:  # (-1)**i = -1, d(i) = i + 2 mu, d(i-1) = i - 1
            dc = (i + mu2) * c
            qm1 -= c
            dq1 += ic
            dqm1 += ic
            lq1 += dc
            lqm1 += dc
            t = below * ic  # i d(i-1) c_i = (i-1) i c_i
            ddq1 += t
            ldq1 += t
            t = below * dc  # d(i) d(i-1) c_i = (i-1) d(i) c_i
            dlq1 += t
            llq1 += t
        else:  # (-1)**i = 1, d(i) = i, d(i-1) = i - 1 + 2 mu: dc = ic
            qm1 += c
            dq1 += ic
            lq1 += ic
            dqm1 -= ic
            lqm1 -= ic
            t = below * ic  # (i-1) d(i) c_i = (i-1) i c_i
            ddq1 += t
            dlq1 += t
            t = (below + mu2) * ic  # i d(i-1) c_i = d(i) d(i-1) c_i
            ldq1 += t
            llq1 += t
    F = QFunctionals(family.Q_at_1, qm1, dq1, dqm1, ddq1, lq1, lqm1, dlq1, ldq1, llq1)
    if not all(map(math.isfinite, F)):
        raise RangeError(
            f"a Q-functional left double range (degree {len(coeffs) - 1}, "
            f"mu={family.ctx.mu})"
        )
    return F


def _functionals(family: AppellFamily):
    """The family's Q-functionals F and the closed forms' coefficients that do
    not depend on (n, x), computed on first use and kept on it.

    Returns (F, curv, const, lead, odd, skew): with mu2 = 2 mu,

        curv  = 2 Q''(1) - (LQ)'(1) - (LQ')(1) + Q'(1) - mu2 Q'(-1)
        const = (LLQ)(1) + mu2 (LQ)(-1)
        lead  = 2 Q'(1) + Q(1)
        odd   = mu Q(-1) + Q'(1) - (LQ)(1)
        skew  = mu2 Q(-1)

    each formed in the order the printed formulas form it, so every moment
    keeps its bits.  Threads that race here compute equal values and store
    one tuple in one attribute, so no lock is needed.
    """
    cached = family._functionals
    if cached is None:
        F = q_functionals(family)
        mu = family.ctx.mu
        mu2 = 2.0 * mu
        cached = family._functionals = (
            F,
            2.0 * F.ddq1 - F.dlq1 - F.ldq1 + F.dq1 - mu2 * F.dqm1,
            F.llq1 + mu2 * F.lqm1,
            2.0 * F.dq1 + F.q1,
            mu * F.qm1 + F.dq1 - F.lq1,
            mu2 * F.qm1,
        )
    return cached


def _closed_form(spec: OperatorSpec, x: float):
    """(m1, m2, omega1, omega2) from one evaluation of rho and the functionals.

    With rho = e_mu(-nx)/e_mu(nx) and the coefficients of ``_functionals``:

        omega1 = ((1 - rho) Q'(1) + rho (LQ)(1)) / (Q(1) n),   m1 = x + omega1
        m2     = x**2 + (lead + skew rho) x / (Q(1) n) + S
        omega2 = (1 + 2 rho odd / Q(1)) x / n + S
        S      = (LQ)(1) rho / (Q(1) n**2) + curv (1 - rho) / (Q(1) n**2)
                 + const / (Q(1) n**2)

    The three terms of S are formed once and shared.  omega2 is computed
    from its own printed formula and recomputed as m2 - 2*x*m1 + x**2; the
    two are algebraically identical, so any disagreement beyond rounding
    indicates a transcription bug and raises.

    x is taken as float(x) + 0.0.  The family keeps the last result whole,
    as (n, x, tol, moments) with tol = min(1e-15, spec.tol); an equal key
    returns it, skipping rho, the functionals and the check it passed for
    these inputs.  A raise stores nothing; threads need no lock.
    """
    if not 0.0 <= x < math.inf:
        raise DomainError(f"evaluation point must be finite and >= 0, got {x}")
    x = float(x) + 0.0  # one key and result type for 1 and 1.0, -0.0 and 0.0, np.float64
    family, n, tol = spec.family, spec.n, min(1e-15, spec.tol)
    last = family._last_moments
    if last is not None and last[0] == n and last[1] == x and last[2] == tol:
        return last[3]
    F, curv, const, lead, odd, skew = _functionals(family)
    rho = dunkl_exp_neg_ratio(family.ctx, n * x, tol=tol)
    q1n = F.q1 * n
    q1nn = q1n * n
    stay = 1.0 - rho
    lq1 = F.lq1
    omega1 = (stay * F.dq1 + rho * lq1) / q1n
    m1 = x + omega1
    s1 = lq1 * rho / q1nn
    s2 = curv * stay / q1nn
    s3 = const / q1nn
    xx = x * x
    m2 = xx + (lead + skew * rho) * x / q1n + s1 + s2 + s3
    omega2 = (1.0 + 2.0 * rho * odd / F.q1) * x / n + s1 + s2 + s3
    combined = m2 - 2.0 * x * m1 + xx
    # The combination cancels x**2-sized terms, so allow a rounding floor
    # proportional to the quantities that cancel.
    floor = 64.0 * 2.220446049250313e-16 * (xx + 2.0 * x * abs(m1) + abs(m2))
    diff = abs(omega2 - combined)
    if not diff <= 1e-10 * max(abs(omega2), abs(combined)) + floor:  # NaN fails
        raise TranscriptionError(
            f"formula transcription error: omega2 printed form {omega2!r} vs "
            f"moment combination {combined!r} at (n={n}, x={x}, mu={family.ctx.mu})"
        )
    family._last_moments = last = (n, x, tol, (m1, m2, omega1, omega2))
    return last[3]


def moments_closed(spec: OperatorSpec, x: float):
    """Closed-form raw moments (m0, m1, m2) of the operator at x.

    m0 is one by construction.  The remaining formulas are written in terms
    of rho = e_mu(-nx)/e_mu(nx), so only well-conditioned ratios of the
    exponentials ever appear.  m1 equals x + omega1 bit for bit.
    """
    m1, m2, _, _ = _closed_form(spec, x)
    return 1.0, m1, m2


def central_moments(spec: OperatorSpec, x: float) -> CentralMoments:
    """Closed-form central moments omega1, omega2 at x.

    omega2 passes the transcription cross-check of ``_closed_form``; a
    rounding-level negative value is clamped to zero.
    """
    _, _, omega1, omega2 = _closed_form(spec, x)
    if omega2 < 0.0:
        if omega2 < -1e-12:
            raise TranscriptionError(
                f"omega2 = {omega2!r} is materially negative at (n={spec.n}, x={x})"
            )
        omega2 = 0.0
    return CentralMoments(omega1, omega2, "closed-form")


def central_moments_series(spec: OperatorSpec, x: float) -> CentralMoments:
    """Central moments by direct weighted summation (the slow oracle)."""
    omega1 = apply(spec, lambda t: t - x, x)
    omega2 = apply(spec, lambda t: (t - x) ** 2, x)
    if -1e-12 <= omega2 < 0.0:
        omega2 = 0.0
    return CentralMoments(omega1, omega2, "series-summed")
