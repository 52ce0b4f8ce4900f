"""Operator evaluation and closed-form moments.

The operator attached to a family F at scale n averages a function over the
nodes (i + 2*mu*theta(i))/n with the family's weights.  Its first and second
raw moments, and the central moments omega1 and omega2, also have closed
forms assembled from ten scalar functionals of the generating series Q
(values and ordinary/Dunkl derivatives at +-1) plus the exponential ratio
e_mu(-nx)/e_mu(nx).  Both routes are implemented; they serve as mutual
oracles, and the two algebraically identical expressions for omega2 are
checked against each other on every call.

The closed forms cost a bounded amount at every n*x.  The ratio comes from
``dunkl_exp_neg_ratio``: exp(-2nx) at mu = 0, a positive series below the
crossover n*x = max(40, mu**2), and a large-argument Bessel expansion above
it; nothing is flushed to zero.  The Q-functionals are computed once per
family and kept on it, and one evaluation of the ratio and the functionals
yields m1, m2, omega1 and omega2 together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .appell import AppellFamily
from .dunkl import dunkl_exp_neg_ratio
from .errors import DomainError, EvaluationError, TranscriptionError


@dataclass(frozen=True)
class OperatorSpec:
    """A family plus the scale n and the weights' mass tolerance."""

    family: AppellFamily
    n: int
    tol: float = 1e-12

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"operator scale n must be >= 1, got {self.n}")
        if not 0.0 < self.tol < math.inf:
            raise DomainError(f"tolerance must be finite and positive, got {self.tol}")


@dataclass(frozen=True)
class QFunctionals:
    """The ten scalar functionals of Q the moment formulas consume.

    q1    = Q(1)            qm1  = Q(-1)
    dq1   = Q'(1)           dqm1 = Q'(-1)
    ddq1  = Q''(1)
    lq1   = (LQ)(1)         lqm1 = (LQ)(-1)      with L the Dunkl operator
    dlq1  = (LQ)'(1)        ldq1 = (LQ')(1)
    llq1  = (LLQ)(1)
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


@dataclass(frozen=True)
class CentralMoments:
    """First and second central moments at one (n, x), with provenance."""

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
    i = np.arange(start, start + count)
    return (i + 2.0 * spec.family.ctx.mu * (i & 1)) / spec.n


def apply(spec: OperatorSpec, f: Callable[[float], float], x: float) -> float:
    """Evaluate the operator on f at x by weighted summation.

    f is called once per node of nonzero weight, in index order, and the sum
    is one dot product.  A non-finite value of f raises EvaluationError
    naming the first such node in index order.

    The weight emission's mass tolerance only bounds the zeroth-moment
    truncation error; for growing targets like t or t**2 the omitted tail
    picks up a factor of the node value at the cutoff.  The mass tolerance
    is therefore derated by the square of an a-priori estimate of that
    node, floored where cumulative-mass rounding noise would start to bite.
    """
    n = spec.n
    node_cut = x + (8.0 * math.sqrt(n * x + 1.0) + 40.0) / n
    tol = max(spec.tol / (1.0 + node_cut * node_cut), 5e-14)
    tol = min(tol, spec.tol)
    ws = spec.family.weights(spec.n, x, tol=tol)
    keep = ws.weights.nonzero()[0]  # f is never evaluated where the weight is zero
    at = nodes(spec, len(ws.weights), ws.start)[keep]
    fv = np.fromiter(map(f, at.tolist()), float, len(at))
    total = float(ws.weights[keep] @ fv)
    if not math.isfinite(total):  # a finite sum means every value was finite
        bad = np.isfinite(fv).argmin()
        if not math.isfinite(fv[bad]):
            raise EvaluationError(
                f"target function returned non-finite value {fv[bad]} at node "
                f"{at[bad]}"
            )
    return total


def q_functionals(family: AppellFamily) -> QFunctionals:
    """All ten Q-functionals, composed from generic series transforms.

    No per-family hand formulas: one code path serves every generator, and
    hand-derived specializations live only in tests.
    """
    Q = family.Q
    dQ = Q.derivative()
    lQ = Q.dunkl_derivative()
    return QFunctionals(
        q1=family.Q_at_1,
        qm1=Q.eval(-1.0),
        dq1=dQ.eval(1.0),
        dqm1=dQ.eval(-1.0),
        ddq1=dQ.derivative().eval(1.0),
        lq1=lQ.eval(1.0),
        lqm1=lQ.eval(-1.0),
        dlq1=lQ.derivative().eval(1.0),
        ldq1=dQ.dunkl_derivative().eval(1.0),
        llq1=lQ.dunkl_derivative().eval(1.0),
    )


def _functionals(family: AppellFamily) -> QFunctionals:
    """The family's Q-functionals, computed on first use and kept on it.

    Threads that race here compute equal values, so no lock is needed.
    """
    F = family._functionals
    if F is None:
        F = family._functionals = q_functionals(family)
    return F


def _closed_form(spec: OperatorSpec, x: float):
    """(m1, m2, omega1, omega2) from one evaluation of rho and the functionals.

    omega2 is computed from its own printed formula and recomputed as
    m2 - 2*x*m1 + x**2; the two are algebraically identical, so any
    disagreement beyond rounding indicates a transcription bug and raises.
    """
    if x < 0.0:
        raise DomainError(f"evaluation point must be >= 0, got {x}")
    F = _functionals(spec.family)
    n = spec.n
    mu = spec.family.ctx.mu
    rho = exp_ratio(spec, x)
    omega1 = ((1.0 - rho) * F.dq1 + rho * F.lq1) / (F.q1 * n)
    m1 = x + omega1
    m2 = (
        x * x
        + ((2.0 * F.dq1 + F.q1) + 2.0 * mu * F.qm1 * rho) * x / (F.q1 * n)
        + F.lq1 * rho / (F.q1 * n * n)
        + (2.0 * F.ddq1 - F.dlq1 - F.ldq1 + F.dq1 - 2.0 * mu * F.dqm1)
        * (1.0 - rho)
        / (F.q1 * n * n)
        + (F.llq1 + 2.0 * mu * F.lqm1) / (F.q1 * n * n)
    )
    omega2 = (
        (1.0 + 2.0 * rho * (mu * F.qm1 + F.dq1 - F.lq1) / F.q1) * x / n
        + F.lq1 * rho / (F.q1 * n * n)
        + (2.0 * F.ddq1 - F.dlq1 - F.ldq1 + F.dq1 - 2.0 * mu * F.dqm1)
        * (1.0 - rho)
        / (F.q1 * n * n)
        + (F.llq1 + 2.0 * mu * F.lqm1) / (F.q1 * n * n)
    )
    combined = m2 - 2.0 * x * m1 + x * x
    # The combination cancels x**2-sized terms, so allow a rounding floor
    # proportional to the quantities that cancel.
    floor = 64.0 * 2.220446049250313e-16 * (x * x + 2.0 * x * abs(m1) + abs(m2))
    diff = abs(omega2 - combined)
    if diff > 1e-10 * max(abs(omega2), abs(combined)) + floor:
        raise TranscriptionError(
            f"formula transcription error: omega2 printed form {omega2!r} vs "
            f"moment combination {combined!r} at (n={n}, x={x}, mu={mu})"
        )
    return m1, m2, omega1, omega2


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
    return CentralMoments(omega1=omega1, omega2=omega2, source="closed-form")


def central_moments_series(spec: OperatorSpec, x: float) -> CentralMoments:
    """Central moments by direct weighted summation (the slow oracle)."""
    omega1 = apply(spec, lambda t: t - x, x)
    omega2 = apply(spec, lambda t: (t - x) ** 2, x)
    if -1e-12 <= omega2 < 0.0:
        omega2 = 0.0
    return CentralMoments(omega1=omega1, omega2=omega2, source="series-summed")
