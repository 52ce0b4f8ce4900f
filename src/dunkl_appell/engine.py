"""Operator evaluation and closed-form moments.

The operator attached to a family F at scale n averages a function over the
nodes (i + 2*mu*theta(i))/n with the family's weights.  ``apply`` never
forms them: it sums f against Q's coefficients once per cluster of
overlapping windows of a batch from ``AppellFamily.windows``, then against
each window's terms in the kernel's arrays.  The first and second raw
moments and the central moments omega1 and omega2 also have closed forms in
Q and the exponential ratio rho = e_mu(-nx)/e_mu(nx).  Both routes are
implemented; they serve as mutual oracles, and the two algebraically
identical expressions for omega2 are checked against each other on every
fresh evaluation.

The paper prints the closed forms in ten functionals of the generating
series Q: its values and its ordinary and Dunkl derivatives at +-1.  With
L the Dunkl operator and mu2 = 2 mu,

    omega1 = ((1 - rho) Q'(1) + rho (LQ)(1)) / (Q(1) n),     m1 = x + omega1
    m2     = x**2 + (2 Q'(1) + Q(1) + mu2 Q(-1) rho) x / (Q(1) n) + S
    omega2 = (1 + 2 rho (mu Q(-1) + Q'(1) - (LQ)(1)) / Q(1)) x / n + S
    S      = ((LQ)(1) rho + curv (1 - rho) + (LLQ)(1) + mu2 (LQ)(-1)) / (Q(1) n**2)
    curv   = 2 Q''(1) - (LQ)'(1) - (LQ')(1) + Q'(1) - mu2 Q'(-1)

Q enters all ten only through six sums that do not depend on mu.  L maps
t**i to d(i) t**(i-1), d(i) = i + mu2 theta(i), theta(i) = 1 at odd i.
With the falling factorial i^(j) = i (i-1) ... (i-j+1), let E_j be the sum
of i^(j) c_i over even i and O_j the same sum over odd i, j = 0, 1, 2.
Since d(i) = i at even i, d(i) - i = mu2 at odd i, and d(i-1) - (i-1) = mu2
at even i, term by term

    Q(1)      = E0 + O0              Q(-1)    = E0 - O0
    Q'(1)     = E1 + O1              Q'(-1)   = O1 - E1
    Q''(1)    = E2 + O2
    (LQ)(+-1) = Q'(+-1) + mu2 O0     (LQ)'(1) = Q''(1) + mu2 (O1 - O0)
    (LQ')(1)  = Q''(1) + mu2 E1      (LLQ)(1) = Q''(1) + mu2 (O1 - O0 + E1)

So curv = Q'(1) - mu2 (2 O1 - O0), whose Q''(1) terms cancel; (LLQ)(1) +
mu2 (LQ)(-1) = Q''(1) + mu2 (2 O1 - O0) + mu2**2 O0; mu Q(-1) + Q'(1) -
(LQ)(1) = mu (E0 - 3 O0); and the printed formulas become

    omega1 = (Q'(1) + mu2 rho O0) / (Q(1) n)
    S      = (Q'(1) + Q''(1) + mu2**2 O0 + 2 mu2 rho O1) / (Q(1) n**2)
    m2     = x**2 + (Q(1) + 2 Q'(1) + mu2 rho (E0 - O0)) x / (Q(1) n) + S
    omega2 = (Q(1) + mu2 rho (E0 - 3 O0)) x / (Q(1) n) + S

S keeps no cancelling terms, and a generator with no odd powers (O_j = 0,
every Gould-Hopper family with d odd) has omega1 = (Q'(1)/Q(1))/n exactly,
whatever x and mu.

Every family supplies one mu-free jet, (E0, E1, E2, O0, O1, O2, Q(1))
times a common factor, and ``_functionals`` alone forms the coefficients
above from it.  The jet of the paper's application, the Gould-Hopper
generator exp(a t**(d+1)), is in closed form in (a, d) over Q(1) = e**a
(``appell._gould_hopper_jet``; see the README), so its moments never read
Q's coefficients and stay finite where their sums pass double range; any
other family's comes from one pass over Q's support (``_parity_sums``).

The closed forms cost a bounded amount at every n*x.  The ratio comes from
``dunkl_exp_neg_ratio``: exp(-2nx) at mu = 0, a positive series below a
crossover set by the expansion's own error bounds, and a large-argument
Bessel expansion above it; nothing is flushed to zero.  The jet and the
coefficients above that do not depend on (n, x), each divided by Q(1), are
computed once per family and kept on it.  One evaluation of the ratio then
yields m1, m2, omega1 and omega2 together.  The family keeps the last such
evaluation, so ``moments_closed`` and ``central_moments`` share it.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, List, NamedTuple

import numpy as np

from .appell import AppellFamily, _points, _scale
from .dunkl import _nonnegative_real, dunkl_exp_neg_ratio
from .errors import DomainError, EvaluationError, RangeError, TranscriptionError


# Rows from which ``_weighted_sums`` sums a cluster by whole-array expressions:
# measured, they repay numpy's fixed cost per call from about 28 rows.
ROWS = 64


class _SpecFields(NamedTuple):
    family: AppellFamily
    n: int
    tol: float = 1e-12


class OperatorSpec(_SpecFields):
    """A family plus the scale n and the weights' mass tolerance.

    n must be an integer >= 1 below double range (``appell._scale``; a
    numpy integer is stored as the equal int), and tol a finite real > 0
    (stored as a float); anything else raises DomainError.  An immutable
    named tuple whose every construction, ``_make`` and ``_replace`` (and
    so pickle and copy) included, runs these checks.
    """

    __slots__ = ()

    def __new__(cls, family: AppellFamily, n: int, tol: float = 1e-12):
        n = _scale(n)
        tol = _nonnegative_real("tolerance", tol)
        if not tol > 0.0:
            raise DomainError(f"tolerance must be finite and positive, got {tol}")
        return tuple.__new__(cls, (family, n, tol))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class QFunctionals(NamedTuple):
    """Q's six parity sums: with c_i Q's coefficients, e0, e1 and e2 sum
    c_i, i c_i and i (i-1) c_i over even i, and o0, o1 and o2 over odd i.

    None depends on mu, and Q enters the closed-form moments only through
    them and Q(1) (the module docstring derives the paper's ten functionals
    from them).  An immutable named tuple: ``_fields`` lists the names in
    this order.
    """

    e0: float
    e1: float
    e2: float
    o0: float
    o1: float
    o2: float


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

    A float x gives a float and a sequence a float array, on one path.  With
    the terms u_j of a window (``AppellFamily.windows``) and Q's
    coefficients c_k, K f(x) = sum_j u_j g_j / (Q(1) sum_j u_j), where g_j =
    sum_k c_k f(t_(j+k)) does not depend on x: the windows of a cluster
    share one correlation of f with Q.  f is called once per distinct node
    of nonzero weight in a batch, in increasing index order, and each value
    equals the value at that point alone bit for bit.  f's values are read
    as numpy reads floats, and whatever f or that reading raises passes
    through: a str that is no number raises ValueError, a complex TypeError,
    and '1.5' is 1.5.  A value read as non-finite (None is nan) raises
    EvaluationError naming the first such node in index order; finite values
    whose weighted sum leaves double range raise RangeError naming n and
    the point.  Each point's mass tolerance is ``_point_tol``'s.
    """
    points = _points(x)
    if points.ndim > 1:
        raise DomainError(f"x must be a float or a 1-D sequence, got shape {points.shape}")
    grid = points.reshape(-1)
    xs = grid.tolist()
    tol = [_point_tol(spec, t) for t in xs]
    values = []
    for batch in spec.family.windows(spec.n, grid, tol):
        values += _contract(spec, f, batch, xs[len(values) :])
    return np.array(values) if points.ndim else values[0]


def _point_tol(spec: OperatorSpec, x: float) -> float:
    """spec.tol over the square of the a-priori largest node at x (f's tail
    can grow like t**2), floored at 5e-14, or spec.tol if smaller."""
    _, n, tol = spec
    nx = n * x  # a point with n*x < 0 is rejected by the weights
    node_cut = x + (8.0 * math.sqrt((nx if nx > 0.0 else 0.0) + 1.0) + 40.0) / n
    derated = tol / (1.0 + node_cut * node_cut)
    return derated if derated > 5e-14 else min(5e-14, tol)


def _contract(spec: OperatorSpec, f, batch, x) -> List[float]:
    """The value at every window of one batch, at points x, from f
    correlated with Q.  Rows whose nodes [lo, hi + last index of Q's support]
    meet share a cluster's arrays, one interval unless a window of the batch
    is narrower than Q's widest gap (then g is 0.0 where no window reaches);
    rows go in lo order, sorted only where they are not."""
    family = spec.family
    if family._arrays is None:  # Q's coefficients, support gap and top index, Q(1)
        support = family.support
        gap = max(map(operator.sub, support[1:], support), default=1)
        family._arrays = np.array(family.Q.coeffs), gap, support[-1], family.Q_at_1
    c, gap, top, q1 = family._arrays
    deg, lo, up, down = len(c) - 1, batch.lo, batch.up, batch.down
    rows = range(len(lo)) if lo == sorted(lo) else sorted(range(len(lo)), key=lo.__getitem__)
    ends, last = [], -2 - top  # (end, reach) of each cluster: a row past it starts one
    for k, r in enumerate(rows):
        if lo[r] > last + top + 1 and k:
            ends.append((k, last))
        hi = lo[r] + up[r] + down[r]
        last = hi if hi > last else last
    ends.append((len(lo), last))
    holes = gap > 1 and min(map(operator.add, up, down)) < gap - 1  # a window is narrower
    values, s = [0.0] * len(lo), 0
    for e, last in ends:
        first = lo[rows[s]]
        span = last - first + 1 + deg
        used = slice(0, last - first + 1 + top)
        if holes:  # f only where a window reaches, then, in every cluster of the batch
            mask = np.zeros(span, bool)
            for r in rows[s:e]:
                a, hi = lo[r], lo[r] + up[r] + down[r]
                if hi - a >= gap - 1:  # the window spans Q's widest gap
                    mask[a - first : hi - first + top + 1] = True
                else:
                    mask[np.add.outer(np.arange(a, hi + 1) - first, family.support)] = True
            used = mask.nonzero()[0]
        t = nodes(spec, span, first)[used]
        ft = fv = np.fromiter(map(f, t.tolist()), float, len(t))
        if len(ft) < span:
            fv = np.zeros(span)
            fv[used] = ft
        if not math.isfinite(_weighted_sums(fv, c, first, q1, batch, rows[s:e], values)):
            bad = np.isfinite(ft).argmin()  # the first non-finite value of f, else 0
            if not math.isfinite(ft[bad]):
                raise EvaluationError(f"target function returned non-finite value "
                                      f"{ft[bad]} at node {t[bad]}")
            for r in rows[s:e]:
                if not math.isfinite(values[r]):
                    raise RangeError(f"K f left double range at n={spec.n}, x={x[r]}, "
                                     "with every value of f finite")
        s = e
    return values


# A sum past double range shows as a non-finite value that _contract reports.
@np.errstate(over="ignore", invalid="ignore")
def _weighted_sums(fv, c, first, q1, batch, rows, values) -> float:
    """K f into values at a cluster's rows of batch, fv from index first on;
    their sum.

    One rule for every window: each side is summed in order from the mode
    outward, starting from +0.0, and the value is (upper + lower) / (Q(1)
    total).  Row by row, numpy's dot product sums in that order where an
    operand has a negative stride (BLAS's ddot, which it takes otherwise,
    splits the sum): the lower side reads g backwards, and the upper side
    reads it through gr, a reversed copy viewed backwards.  A cluster of
    ``ROWS`` rows or more, the one step of ``apply`` with an array form,
    takes, per side, one gather of g as wide as the cluster's widest side,
    one product and one cumulative sum along the rows (the same roundings
    in the same order) and reads each row's sum at its end; the lower
    side's column 0, the mode again, is 0.0 there, its start.  An upper sum
    of -0.0 (every product -0.0) then meets a lower one of +0.0, which
    makes the value +0.0 as the rule does.
    """
    g = np.correlate(fv, c, "valid")
    lo, up, down, total = batch.lo, batch.up, batch.down, batch.total
    if len(rows) >= ROWS:
        # a sorted grid's rows are a range, taken as a slice: the terms' view
        k = slice(rows[0], rows[-1] + 1) if type(rows) is range else np.array(rows)
        a, b, start, t = (np.array(v)[k] for v in (up, down, lo, total))
        mode = (start - first + b)[:, None]
        wa, wb = a.max() + 1, b.max() + 1  # the cluster's widest sides
        j = np.arange(max(wa, wb))
        upper = g.take(mode + j[:wa], mode="clip")
        upper *= batch.terms[0, k, :wa]
        lower = g.take(mode - j[:wb], mode="clip")
        lower *= batch.terms[1, k, :wb]
        lower[:, 0] = 0.0
        out = np.add.accumulate(upper, 1, out=upper).take(np.arange(0, upper.size, wa) + a)
        out += np.add.accumulate(lower, 1, out=lower).take(np.arange(0, lower.size, wb) + b)
        out /= q1 * t
        for r, v in zip(rows, out.tolist()):
            values[r] = v
        return float(out.sum())
    gr = g[::-1].copy()[::-1]
    width, terms = batch.terms.shape[2], batch.terms.ravel()
    half, out = len(terms) // 2, 0.0  # where the lower sides start
    for r in rows:
        a, b, o = up[r], down[r], r * width
        mode = lo[r] - first + b
        value = terms[o : o + a + 1] @ gr[mode : mode + a + 1]
        # an empty lower side's sum is +0.0, which the value adds as it is
        value += terms[half + o + 1 : half + o + b + 1] @ g[mode - b : mode][::-1] if b else 0.0
        values[r] = value = float(value) / (q1 * total[r])
        out += value
    return out


def q_functionals(family: AppellFamily) -> QFunctionals:
    """Q's six parity sums, from ``_parity_sums`` at scale 1.0, so each is
    Q's raw sum.  A sum past double range is returned as it is."""
    return QFunctionals(*_parity_sums(family, 1.0))


def _parity_sums(family: AppellFamily, scale: float):
    """The six parity sums (e0, e1, e2, o0, o1, o2) of Q's coefficients,
    each taken times scale, in one pass over its support.

    The pass walks ``family.support``, the indices of the nonzero
    coefficients (a zero term leaves every sum unchanged), from the top
    index down, so a Gould-Hopper generator costs one step per term of its
    exponential, not per stored coefficient.  Term i adds c, i c and
    (i - 1) (i c) to the sums of its parity, with c = c_i scale.
    """
    e0 = e1 = e2 = o0 = o1 = o2 = 0.0
    coeffs = family.Q.coeffs
    for i in reversed(family.support):
        c = coeffs[i] * scale
        ic = i * c
        if i & 1:
            o0 += c
            o1 += ic
            o2 += (i - 1) * ic
        else:
            e0 += c
            e1 += ic
            e2 += (i - 1) * ic
    return e0, e1, e2, o0, o1, o2


def _functionals(family: AppellFamily):
    """The closed form's coefficients that do not depend on (n, x), the one
    place they are formed, from the family's jet (e0, e1, e2, o0, o1, o2,
    q1): a Gould-Hopper family's from ``appell._gould_hopper_jet``, any
    other's from ``_parity_sums`` on first use.  Both are kept on the family.

    Returns (w1, a, lead, skew1, skew2, s0, s1), each divided by the jet's
    q1 once formed, so that no point forms Q(1) n: with mu2 = 2 mu and a =
    mu2 O0 before that division,

        w1    = Q'(1) = E1 + O1        lead  = Q(1) + 2 Q'(1)
        skew1 = mu2 E0 - a             skew2 = mu2 E0 - 3 a
        s1    = 2 mu2 O1               s0    = Q'(1) + Q''(1) + mu2 a

    Only their quotients by Q(1) are used, so the pass takes every
    coefficient times 2**-e, where Q(1) = m 2**e with 0.5 <= m < 1 and e > 0
    (no scaling up), and q1 is Q(1) 2**-e = m: the sums stay in double
    range whenever they are of the order of Q(1), as for exp(700 t**2),
    whose E2 is about 2e310.  A power of two scales exactly, so each value
    keeps the bits of the unscaled formula wherever no scaled term falls
    below 2**-1022, which takes a term below Q(1) 2**-1021; where one does,
    only values below 2**-1021 were seen to move, by a few of their ulps.

    Every mu term multiplies mu2 into one sum before sums are combined, so
    mu = 0 gives zeros wherever the sums are finite, never 0 * inf.
    Threads that race here compute equal values and store one tuple in one
    attribute, so no lock is needed.
    """
    cached = family._functionals
    if cached is None:
        jet = family._jet
        if jet is None:
            q1 = family.Q_at_1
            e = math.frexp(q1)[1]
            scale = 2.0**-e if e > 0 else 1.0
            jet = family._jet = (*_parity_sums(family, scale), q1 * scale)
        e0, e1, e2, o0, o1, o2, q1 = jet
        mu2 = 2.0 * family.ctx.mu
        dq1, a, even = e1 + o1, mu2 * o0, mu2 * e0
        cached = family._functionals = (
            dq1 / q1,
            a / q1,
            (q1 + 2.0 * dq1) / q1,
            (even - a) / q1,
            (even - 3.0 * a) / q1,
            (dq1 + (e2 + o2) + mu2 * a) / q1,
            2.0 * mu2 * o1 / q1,
        )
    return cached


def _closed_form(spec: OperatorSpec, x: float):
    """(m1, m2, omega1, omega2) from one evaluation of rho and the family's
    coefficients (``_functionals``, already divided by Q(1)), by the module
    docstring's formulas:

        omega1 = (w1 + rho a) / n,      m1 = x + omega1
        S      = (s0 + rho s1) / n**2
        m2     = x**2 + (lead + rho skew1) x / n + S
        omega2 = (1 + rho skew2) x / n + S

    Raw moments that are not finite (x*x past double range, or a generator
    whose coefficients are) raise RangeError naming (n, x).  omega2 is then
    checked against m2 - 2*x*m1 + x**2; the two are algebraically identical,
    so any disagreement beyond rounding indicates a transcription bug and
    raises.

    x is read by ``dunkl._nonnegative_real`` and taken as float(x) + 0.0.
    The family keeps the last result whole, as (n, x, tol, moments) with
    tol = min(1e-15, spec.tol); an equal key returns it, skipping rho, the
    functionals and the checks it passed for these inputs.  A raise stores
    nothing; threads need no lock.
    """
    x = _nonnegative_real("evaluation point", x) + 0.0  # one key for -0.0 and 0.0
    family, n, tol = spec
    if tol > 1e-15:
        tol = 1e-15
    last = family._last_moments
    if last is not None and last[0] == n and last[1] == x and last[2] == tol:
        return last[3]
    w1, a, lead, skew1, skew2, s0, s1 = _functionals(family)
    rho = dunkl_exp_neg_ratio(family.ctx, n * x, tol=tol)
    omega1 = (w1 + rho * a) / n
    m1 = x + omega1
    s = (s0 + rho * s1) / n / n
    xx = x * x
    m2 = xx + (lead + rho * skew1) * x / n + s
    if not (math.isfinite(m1) and math.isfinite(m2)):
        raise RangeError(
            f"raw moments left double range: m1 = {m1!r}, m2 = {m2!r} at "
            f"(n={n}, x={x}, mu={family.ctx.mu})"
        )
    omega2 = (1.0 + rho * skew2) * x / n + s
    combined = m2 - 2.0 * x * m1 + xx
    # The combination cancels x**2-sized terms, so allow a rounding floor
    # proportional to the quantities that cancel.
    floor = 64.0 * 2.220446049250313e-16 * (xx + 2.0 * x * abs(m1) + abs(m2))
    diff = abs(omega2 - combined)
    if not diff <= 1e-10 * max(abs(omega2), abs(combined)) + floor:  # NaN fails
        raise TranscriptionError(
            f"formula transcription error: omega2 formula {omega2!r} vs "
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
    return tuple.__new__(CentralMoments, (omega1, omega2, "closed-form"))


def central_moments_series(spec: OperatorSpec, x: float) -> CentralMoments:
    """Central moments by direct weighted summation (the slow oracle)."""
    omega1 = apply(spec, lambda t: t - x, x)
    omega2 = apply(spec, lambda t: (t - x) ** 2, x)
    if -1e-12 <= omega2 < 0.0:
        omega2 = 0.0
    return CentralMoments(omega1, omega2, "series-summed")
