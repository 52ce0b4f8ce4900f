"""Moduli of continuity and quantitative error-bound verification.

Three bounds relate the operator error |K f - f| at a point to smoothness
measures of f:

  * first-modulus bound:   (1 + sqrt(n * omega2)) * w(f; 1/sqrt(n))
  * Hoelder bound:         M * omega2 ** (beta / 2)
  * second-modulus bound:  (3/4) * (2 + a + s**2) * w2(f; s) + (2 s**2 / a) ||f||,
                           with s = omega2 ** (1/4), on x in [0, a]

where omega2 is the operator's second central moment at x.  Each bound is
one rule of omega2 that checks its inputs, points included, once; the
theoremN_bound functions and the verifier share it, and a point mass
(omega2 = 0) takes the same formula.  The verifier sweeps a grid, compares
actual error against the selected bound, and flags violations beyond a
small rounding slack.  It takes every modulus in closed form from the
registry (see ``verify``).  ``modulus1`` and ``modulus2`` estimate a modulus
from f on a grid window, a lower estimate returned as a plain float; that
grid, like the CLI's --x-grid, comes from ``grid_points``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .appell import _points
from .dunkl import _nonnegative_real
from .engine import OperatorSpec, apply, central_moments
from .errors import ConfigurationError, DomainError, EvaluationError
from .functions import FunctionEntry

MARGIN_SLACK = 1e-9
# How far a second-modulus point may lie past interval_end: a grid's rounding.
EDGE_SLACK = 1e-12

# Nodes a modulus grid may hold (about 250 MB).
MAX_GRID_NODES = 2**22

ANALYTIC = "analytic"
WINDOW_LOCAL = "window-local (consistency check, not proof)"


def grid_points(lo: float, hi: float, step: float) -> List[float]:
    """The inclusive grid lo + k * step, k = 0, 1, ... up to the floor of
    (hi - lo) / step + 1e-9, a slack that keeps hi where the quotient rounds
    low: the grid of --x-grid and of the modulus windows.  lo and hi must
    be finite reals and step finite and positive (``_nonnegative_real``); a
    value they refuse, lo > hi, or more than MAX_GRID_NODES points (read at
    call time, counted before any is built) raise DomainError."""
    lo = _nonnegative_real("grid start", lo, signed=True)
    hi = _nonnegative_real("grid end", hi, signed=True)
    step = _nonnegative_real("grid step", step, positive=True)
    if not lo <= hi:
        raise DomainError(f"window ({lo}, {hi}) holds no point")
    span = (hi - lo) / step + 1e-9  # inf past double range
    if not span < MAX_GRID_NODES:
        count = math.floor(span) + 1 if span < math.inf else span
        raise DomainError(
            f"the grid on ({lo}, {hi}) at step {step} holds {count} nodes, "
            f"more than the limit of {MAX_GRID_NODES}"
        )
    return [lo + k * step for k in range(math.floor(span) + 1)]


def _grid_values(f, lo: float, hi: float, step: float):
    """f at ``grid_points(lo, hi, step)``, whose checks run before f does."""
    xs = grid_points(lo, hi, step)
    fv = np.array([f(x) for x in xs], dtype=float)
    if not np.all(np.isfinite(fv)):
        bad = xs[int(np.argmin(np.isfinite(fv)))]
        raise EvaluationError(f"function is non-finite on the window, near x={bad}")
    return fv


def modulus1(
    f: Callable[[float], float],
    delta: float,
    window: Tuple[float, float],
    grid_step: float = 1e-3,
) -> float:
    """Grid estimate of the modulus of continuity w(f; delta) on a window.

    Maximizes |f(x) - f(y)| over grid pairs with |x - y| <= delta.  The
    value is a lower estimate of the true modulus: the grid can miss the
    maximizing pair by up to one step.
    """
    delta = _nonnegative_real("delta", delta, positive=True)
    grid_step = _nonnegative_real("grid step", grid_step, positive=True)
    if grid_step > delta / 8.0:
        raise DomainError(
            f"grid step {grid_step} too coarse for delta={delta}; need <= delta/8"
        )
    fv = _grid_values(f, *window, grid_step)
    # Rounding is monotone: the largest rounded pair difference is max - min.
    shift = min(int(math.floor(delta / grid_step + 1e-9)), len(fv) - 1)
    runs = sliding_window_view(fv, shift + 1)
    return float(np.max(runs.max(1) - runs.min(1)))


def modulus2(
    f: Callable[[float], float],
    s: float,
    window: Tuple[float, float],
    grid_step: float = 1e-3,
) -> float:
    """Grid estimate of the second-order modulus on a window, a lower
    estimate as ``modulus1``'s.

    Maximizes |f(x + 2h) - 2 f(x + h) + f(x)| over the grid for 0 < h <= s;
    the window must leave room for x + 2h.
    """
    s = _nonnegative_real("scale s", s, positive=True)
    grid_step = _nonnegative_real("grid step", grid_step, positive=True)
    if grid_step > s / 8.0:
        raise DomainError(
            f"grid step {grid_step} too coarse for s={s}; need <= s/8"
        )
    if window[1] - window[0] < 2.0 * s:
        raise DomainError(
            f"window {window} cannot accommodate x + 2h for h up to {s}"
        )
    fv = _grid_values(f, *window, grid_step)
    # the grid shifts h = k * grid_step <= s that fit twice into the window
    shifts = min(int(math.floor(s / grid_step + 1e-9)), (len(fv) - 1) // 2)
    value = 0.0
    for k in range(1, shifts + 1):
        d = float(np.max(np.abs(fv[2 * k:] - 2.0 * fv[k:-k] + fv[: -2 * k])))
        value = max(value, d)
    return value


@dataclass(frozen=True)
class BoundInputs:
    """The scalar inputs a theorem bound was assembled from at one point."""

    theorem: str
    s: float = 0.0  # omega2 ** (1/4)
    lambda_n: float = 0.0  # sqrt(n * omega2)
    M: float = 0.0
    beta: float = 0.0
    a: float = 0.0
    sup_norm: float = 0.0


# A rule maps omega2 at a point to (bound, BoundInputs).
_Rule = Callable[[float], Tuple[float, BoundInputs]]


def _modulus(theorem: str, value: float) -> float:
    """A modulus value a rule takes: finite and >= 0, else DomainError
    naming the theorem (a nan or negative value gave a nan or negative
    bound)."""
    if not 0.0 <= value < math.inf:
        raise DomainError(
            f"theorem {theorem} needs a modulus value that is finite and >= 0, "
            f"got {value}"
        )
    return value


def _t2(n: int, w: float) -> _Rule:
    """First-modulus rule, given the modulus value w = w(f; 1/sqrt(n)),
    checked by ``_modulus``."""
    _modulus("T2", w)

    def rule(omega2: float):
        lambda_n = math.sqrt(n * omega2)
        inputs = BoundInputs("T2", s=omega2 ** 0.25, lambda_n=lambda_n)
        return (1.0 + lambda_n) * w, inputs

    return rule


def _t3(M: float, beta: float) -> _Rule:
    """Hoelder rule for a constant M > 0 and an exponent beta in (0, 1],
    each read by ``_nonnegative_real`` first."""
    beta = _nonnegative_real("Hoelder exponent", beta, signed=True)
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"Hoelder exponent must lie in (0, 1], got {beta}")
    M = _nonnegative_real("Hoelder constant M", M, positive=True)
    inputs = BoundInputs("T3", M=M, beta=beta)
    return lambda omega2: (M * omega2 ** (beta / 2.0), inputs)


def _t4(a: float, w2: Callable, sup_norm: float, xs: Sequence[float]) -> _Rule:
    """Second-modulus rule on [0, a] with s = omega2 ** (1/4), for points xs
    that lie at most EDGE_SLACK past a (else DomainError); each value w2(s)
    is checked by ``_modulus``."""
    a = _nonnegative_real("interval end", a, positive=True)
    sup_norm = _nonnegative_real("sup norm", sup_norm)
    top = max(xs, default=0.0)
    if not top <= a + EDGE_SLACK:
        raise DomainError(f"x={top} lies past interval_end={a}; the bound holds on [0, a]")

    def rule(omega2: float):
        s = omega2 ** 0.25
        w = _modulus("T4", w2(s))
        bound = 0.75 * (2.0 + a + s * s) * w + (2.0 * s * s / a) * sup_norm
        return bound, BoundInputs("T4", s=s, a=a, sup_norm=sup_norm)

    return rule


def theorem2_bound(
    spec: OperatorSpec, x: float, w_provider: Callable[[float], float]
) -> float:
    """First-modulus bound (1 + sqrt(n*omega2(x))) * w(1/sqrt(n))."""
    rule = _t2(spec.n, w_provider(1.0 / math.sqrt(spec.n)))
    return rule(central_moments(spec, x).omega2)[0]


def theorem3_bound(spec: OperatorSpec, x: float, M: float, beta: float) -> float:
    """Hoelder bound M * omega2(x) ** (beta/2) for exponent beta in (0, 1]."""
    rule = _t3(M, beta)
    return rule(central_moments(spec, x).omega2)[0]


def theorem4_bound(
    spec: OperatorSpec,
    x: float,
    interval_end: float,
    w2_provider: Callable[[float], float],
    sup_norm: float,
) -> float:
    """Second-modulus bound on [0, interval_end] with s = omega2 ** (1/4);
    x may lie EDGE_SLACK past interval_end, as in ``verify``.  At a point
    mass (omega2 = 0) w2_provider is called at s = 0: the bound is
    0.75 * (2 + interval_end) * w2(0), 0 for every registry entry."""
    x = _nonnegative_real("evaluation point", x)  # as central_moments reads it
    rule = _t4(interval_end, w2_provider, sup_norm, [x])
    return rule(central_moments(spec, x).omega2)[0]


@dataclass(frozen=True)
class BoundPoint:
    x: float
    kf: float
    fx: float
    actual_error: float
    bound: float
    margin: float
    omega1: float
    omega2: float
    inputs: BoundInputs


@dataclass(frozen=True)
class BoundReport:
    """Per-point error-versus-bound records for one operator and theorem."""

    theorem: str
    n: int
    function: str
    modulus_source: str
    points: List[BoundPoint] = field(default_factory=list)

    @property
    def min_margin(self) -> float:
        # np.min returns NaN when any margin is NaN, whatever their order
        return float(np.min([p.margin for p in self.points], initial=math.inf))

    @property
    def violations(self) -> int:
        # a NaN margin fails this comparison, so it counts as a violation
        return sum(1 for p in self.points if not p.margin >= -MARGIN_SLACK)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _window_end(grid: Sequence[float], n: int) -> float:
    # The end b of the window (0, b) a window-local modulus is taken on:
    # operator nodes carrying non-negligible weight lie inside it.
    return max(grid, default=0.0) + 3.0 / math.sqrt(n) + 1.0


def verify(
    spec: OperatorSpec,
    entry: FunctionEntry,
    theorem: str,
    grid: Sequence[float],
    *,
    M: Optional[float] = None,
    beta: Optional[float] = None,
    interval_end: Optional[float] = None,
) -> BoundReport:
    """Check actual operator error against one theorem's bound on a grid.

    Each modulus comes in closed form from the registry entry.  T2 takes
    ``analytic_modulus``, else ``window_modulus`` on the window (0, max(grid)
    + 3/sqrt(n) + 1) with the report labeled a window-local consistency
    check (the theorem needs the modulus on the whole half line).  T4 takes
    ``analytic_modulus2``.  An entry without the modulus its theorem needs
    raises ConfigurationError, as a missing Hoelder pair does.  M and beta
    belong to T3 (a pair given whole, else the entry's) and interval_end to
    T4 (needed; a point past it is checked as in ``theorem4_bound``).  The
    grid is read once as floats, as ``apply`` reads it; the checks, f and the
    moments take those floats.
    """
    if theorem not in ("T2", "T3", "T4"):
        raise ConfigurationError(f"unknown theorem {theorem!r}; expected T2, T3 or T4")
    given = (("M", M, "T3"), ("beta", beta, "T3"), ("interval_end", interval_end, "T4"))
    foreign = [name for name, value, owner in given if value is not None and owner != theorem]
    if foreign:
        raise ConfigurationError(
            f"theorem {theorem} takes no {' or '.join(foreign)}; M and beta "
            "belong to T3, interval_end to T4"
        )
    xs = _points(grid)
    if xs.ndim != 1:
        raise DomainError(f"grid must be a 1-D sequence, got shape {xs.shape}")
    grid = xs.tolist()
    f = entry.evaluator
    source = ANALYTIC

    if theorem == "T2":
        delta = 1.0 / math.sqrt(spec.n)
        if entry.analytic_modulus is not None:
            w_at_delta = entry.analytic_modulus(delta)
        elif entry.window_modulus is not None:
            source = WINDOW_LOCAL
            w_at_delta = entry.window_modulus(delta, _window_end(grid, spec.n))
        else:
            raise ConfigurationError(f"function {entry.name!r} has no modulus for T2")
        rule = _t2(spec.n, w_at_delta)
    elif theorem == "T3":
        if (M is None) != (beta is None):
            raise ConfigurationError(
                f"the Hoelder bound needs both M and beta, got M={M}, beta={beta}"
            )
        holder = (M, beta) if M is not None else entry.holder
        if holder is None:
            raise ConfigurationError(
                f"function {entry.name!r} has no Hoelder pair and none was given"
            )
        rule = _t3(*holder)
    else:  # T4
        if interval_end is None:
            raise ConfigurationError("the second-modulus bound needs interval_end")
        if entry.sup_norm is None:
            raise ConfigurationError(
                f"function {entry.name!r} is unbounded; the second-modulus "
                "bound needs a finite sup norm"
            )
        if entry.analytic_modulus2 is None:
            raise ConfigurationError(f"function {entry.name!r} has no second modulus for T4")
        rule = _t4(interval_end, entry.analytic_modulus2, entry.sup_norm, grid)

    points = []
    for x, kf in zip(grid, apply(spec, f, grid).tolist()):
        cm = central_moments(spec, x)
        fx = f(x)
        actual = abs(kf - fx)
        bound, inputs = rule(cm.omega2)
        points.append(
            BoundPoint(
                x=x,
                kf=kf,
                fx=fx,
                actual_error=actual,
                bound=bound,
                margin=bound - actual,
                omega1=cm.omega1,
                omega2=cm.omega2,
                inputs=inputs,
            )
        )
    return BoundReport(
        theorem=theorem,
        n=spec.n,
        function=entry.name,
        modulus_source=source,
        points=points,
    )
