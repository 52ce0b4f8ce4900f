"""Moduli of continuity and quantitative error-bound verification.

Three bounds relate the operator error |K f - f| at a point to smoothness
measures of f:

  * first-modulus bound:   (1 + sqrt(n * omega2)) * w(f; 1/sqrt(n))
  * Hoelder bound:         M * omega2 ** (beta / 2)
  * second-modulus bound:  (3/4) * (2 + a + s**2) * w2(f; s) + (2 s**2 / a) ||f||,
                           with s = omega2 ** (1/4), on x in [0, a]

where omega2 is the operator's second central moment at x.  The verifier
sweeps a grid, compares actual error against the selected bound, and flags
violations beyond a small rounding slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .engine import OperatorSpec, apply, central_moments
from .errors import ConfigurationError, DomainError, EvaluationError
from .functions import FunctionEntry

MARGIN_SLACK = 1e-9
_S_FLOOR = 1e-8

ANALYTIC = "analytic"
GRID_ESTIMATE = "grid-estimate (consistency check, not proof)"


@dataclass(frozen=True)
class ModulusEstimate:
    """A grid maximum of first or second differences.

    The value is a lower estimate of the true modulus: the grid can miss
    the maximizing pair by up to one step.
    """

    delta: float
    value: float
    window: Tuple[float, float]
    grid_step: float
    kind: str  # 'first' or 'second'


def _grid_values(f, lo: float, hi: float, step: float):
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    xs = lo + step * np.arange(count)
    fv = np.array([f(float(x)) for x in xs], dtype=float)
    if not np.all(np.isfinite(fv)):
        bad = xs[~np.isfinite(fv)][0]
        raise EvaluationError(f"function is non-finite on the window, near x={bad}")
    return fv


def modulus1(
    f: Callable[[float], float],
    delta: float,
    window: Tuple[float, float],
    grid_step: float = 1e-3,
) -> ModulusEstimate:
    """Grid estimate of the modulus of continuity w(f; delta) on a window.

    Maximizes |f(x) - f(y)| over grid pairs with |x - y| <= delta.
    """
    if delta <= 0.0:
        raise DomainError(f"delta must be positive, got {delta}")
    if grid_step > delta / 8.0:
        raise DomainError(
            f"grid step {grid_step} too coarse for delta={delta}; need <= delta/8"
        )
    lo, hi = window
    fv = _grid_values(f, lo, hi, grid_step)
    max_shift = int(math.floor(delta / grid_step + 1e-9))
    value = 0.0
    for k in range(1, min(max_shift, len(fv) - 1) + 1):
        d = float(np.max(np.abs(fv[k:] - fv[:-k])))
        if d > value:
            value = d
    return ModulusEstimate(
        delta=delta, value=value, window=(lo, hi), grid_step=grid_step, kind="first"
    )


def modulus2(
    f: Callable[[float], float],
    s: float,
    window: Tuple[float, float],
    grid_step: float = 1e-3,
) -> ModulusEstimate:
    """Grid estimate of the second-order modulus on a window.

    Maximizes |f(x + 2h) - 2 f(x + h) + f(x)| over the grid for 0 < h <= s;
    the window must leave room for x + 2h.
    """
    if s <= 0.0:
        raise DomainError(f"scale s must be positive, got {s}")
    if grid_step > s / 8.0:
        raise DomainError(
            f"grid step {grid_step} too coarse for s={s}; need <= s/8"
        )
    lo, hi = window
    if hi - lo < 2.0 * s:
        raise DomainError(
            f"window {window} cannot accommodate x + 2h for h up to {s}"
        )
    fv = _grid_values(f, lo, hi, grid_step)
    max_shift = int(math.floor(s / grid_step + 1e-9))
    value = 0.0
    for k in range(1, min(max_shift, (len(fv) - 1) // 2) + 1):
        d = float(np.max(np.abs(fv[2 * k:] - 2.0 * fv[k:-k] + fv[: -2 * k])))
        if d > value:
            value = d
    return ModulusEstimate(
        delta=s, value=value, window=(lo, hi), grid_step=grid_step, kind="second"
    )


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


def _bound_t2(n: int, omega2: float, w_value: float) -> float:
    return (1.0 + math.sqrt(n * omega2)) * w_value


def _bound_t3(omega2: float, M: float, beta: float) -> float:
    return M * omega2 ** (beta / 2.0)


def _bound_t4(
    omega2: float, a: float, w2: Callable[[float], float], sup_norm: float
) -> Tuple[float, bool]:
    s = omega2 ** 0.25
    if s == 0.0:
        # Degenerate point mass: the modulus factor is evaluated at a small
        # floor instead of zero, and the sup-norm term drops out.
        return 0.75 * (2.0 + a) * w2(_S_FLOOR), True
    return (
        0.75 * (2.0 + a + s * s) * w2(s) + (2.0 * s * s / a) * sup_norm,
        False,
    )


def theorem2_bound(
    spec: OperatorSpec, x: float, w_provider: Callable[[float], float]
) -> float:
    """First-modulus bound (1 + sqrt(n*omega2(x))) * w(1/sqrt(n))."""
    omega2 = central_moments(spec, x).omega2
    return _bound_t2(spec.n, omega2, w_provider(1.0 / math.sqrt(spec.n)))


def theorem3_bound(spec: OperatorSpec, x: float, M: float, beta: float) -> float:
    """Hoelder bound M * omega2(x) ** (beta/2) for exponent beta in (0, 1]."""
    if not (0.0 < beta <= 1.0):
        raise DomainError(f"Hoelder exponent must lie in (0, 1], got {beta}")
    if M <= 0.0:
        raise DomainError(f"Hoelder constant must be positive, got {M}")
    omega2 = central_moments(spec, x).omega2
    return _bound_t3(omega2, M, beta)


def theorem4_bound(
    spec: OperatorSpec,
    x: float,
    interval_end: float,
    w2_provider: Callable[[float], float],
    sup_norm: float,
) -> float:
    """Second-modulus bound on [0, interval_end] with s = omega2 ** (1/4)."""
    if interval_end <= 0.0:
        raise DomainError(f"interval end must be positive, got {interval_end}")
    if not (0.0 <= x <= interval_end):
        raise DomainError(f"x={x} outside [0, {interval_end}]")
    if sup_norm < 0.0:
        raise DomainError(f"sup norm must be nonnegative, got {sup_norm}")
    omega2 = central_moments(spec, x).omega2
    bound, _ = _bound_t4(omega2, interval_end, w2_provider, sup_norm)
    return bound


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
    s_floored: bool = False


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
        return min((p.margin for p in self.points), default=math.inf)

    @property
    def violations(self) -> int:
        return sum(1 for p in self.points if p.margin < -MARGIN_SLACK)

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class VerifyParams:
    """Inputs for a verification run.  An unset Hoelder pair (M, beta)
    falls back to registry metadata; a pair must be given whole.  M and beta
    belong to T3 and interval_end to T4; any other theorem rejects them."""

    M: Optional[float] = None
    beta: Optional[float] = None
    interval_end: Optional[float] = None
    grid_step: float = 1e-3


def _default_window(grid: Sequence[float], n: int) -> Tuple[float, float]:
    # Wide enough that operator nodes carrying non-negligible weight lie
    # inside the window used for modulus estimation.
    return (0.0, max(grid) + 3.0 / math.sqrt(n) + 1.0)


def verify(
    spec: OperatorSpec,
    entry: FunctionEntry,
    theorem: str,
    grid: Sequence[float],
    params: VerifyParams = VerifyParams(),
) -> BoundReport:
    """Check actual operator error against one theorem's bound on a grid.

    Analytic moduli from the registry are used when present; otherwise the
    bound is assembled from grid-estimated moduli and the report is labeled
    a consistency check (a grid estimate lower-bounds the true modulus, so
    it cannot certify the theorem).
    """
    if theorem not in ("T2", "T3", "T4"):
        raise ConfigurationError(f"unknown theorem {theorem!r}; expected T2, T3 or T4")
    foreign = [
        name
        for name, owner in (("M", "T3"), ("beta", "T3"), ("interval_end", "T4"))
        if getattr(params, name) is not None and owner != theorem
    ]
    if foreign:
        raise ConfigurationError(
            f"theorem {theorem} takes no {' or '.join(foreign)}; M and beta "
            "belong to T3, interval_end to T4"
        )
    if len(grid) == 0:
        return BoundReport(
            theorem=theorem,
            n=spec.n,
            function=entry.name,
            modulus_source=ANALYTIC,
            points=[],
        )
    f = entry.evaluator
    window = _default_window(grid, spec.n)
    source = ANALYTIC

    if theorem == "T2":
        delta = 1.0 / math.sqrt(spec.n)
        if entry.analytic_modulus is not None:
            w_at_delta = entry.analytic_modulus(delta)
        else:
            source = GRID_ESTIMATE
            step = min(params.grid_step, delta / 8.0)
            w_at_delta = modulus1(f, delta, window, step).value
    elif theorem == "T3":
        if (params.M is None) != (params.beta is None):
            raise ConfigurationError(
                f"the Hoelder bound needs both M and beta, got M={params.M}, "
                f"beta={params.beta}"
            )
        holder = (params.M, params.beta) if params.M is not None else entry.holder
        if holder is None:
            raise ConfigurationError(
                f"function {entry.name!r} has no Hoelder pair and none was given"
            )
        M, beta = holder
        if not (0.0 < beta <= 1.0):
            raise DomainError(f"Hoelder exponent must lie in (0, 1], got {beta}")
    else:  # T4
        if params.interval_end is None:
            raise ConfigurationError("the second-modulus bound needs interval_end")
        a = params.interval_end
        if not entry.bounded or entry.sup_norm is None:
            raise ConfigurationError(
                f"function {entry.name!r} is unbounded; the second-modulus "
                "bound needs a finite sup norm"
            )
        if max(grid) > a + 1e-12:
            raise ConfigurationError(
                f"grid extends past interval_end={a}; the bound only holds on [0, a]"
            )
        if entry.analytic_modulus2 is not None:
            w2_provider = entry.analytic_modulus2
        else:
            source = GRID_ESTIMATE

            def w2_provider(s: float) -> float:
                # Bump tiny scales to the resolvable floor; this can only
                # enlarge the estimate (monotone in s), never fake a failure.
                s_eff = max(s, 8.0 * params.grid_step)
                return modulus2(f, s_eff, window, params.grid_step).value

    points = []
    for x in grid:
        cm = central_moments(spec, x)
        kf = apply(spec, f, x)
        fx = f(x)
        actual = abs(kf - fx)
        s_floored = False
        if theorem == "T2":
            bound = _bound_t2(spec.n, cm.omega2, w_at_delta)
            inputs = BoundInputs(
                theorem=theorem,
                s=cm.omega2 ** 0.25,
                lambda_n=math.sqrt(spec.n * cm.omega2),
            )
        elif theorem == "T3":
            bound = _bound_t3(cm.omega2, M, beta)
            inputs = BoundInputs(theorem=theorem, M=M, beta=beta)
        else:
            bound, s_floored = _bound_t4(cm.omega2, a, w2_provider, entry.sup_norm)
            inputs = BoundInputs(
                theorem=theorem,
                s=cm.omega2 ** 0.25,
                a=a,
                sup_norm=entry.sup_norm,
            )
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
                s_floored=s_floored,
            )
        )
    return BoundReport(
        theorem=theorem,
        n=spec.n,
        function=entry.name,
        modulus_source=source,
        points=points,
    )
