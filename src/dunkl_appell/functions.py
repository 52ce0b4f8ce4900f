"""Registry of test functions with their analytic smoothness metadata.

Bound verification uses only analytic moduli: a numerical estimate is a
lower bound on the true modulus, and feeding an underestimate into a
theorem's right-hand side could flag spurious violations of a true
statement.  ``square`` has no global modulus on the half line; its entry
carries the exact modulus on a window [0, b] instead, and reports that use
it are labeled window-local consistency checks rather than proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .errors import ConfigurationError


@dataclass(frozen=True)
class FunctionEntry:
    name: str
    evaluator: Callable[[float], float]
    analytic_modulus: Optional[Callable[[float], float]] = None
    analytic_modulus2: Optional[Callable[[float], float]] = None
    holder: Optional[Tuple[float, float]] = None  # (M, beta)
    sup_norm: Optional[float] = None  # sup of |f| over [0, inf)
    # window_modulus(delta, b) is w(f; delta) on [0, b], for an f with no global one
    window_modulus: Optional[Callable[[float, float], float]] = None


def _w_sin(delta: float) -> float:
    # sup |sin(u) - sin(v)| over |u - v| <= delta is 2*sin(delta/2) up to pi.
    return 2.0 * math.sin(min(delta, math.pi) / 2.0)


def _w2_trig(s: float) -> float:
    # Second differences of sin/cos reduce to 2*(1 - cos h)*|carrier|,
    # maximized by the carrier's peak; monotone in h up to pi, capped at 4.
    return 2.0 * (1.0 - math.cos(min(s, math.pi)))


def _w_expneg(delta: float) -> float:
    # Steepest at the origin: |exp(0) - exp(-delta)|.
    return 1.0 - math.exp(-delta)


def _w2_expneg(s: float) -> float:
    # exp(-x) * (1 - exp(-h))**2, maximized at x = 0, h = s.
    return (1.0 - math.exp(-s)) ** 2


def _w_sqrt(delta: float) -> float:
    # |sqrt(u) - sqrt(v)| <= sqrt(|u - v|), attained at (0, delta).
    return math.sqrt(delta)


def _w_square_window(delta: float, b: float) -> float:
    d = min(delta, b)  # |u^2 - v^2| on [0, b] with |u - v| <= d peaks at (b - d, b)
    return (2.0 * b - d) * d


BUILTIN_REGISTRY: Dict[str, FunctionEntry] = {
    e.name: e
    for e in (
        FunctionEntry(
            name="const1",
            evaluator=lambda t: 1.0,
            analytic_modulus=lambda d: 0.0,
            analytic_modulus2=lambda s: 0.0,
            holder=(1.0, 1.0),
            sup_norm=1.0,
        ),
        FunctionEntry(
            name="id",
            evaluator=lambda t: t,
            analytic_modulus=lambda d: d,
            analytic_modulus2=lambda s: 0.0,  # second differences kill affine
            holder=(1.0, 1.0),
        ),
        FunctionEntry(
            # Not uniformly continuous on the half line: no global modulus.
            name="square",
            evaluator=lambda t: t * t,
            analytic_modulus2=lambda s: 2.0 * s * s,
            window_modulus=_w_square_window,
        ),
        FunctionEntry(
            name="sinx",
            evaluator=math.sin,
            analytic_modulus=_w_sin,
            analytic_modulus2=_w2_trig,
            holder=(1.0, 1.0),
            sup_norm=1.0,
        ),
        FunctionEntry(
            name="cosx",
            evaluator=math.cos,
            analytic_modulus=_w_sin,
            analytic_modulus2=_w2_trig,
            holder=(1.0, 1.0),
            sup_norm=1.0,
        ),
        FunctionEntry(
            name="sqrtx",
            evaluator=math.sqrt,
            analytic_modulus=_w_sqrt,
            analytic_modulus2=lambda s: (2.0 - math.sqrt(2.0)) * math.sqrt(s),
            holder=(1.0, 0.5),
        ),
        FunctionEntry(
            name="expnegx",
            evaluator=lambda t: math.exp(-t),
            analytic_modulus=_w_expneg,
            analytic_modulus2=_w2_expneg,
            holder=(1.0, 1.0),
            sup_norm=1.0,
        ),
    )
}


def lookup(name: str) -> FunctionEntry:
    try:
        return BUILTIN_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_REGISTRY))
        raise ConfigurationError(
            f"unknown function name {name!r}; registered: {known}"
        ) from None
