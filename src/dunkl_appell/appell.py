"""Dunkl-Appell polynomial families and their operator weights.

A family is determined by a generating series Q with nonzero constant term
and Q(1) > 0, stored in plain monomial coefficients c_i (the normalized
coefficients a_i of the polynomial expansion are c_i * gamma_mu(i)).  The
i-th family polynomial is

    q_i(x) = sum_j gamma_mu(i) * c_{i-j} / gamma_mu(j) * x**j,

and the operator weight at index i, scale n and point x >= 0 is

    q_i(n*x) / (gamma_mu(i) * Q(1) * e_mu(n*x)),

computed here as a convolution of the c_i with u_j = (n*x)**j / gamma_mu(j),
scaled to 1 at the mode j = floor(n*x).  The sum of the u_j stands in for
e_mu(n*x), so neither gamma_mu nor e_mu is materialized or can overflow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

# Unused here; kept because the benchmark's tracer wraps appell.dunkl_exp.
from .dunkl import DunklContext, dunkl_exp  # noqa: F401
from .errors import (
    DomainError,
    NormalizationError,
    NotAppellGeneratorError,
    PositivityViolationError,
    TruncationFailureError,
)
from .series import PowerSeries

POSITIVE_BY_COEFFICIENTS = "proven-by-coefficients"
UNVERIFIED = "unverified"


@dataclass(frozen=True)
class WeightSequence:
    """Truncated operator weights at one (n, x), with the unassigned mass.

    weights[k] sits at index start + k.  The weights of an admissible family
    are nonnegative and sum to one over all indices; tail_mass is one minus
    the emitted sum, so the partition of unity holds at truncation level.
    """

    weights: Sequence[float]
    tail_mass: float
    n: int
    x: float
    start: int = 0


class AppellFamily:
    """A validated generating series Q plus derived family machinery.

    ``positivity`` is 'proven-by-coefficients' when every stored coefficient
    of Q is nonnegative (a sufficient condition for nonnegative weights on
    x >= 0) and 'unverified' otherwise; weight generation rejects unverified
    families unless explicitly overridden.

    ``truncated`` marks families whose stored coefficients cut off a
    genuinely infinite expansion (the Gould-Hopper exponentials); for those,
    polynomial indices past the stored degree are not represented.  Families
    built from explicit coefficient lists are exact polynomials and have
    q_i defined for every i.
    """

    __slots__ = ("ctx", "Q", "positivity", "Q_at_1", "truncated", "_functionals")

    def __init__(self, ctx: DunklContext, Q: PowerSeries, truncated: bool = False):
        if ctx.mu < 0.0:
            raise DomainError(
                f"operator families require mu >= 0, got mu={ctx.mu}"
            )
        if Q.coeffs[0] == 0.0:
            raise NotAppellGeneratorError(
                "not an Appell generator: constant coefficient is zero"
            )
        q1 = Q.eval(1.0)
        if q1 <= 0.0:
            raise NormalizationError(
                f"normalization undefined: Q(1) = {q1} is not positive"
            )
        self.ctx = ctx
        self.Q = Q
        self.Q_at_1 = q1
        self.truncated = truncated
        # The engine's Q-functionals, filled on first use; Q never changes.
        self._functionals = None
        if all(c >= 0.0 for c in Q.coeffs):
            self.positivity = POSITIVE_BY_COEFFICIENTS
        else:
            self.positivity = UNVERIFIED

    @classmethod
    def from_coefficients(
        cls, ctx: DunklContext, c: Sequence[float]
    ) -> "AppellFamily":
        """Family generated by the polynomial with the given coefficients."""
        return cls(ctx, PowerSeries(ctx, c))

    @classmethod
    def gould_hopper(
        cls, ctx: DunklContext, a: float, d: int, degree_cap: int = 48
    ) -> "AppellFamily":
        """Family with generator exp(a * t**(d+1)), truncated at degree_cap.

        Nonzero coefficients sit at multiples of d+1 with values a**k / k!.
        a = 0 collapses to the constant generator (the plain Dunkl-Szasz
        weights); a > 0 keeps every coefficient nonnegative, so positivity
        is proven by inspection.
        """
        if a < 0.0:
            raise DomainError(f"exponent coefficient must be >= 0, got {a}")
        if d < 1:
            raise DomainError(f"exponent gap must be a positive integer, got {d}")
        if degree_cap < 1:
            raise DomainError(f"degree cap must be positive, got {degree_cap}")
        if a == 0.0:
            return cls(ctx, PowerSeries(ctx, (1.0,)))
        coeffs = [0.0] * (degree_cap + 1)
        k = 0
        term = 1.0
        while k * (d + 1) <= degree_cap:
            coeffs[k * (d + 1)] = term
            k += 1
            term *= a / k
        return cls(ctx, PowerSeries(ctx, coeffs), truncated=True)

    def poly(self, i: int) -> List[float]:
        """Coefficients of q_i in powers of x (length i+1).

        For truncated families, indices past the stored degree would drop
        genuinely nonzero terms and are rejected.
        """
        if i < 0:
            raise DomainError(f"polynomial index must be nonnegative, got {i}")
        deg = self.Q.degree
        if self.truncated and i > deg:
            raise DomainError(
                f"family truncated at degree {deg}: q_{i} is not represented"
            )
        gi = self.ctx.gamma(i)  # raises RangeError if gamma_mu(i) overflows
        gj = 1.0  # gamma_mu(j), multiplied in the order ctx.gamma uses
        out = []
        for j in range(i + 1):
            ck = self.Q.coeffs[i - j] if i - j <= deg else 0.0
            out.append(gi * ck / gj if ck != 0.0 else 0.0)
            gj *= j + 1 + 2.0 * self.ctx.mu * ((j + 1) & 1)
        return out

    def weights(
        self,
        n: int,
        x: float,
        tol: float = 1e-12,
        cap: int = 10_000,
        allow_unverified: bool = False,
    ) -> WeightSequence:
        """Operator weights at (n, x) from a window of u_j around the mode.

        Each side of the window stops once u * q / (1 - q) <= (tol/2) * (sum
        so far), q bounding every later ratio on that side: n*x / (j+1) up,
        (j + 2*mu) / (n*x) down.  A window cut at cap terms adds that bound
        to its sum.  Leaving more than tol of mass outside the first cap
        weights raises, carrying the partial sequence.

        A weight below -1e-12 signals an inadmissible generating series and
        raises; rounding-level negatives above that are clamped to zero.
        """
        if n < 1:
            raise DomainError(f"operator scale n must be >= 1, got {n}")
        if not 0.0 <= n * x < math.inf:
            raise DomainError(f"evaluation point must be >= 0 with n*x finite, got {x}")
        if not 0.0 < tol < math.inf:
            raise DomainError(f"mass tolerance must be finite and positive, got {tol}")
        if cap < 1:
            raise DomainError(f"weight cap must be >= 1, got {cap}")
        if self.positivity != POSITIVE_BY_COEFFICIENTS and not allow_unverified:
            raise DomainError(
                "family positivity is unverified; pass allow_unverified=True "
                "to proceed anyway"
            )
        mu2 = 2.0 * self.ctx.mu
        nx = n * x

        def rest(t, q):  # bound on the terms past t if every later ratio is <= q
            return t * q / (1.0 - q) if q < 1.0 else math.inf

        lo = hi = math.floor(nx)
        u = deque([1.0])
        total = 1.0
        while (r_hi := rest(u[-1], nx / (hi + 1))) > tol * total / 2 and len(u) < cap:
            hi += 1
            u.append(u[-1] * nx / (hi + mu2 * (hi & 1)))
            total += u[-1]
        # q = 0 at index 0, which has no terms below it
        while (r_lo := rest(u[0], lo and (lo + mu2) / nx)) > tol * total / 2 and len(u) < cap:
            u.appendleft(u[0] * (lo + mu2 * (lo & 1)) / nx)
            lo -= 1
            total += u[0]
        if r_hi + r_lo > tol * total:  # the window stopped at the cap
            total += r_hi + r_lo
        w = np.convolve(self.Q.coeffs, u)[:cap] / (self.Q_at_1 * total)
        i = int(np.argmin(w))
        if w[i] < -1e-12:
            raise PositivityViolationError(
                f"weight {w[i]} at index {lo + i} is materially negative; "
                "the generating series is inadmissible",
                index=lo + i,
                weight=float(w[i]),
            )
        weights = tuple(np.maximum(w, 0.0).tolist())
        ws = WeightSequence(weights, 1.0 - math.fsum(weights), n, x, start=lo)
        if ws.tail_mass > tol:
            raise TruncationFailureError(
                f"truncation failure: cap {cap} reached with tail mass "
                f"{ws.tail_mass:.3e} > tol {tol:.3e} at (n={n}, x={x})",
                partial=ws,
            )
        return ws
