"""Dunkl-Appell polynomial families and their operator weights.

A family is determined by a generating series Q with nonzero constant term
and Q(1) > 0, stored in plain monomial coefficients c_i (the normalized
coefficients a_i of the polynomial expansion are c_i * gamma_mu(i)).  The
i-th family polynomial is

    q_i(x) = sum_j gamma_mu(i) * c_{i-j} / gamma_mu(j) * x**j,

and the operator weight at index i, scale n and point x >= 0 is

    q_i(n*x) / (gamma_mu(i) * Q(1) * e_mu(n*x)),

computed here as a convolution of the c_i with u_j = (n*x)**j / gamma_mu(j)
so that gamma_mu itself never has to be materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from .dunkl import DunklContext, dunkl_exp
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

    The weights of an admissible family are nonnegative and sum to one over
    all indices; tail_mass is one minus the emitted sum, so the partition
    of unity holds exactly at truncation level.
    """

    weights: Sequence[float]
    tail_mass: float
    n: int
    x: float


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
        g = self.ctx.gamma
        c = self.Q.coeffs
        gi = g(i)
        out = []
        for j in range(i + 1):
            k = i - j
            ck = c[k] if k <= deg else 0.0
            out.append(gi * ck / g(j) if ck != 0.0 else 0.0)
        return out

    def weights(
        self,
        n: int,
        x: float,
        tol: float = 1e-12,
        cap: int = 10_000,
        allow_unverified: bool = False,
    ) -> WeightSequence:
        """Operator weights at (n, x), emitted until the mass test passes.

        Emission stops once the cumulative mass reaches 1 - tol AND the
        next index is past ceil(n*x): the weights peak near index n*x, so
        testing mass alone would truncate prematurely at small indices
        where the early weights are tiny.  Hitting the cap with more than
        tol of mass outstanding raises, carrying the partial sequence.

        A weight below -1e-12 signals an inadmissible generating series and
        raises; rounding-level negatives above that are clamped to zero.
        """
        if n < 1:
            raise DomainError(f"operator scale n must be >= 1, got {n}")
        if x < 0.0:
            raise DomainError(f"evaluation point must be >= 0, got {x}")
        if tol <= 0.0:
            raise DomainError(f"mass tolerance must be positive, got {tol}")
        if self.positivity != POSITIVE_BY_COEFFICIENTS and not allow_unverified:
            raise DomainError(
                "family positivity is unverified; pass allow_unverified=True "
                "to proceed anyway"
            )
        mu = self.ctx.mu
        nx = n * x
        e_val = dunkl_exp(self.ctx, nx, tol=min(1e-15, tol)).value
        denom = self.Q_at_1 * e_val
        nonzero = [(k, ck) for k, ck in enumerate(self.Q.coeffs) if ck != 0.0]
        mode = math.ceil(nx)
        u = [1.0]
        weights: List[float] = []
        cum = 0.0
        i = 0
        while i < cap:
            if cum >= 1.0 - tol and i > mode:
                break
            w = 0.0
            for k, ck in nonzero:
                if k > i:
                    break
                w += ck * u[i - k]
            w /= denom
            if w < 0.0:
                if w < -1e-12:
                    raise PositivityViolationError(
                        f"weight {w} at index {i} is materially negative; "
                        "the generating series is inadmissible",
                        index=i,
                        weight=w,
                    )
                w = 0.0
            weights.append(w)
            cum += w
            u.append(u[i] * nx / (i + 1 + 2.0 * mu * ((i + 1) & 1)))
            i += 1
        else:
            tail = 1.0 - cum
            if tail > tol:
                partial = WeightSequence(
                    weights=tuple(weights), tail_mass=tail, n=n, x=x
                )
                raise TruncationFailureError(
                    f"truncation failure: cap {cap} reached with "
                    f"tail mass {tail:.3e} > tol {tol:.3e} at (n={n}, x={x})",
                    partial=partial,
                )
        return WeightSequence(
            weights=tuple(weights), tail_mass=1.0 - cum, n=n, x=x
        )
