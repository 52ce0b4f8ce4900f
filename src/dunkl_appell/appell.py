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
The window of u_j grows outward from the mode, the upper side first, in
blocks of about 8*sqrt(n*x) + 40 terms: a cumulative product of the term
ratios gives a block's terms, a cumulative sum its running totals, and the
first term that meets the side's tail bound ends the side.  The window
holds about 15*sqrt(n*x) terms at the default tolerance; MAX_WINDOW is the
only limit on it (Loader 2000 centres Poisson weights at the mode the same
way).
"""

from __future__ import annotations

import math
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

# Terms a weight window may hold.  At about 15*sqrt(n*x) terms it is reached
# near n*x = 5e9, after about a second of growing the window.
MAX_WINDOW = 2**20


@dataclass(frozen=True)
class WeightSequence:
    """Operator weights at one (n, x) over the window around the mode.

    weights is a read-only float array; weights[k] sits at index start + k.
    The weights of an admissible family are nonnegative and normalized by
    the window's own sum, so they sum to one; tail_mass, computed on access,
    is one minus their sum, a rounding-level residue.  The exact weights
    outside the window carry at most tol of the mass.
    """

    weights: np.ndarray
    n: int
    x: float
    start: int = 0

    @property
    def tail_mass(self) -> float:
        return 1.0 - math.fsum(self.weights.tolist())


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
        allow_unverified: bool = False,
    ) -> WeightSequence:
        """Operator weights at (n, x) from a window of u_j around the mode.

        Each side of the window stops at its first term with u * q / (1 - q)
        <= (tol/2) * (sum so far), q bounding every later ratio on that side:
        n*x / (j+1) up, (j + 2*mu) / (n*x) down.  A side grows in blocks,
        and each block tests all its terms at once, so the window is the one
        that growing it term by term would give.  Both bounds are met for
        every finite n*x; a window that reaches MAX_WINDOW terms (read at
        call time) first raises TruncationFailureError.

        A weight below -1e-12 signals an inadmissible generating series and
        raises; rounding-level negatives above that are clamped to zero.
        """
        if n < 1:
            raise DomainError(f"operator scale n must be >= 1, got {n}")
        if not 0.0 <= n * x < math.inf:
            raise DomainError(f"evaluation point must be >= 0 with n*x finite, got {x}")
        if not 0.0 < tol < math.inf:
            raise DomainError(f"mass tolerance must be finite and positive, got {tol}")
        if self.positivity != POSITIVE_BY_COEFFICIENTS and not allow_unverified:
            raise DomainError(
                "family positivity is unverified; pass allow_unverified=True "
                "to proceed anyway"
            )
        mu2 = 2.0 * self.ctx.mu
        nx = n * x
        mode = math.floor(nx)
        half = tol / 2
        # At apply's tolerances a side ends within about 7.5*sqrt(n*x) terms
        # of the mode, so one block per side is the common case.
        block = int(8.0 * math.sqrt(nx)) + 40
        total, size, sides = 1.0, 1, []
        for up in (True, False):
            blocks = []
            t, j = 1.0, mode  # the side's outermost term and its index
            # q = 0 at index 0, which has no terms below it
            r = _rest(t, nx / (mode + 1) if up else mode and (mode + mu2) / nx)
            while r > half * total and size < MAX_WINDOW:
                m = min(block, MAX_WINDOW - size)
                if not up:
                    m = min(m, j)  # no index below 0
                ratio, q = _step_ratios(nx, mu2, j, m, up)
                ratio[0] *= t
                u = np.multiply.accumulate(ratio)
                running = np.add.accumulate(np.concatenate(((total,), u)))[1:]
                rest = np.full(m, math.inf)
                np.divide(u * q, 1.0 - q, out=rest, where=q < 1.0)
                ends = rest <= half * running
                k = int(ends.argmax())  # the first term that ends the side, if any
                if not ends[k]:
                    k = m - 1
                blocks.append(u[: k + 1])
                t, total, r = float(u[k]), float(running[k]), float(rest[k])
                j += k + 1 if up else -(k + 1)
                size += k + 1
            sides.append((blocks, r))
        (up_blocks, r_hi), (down_blocks, r_lo) = sides
        if max(r_hi, r_lo) > half * total:  # only a full window stops short
            raise TruncationFailureError(
                f"truncation failure: the weight window reached {MAX_WINDOW} "
                f"terms before its tail mass fell below tol {tol:.3e} at "
                f"n*x = {nx:.6g} (n={n}, x={x})"
            )
        lo = mode - sum(len(b) for b in down_blocks)
        down = [b[::-1] for b in reversed(down_blocks)]
        u = np.concatenate(down + [(1.0,)] + up_blocks)
        w = np.convolve(self.Q.coeffs, u) / (self.Q_at_1 * total)
        i = int(w.argmin())
        if w[i] < -1e-12:
            raise PositivityViolationError(
                f"weight {w[i]} at index {lo + i} is materially negative; "
                "the generating series is inadmissible",
                index=lo + i,
                weight=float(w[i]),
            )
        np.maximum(w, 0.0, out=w)
        w.flags.writeable = False
        return WeightSequence(w, n, x, start=lo)


def _rest(t, q):
    """Bound on the terms past t if every later ratio is <= q."""
    return t * q / (1.0 - q) if q < 1.0 else math.inf


def _step_ratios(nx, mu2, j, m, up):
    """Ratios and tail ratios q for the m indices past j on one side.

    With d(i) = i + 2*mu*theta(i), the term at a new index i is the term
    before it times n*x / d(i) going up and times d(i+1) / (n*x) going down.
    Its q bounds every later ratio: n*x / (i+1) up, (i + 2*mu) / (n*x) down,
    and 0 at index 0, which has no terms below it.
    """
    # Float indices, exact below 2**53, so that a window near an n*x past
    # the int64 range still grows to MAX_WINDOW and fails as any other.
    if up:
        a = j + np.arange(1.0, m + 2.0)  # the new indices, then one past them
        d = a[:-1] + mu2 * (a[:-1] % 2.0)
        return nx / d, nx / a[1:]
    a = j - np.arange(0.0, m + 1.0)  # the new indices plus one, then the last new one
    d = a[:-1] + mu2 * (a[:-1] % 2.0)
    q = (a[1:] + mu2) / nx
    if a[-1] == 0.0:
        q[-1] = 0.0
    return d / nx, q
