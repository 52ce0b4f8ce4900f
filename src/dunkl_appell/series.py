"""Truncated power series in the plain monomial basis.

A series is a finite coefficient vector (c_0, ..., c_N) for sum c_i t**i,
tied to a DunklContext.  The Dunkl operator acts as a one-line coefficient
transform: on monomials it lowers degree with factor (i + 2*mu*theta(i)),
so coefficient i of the image is (i+1 + 2*mu*theta(i+1)) * c_{i+1}.
Evaluation is Horner's scheme.

Instances are immutable; every operation returns a fresh series.
"""

from __future__ import annotations

import math
from typing import Iterable

from .dunkl import DunklContext
from .errors import DomainError, RangeError


class PowerSeries:
    """A series tied to a context, with its coefficients as a tuple of floats.

    Construction converts each coefficient with float() and rejects an
    empty list or a non-finite coefficient, an int past double range
    included (DomainError); both checks run as single mapped passes over
    the coefficients.  A non-numeric
    coefficient raises what float() raises (TypeError or ValueError).  The
    checked tuple goes to ``_of``, the one place that fills the slots; a
    builder that has itself produced a nonempty tuple of finite floats (the
    Gould-Hopper generator) hands it to ``_of`` directly, as pickle and
    ``copy`` do (``__reduce__``).
    """

    __slots__ = ("ctx", "coeffs")

    def __new__(cls, ctx: DunklContext, coeffs: Iterable[float]):
        # float() and isfinite mapped at C level: one pass each, no frames
        try:
            cs = tuple(map(float, coeffs))
        except OverflowError:  # an int past double range
            raise DomainError("power series coefficients must be finite") from None
        if not cs:
            raise DomainError("a power series needs at least one coefficient")
        if not all(map(math.isfinite, cs)):
            raise DomainError("power series coefficients must be finite")
        return cls._of(ctx, cs)

    @classmethod
    def _of(cls, ctx: DunklContext, cs: tuple) -> "PowerSeries":
        """The series on cs, a nonempty tuple of finite floats, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", cs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _of: __new__ needs its arguments,
        # and __setattr__ refuses the default slot-by-slot restore
        return type(self)._of, (self.ctx, self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.ctx.mu == other.ctx.mu and self.coeffs == other.coeffs

    def __repr__(self):
        return f"PowerSeries(mu={self.ctx.mu!r}, coeffs={list(self.coeffs)!r})"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, t: float) -> float:
        """Horner evaluation at t."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        if not math.isfinite(acc):
            raise RangeError(f"series evaluation at t={t} left double range")
        return acc

    def derivative(self) -> "PowerSeries":
        """Ordinary derivative; a constant maps to the zero series."""
        if len(self.coeffs) == 1:
            return PowerSeries(self.ctx, (0.0,))
        return PowerSeries(
            self.ctx,
            ((i + 1) * c for i, c in enumerate(self.coeffs[1:])),
        )

    def dunkl_derivative(self) -> "PowerSeries":
        """Apply the Dunkl operator as a coefficient transform.

        Coefficient i of the result is (i+1 + 2*mu*theta(i+1)) * c_{i+1}.
        At mu = 0 this is the ordinary derivative; applying it twice gives
        the second-order Dunkl operator.
        """
        if len(self.coeffs) == 1:
            return PowerSeries(self.ctx, (0.0,))
        mu = self.ctx.mu
        return PowerSeries(
            self.ctx,
            (
                (i + 1 + 2.0 * mu * ((i + 1) & 1)) * c
                for i, c in enumerate(self.coeffs[1:])
            ),
        )
