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
e_mu(n*x), so neither gamma_mu nor e_mu is materialized.
The window of u_j grows outward from the mode, the upper side first, until
a geometric bound on each side's rest falls below tol/2 of the sum so far;
it holds about 15*sqrt(n*x) terms at apply's tolerances, and MAX_WINDOW is
the only limit on it (Loader 2000 centres Poisson weights at the mode the
same way).

One kernel, ``windows``, grows the windows of a batch of points at one n,
and every weight comes from it: ``weights`` convolves one point's window
with Q, and the engine's ``apply`` correlates f with Q once per cluster of
a batch instead, reading each window from the kernel's arrays (a
``WindowBatch``).  It refuses a family whose positivity is unverified; for
the others Q's coefficients and the terms are nonnegative, so no weight is
negative and none is clamped.  Both sides of every window are rows of one
set of arrays, B = 8*sqrt(n*x) + 40 terms out from the mode for the batch's
largest n*x, each row's values spread over it so that every operation meets
operands of one shape: one division for the tail bounds and term ratios,
one cumulative product for the terms and, per side, one cumulative sum for
the running totals.  Each row ends at its first term that meets its side's
bound; a last column past B ends every side, and a batch with a side that
ends there is grown again with B doubled.  A lower side whose mode is index
0 ends at once, and a window that is the mode alone ends both sides at
column 0.  Every operation runs along a row in a fixed order, so a row's
window is the same bit for bit in any batch and alone.
"""

from __future__ import annotations

import math
import operator
import reprlib
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, List, Sequence

import numpy as np

# Unused here; kept because the benchmark's tracer wraps appell.dunkl_exp.
from .dunkl import DunklContext, _nonnegative_real, dunkl_exp  # noqa: F401
from .errors import (
    DomainError,
    NormalizationError,
    NotAppellGeneratorError,
    RangeError,
    TruncationFailureError,
)
from .series import PowerSeries

POSITIVE_BY_COEFFICIENTS = "proven-by-coefficients"
UNVERIFIED = "unverified"

# Terms a weight window may hold.  At about 15*sqrt(n*x) terms it is reached
# near n*x = 5e9, after about a second of growing the window.
MAX_WINDOW = 2**20

# Terms a batch of several rows may hold, so that the kernel's arrays (128
# KB per side and row of values) stay in cache; at MAX_WINDOW terms a grid
# at n*x near 1e6 ran 1.3-1.6x slower and held four times the memory.
BATCH_TERMS = 2**15

# Half an ulp of 1: a Gould-Hopper generator stops once the index-weighted
# rest of its series is below this fraction of the sum so far.
_HALF_ULP = 2.0**-53

# 2e: past k = 2e a, a Gould-Hopper term a**k / k! is at most 2**-k.
_TWO_E = 2.0 * math.e

# A window's upper side grows up from the mode, its lower side down.
_SIGN = np.array([1.0, -1.0]).reshape(2, 1, 1)


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
    start: int = 0

    @property
    def tail_mass(self) -> float:
        return 1.0 - math.fsum(self.weights.tolist())


class AppellFamily:
    """A validated generating series Q plus derived family machinery.

    ``support`` holds, in increasing order, the indices of Q's nonzero
    coefficients (-0.0 counts as zero), recorded once;
    ``Q_at_1``, the normalizer every weight and moment divides by, is the
    running sum of those coefficients from the top index down.  At t = 1
    Horner's step acc*1 + c is acc + c, and a zero coefficient leaves acc
    unchanged, so Q_at_1 equals ``Q.eval(1.0)`` bit for bit; a sum that
    leaves double range raises RangeError.

    Q(1) > 0 is required (else NormalizationError).  A Q whose coefficients
    are all <= 0 gives the operator of -Q, which the caller passes instead;
    under that sign the paper's condition a_k / Q(1) >= 0 reads a_k >= 0.

    ``positivity`` is 'proven-by-coefficients' when every stored coefficient
    of Q is nonnegative (a sufficient condition for nonnegative weights on
    x >= 0) and 'unverified' otherwise; ``windows``, and so every weight and
    ``apply``, rejects unverified families.

    The constructor finds the support with one C-level pass
    (``itertools.compress``) and positivity with ``min``, and hands Q and
    its support to ``_fill``, which takes Q_at_1 and fills those slots.

    The engine fills on first use (Q never changes) ``_jet``, Q's parity
    sums and Q(1) times one factor, the moments' mu-free input;
    ``_functionals``, the moments' coefficients formed from it; ``_arrays``,
    its coefficients, the widest gap and last index of its support and
    Q(1), for ``apply``; and ``_last_moments``, the last closed-form moments
    with their key.

    A ``gould_hopper`` family is built in two steps.  Construction checks a
    and d, sets ctx and positivity and fills ``_jet`` from the generator's
    closed form, so moments need nothing more.  It runs the tail loop only
    where a closed-form bound cannot rule out the loop's errors, keeping its
    terms and gap in ``_terms``; elsewhere ``_terms`` holds the pending (a,
    d+1, limit).  Q, support and Q_at_1 are properties over the slots
    ``_Q``, ``_support`` and ``_Q_at_1``, which stay None until one of the
    three is first read: ``_build`` then runs a pending loop, lays the terms
    out at every (d+1)-th index of the coefficient tuple and fills all three
    through ``_fill``, keeping every other slot.  A family from the
    constructor has ``_terms`` None.  Every other attribute is a plain slot,
    so the moments' reads cost nothing more; a class-level ``__getattr__``
    would instead add about 25 ns to every read of every attribute.
    """

    __slots__ = (
        "ctx", "positivity", "_Q", "_support", "_Q_at_1",
        "_jet", "_functionals", "_arrays", "_last_moments", "_terms",
    )

    def __init__(self, ctx: DunklContext, Q: PowerSeries):
        cs = Q.coeffs
        if cs[0] == 0.0:
            raise NotAppellGeneratorError(
                "not an Appell generator: constant coefficient is zero"
            )
        self.ctx = ctx
        # Q's coefficients are finite, so the least decides positivity and
        # -0.0 >= 0.0
        self.positivity = POSITIVE_BY_COEFFICIENTS if min(cs) >= 0.0 else UNVERIFIED
        self._jet = self._functionals = self._arrays = self._last_moments = self._terms = None
        # the indices whose coefficient is truthy, i.e. nonzero, at C level
        self._fill(Q, tuple(compress(range(len(cs)), cs)))

    def _fill(self, Q: PowerSeries, support: tuple) -> None:
        """Fill Q, support and Q_at_1 from Q and the indices of its nonzero
        coefficients in increasing order; Q_at_1 is the sum over the support
        from the top index down, and must be finite and positive."""
        cs = Q.coeffs
        q1 = 0.0  # Horner's Q(1) with its zero steps left out
        for i in reversed(support):
            q1 += cs[i]
        if not math.isfinite(q1):
            raise RangeError(f"Q(1) = {q1} left double range (degree {len(cs) - 1})")
        if q1 <= 0.0:
            raise NormalizationError(
                f"normalization undefined: Q(1) = {q1} is not positive; for a Q "
                "with every coefficient <= 0 pass -Q, which gives the same operator"
            )
        self._Q, self._support, self._Q_at_1 = Q, support, q1

    def _build(self) -> None:
        """Fill a Gould-Hopper family's Q, support and Q_at_1 from the tail
        loop's terms, laid out at every (d+1)-th index; a loop still pending
        runs first, with the limit read at construction."""
        if len(self._terms) == 3:  # (a, d+1, limit): the loop is pending
            a, step, limit = self._terms
            self._terms = _gould_hopper_terms(a, step, limit), step
        terms, step = self._terms
        coeffs = [0.0] * ((len(terms) - 1) * step + 1)
        coeffs[::step] = terms
        self._fill(
            PowerSeries._of(self.ctx, tuple(coeffs)), tuple(range(0, len(coeffs), step))
        )

    @property
    def Q(self) -> PowerSeries:
        """The generating series."""
        if self._Q is None:
            self._build()
        return self._Q

    @property
    def support(self) -> tuple:
        """The indices of Q's nonzero coefficients, in increasing order."""
        if self._support is None:
            self._build()
        return self._support

    @property
    def Q_at_1(self) -> float:
        """Q(1), the normalizer of every weight and moment."""
        if self._Q_at_1 is None:
            self._build()
        return self._Q_at_1

    @classmethod
    def from_coefficients(
        cls, ctx: DunklContext, c: Sequence[float]
    ) -> "AppellFamily":
        """Family generated by the polynomial with the given coefficients."""
        return cls(ctx, PowerSeries(ctx, c))

    @classmethod
    def gould_hopper(cls, ctx: DunklContext, a: float, d: int) -> "AppellFamily":
        """Family with generator exp(a * t**(d+1)), cut where its tail rounds away.

        Nonzero coefficients sit at multiples of d+1 with values a**k / k!,
        from ``_gould_hopper_terms``, the tail loop.  The stored degree
        follows from a and d (32 at a = 0.5, d = 1; 260 at a = 50).  An a
        for which exp(a) overflows raises RangeError.  a = 0 gives the
        constant generator (the plain Dunkl-Szasz weights), exact and not
        truncated.

        a must be a finite real >= 0 and d an integer >= 1 (``_positive_int``),
        else DomainError.  A generator that would store more than MAX_WINDOW
        (read at call time) coefficients raises RangeError naming a and d
        before any coefficient list of that length is made.

        The loop appends a term only where term * q, the term itself, is
        positive, and every term is a finite float, so the family takes
        its support as the multiples of d+1 below the stored length and its
        positivity as proven, and its series skips the constructor's checks.

        What is built when: a and d are checked here, and the family's
        ``_jet`` comes from ``_gould_hopper_jet``, the closed form of the
        uncut exp(a t**(d+1)), so the engine's moments never read the
        coefficients (the cut tail moves the coefficients' own sums by under
        half an ulp of Q(1)).  The loop can raise only two ways: its running
        sum reaches inf, or its k terms need (k-1)(d+1) >= MAX_WINDOW.  Where
        a closed-form test rules both out, the family keeps a, d+1 and the
        MAX_WINDOW read here in ``_terms``, and the loop runs, with that
        limit, on the first read of Q, support or Q_at_1, so that build never
        raises; elsewhere the loop runs here, raising every error above, and
        ``_terms`` keeps its terms and d+1.  Either way the coefficient tuple,
        the support and Q_at_1 are built, bit for bit as the constructor
        would from the same coefficients, on the first read of any of them
        (``apply``, ``weights``, ``q_functionals`` or a caller).

        The test is a < 709 and K (d+1) <= min(MAX_WINDOW, 2**20) with K =
        ceil(2e a) + 110.  The sum is below e**a (times 1 + k ulps) < e**709
        = 8.2e307.  At k >= 2e a, k! >= (k/e)**k gives a**k/k! <= (e a/k)**k
        <= 2**-k, the ratio q = a/k is at most 1/(2e), so the rest bound is
        at most 1.23 a**k/k!, and k(d+1) <= K(d+1) <= 2**20 bounds the
        weight i**2 by 2**40.  So when the loop holds k = K terms (K >= 2e a,
        the 110 covering the rounding of 2e a), its stop test's left side is
        at most 1.23 * 2**-110 * 2**40 < 2**-69, far below half an ulp of a
        sum >= 1 even with the k roundings of each term: it has stopped with
        k <= K terms, and (k-1)(d+1) < K (d+1) <= MAX_WINDOW.
        """
        a = _nonnegative_real("exponent coefficient a", a)  # a float: float terms
        d = _positive_int("exponent gap d", d)
        step = d + 1
        family = cls.__new__(cls)
        family.ctx = ctx
        family.positivity = POSITIVE_BY_COEFFICIENTS
        limit = MAX_WINDOW
        if a < 709.0 and (math.ceil(_TWO_E * a) + 110) * step <= min(limit, 2**20):
            family._terms = a, step, limit  # the loop cannot raise: run it later
        else:
            family._terms = _gould_hopper_terms(a, step, limit), step
        family._jet = _gould_hopper_jet(a, step)
        family._Q = family._support = family._Q_at_1 = None
        family._functionals = family._arrays = family._last_moments = None
        return family

    def weights(self, n: int, x: float, tol: float = 1e-12) -> WeightSequence:
        """Operator weights at (n, x) from a window of u_j around the mode.

        The window is ``windows`` at the one point x, convolved with Q's
        coefficients and divided by Q(1) times its sum.  Each side of the
        window stops at its first term with u * q / (1 - q) <= (tol/2) *
        (sum so far), q bounding every later ratio on that side: n*x / (j+1)
        up, (j + 2*mu) / (n*x) down.  Both bounds are met for every finite
        n*x; a window that needs more than MAX_WINDOW terms (read at call
        time) raises TruncationFailureError.  Q's coefficients and the
        window's terms are nonnegative, so every weight is too.
        """
        ((window,),) = self.windows(n, [x], [tol])
        lo, up, down, total = window
        w = np.convolve(self.Q.coeffs, np.concatenate((down[::-1], up)))
        w /= self.Q_at_1 * total
        w.flags.writeable = False
        return WeightSequence(w, start=lo)

    def windows(
        self, n: int, x: Sequence[float], tol: Sequence[float]
    ) -> Iterator["WindowBatch"]:
        """The weight window at scale n of every point of x, in batches.

        tol holds one mass tolerance per point.  Yields, for consecutive runs
        of points, a ``WindowBatch`` of each point's window (lo, upper terms,
        lower terms, total): the terms from the mode up and from the mode - 1
        down to index lo, and their sum.  A run holds at most MAX_WINDOW (read
        at call time) terms, rows times 2*B + 1 for its widest first block B;
        a point whose window alone needs more raises TruncationFailureError.
        An unverified family, an n that ``_scale`` refuses or a tol with no
        len(), or a str, raises DomainError, when the first batch is taken.
        """
        if self.positivity != POSITIVE_BY_COEFFICIENTS:
            raise DomainError(
                "family positivity is unverified: Q has a negative coefficient, "
                "so its operator weights need not be nonnegative"
            )
        n = _scale(n)
        x = _points(x)
        try:  # a float, None or an iterator has no len(); a str one per character
            count = "no" if isinstance(tol, (str, bytes, bytearray)) else len(tol)
        except TypeError:
            count = "no"
        if x.ndim != 1 or count != len(x):
            raise DomainError(
                f"need a 1-D grid of points and one tolerance per point, got "
                f"shape {x.shape} and {count} tolerances (a {type(tol).__name__})"
            )
        x = x.tolist()
        nx = [n * v for v in x]
        blocks = list(map(_first_block, nx, x))
        tol = [t if type(t) is float and 0.0 < t < math.inf  # else by the real rule
               else _nonnegative_real("mass tolerance", t, positive=True) for t in tol]
        for a, b, block in _batches(blocks):
            yield from self._rows(n, x[a:b], nx[a:b], tol[a:b], block)

    def _rows(self, n, x, nx, tol, block) -> Iterable["WindowBatch"]:
        """The windows at points x from one pass of block terms per side, as one
        batch, or lazily, where a side runs past the block, in the batches of
        twice it; rows are checked one by one where a check of all fails."""
        modes = list(map(math.floor, nx))
        terms, up, down, total = _sides(nx, modes, tol, 2.0 * self.ctx.mu, block)
        up, down, total = up.tolist(), down.tolist(), total.tolist()
        a, b = max(up), max(down)
        if not (sum(total) < math.inf and a <= block and b <= block and a + b < MAX_WINDOW):
            for r, (a, b, t) in enumerate(zip(up, down, total)):
                if not t < math.inf:  # terms past double range before a side ended
                    raise RangeError(
                        f"weight window terms left double range at n*x = {nx[r]:.6g} "
                        f"(mu={self.ctx.mu}, n={n}, x={x[r]})"
                    )
                ok = a <= block and b <= block  # both sides ended within the block
                if a + b >= MAX_WINDOW if ok else block == MAX_WINDOW - 1:
                    raise TruncationFailureError(
                        f"truncation failure: the weight window reached {MAX_WINDOW} "
                        f"terms before its tail mass fell below tol {tol[r]:.3e} at "
                        f"n*x = {nx[r]:.6g} (n={n}, x={x[r]})"
                    )
            if max(max(up), max(down)) > block:
                block = min(2 * block, MAX_WINDOW - 1)
                return (batch for a, b, _ in _batches([block] * len(x))
                        for batch in self._rows(n, x[a:b], nx[a:b], tol[a:b], block))
        return [WindowBatch(list(map(operator.sub, modes, down)), up, down, total, terms)]


class WindowBatch:
    """The windows of a run of points as ``_sides`` left them: row r's starts
    at lo[r], its upper terms are terms[0, r, :up[r] + 1], its lower terms
    terms[1, r, 1:down[r] + 1] and their sum total[r].  No window is cut until
    read; iterating gives each as (lo, upper terms, lower terms, total)."""

    __slots__ = ("lo", "up", "down", "total", "terms")

    def __init__(self, *fields):
        self.lo, self.up, self.down, self.total, self.terms = fields

    def __len__(self) -> int:
        return len(self.lo)

    def __iter__(self):
        upper, lower = self.terms
        for r, (lo, a, b, t) in enumerate(zip(self.lo, self.up, self.down, self.total)):
            yield lo, upper[r, : a + 1], lower[r, 1 : b + 1], t


def _gould_hopper_terms(a: float, step: int, limit: int) -> list:
    """The tail loop: the nonzero coefficients a**k / k! of exp(a t**step),
    k = 0, 1, ..., each the last times a/k.

    They are appended in one pass, which keeps the last term, its index and
    their running sum, until the rest of the series at t = 1, bounded by
    term * q / (1 - q) with q = a/(k+1) < 1 the largest later ratio and
    weighted by the square of the next nonzero index, is below half an ulp
    of the running sum.  The weight covers the second-order parity sums,
    which put a factor of about i**2 on coefficient i, so all six are exact
    to rounding at the scale of Q(1).  A sum that reaches inf, or k terms
    with (k-1) step >= limit, raise RangeError.
    """
    terms, term, total = [1.0], 1.0, 1.0  # a**k / k! for k = 0, 1, ...
    k, q = 1, a  # terms so far; the next term's ratio to the last, a / k
    if step < limit:
        i = step  # the next nonzero index, k * step
        # rest bound term * q / (1 - q) when q < 1, weighted by i**2
        while q >= 1.0 or term * q / (1.0 - q) * (i * i) > _HALF_ULP * total:
            term *= q
            terms.append(term)
            total += term
            if total == math.inf:
                raise RangeError(
                    f"Gould-Hopper generator exp({a} t^{step}) leaves double "
                    "range at t = 1"
                )
            k += 1
            i += step
            q = a / k
    elif q >= 1.0 or q / (1.0 - q) * min(step, 2**511) ** 2 > _HALF_ULP:
        # A second term would sit past the limit, and the loop's first
        # test takes one: with the index capped at 2**511, so that its
        # square converts to a double, only a = 0 fails that test still.
        k = 2
    if (k - 1) * step >= limit:
        raise RangeError(
            f"Gould-Hopper generator exp({a} t^{_int_text(step)}) needs more than "
            f"MAX_WINDOW = {limit} stored coefficients "
            f"(a = {a}, d = {_int_text(step - 1)})"
        )
    return terms


def _gould_hopper_jet(a: float, m: int) -> tuple:
    """The jet (e0, e1, e2, o0, o1, o2, q1) of the uncut generator exp(a
    t**m) over Q(1) = e**a, so q1 = 1.0, without forming e**a or taking mu.

    With p = a m, P = p (m-1) and R = p**2 (Q' = p t**(m-1) Q and Q'' = (P
    t**(m-2) + R t**(2m-2)) Q), at even m Q is even and the jet is (1, p,
    P + R, 0, 0, 0, 1); at odd m, Q(-1)/Q(1) = r = e**(-2a) and, with 1 - r
    taken as -expm1(-2a), every sum has positive terms only:

        e0 = (1 + r)/2    e1 = p (1 - r)/2    e2 = (P (1 - r) + R (1 + r))/2
        o0 = (1 - r)/2    o1 = p (1 + r)/2    o2 = (P (1 + r) + R (1 - r))/2

    a = 0 is the constant generator at every m, so p is not formed there (m
    may be past double range); for a > 0 the tail loop has bounded m.
    """
    if not a:
        return 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0
    p = a * m
    P, R = p * (m - 1), p * p
    if m & 1:
        minus, plus = -math.expm1(-2.0 * a), 1.0 + math.exp(-2.0 * a)
        return (
            0.5 * plus, 0.5 * (p * minus), 0.5 * (P * minus + R * plus),
            0.5 * minus, 0.5 * (p * plus), 0.5 * (P * plus + R * minus), 1.0,
        )
    return 1.0, p, P + R, 0.0, 0.0, 0.0, 1.0


def _positive_int(name: str, value) -> int:
    """value as an int >= 1, the rule for a scale n and a gap d: a Python
    int, or a numpy integer taken as the equal int; anything else (a float,
    even 2.0, a bool) or a value below 1 raises DomainError."""
    if type(value) is not int:  # bool is a subclass of int, so not this type
        if not isinstance(value, np.integer):
            raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
        value = int(value)
    if value < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {_int_text(value)}")
    return value


# The least integer whose float overflows (it rounds up to 2**1024), where n*x
# raises OverflowError; a constant, since Python folds no int this wide.
_N_OVERFLOW = 2**1024 - 2**970


def _scale(n) -> int:
    """n as an operator scale, the rule of ``OperatorSpec`` and ``windows``:
    an integer >= 1 by ``_positive_int``, below ``_N_OVERFLOW``; else
    DomainError."""
    n = _positive_int("operator scale n", n)
    if not n < _N_OVERFLOW:
        raise DomainError(
            f"operator scale n must be an integer >= 1 below double range, "
            f"got {_int_text(n)}"
        )
    return n


def _int_text(value: int) -> str:
    """An int for an error message: its digits, or its size where it has
    more digits than Python converts to text (4,300 by default)."""
    try:
        return repr(value)
    except ValueError:
        sign = "negative " if value < 0 else ""
        return f"<{sign}int of {value.bit_length()} bits>"


class _ShortRepr(reprlib.Repr):
    """reprlib's cut-short repr, with an int past str's digit limit given by
    its size (``_int_text``) where reprlib would raise ValueError."""

    def repr_int(self, x, level):
        text = _int_text(x)
        return text if text.startswith("<") else super().repr_int(x, level)


_short_repr = _ShortRepr().repr


def _points(x) -> np.ndarray:
    """x as a float array; an int past double range, or a point that is no
    real (a complex, a str float() refuses, a ragged nested list) raises
    DomainError, whose message shows x cut short by ``_short_repr``, so a
    long grid gives a short message."""
    try:
        return np.asarray(x, dtype=float)
    except OverflowError:  # numpy refuses an int past double range
        raise DomainError("evaluation point must be a finite real >= 0, got an int "
                          "past double range") from None
    except (TypeError, ValueError):
        raise DomainError("evaluation point must be a finite real >= 0, got "
                          f"{_short_repr(x)}") from None


def _first_block(nx: float, x: float) -> int:
    """Check a point and give the terms per side of its window's first pass."""
    if not 0.0 <= nx < math.inf:
        raise DomainError(f"evaluation point must be >= 0 with n*x finite, got {x}")
    return min(int(8.0 * math.sqrt(nx)) + 40, MAX_WINDOW - 1)


def _batches(blocks: List[int]) -> Iterator[tuple]:
    """Split rows into consecutive runs whose windows, at the run's widest
    block B, hold at most BATCH_TERMS and MAX_WINDOW terms in all (rows
    times 2*B + 1); a row alone is always a run.  Yields (start, stop, B)."""
    limit = min(BATCH_TERMS, MAX_WINDOW)
    start, top = 0, 0
    for k, block in enumerate(blocks):
        wide = block if block > top else top
        if k > start and (k - start + 1) * (2 * wide + 1) > limit:
            yield start, k, top
            start, wide = k, block
        top = wide
    if blocks:
        yield start, len(blocks), top


@np.errstate(over="ignore", invalid="ignore")  # ``_rows`` reports overflow
def _sides(nx, m, tol, mu2, block):
    """Both sides of every row's window, block terms out from the mode.

    nx, m and tol hold each row's n*x, mode m = floor(n*x) and tolerance.
    Returns the terms, shape (2, rows, block + 2): [0, r] is row r's upper
    side and [1, r] its lower side, column c the term c places from the
    mode, scaled to 1 there (column 0); then the column where each upper and
    each lower side ends, and each window's sum.  A side ends in the last
    column, past the block, if in no column before it.  At mode 0 the lower
    side ends in column 0, its tail bound 0, and the upper one too where
    n*x <= (tol/2) (1 - n*x).  Every operation works along a row in a fixed
    order, so a row's results do not depend on the others.
    """
    rows = len(nx)
    w = block + 2  # and a last column past the block, where every side ends
    # Per-row values, spread over their rows so that every operation meets
    # operands of one shape: the pairs (n*x, h) up and (h, max(n*x, 1))
    # down, h one past the term's index going up and the index going down
    # (a lower side has terms only where m >= 1, and n*x >= 1 there); at
    # mu > 0 the same pairs with 2*mu*theta(h), made d(h) below; tol/2.
    # Float indices, exact below 2**53, let a window past the int64 range
    # fail as any other.
    nx1 = [max(v, 1.0) for v in nx]
    cols = nx + [k + 1.0 for k in m] + m + nx1
    if mu2:
        odd = [mu2 * (k & 1) for k in m]
        cols += nx + [mu2 - v for v in odd] + odd + nx1
    cols += [t / 2 for t in tol]
    cols = np.array(cols, float).reshape(-1, rows, 1)
    spread = np.empty((len(cols), rows, w))
    spread[...] = cols
    c = np.arange(w, dtype=float)
    h = spread[1:3]
    h += c * _SIGN
    if mu2:
        # d(h) = h + 2*mu*theta(h): theta alternates along a side, so
        # 2*mu*theta(h) is |2*mu*theta(first h) - 2*mu*theta(c)|, 0 or 2*mu
        c[0::2] = 0.0
        c[1::2] = mu2
        d = spread[5:7]
        d -= c
        np.abs(d, d)
        d += h
        # the tail bound going down uses h + 2*mu, but 0 at index 0, which
        # has no terms below it (h > 0 before 2*mu is added)
        low = h[1]
        below = low > 0.0 if min(m) <= block else None
        low += mu2
        if below is not None:
            low *= below
    # One division of every pair: the tail bound q and at mu > 0 the term
    # ratios (0 past index 0); at mu = 0, d(h) = h and q is the ratio itself.
    q = np.divide(spread[0:-1:2], spread[1:-1:2])
    ratio = q[2:] if mu2 else q
    q = q[:2]
    terms = np.empty((2, rows, w))
    terms[:, :, 0] = 1.0
    np.multiply.accumulate(ratio[:, :, :-1], 2, None, terms[:, :, 1:])
    # A side ends at its first term u with u*q / (1-q) <= (tol/2) * (sum so
    # far), tested as u*q <= (tol/2) * sum * (1-q): where q >= 1 the bound
    # does not hold and the right side is at most 0 < u*q.
    uq = terms * q
    room = np.subtract(1.0, q, q)
    half = spread[-1]
    first = np.arange(0, rows * w, w)
    up, top = _ends(terms[0], uq[0], room[0], half, first)
    # The lower side's sum continues from the upper one's; column 0 of the
    # lower terms (the mode again) is not part of the window.
    terms[1, :, 0] = top
    down, total = _ends(terms[1], uq[1], room[1], half, first)
    return terms, up, down, total


def _ends(terms, uq, room, half, first):
    """For sides whose terms start at the sum so far: the column of each
    side's first term that ends it and the sum there."""
    sums = np.add.accumulate(terms, 1)
    bound = half * sums
    bound *= room
    ends = uq <= bound
    ends[:, -1] = True  # every side ends in the last column, past the block
    k = ends.argmax(1)  # the first term that ends the side
    return k, sums.take(first + k)
