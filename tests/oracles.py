"""Independent oracles for the test suite, and former package code.

Apart from the marked section at the end, nothing here shares a computation
path with the package: the generalized
factorial goes through log-gamma closed forms, the exponential through
log-space brute-force partial sums, family polynomials through the
explicit binomial-style expansion, the operator on f through the direct
sum of the weights in mpmath, the weight window through the
term-by-term loop the package's block growth replaced, the first and second
moduli through the per-call loops over shifts that the sliding-window form
and the shared running maxima replaced, rho's positive series through the
loop as it stood before its constants were hoisted, rho's large-argument
expansion through the loop whose test formed |k g| and |mu g| per term, the Gould-Hopper
coefficients through their tail loop as it stood before its locals were
kept, and the Gould-Hopper Q-functionals and parity sums through closed
forms of exp(a t**(d+1)), the first with the difference form of the Dunkl
operator, the second without a cancelling difference.  For
bit-identity checks, Q(1) and Q's parity sums are also kept as a dense
pass over every stored coefficient: Horner's scheme for Q(1), the six sums
without the support.  The ten functionals the paper prints are kept as the
dense pass that formed each of them directly, and as a map from the six
sums; the printed moment formulas are written out in full, in any number
type, so that they run at 50 digits.  The weight windows and apply's sum
are kept as the block kernel and the masked contraction computed them
before the kernel's columns were spread over its rows and a cluster's nodes
were taken as one interval.

The marked section at the end is former package code, kept as reference:
gamma_mu by its product recursion, the family polynomials q_i, and the
series algebra (reflection, Cauchy products, sums) with the truncated
series of e_mu(x t).  The operators use none of it, so it left the package
with its arithmetic unchanged; the tests check it against the oracles above
and state the generating-series round trip and the Dunkl product rule with
it.
"""

import math
from math import exp, lgamma, log

from dunkl_appell import DomainError, PowerSeries, RangeError


def ln_gamma_mu(mu: float, i: int, lgamma=lgamma, log=log):
    """log of the generalized factorial via its gamma-function closed form.

    Pass mpmath's ``loggamma`` and ``log`` to evaluate it at mpmath's
    working precision.
    """
    k, r = divmod(i, 2)
    if r == 0:
        return 2 * k * log(2.0) + lgamma(k + 1) + lgamma(k + mu + 0.5) - lgamma(mu + 0.5)
    return (
        (2 * k + 1) * log(2.0)
        + lgamma(k + 1)
        + lgamma(k + mu + 1.5)
        - lgamma(mu + 0.5)
    )


def poisson_weight(nx: float, i: int) -> float:
    """The Poisson weight exp(-nx) nx**i / i! from ln_gamma_mu at 40 digits.

    In doubles the exponent i*log(nx) - nx - ln_gamma_mu(0, i) subtracts
    terms near 2e9 at nx = 1e8 and is off by about 1e-7, a relative error
    of 1e-7 in the weight (measured: 1.1e-12 absolute at nx = 1e6, 1.5e-11
    at 1e8).
    """
    import mpmath as mp

    with mp.workdps(40):
        nx_mp = mp.mpf(nx)
        ln_w = i * mp.log(nx_mp) - nx_mp - ln_gamma_mu(0.0, i, mp.loggamma, mp.log)
        return float(mp.exp(ln_w))


def gamma_mu_closed_form(mu: float, i: int) -> float:
    return exp(ln_gamma_mu(mu, i))


def emu_brute(mu: float, x: float, nterms: int = 300) -> float:
    """Brute-force partial sum of the generalized exponential.

    Terms are built in log space from the closed-form factorial, so the
    oracle never touches the package's ratio recurrences.
    """
    if x == 0.0:
        return 1.0
    total = 0.0
    for i in range(nterms):
        t = exp(i * log(abs(x)) - ln_gamma_mu(mu, i))
        if x < 0.0 and i % 2 == 1:
            t = -t
        total += t
    return total


def weight_brute(coeffs, mu: float, n: int, x: float, i: int) -> float:
    """Operator weight by the direct double sum, no incremental recurrences."""
    nx = n * x
    deg = len(coeffs) - 1
    q_over_gamma = 0.0
    for j in range(i + 1):
        k = i - j
        if k > deg or coeffs[k] == 0.0:
            continue
        if nx == 0.0:
            u = 1.0 if j == 0 else 0.0
        else:
            u = exp(j * log(nx) - ln_gamma_mu(mu, j))
        q_over_gamma += coeffs[k] * u
    q1 = sum(coeffs)
    return q_over_gamma / (q1 * emu_brute(mu, nx))


def apply_mp(coeffs, mu: float, n: int, x: float, fs, dps: int = 40):
    """K f(x), x > 0, for each f of fs (mpmath functions) by the direct sum.

    The weights come from the definition in the ``appell`` docstring: the
    weight at index i is sum_j c_(i-j) u_j / (Q(1) e_mu(n*x)) with u_j =
    (n*x)**j / gamma_mu(j) from ``ln_gamma_mu`` with mpmath's log-gamma, at
    the node (i + 2 mu theta(i)) / n.  j runs within 12 sqrt(n*x) + 40 + 2 mu
    of floor(n*x), where each edge term is below 1e-30 of the sum (asserted),
    and the weights are normalized by their own sum.  They are built once
    and every f is summed against them at dps digits.  Returns
    (values as floats, the largest |f| on the nodes as floats, the node count).
    """
    import mpmath as mp

    with mp.workdps(dps):
        mu_mp, nx = mp.mpf(mu), mp.mpf(n) * mp.mpf(x)
        mode, reach = math.floor(n * x), int(12.0 * math.sqrt(n * x) + 40.0 + 2.0 * mu)
        lo = max(0, mode - reach)
        log_nx = mp.log(nx)
        u = [
            mp.exp(j * log_nx - ln_gamma_mu(mu_mp, j, mp.loggamma, mp.log))
            for j in range(lo, mode + reach + 1)
        ]
        total = mp.fsum(u)
        assert u[-1] < 1e-30 * total and (lo == 0 or u[0] < 1e-30 * total)
        w = [mp.mpf(0)] * (len(u) + len(coeffs) - 1)
        for k, c in enumerate(coeffs):
            if c:
                for j, uj in enumerate(u):
                    w[j + k] += c * uj
        norm = mp.fsum(w)
        t = [(i + 2 * mu_mp * (i & 1)) / n for i in range(lo, lo + len(w))]
        values, sups = [], []
        for f in fs:
            ft = [f(v) for v in t]
            values.append(float(mp.fsum(a * b for a, b in zip(w, ft)) / norm))
            sups.append(float(max(abs(v) for v in ft)))
        return values, sups, len(w)


def grid(start: float, stop: float, step: float):
    out = []
    k = 0
    while True:
        x = start + k * step
        if x > stop + 1e-9:
            return out
        out.append(x)
        k += 1


def window_loop(mu: float, nx: float, tol: float):
    """The weight window grown one term at a time: (start, terms, their sum).

    The terms u_j = nx**j / gamma_mu(j) are scaled to 1 at j = floor(nx).
    The upper side grows first, then the lower one; each stops once
    u * q / (1 - q) <= (tol/2) * (running sum), with q = nx/(j+1) going up
    and (j + 2 mu)/nx going down (0 at index 0).  There is no length limit.
    """
    mu2 = 2.0 * mu

    def rest(t, q):
        return t * q / (1.0 - q) if q < 1.0 else math.inf

    lo = hi = math.floor(nx)
    up, down = [1.0], []
    total = 1.0
    while rest(up[-1], nx / (hi + 1)) > tol * total / 2:
        hi += 1
        up.append(up[-1] * nx / (hi + mu2 * (hi & 1)))
        total += up[-1]
    t = 1.0
    while rest(t, lo and (lo + mu2) / nx) > tol * total / 2:
        t = t * (lo + mu2 * (lo & 1)) / nx
        down.append(t)
        lo -= 1
        total += t
    return lo, down[::-1] + up, total


def gould_hopper_functionals(mu: float, a: float, d: int) -> dict:
    """The ten Q-functionals of g(t) = exp(a t**(d+1)) in closed form.

    Built from g, g' and g'' at +-1 and the difference form of the Dunkl
    operator, Lg(t) = g'(t) + mu (g(t) - g(-t)) / t, at 50 digits; the keys
    are those of ``classical_functionals``.  With h = Lg:

        h(+-1)   = g'(+-1) + mu (g(1) - g(-1))
        h'(1)    = g''(1) + mu (g'(1) + g'(-1) - g(1) + g(-1))
        (Lg')(1) = g''(1) + mu (g'(1) - g'(-1))
        (Lh)(1)  = h'(1) + mu (h(1) - h(-1))
    """
    import mpmath as mp

    with mp.workdps(50):
        p = d + 1
        mu, a = mp.mpf(mu), mp.mpf(a)

        def g(s):
            return mp.exp(a * s**p)

        def g1(s):
            return a * p * s ** (p - 1) * g(s)

        def g2(s):
            return (a * p * (p - 1) * s ** (p - 2) + (a * p * s ** (p - 1)) ** 2) * g(s)

        odd_part = g(1) - g(-1)
        lq1 = g1(1) + mu * odd_part
        lqm1 = g1(-1) + mu * odd_part
        dlq1 = g2(1) + mu * (g1(1) + g1(-1) - odd_part)
        values = {
            "q1": g(1),
            "qm1": g(-1),
            "dq1": g1(1),
            "dqm1": g1(-1),
            "ddq1": g2(1),
            "lq1": lq1,
            "lqm1": lqm1,
            "dlq1": dlq1,
            "ldq1": g2(1) + mu * (g1(1) - g1(-1)),
            "llq1": dlq1 + mu * (lq1 - lqm1),
        }
        return {k: float(v) for k, v in values.items()}


def gould_hopper_dps(a: float) -> int:
    """The digits at which ``gould_hopper_sums`` works: 50 more than the
    2a / ln(10) that a difference of two sums down to r = e**(-2a) cancels
    (E0 - O0 = r), so such a difference, taken at these digits, keeps 50."""
    return 50 + math.ceil(2.0 * a / math.log(10.0))


def gould_hopper_sums(a: float, d: int):
    """The six parity sums (e0, e1, e2, o0, o1, o2) of the untruncated
    generator g(t) = exp(a t**m), m = d+1, each divided by g(1) = e**a, as
    mpmath numbers of ``gould_hopper_dps(a)`` digits.

    From E_j = (g^(j)(1) + (-1)**j g^(j)(-1))/2 and O_j = (g^(j)(1) -
    (-1)**j g^(j)(-1))/2, with g'(s) = a m s**(m-1) g(s) and g''(s) = (a m
    (m-1) s**(m-2) + (a m s**(m-1))**2) g(s).  At even m, g is even, so O_j
    = 0 and E_j = g^(j)(1)/g(1).  At odd m, g(-1)/g(1) = r = e**(-2a), and
    every sum is written with positive terms only, 1 - r taken as
    -expm1(-2a), so no digit cancels at any a: with p = a m, P = p (m-1)
    and R = p**2,

        e0 = (1 + r)/2    e1 = p (1 - r)/2    e2 = (P (1 - r) + R (1 + r))/2
        o0 = (1 - r)/2    o1 = p (1 + r)/2    o2 = (P (1 + r) + R (1 - r))/2

    A difference of them still cancels: skew1 = 2 mu (E0 - O0)/Q(1) is 2 mu
    r, 44 digits below its terms at a = 50 (a cosh/sinh form at 50 digits
    is off by 1.6e-8 there).  Take such differences at the same digits.
    """
    import mpmath as mp

    with mp.workdps(gould_hopper_dps(a)):
        m = d + 1
        a = mp.mpf(a)
        p = a * m
        P, R = p * (m - 1), p * p
        if m % 2 == 0:
            zero = mp.mpf(0)
            return mp.mpf(1), p, P + R, zero, zero, zero
        r = mp.exp(-2 * a)
        plus, minus = 1 + r, -mp.expm1(-2 * a)
        return (
            plus / 2, p * minus / 2, (P * minus + R * plus) / 2,
            minus / 2, p * plus / 2, (P * plus + R * minus) / 2,
        )


def modulus1_loop(f, delta: float, window, step: float) -> float:
    """The grid first modulus as the largest |f(x + k step) - f(x)| over each
    shift k up to delta/step in turn, on the grid lo + step * arange(count)."""
    import numpy as np

    lo, hi = window
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    fv = np.array([f(float(x)) for x in lo + step * np.arange(count)])
    value = 0.0
    for k in range(1, min(int(math.floor(delta / step + 1e-9)), count - 1) + 1):
        value = max(value, float(np.max(np.abs(fv[k:] - fv[:-k]))))
    return value


def modulus2_loop(f, s: float, window, step: float) -> float:
    """The grid second modulus as the largest |f(x + 2h) - 2 f(x + h) + f(x)|
    over each shift h = k step up to s in turn, with f taken afresh on the
    grid lo + step * arange(count)."""
    import numpy as np

    lo, hi = window
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    fv = np.array([f(float(x)) for x in lo + step * np.arange(count)])
    value = 0.0
    for k in range(1, min(int(math.floor(s / step + 1e-9)), (count - 1) // 2) + 1):
        d = float(np.max(np.abs(fv[2 * k:] - 2.0 * fv[k:-k] + fv[: -2 * k])))
        if d > value:
            value = d
    return value


def ratio_series_loop(mu: float, y: float, tol: float) -> float:
    """rho = M(mu, 2mu+1, 2y) / M(mu+1, 2mu+1, 2y) by the term loop with an
    integer index and the constants formed afresh in every step."""
    z = 2.0 * y
    term = num = den = 1.0
    k = 0
    while True:
        ratio = (mu + 1.0 + k) * z / ((2.0 * mu + 1.0 + k) * (k + 1.0))
        if ratio < 1.0 and term * ratio < tol * (1.0 - ratio) * den:
            return num / den
        term *= ratio
        k += 1
        den += term
        num += term * mu / (mu + k)
        if den > 1e280:
            term /= 1e280
            num /= 1e280
            den /= 1e280


def ratio_expansion_loop(mu: float, y: float, tol: float) -> float:
    """rho by the large-argument Bessel expansion, with the loop test that
    forms |k g| and |mu g| from each term g, and the same raise where the
    terms turn to grow before they fall below tol."""
    two_y = 2.0 * y
    g = -(0.5 * mu) / y
    num = -g
    den = 1.0 + mu * g
    k = 1.0
    while abs(k * g) > tol * abs(num) or abs(mu * g) > tol * abs(den):
        factor = (k - mu) * (k + mu)
        scale = (k + 1.0) * two_y
        if k > mu and factor >= scale:
            raise RangeError(
                f"rho's large-argument expansion diverges at y={y} (mu={mu}) "
                f"before its terms fall below tol={tol}"
            )
        g *= factor / scale
        k += 1.0
        num -= k * g
        den += mu * g
    return num / den


def gould_hopper_loop_terms(a: float, d: int):
    """The nonzero coefficients of exp(a t**(d+1)) by the tail loop that
    reads the last term and the count of terms from the list in every step
    and takes the rest bound from a helper.

    Appends a**k / k!, each the last times a/k, until the rest at t = 1,
    term * q / (1 - q) with q = a/(k+1) (unbounded when q >= 1), times the
    squared next nonzero index is below half an ulp of the running sum.
    Raises OverflowError where that sum leaves double range.
    """

    def rest(t, q):
        return t * q / (1.0 - q) if q < 1.0 else math.inf

    terms, total = [1.0], 1.0
    q = a
    while rest(terms[-1], q) * (len(terms) * (d + 1)) ** 2 > 2.0**-53 * total:
        terms.append(terms[-1] * q)
        total += terms[-1]
        if total == math.inf:
            raise OverflowError(f"exp({a} t^{d + 1}) leaves double range at t = 1")
        q = a / len(terms)
    return terms


def gould_hopper_loop(a: float, d: int):
    """The coefficients of exp(a t**(d+1)), ``gould_hopper_loop_terms`` at
    every (d+1)-th index, and Horner's value of them at t = 1."""
    terms = gould_hopper_loop_terms(a, d)
    coeffs = [0.0] * ((len(terms) - 1) * (d + 1) + 1)
    coeffs[:: d + 1] = terms
    q1 = 0.0
    for c in reversed(coeffs):
        q1 = q1 * 1.0 + c
    return coeffs, q1


def horner_at_one(coeffs) -> float:
    """Q(1) by Horner's scheme over every stored coefficient."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * 1.0 + c
    return acc


def parity_sums_dense(coeffs):
    """Q's six parity sums (e0, e1, e2, o0, o1, o2) by one pass over every
    stored coefficient from the top down, zeros included: term i adds c_i,
    i c_i and (i - 1) (i c_i) to the sums of its parity.  Pass mpmath
    numbers to sum them at mpmath's working precision."""
    e0 = e1 = e2 = o0 = o1 = o2 = 0.0
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
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


def classical_functionals(sums, q1, mu, minus=-1.0) -> dict:
    """The ten Q-functionals the printed moment formulas use, from the six
    parity sums and Q(1), by the identities of the ``engine`` docstring.

    The keys: q1 = Q(1), qm1 = Q(-1), dq1 = Q'(1), dqm1 = Q'(-1), ddq1 =
    Q''(1), lq1 = (LQ)(1), lqm1 = (LQ)(-1), dlq1 = (LQ)'(1), ldq1 = (LQ')(1),
    llq1 = (LLQ)(1), with L the Dunkl operator.  With minus = +1 and the
    sums of |c_i| every difference becomes a sum: the magnitude of the
    terms each value is formed from, the scale of its rounding error.
    """
    e0, e1, e2, o0, o1, o2 = sums
    mu2 = 2 * mu
    dq1, ddq1, dqm1 = e1 + o1, e2 + o2, o1 + minus * e1
    return {
        "q1": q1, "qm1": e0 + minus * o0, "dq1": dq1, "dqm1": dqm1, "ddq1": ddq1,
        "lq1": dq1 + mu2 * o0, "lqm1": dqm1 + mu2 * o0,
        "dlq1": ddq1 + mu2 * (o1 + minus * o0), "ldq1": ddq1 + mu2 * e1,
        "llq1": ddq1 + mu2 * (o1 + minus * o0 + e1),
    }


def closed_form_magnitudes(sums, q1: float, mu: float, n, x: float, rho: float):
    """For (m1, m2, omega1, omega2): the magnitude of the terms the closed
    form of the ``engine`` docstring forms each from, given the parity sums
    of |c_i|, so every difference is taken as a sum."""
    e0, e1, e2, o0, o1, o2 = sums
    mu2 = 2.0 * mu
    q1n = q1 * n
    s = (e1 + o1 + e2 + o2 + mu2 * mu2 * o0 + 2.0 * mu2 * rho * o1) / (q1n * n)
    omega1 = (e1 + o1 + mu2 * rho * o0) / q1n
    m2 = x * x + (q1 + 2.0 * (e1 + o1) + mu2 * rho * (e0 + o0)) * x / q1n + s
    return x + omega1, m2, omega1, (q1 + mu2 * rho * (e0 + 3.0 * o0)) * x / q1n + s


def q_functionals_dense(coeffs, mu: float) -> dict:
    """The nine Q-functionals other than Q(1), each formed directly from
    its coefficients d(i), by one pass over every stored coefficient from
    the top down that skips zero coefficients by test; the keys are those
    of ``classical_functionals``."""
    mu2 = 2.0 * mu
    qm1 = dq1 = dqm1 = ddq1 = lq1 = lqm1 = dlq1 = ldq1 = llq1 = 0.0
    for i, c in zip(range(len(coeffs) - 1, -1, -1), reversed(coeffs)):
        if c == 0.0:
            continue
        ic = i * c
        if i & 1:
            dc = (i + mu2) * c
            below = i - 1.0
            qm1 -= c
            dqm1 += ic
            lqm1 += dc
        else:
            dc = ic
            below = i - 1 + mu2
            qm1 += c
            dqm1 -= ic
            lqm1 -= dc
        dq1 += ic
        ddq1 += (i - 1) * ic
        lq1 += dc
        dlq1 += (i - 1) * dc
        ldq1 += below * ic
        llq1 += below * dc
    return {
        "qm1": qm1, "dq1": dq1, "dqm1": dqm1, "ddq1": ddq1, "lq1": lq1,
        "lqm1": lqm1, "dlq1": dlq1, "ldq1": ldq1, "llq1": llq1,
    }


def closed_form_printed(F, mu, n, x, rho):
    """(m1, m2, omega1, omega2) from the printed formulas, every
    combination of the functionals F (attributes named as the keys of
    ``classical_functionals``) formed afresh in each formula.  Pass mpmath
    numbers to evaluate them at mpmath's working precision."""
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
    return m1, m2, omega1, omega2


def block_windows(mu: float, n: int, x, tol, max_window: int, batch_terms: int):
    """The weight windows at scale n of every point of x, in batches, by the
    block kernel as it stood before its per-row columns were spread over
    the rows and its divisions merged: side rows of one (2R, w) array,
    theta from ``modf``, per-side divisions against (R, 1) columns and an
    ends test read with ``take`` at the first passing column, rows that
    run past the block redone with twice it.  Returns the list of batches,
    each a list of (lo, upper terms, lower terms, total); a window past
    max_window terms raises OverflowError.
    """
    import numpy as np

    mu2 = 2.0 * mu
    x, tol = [float(v) for v in x], list(tol)
    nx = [n * v for v in x]

    def first_block(v, t):
        if v < 1.0 and v <= t / 2 * (1.0 - v):
            return 0
        return min(int(8.0 * math.sqrt(v)) + 40, max_window - 1)

    def batches(blocks):
        limit = min(batch_terms, max_window)
        start, top = 0, 0
        for k, block in enumerate(blocks):
            wide = max(top, block)
            if k > start and (k - start + 1) * (2 * wide + 1) > limit:
                yield start, k, top
                start, wide = k, block
            top = wide
        if blocks:
            yield start, len(blocks), top

    def ends(terms, uq, room, half, first):
        sums = np.add.accumulate(terms, 1)
        bound = half * sums
        bound *= room
        passing = uq <= bound
        k = passing.argmax(1)
        at = first + k
        return k, passing.take(at), sums.take(at)

    def sides(nx, m, tol, block):
        rows = len(nx)
        if not block:
            zero = np.zeros(rows, int)
            return np.ones((2 * rows, 1)), zero, zero, np.ones(rows), zero == 0
        lower = any(m)
        count = 2 * rows if lower else rows
        w = block + 1
        c = np.arange(w, dtype=float)
        base = np.array([k + 1.0 for k in m] + (m if lower else []), dtype=float)[:, None]
        nxr = np.array(nx + ([max(v, 1.0) for v in nx] if lower else []))[:, None]
        half = np.array([t / 2 for t in tol])[:, None]
        hd = np.empty((2, count, w))
        h = hd[0]
        np.add(base[:rows], c, h[:rows])
        if lower:
            np.subtract(base[rows:], c, h[rows:])
        if mu2:
            d = np.modf(h * 0.5)[0]
            d *= 2.0 * mu2
            np.add(h, d, hd[1])
            ratios = np.empty(hd.shape)
            np.divide(nxr[:rows], hd[:, :rows], ratios[:, :rows])
            if lower:
                below = h[rows:] > 0.0
                h[rows:] += mu2
                h[rows:] *= below
                np.divide(hd[:, rows:], nxr[rows:], ratios[:, rows:])
            q, ratio = ratios
        else:
            ratio = np.empty((count, w))
            np.divide(nxr[:rows], h[:rows], ratio[:rows])
            if lower:
                np.divide(h[rows:], nxr[rows:], ratio[rows:])
            q = ratio
        terms = np.empty((2 * rows, w))
        terms[:count, 0] = 1.0
        np.multiply.accumulate(ratio[:, :-1], 1, None, terms[:count, 1:])
        uq = terms[:count] * q
        room = 1.0 - q
        first = np.arange(0, rows * w, w)
        up, done, top = ends(terms[:rows], uq[:rows], room[:rows], half, first)
        if not lower:
            return terms, up, np.zeros(rows, int), top, done
        terms[rows:, 0] = top
        down, done_low, total = ends(terms[rows:], uq[rows:], room[rows:], half, first)
        return terms, up, down, total, done & done_low

    def rows_of(x, nx, tol, block):
        modes = list(map(math.floor, nx))
        terms, up, down, total, done = sides(nx, modes, tol, block)
        rows = len(x)
        out, redo = [], []
        for r, (mode, a, b, t, ok) in enumerate(
            zip(modes, up.tolist(), down.tolist(), total.tolist(), done.tolist())
        ):
            if ok and a + b < max_window:
                out.append((mode - b, terms[r, : a + 1], terms[rows + r, 1 : b + 1], t))
            elif ok or block == max_window - 1:
                raise OverflowError(f"window past {max_window} terms at n*x = {nx[r]}")
            else:
                redo.append(r)
                out.append(None)
        if redo:
            block = min(2 * block, max_window - 1)
            for a, b, _ in batches([block] * len(redo)):
                at = redo[a:b]
                pick = [x[r] for r in at], [nx[r] for r in at], [tol[r] for r in at]
                for r, window in zip(at, rows_of(*pick, block)):
                    out[r] = window
        return out

    blocks = [first_block(v, t) for v, t in zip(nx, tol)]
    return [rows_of(x[a:b], nx[a:b], tol[a:b], block) for a, b, block in batches(blocks)]


def contract_masked(mu: float, n: int, coeffs, f, windows):
    """K f at every window of one batch as apply summed it before the nodes
    of a cluster were taken as one interval: a bool mask of the nodes each
    window reaches through Q's support, f at its nonzero entries scattered
    into zeros, one correlation with Q's coefficients per cluster of
    overlapping windows and, per window, each side summed in a plain
    Python loop from the mode outward, starting from +0.0, the value being
    (upper + lower) over Q(1), by Horner's scheme, times the window's sum."""
    import numpy as np

    mu2 = 2.0 * mu
    c = np.array(coeffs, dtype=float)
    support = [i for i, v in enumerate(coeffs) if v != 0.0]
    gap = max((b - a for a, b in zip(support, support[1:])), default=1)
    q1 = horner_at_one(coeffs)
    deg = len(c) - 1
    clusters = []
    for lo, r in sorted((w[0], r) for r, w in enumerate(windows)):
        hi = lo + len(windows[r][1]) + len(windows[r][2]) - 1
        if not clusters or lo > clusters[-1][1] + deg:
            clusters.append([lo, hi, []])
        clusters[-1][1] = max(clusters[-1][1], hi)
        clusters[-1][2].append((r, lo, hi))
    values = [0.0] * len(windows)
    for first, last, rows in clusters:
        used = np.zeros(last - first + 1 + deg, bool)
        for _, lo, hi in rows:
            if hi - lo >= gap - 1:
                used[lo - first : hi - first + support[-1] + 1] = True
            else:
                used[np.add.outer(np.arange(lo, hi + 1) - first, support)] = True
        k = used.nonzero()[0]
        i = first + k
        t = (i + mu2 * (i & 1)) / n if mu2 else i / n
        fv = np.zeros(len(used))
        fv[k] = np.fromiter(map(f, t.tolist()), float, len(t))
        g = np.correlate(fv, c, "valid").tolist()
        for r, lo, _ in rows:
            _, up, down, total = windows[r]
            mode = lo - first + len(down)
            upper = lower = 0.0
            for j, u in enumerate(up.tolist()):
                upper += u * g[mode + j]
            for j, u in enumerate(down.tolist(), 1):
                lower += u * g[mode - j]
            values[r] = (upper + lower) / (q1 * total)
    return values


def product_rule_rhs(A, B):
    """A L(B) + B(-t) L(A) + A' (B - B(-t)), the right side of the Dunkl
    product rule for L(A B), with L the Dunkl operator, summed left to
    right by the series algebra below."""
    return add(
        add(
            multiply(A, B.dunkl_derivative()),
            multiply(reflect(B), A.dunkl_derivative()),
        ),
        multiply(A.derivative(), sub(B, reflect(B))),
    )

# ---------------------------------------------------------------------------
# Former package code, kept as reference: DunklContext.gamma, AppellFamily.poly,
# the PowerSeries algebra and series.exp_series as free functions, with the
# same arithmetic in the same order.
# ---------------------------------------------------------------------------


def gamma_mu(mu: float, i: int) -> float:
    """gamma_mu(i) via the product recursion; strictly positive and finite."""
    if i < 0:
        raise DomainError(f"gamma index must be nonnegative, got {i}")
    g = 1.0
    for k in range(1, i + 1):
        g *= k + 2.0 * mu * (k & 1)
        if not math.isfinite(g):
            raise RangeError(
                f"gamma_mu({k}) exceeds double range (mu={mu}); "
                f"indices up to {k - 1} are representable"
            )
    return g


def family_poly(family, i: int) -> list:
    """Coefficients of q_i in powers of x (length i+1), from Q's stored
    coefficients: past the stored degree of a Gould-Hopper generator they
    leave out the terms its cut dropped."""
    if i < 0:
        raise DomainError(f"polynomial index must be nonnegative, got {i}")
    deg = family.Q.degree
    mu = family.ctx.mu
    gi = gamma_mu(mu, i)  # raises RangeError if gamma_mu(i) overflows
    gj = 1.0  # gamma_mu(j), multiplied in the order gamma_mu uses
    out = []
    for j in range(i + 1):
        ck = family.Q.coeffs[i - j] if i - j <= deg else 0.0
        out.append(gi * ck / gj if ck != 0.0 else 0.0)
        gj *= j + 1 + 2.0 * mu * ((j + 1) & 1)
    return out


def reflect(S: PowerSeries) -> PowerSeries:
    """The series of t -> S(-t): flips the sign of odd coefficients."""
    return PowerSeries(
        S.ctx,
        (c if i % 2 == 0 else -c for i, c in enumerate(S.coeffs)),
    )


def multiply(A: PowerSeries, B: PowerSeries) -> PowerSeries:
    """Cauchy product; result length is len(A) + len(B) - 1."""
    if A.ctx.mu != B.ctx.mu:
        raise DomainError(f"context mismatch: mu={A.ctx.mu} vs mu={B.ctx.mu}")
    a, b = A.coeffs, B.coeffs
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return PowerSeries(A.ctx, out)


def add(A: PowerSeries, B: PowerSeries) -> PowerSeries:
    """Coefficient-wise sum; the longer series sets the length."""
    if A.ctx.mu != B.ctx.mu:
        raise DomainError("context mismatch in series addition")
    a, b = A.coeffs, B.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return PowerSeries(A.ctx, out)


def scale(S: PowerSeries, factor: float) -> PowerSeries:
    return PowerSeries(S.ctx, (factor * c for c in S.coeffs))


def sub(A: PowerSeries, B: PowerSeries) -> PowerSeries:
    return add(A, scale(B, -1.0))


def exp_series(ctx, x: float, degree: int) -> PowerSeries:
    """Coefficients of t -> e_mu(x*t) truncated at the given degree.

    Coefficient i is x**i / gamma_mu(i), built by the ratio recurrence.
    """
    if degree < 0:
        raise DomainError(f"degree must be nonnegative, got {degree}")
    mu = ctx.mu
    coeffs = [1.0]
    term = 1.0
    for i in range(1, degree + 1):
        term = term * x / (i + 2.0 * mu * (i & 1))
        coeffs.append(term)
    return PowerSeries(ctx, coeffs)
