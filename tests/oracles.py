"""Independent oracles for the test suite.

Nothing here shares a computation path with the package: the generalized
factorial goes through log-gamma closed forms, the exponential through
log-space brute-force partial sums, family polynomials through the
explicit binomial-style expansion, and the weight window through the
term-by-term loop the package's block growth replaced.
"""

import math
from math import exp, lgamma, log


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
