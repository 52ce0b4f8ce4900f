"""Output checks and accuracy figures shared by every workload.

Each check compares one library output against an independent reference
and answers two questions: is the output grossly wrong (the operation then
counts as failed), and how large is its error (which feeds the accuracy
metrics).  The gross-error limits catch broken formulas and broken weights;
smaller errors are measured and reported, not gated.  In particular the
known ``rho`` flush for ``mu > 0`` at ``n*x >= 650`` (absolute error about
``mu / (2 n x)``, at most 1e-3 here) passes the gross limit and shows in
``rho_err_max`` (as relative error 1) and ``omega2_drift_max`` instead.

Accuracy metrics are maxima over the points where the quantity can be
computed, floored at the accuracy the library promises: an error below its
floor reads as the floor, and a workload on which no point is computable
reads the floor too.
"""

from __future__ import annotations

import math

from dunkl_appell import engine
from dunkl_appell.errors import DunklApproxError, RangeError, TruncationFailureError

# Errors that mean a route cannot reach a point, as opposed to a wrong result.
_UNREACHABLE = (RangeError, TruncationFailureError)

# Floors: the mass tolerance of OperatorSpec; a drift level well above the
# series route's truncation noise (measured up to 2e-10); a relative rho
# error above what machine-epsilon absolute error gives at n*x <= 650,
# where rho >= 3e-4 for mu >= 0.5 (measured up to 1e-12).
MASS_FLOOR = 1e-12
DRIFT_FLOOR = 1e-8
RHO_FLOOR = 1e-10

# Gross-error limits; an output past one of them fails its operation.
MASS_LIMIT = 1e-9
DRIFT_LIMIT = 1e-2
RHO_LIMIT = 1e-2

# Below this the oracle is compared in absolute terms: the moment formulas
# cannot tell such a ratio from zero.
_RHO_TINY = 1e-290


def _one(t: float) -> float:
    return 1.0


_oracle_cache: dict = {}


def rho_oracle(mu: float, y: float) -> float:
    """e_mu(-y)/e_mu(y) from mpmath's modified Bessel functions.

    rho = (I_{mu-1/2}(y) - I_{mu+1/2}(y)) / (I_{mu-1/2}(y) + I_{mu+1/2}(y)),
    which is exp(-2y) at mu = 0.  Forty digits leave more than twenty after
    the difference cancels (its relative size is about mu / y >= 1e-9 here).
    """
    key = (mu, y)
    if key not in _oracle_cache:
        import mpmath as mp

        with mp.workdps(40):
            if y == 0.0:
                value = 1.0
            elif mu == 0.0:
                value = float(mp.exp(-2 * mp.mpf(y)))
            else:
                a = mp.besseli(mp.mpf(mu) - 0.5, y)
                b = mp.besseli(mp.mpf(mu) + 0.5, y)
                value = float((a - b) / (a + b))
        _oracle_cache[key] = value
    return _oracle_cache[key]


class Accuracy:
    """Collects per-point errors and reports the floored maxima."""

    def __init__(self):
        self.mass = []
        self.drift = []
        self.rho = []

    def check_mass(self, spec, x: float) -> bool:
        """Partition of unity: apply(const1) must be one."""
        try:
            err = abs(engine.apply(spec, _one, x) - 1.0)
        except _UNREACHABLE:
            return True  # not computable here; the drift check says the same
        self.mass.append(err)
        return err <= MASS_LIMIT

    def check_drift(self, spec, x: float, omega2: float) -> bool:
        """Closed-form omega2 against the series-summed route."""
        try:
            series = engine.central_moments_series(spec, x).omega2
        except _UNREACHABLE:
            return True  # the series route cannot reach this point
        diff = abs(omega2 - series)
        err = diff / series if series > 0.0 else diff
        self.drift.append(err)
        return err <= DRIFT_LIMIT

    def check_rho(self, spec, x: float) -> bool:
        """engine.exp_ratio against the Bessel-function oracle."""
        mu = spec.family.ctx.mu
        rho = engine.exp_ratio(spec, x)
        ref = rho_oracle(mu, spec.n * x)
        diff = abs(rho - ref)
        self.rho.append(diff / ref if ref >= _RHO_TINY else diff)
        return -1e-15 <= rho <= 1.0 and diff <= RHO_LIMIT

    def check_point(self, spec, x: float, omega2: float) -> bool:
        """All three checks at one point; every one of them runs."""
        ok = self.check_mass(spec, x)
        ok = self.check_drift(spec, x, omega2) and ok
        return self.check_rho(spec, x) and ok

    def metrics(self) -> dict:
        return {
            "mass_err_max": max(self.mass + [MASS_FLOOR]),
            "omega2_drift_max": max(self.drift + [DRIFT_FLOOR]),
            "rho_err_max": max(self.rho + [RHO_FLOOR]),
        }


def t2_holds(entry, spec, x: float, kf: float, omega2: float) -> bool:
    """|K f(x) - f(x)| within the first-modulus bound, with the analytic
    modulus from the registry and the verifier's rounding slack."""
    n = spec.n
    bound = (1.0 + math.sqrt(n * omega2)) * entry.analytic_modulus(1.0 / math.sqrt(n))
    return abs(kf - entry.evaluator(x)) <= bound + 1e-9


def apply_reach(families, n: int = 1000, top: float = 1e6, steps: int = 24) -> float:
    """Largest n*x in [1, top] at which apply(const1) succeeds, for the
    weakest of the given families (bisection in log space)."""
    reach = top
    for family in families:
        spec = engine.OperatorSpec(family=family, n=n)

        def ok(nx: float) -> bool:
            try:
                engine.apply(spec, _one, nx / n)
            except DunklApproxError:
                return False
            return True

        if ok(top):
            continue
        lo, hi = 1.0, top
        for _ in range(steps):
            mid = math.sqrt(lo * hi)
            if ok(mid):
                lo = mid
            else:
                hi = mid
        reach = min(reach, lo)
    return reach
