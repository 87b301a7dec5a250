"""Daily spread-volatility regression.

Across asset-days the period volatility lines up with the implicit spread
times the square root of the trade count. The fit
``sigma = p1 * eta * alpha * sqrt(M) + p2 * S * sqrt(M) + p3`` quantifies
that, with the quoted-spread term soaking up days trading wider than a tick.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import CollinearityError, InsufficientDataError, ParameterError
from .estimators import DailyRecord

_MIN_RECORDS = 4  # three coefficients plus at least one residual degree of freedom
_LEVEL = 0.975  # the quantile of the classical 95% interval
# B_2k / (2k (2k - 1)) for k = 1..7, the coefficients of Stirling's series for log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _t_density_scale(dof: int) -> float:
    """Gamma((dof + 1) / 2) / (Gamma(dof / 2) sqrt(pi)), to about an ulp.

    Below 20 it is a central binomial coefficient over a power of 4, divided
    once (and by pi for an odd ``dof``). From 20 on, with a = dof / 2, Stirling's
    series gives log(Gamma(a + 1/2) / (Gamma(a) sqrt(a))) to 1e-17 in seven
    terms; a difference of two lgamma values would lose about 1e-11 at a = 5000.
    """
    n = dof // 2
    if dof < 20:
        if dof % 2:
            return 4**n / math.comb(2 * n, n) / math.pi
        return n * math.comb(2 * n, n) / 4**n
    a = dof / 2
    s = a * math.log1p(0.5 / a) - 0.5
    s += sum(c * ((a + 0.5) ** (1 - 2 * k) - a ** (1 - 2 * k)) for k, c in enumerate(_STIRLING, 1))
    return math.exp(s) * math.sqrt(a / math.pi)


def _beta_fraction(a: float, u: float) -> float:
    """2F1(1/2, 1; a + 1; -1/u) by its continued fraction, for the Student t tail.

    With x = 1 / (1 + u), ``I_x(a, 1/2) = x^(a - 1/2) F / (a B(a, 1/2) sqrt(u))``:
    Pfaff's transformation of the hypergeometric function behind the usual
    incomplete-beta fraction. This fraction's partial numerators are all
    positive, so it has none of the cancellation that ``1 - x`` brings into
    the usual one when a is large and x near 1. Steed's method turns it into
    terms of falling size, summed exactly by ``math.fsum``; on the quantile
    solver's path the value lies above 0.8, so the last term taken is under
    an ulp of it.
    """
    step = d = 1.0
    terms = [step]
    n = 1
    while abs(step) > 1e-17:
        m = n // 2
        if n % 2:
            num = (a + m) * (0.5 + m) / (u * (a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (a + m - 0.5) / (u * (a + 2 * m - 1) * (a + 2 * m))
        prev, d = d, 1.0 / (1.0 + num * d)
        step *= -num * prev * d
        terms.append(step)
        n += 1
    return math.fsum(terms)


def _t_quantile(dof: int) -> float:
    """The 97.5% quantile of Student's t with ``dof`` >= 1 degrees of freedom.

    Newton's method on the upper tail ``Q(t) = I_x(dof/2, 1/2) / 2`` with
    ``x = dof / (dof + t^2)``, from the normal quantile: the t quantile lies
    above it, and Q is convex for t > 0, so every step moves toward the root
    and none past it. For every dof up to 10,000 the result is within 2 ulps
    of the quantile computed to 40 digits.
    """
    a = dof / 2
    scale = _t_density_scale(dof)
    t = 1.959963984540054  # the normal 97.5% quantile
    for _ in range(100):
        u = t * t / dof
        tail = scale * math.exp((0.5 - a) * math.log1p(u)) * _beta_fraction(a, u) / (math.sqrt(dof) * t)
        density = scale * math.exp(-(a + 0.5) * math.log1p(u)) / math.sqrt(dof)
        step = (tail - (1.0 - _LEVEL)) / density
        t += step
        if abs(step) <= 1e-13 * t:
            break
    return t


@dataclass(frozen=True)
class RegressionFit:
    """OLS point estimates with classical 95% confidence intervals."""

    p1: float
    p2: float
    p3: float
    p1_ci: Tuple[float, float]
    p2_ci: Tuple[float, float]
    p3_ci: Tuple[float, float]
    r2: float
    n_days: int

    def __post_init__(self):
        for est, ci in ((self.p1, self.p1_ci), (self.p2, self.p2_ci), (self.p3, self.p3_ci)):
            if not (ci[0] <= est <= ci[1]):
                raise ParameterError("point estimate must lie inside its interval")
        if not (0.0 <= self.r2 <= 1.0):
            raise ParameterError("r2 must lie in [0, 1]")

    def row(self, asset_id: str) -> List:
        return [
            asset_id,
            self.p1, self.p1_ci[0], self.p1_ci[1],
            self.p2, self.p2_ci[0], self.p2_ci[1],
            self.p3, self.p3_ci[0], self.p3_ci[1],
            self.r2,
        ]


REGRESSION_CSV_HEADER = [
    "asset", "p1", "p1_lo", "p1_hi", "p2", "p2_lo", "p2_hi", "p3", "p3_lo", "p3_hi", "r2",
]


def design_matrix(records: Sequence[DailyRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Regressors [eta*alpha*sqrt(M), S*sqrt(M), 1] and the response sigma."""
    sqrt_m = np.array([math.sqrt(r.m_trades) for r in records])
    x1 = np.array([r.eta_hat * r.alpha for r in records]) * sqrt_m
    x2 = np.array([r.avg_spread for r in records]) * sqrt_m
    y = np.array([r.sigma_hat for r in records])
    return np.column_stack([x1, x2, np.ones(len(records))]), y


def fit_spread_vol(records: Iterable[DailyRecord], exclude_flagged: bool = True) -> RegressionFit:
    """Fit the three-parameter spread-volatility line across asset-days.

    Days flagged for an out-of-range zone ratio are dropped by default.
    Solved via SVD least squares; intervals use the homoskedastic classical
    standard errors with a Student t quantile on n - 3 degrees of freedom.
    """
    recs = [r for r in records if not (exclude_flagged and r.eta_flagged)]
    if len(recs) < _MIN_RECORDS:
        raise InsufficientDataError(
            f"need at least {_MIN_RECORDS} usable asset-days, got {len(recs)}"
        )
    x, y = design_matrix(recs)
    if np.linalg.matrix_rank(x) < 3:
        raise CollinearityError("regressors are linearly dependent")
    beta, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    rss = float(resid @ resid)
    dof = len(recs) - 3
    s2 = rss / dof
    pinv = np.linalg.pinv(x)
    cov = s2 * (pinv @ pinv.T)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    tq = _t_quantile(dof)
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss <= 0:
        raise ParameterError("response has zero variance across days")
    r2 = min(max(1.0 - rss / tss, 0.0), 1.0)
    ci = [(float(b - tq * s), float(b + tq * s)) for b, s in zip(beta, se)]
    return RegressionFit(
        p1=float(beta[0]), p2=float(beta[1]), p3=float(beta[2]),
        p1_ci=ci[0], p2_ci=ci[1], p3_ci=ci[2],
        r2=r2, n_days=len(recs),
    )

