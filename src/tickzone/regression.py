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
from scipy import special

from .errors import CollinearityError, InsufficientDataError, ParameterError
from .estimators import DailyRecord

_MIN_RECORDS = 4  # three coefficients plus at least one residual degree of freedom


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
    tq = float(special.stdtrit(dof, 0.975))
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

