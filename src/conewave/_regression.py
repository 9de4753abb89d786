"""Shared log2-log2 least-squares power-law fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of log2(y) = exponent * log2(x) + intercept.

    exponent_se is the ordinary least-squares standard error of the slope,
    NaN for two points (no residual degree of freedom).
    """

    exponent: float
    intercept: float
    r_squared: float
    exponent_se: float


def fit_power_law(xs, ys) -> PowerLawFit:
    """Fit y ~ C * x**e in log2-log2 coordinates.

    A constant series fits exponent 0 with r_squared 1; nonpositive values
    are rejected since their logarithm is undefined.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("fit_power_law expects matching 1D arrays")
    if xs.size < 2:
        raise ValueError("fit_power_law needs at least two points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("fit_power_law requires strictly positive data")
    if np.unique(xs).size < 2:
        raise ValueError("fit_power_law requires at least two distinct x values")
    lx = np.log2(xs)
    ly = np.log2(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = max(0.0, 1.0 - ss_res / ss_tot)
    dof = xs.size - 2
    se = (math.sqrt(ss_res / dof / float(np.sum((lx - lx.mean()) ** 2)))
          if dof > 0 else math.nan)
    return PowerLawFit(exponent=float(slope), intercept=float(intercept),
                       r_squared=float(min(r2, 1.0)), exponent_se=se)
