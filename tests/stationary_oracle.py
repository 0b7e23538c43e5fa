"""Array stationary points of one cohesive law term, independent of ``laws``.

The first row (the local minima) is the reference for
``CohesiveLaw._stationary``, with scipy's Lambert W in place of the
law's own.  Both rows are candidates of ``_excess_minimum_oracle`` in
``test_solver1d``, so that oracle also prices the exponential law's
``W_-1`` local maxima, which the bar's step leaves out.
"""

import math

import numpy as np
from scipy.special import lambertw

from cohesivefrac.laws import LawKind


def stationary_points(law, kappa, d, weight):
    """Stationary points of ``kappa*(x - d)**2 + weight*law(x)``.

    ``kappa > 0`` and ``weight >= 0``; ``d`` and ``weight``
    broadcast, and the result has shape ``(k, *broadcast shape)``: ``k``
    points per instance, NaN where a point is not real.  Only the
    unsaturated piece of the law counts.

    Dugdale (``k = 1``): the vertex ``d - weight*a/(2*kappa)``.
    Exponential (``k = 2``): ``x = d + W(z)/a`` for
    ``z = -weight*a**2*exp(-a*d)/(2*kappa)`` on the two real Lambert-W
    branches ``W_0`` and ``W_-1``, which exist for ``z >= -1/e``.
    """
    d = np.asarray(d, dtype=float)
    weight = np.asarray(weight, dtype=float)
    if law.kind is LawKind.DUGDALE:
        return (d - weight * (law.a / (2.0 * kappa)))[None]
    b = law.a
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # in logs, so that a zero weight gives z = 0 however large -b*d
        z = -np.exp(np.log(weight * (b * b / (2.0 * kappa))) - b * d)
        real = z >= -math.exp(-1.0)
        zr = np.where(real, z, 0.0)
        x = d + np.stack([lambertw(zr, 0).real, lambertw(zr, -1).real]) / b
    # W_-1(0) = -inf: with no surface weight only the vertex is left
    return np.where(real & np.isfinite(x), x, np.nan)
