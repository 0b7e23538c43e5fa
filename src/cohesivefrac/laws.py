"""Cohesive laws, the relaxed bulk density, and their size rescalings.

A cohesive law ``phi`` maps an opening ``s >= 0`` to a surface energy
density in ``[0, 1]``.  Admissible laws are increasing and concave with
``phi(0) = 0``, finite initial slope ``a = phi'(0)`` and ``sup phi = 1``;
concavity gives ``phi(s) <= a*s``.  Two families are provided:

* Dugdale:      ``phi(s) = min(a*s, 1)``
* Exponential:  ``phi(s) = 1 - exp(-a*s)``

The matching bulk density ``f`` is quadratic up to ``|xi| = a/2`` and
affine with slope ``a`` beyond; it is the convex relaxation of
``min(|xi|^2, a*|xi|)``-type competition between elastic strain and
diffuse micro-jumps, and satisfies ``f(xi) <= |xi|^2`` and
``f(xi) >= a*|xi| - a^2/4``.

``rescale_laws`` produces the laws seen on a unit reference body after a
domain of diameter ``h`` with boundary-datum exponent ``alpha`` is pulled
back to it.  Both families are closed under that rescaling: the opening
dilation ``s -> h**alpha * s`` turns a law of slope ``a`` into the same
kind of law with slope ``a * h**alpha``, and the bulk density keeps its
shape with slope ``a * h**(1-alpha)``.  The weights attached to the bulk
and surface terms depend on where ``alpha`` sits relative to the
critical exponent 1/2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "LawKind",
    "CohesiveLaw",
    "BulkDensity",
    "RescaledLaws",
    "rescale_laws",
    "relax_bulk_oracle",
]


class LawKind(enum.Enum):
    DUGDALE = "dugdale"
    EXPONENTIAL = "exponential"


def _as_checked_opening(s):
    arr = np.asarray(s, dtype=float)
    if (arr < 0.0).any():
        raise ValueError("opening must be nonnegative")
    return arr


@dataclass(frozen=True)
class CohesiveLaw:
    """Surface energy density of a single cohesive interface.

    ``a`` is the initial slope phi'(0); it must be positive and finite.
    Instances are immutable and evaluate vectorized.
    """

    kind: LawKind
    a: float

    def __post_init__(self):
        # accept the enum value string; anything else must not fall
        # through to one branch of the kind dispatch silently
        if not isinstance(self.kind, LawKind):
            object.__setattr__(self, "kind", LawKind(self.kind))
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"initial slope must be positive and finite, got {self.a}")

    def __call__(self, s):
        arr = _as_checked_opening(s)
        if self.kind is LawKind.DUGDALE:
            out = np.minimum(self.a * arr, 1.0)
        else:
            # expm1 keeps precision near s = 0
            out = -np.expm1(-self.a * arr)
        return out if out.ndim else float(out)

    @property
    def saturation_opening(self) -> float | None:
        """Opening past which phi is exactly 1, or None if never reached."""
        if self.kind is LawKind.DUGDALE:
            return 1.0 / self.a
        return None

    def deriv(self, s):
        """phi'(s), one-sided from above at the Dugdale kink (0 once saturated)."""
        arr = _as_checked_opening(s)
        if self.kind is LawKind.DUGDALE:
            out = np.where(arr < 1.0 / self.a, self.a, 0.0)
        else:
            out = self.a * np.exp(-self.a * arr)
        return out if out.ndim else float(out)

    # Float forms of ``__call__`` and ``deriv`` for one opening, and the
    # local minimum of one law term against a parabola, for kernels that
    # would otherwise spend their time in numpy calls on 0-d and
    # two-element arrays.  Values are bit-identical to the array forms:
    # the exponential law takes numpy's exp on a float, as ``math.exp``
    # rounds differently in about one opening in twenty.

    def _value(self, s: float) -> float:
        if s < 0.0:
            raise ValueError("opening must be nonnegative")
        if self.kind is LawKind.DUGDALE:
            v = self.a * s
            return 1.0 if v > 1.0 else v
        return -float(np.expm1(-self.a * s))

    def _slope(self, s: float) -> float:
        if s < 0.0:
            raise ValueError("opening must be nonnegative")
        if self.kind is LawKind.DUGDALE:
            return self.a if s < 1.0 / self.a else 0.0
        return self.a * float(np.exp(-self.a * s))

    def _stationary(self, kappa: float, d: float, weights, rate: float) -> list:
        """Local minimum of ``kappa*(x - d)**2 + w*phi(rate*x)`` for every weight ``w``.

        ``kappa > 0``, ``rate > 0`` and every ``w >= 0``.  Returns one
        float per weight, NaN where the point is not real.  Only the
        unsaturated piece of phi counts; on a saturated piece the point
        is ``d``.

        Dugdale: the vertex ``d - w*a*rate/(2*kappa)``, on floats.
        Exponential: with ``b = a*rate``, ``x = d + W_0(z)/b`` for
        ``z = -w*b**2*exp(-b*d)/(2*kappa)``, real for ``z >= -1/e``.  The
        second derivative there is ``2*kappa*(1 + W) >= 0``; the ``W_-1``
        branch gives local maxima, which never beat an interval's ends.
        One array call, as a scalar Lambert W per point costs more.

        A sum ``sum_k w_k*phi(rate*x + s_k)`` of terms on their unsaturated
        piece is ``W*phi(rate*x)`` plus a constant, with
        ``W = sum_k w_k*phi'(s_k)/a``, so one weight covers any number of
        shifted copies of the law.
        """
        if self.kind is LawKind.DUGDALE:
            c = self.a * rate / (2.0 * kappa)
            return [d - w * c for w in weights]
        # scipy.special costs memory and start-up time, so only
        # exponential laws load it
        from scipy.special import lambertw

        weight = np.asarray(weights, dtype=float)
        b = self.a * rate
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # in logs, so that a zero weight gives z = 0 however large -b*d
            z = -np.exp(np.log(weight * (b * b / (2.0 * kappa))) - b * d)
            x = np.where(z >= -math.exp(-1.0), d + lambertw(z, 0).real / b, np.nan)
        return x.tolist()


@dataclass(frozen=True)
class BulkDensity:
    """Relaxed bulk energy density: quadratic core, affine tails of slope ``a``."""

    a: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"slope must be positive and finite, got {self.a}")

    @property
    def threshold(self) -> float:
        return 0.5 * self.a

    def __call__(self, xi):
        arr = np.abs(np.asarray(xi, dtype=float))
        thr = self.threshold
        out = np.where(arr <= thr, arr * arr, thr * thr + self.a * (arr - thr))
        return out if out.ndim else float(out)

    def _value(self, xi: float) -> float:
        """``__call__`` for one strain, on floats and bit-identical to it."""
        x = abs(xi)
        thr = self.threshold
        return x * x if x <= thr else thr * thr + self.a * (x - thr)

    def deriv(self, xi):
        """f'(xi); the two branches match at the threshold, so f is C1."""
        arr = np.asarray(xi, dtype=float)
        out = np.clip(2.0 * arr, -self.a, self.a)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class RescaledLaws:
    """Laws and term weights of a size-``h`` problem pulled back to the unit body.

    ``phi`` and ``bulk`` are already rescaled.  The energy of a pulled-back
    displacement field is::

        bulk_weight * integral f_h(grad v)
      + surface_weight * integral phi_h(|[v]| v psi)
    """

    phi: CohesiveLaw
    bulk: BulkDensity
    bulk_weight: float
    surface_weight: float


def rescale_laws(law: CohesiveLaw, h: float, alpha: float) -> RescaledLaws:
    """Pull the laws of a body of diameter ``h`` back to the unit body.

    The initial slope ``law.a`` sets both rescaled slopes.  ``h >= 1`` is
    the size ratio and ``alpha`` in (0, 2) the boundary-datum scaling
    exponent.  ``h = 1`` returns identity weights regardless of ``alpha``.
    """
    if h < 1.0:
        raise ValueError(f"size ratio must satisfy h >= 1, got {h}")
    if not (0.0 < alpha < 2.0):
        raise ValueError(f"scaling exponent must lie in (0, 2), got {alpha}")
    if alpha <= 0.5:
        bw, sw = 1.0, h ** (1.0 - 2.0 * alpha)
    else:
        bw, sw = h ** (2.0 * alpha - 1.0), 1.0
    return RescaledLaws(
        phi=CohesiveLaw(law.kind, law.a * h**alpha),
        bulk=BulkDensity(law.a * h ** (1.0 - alpha)),
        bulk_weight=bw,
        surface_weight=sw,
    )


def plain_laws(law: CohesiveLaw) -> RescaledLaws:
    """Unit-size laws: all weights 1."""
    return rescale_laws(law, 1.0, 0.5)


# grid points scanned at once by ``relax_bulk_oracle``
_ORACLE_CHUNK = 1 << 16
# most grid points ``relax_bulk_oracle`` scans (1.2e6 at the default
# step and a = 10)
_ORACLE_MAX_POINTS = 10**8


def relax_bulk_oracle(
    base: Callable[[np.ndarray], np.ndarray],
    a: float,
    xi: float | np.ndarray,
    grid_step: float = 1e-4,
) -> float | np.ndarray:
    """Grid-search value of the infimal convolution of ``base`` with ``a*|.|``.

    Computes ``inf { base(x1) + a*|xi - x1| }`` by exhaustive search of
    ``x1`` over one grid of step ``grid_step`` on ``[-m-a, m+a]``, where
    ``m = max|xi|``.  ``xi`` may be a scalar (the result is a ``float``)
    or an array (the result has its shape); every point shares the grid,
    so a scalar searches ``[-|xi|-a, |xi|+a]``.  For ``base(x) = x**2``
    the result must agree with :class:`BulkDensity` up to
    O(grid_step * a); the grid search is kept deliberately independent of
    that closed form so it can certify it.

    The search is an L1 distance transform by running minima
    (Felzenszwalb & Huttenlocher, 2012): grid points ``x1 <= xi`` give
    ``a*xi + min(base(x1) - a*x1)``, the others ``-a*xi + min(base(x1) +
    a*x1)``, so each point reads a running minimum on each side and the
    result equals the minimum over the whole grid up to rounding.  The
    cost is one evaluation of ``base`` per grid point plus one binary
    search per point and chunk, not one scan of the grid per point.
    Memory stays flat however fine the grid: it is scanned in
    chunks of ``_ORACLE_CHUNK`` points, carrying both running minima across.
    A grid of more than ``_ORACLE_MAX_POINTS`` points raises ``ValueError``
    before any scan.
    """
    if not (grid_step > 0.0 and math.isfinite(grid_step)):
        raise ValueError(f"grid_step must be positive and finite, got {grid_step}")
    pts = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("xi must be finite")
    flat = pts.ravel()
    half = float(np.max(np.abs(flat))) + a
    span = 2.0 * half / grid_step
    if not span < _ORACLE_MAX_POINTS:
        raise ValueError(
            f"a grid of {span + 1.0:.3g} points exceeds the cap of {_ORACLE_MAX_POINTS:.0e}"
        )
    n = int(math.ceil(span)) + 1
    # min of base - a*x1 over grid points left of each xi, and of
    # base + a*x1 over those right of it
    left = np.full(flat.shape, math.inf)
    right = np.full(flat.shape, math.inf)
    carry = math.inf
    for start in range(0, n, _ORACLE_CHUNK):
        x1 = -half + grid_step * np.arange(start, min(start + _ORACLE_CHUNK, n))
        vals = np.asarray(base(x1), dtype=float)
        slope = a * x1
        lmin = np.minimum.accumulate(vals - slope)
        np.minimum(lmin, carry, out=lmin)
        carry = float(lmin[-1])
        rmin = np.minimum.accumulate((vals + slope)[::-1])[::-1]
        # number of this chunk's grid points at or left of each xi
        k = np.searchsorted(x1, flat, side="right")
        has_left = k > 0
        left[has_left] = lmin[k[has_left] - 1]
        has_right = k < x1.size
        right[has_right] = np.minimum(right[has_right], rmin[k[has_right]])
    best = np.minimum(left + a * flat, right - a * flat)
    return float(best[0]) if pts.ndim == 0 else best.reshape(pts.shape)
