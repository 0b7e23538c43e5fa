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


# The forms of one law kind, built once per law by ``CohesiveLaw`` so
# that no call dispatches on the kind again: the array forms of
# ``__call__`` and ``deriv``, their float forms ``_value(s)`` and
# ``_slope(s)`` for one opening, and ``_stationary``, the local minimum of
# one law term against a parabola.  The float forms serve the bar's step
# kernel, which would otherwise spend its time in numpy calls on 0-d
# arrays.  Their values are bit-identical to the array forms: the
# exponential law takes numpy's exp on a float, as ``math.exp`` rounds
# differently in about one opening in twenty.
#
# ``_stationary(kappa, d, w)`` is the local minimum of
# ``kappa*(x - d)**2 + w*phi(x)``, with ``kappa > 0`` and ``w >= 0``, or
# NaN where it is not real.  Only the unsaturated piece of phi counts;
# on a saturated piece the point is ``d``.
#
# * Dugdale: the vertex ``d - w*a/(2*kappa)``; ``d`` may be an array,
#   which the bar's path uses to price a run of steps at one memory.
# * Exponential: ``x = d + W_0(z)/a`` for ``z = -w*a**2*exp(-a*d)/(2*kappa)``,
#   real for ``z >= -1/e``.  The second derivative there is
#   ``2*kappa*(1 + W) >= 0``; the ``W_-1`` branch gives local maxima,
#   which never beat an interval's ends.
#
# A sum ``sum_k w_k*phi(x + s_k)`` of terms on their unsaturated piece is
# ``w*phi(x)`` plus a constant, with ``w = sum_k w_k*phi'(s_k)/a``, so one
# weight covers any number of shifted copies of the law.

# 1/e as a float plus the rounding it leaves: z + 1/e to twice precision
_INV_E, _INV_E_LO = 0.36787944117144233, -1.2428753672788363e-17
# relative size of the Halley step that ends ``_lambert_w0``: four ulps
_W0_TOL = 2.0**-50
# most Halley steps ``_lambert_w0`` takes; it needs at most 4
_W0_MAX_ITERS = 8


def _lambert_w0(z: float) -> float:
    """The principal branch ``W_0(z)`` of the Lambert W function, ``-1/e <= z <= 0``.

    Halley's iteration on ``w*exp(w) = z`` (Corless et al., Adv. Comput.
    Math. 5, 1996).  Below ``z = -0.25`` it starts from the branch-point
    series in ``p = sqrt(2*(e*z + 1))`` and prices the residual from
    ``z + 1/e``, formed to twice precision, so that ``W`` stays within
    two ulps up to the branch point; above, it starts from
    ``log1p(z)``.  It stops once a step is below ``_W0_TOL`` of ``W``,
    and raises ``ArithmeticError`` past ``_W0_MAX_ITERS`` steps.  Every
    ``exp`` it takes is of an iterate near ``W`` in ``[-1, 0]``, so none
    can overflow.
    """
    near = z < -0.25
    if near:
        r = (z + _INV_E) + _INV_E_LO  # z + _INV_E is exact (Sterbenz)
        if r <= 0.0:
            return -1.0
        p = math.sqrt(2.0 * math.e * r)
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (
            -43.0 / 540.0 + p * (769.0 / 17280.0)))))
    else:
        w = math.log1p(z)
    for _ in range(_W0_MAX_ITERS):
        v = w + 1.0
        ew = math.exp(w)
        # w*e^w - z; near the branch point as ((w*e^v + 1) - e*(z + 1/e))/e
        f = (w * math.expm1(v) + v) / math.e - r if near else w * ew - z
        step = f / (ew * v - (v + 1.0) * f / (2.0 * v))
        w -= step
        if abs(step) <= _W0_TOL * abs(w):
            return w
    raise ArithmeticError(f"W_0({z!r}) missed {_W0_TOL:g} in {_W0_MAX_ITERS} Halley steps")


def _dugdale_forms(a: float) -> tuple:
    knee = 1.0 / a

    def values(arr):
        return np.minimum(a * arr, 1.0)

    def slopes(arr):
        return np.where(arr < knee, a, 0.0)

    def value(s: float) -> float:
        if s < 0.0:
            raise ValueError("opening must be nonnegative")
        v = a * s
        return 1.0 if v > 1.0 else v

    def slope(s: float) -> float:
        if s < 0.0:
            raise ValueError("opening must be nonnegative")
        return a if s < knee else 0.0

    def stationary(kappa: float, d: float, w: float) -> float:
        return d - w * (a / (2.0 * kappa))

    return values, slopes, value, slope, stationary


def _exponential_forms(a: float) -> tuple:
    def values(arr):
        # expm1 keeps precision near s = 0
        return -np.expm1(-a * arr)

    def slopes(arr):
        return a * np.exp(-a * arr)

    def value(s: float) -> float:
        if s < 0.0:
            raise ValueError("opening must be nonnegative")
        return -float(np.expm1(-a * s))

    def slope(s: float) -> float:
        if s < 0.0:
            raise ValueError("opening must be nonnegative")
        return a * float(np.exp(-a * s))

    def stationary(kappa: float, d: float, w: float) -> float:
        k = w * (a * a / (2.0 * kappa))
        if k == 0.0:
            return d
        # log|z|, so that no exp overflows however large -a*d
        log_z = math.log(k) - a * d
        return d + _lambert_w0(-math.exp(log_z)) / a if log_z <= -1.0 else math.nan

    return values, slopes, value, slope, stationary


_FORMS = {LawKind.DUGDALE: _dugdale_forms, LawKind.EXPONENTIAL: _exponential_forms}


@dataclass(frozen=True)
class CohesiveLaw:
    """Surface energy density of a single cohesive interface.

    ``a`` is the initial slope phi'(0); it must be positive and finite.
    Instances are immutable, compare and hash by ``(kind, a)``, and
    evaluate vectorized.
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
        forms = _FORMS[self.kind](self.a)
        for name, form in zip(("_values", "_slopes", "_value", "_slope", "_stationary"), forms):
            object.__setattr__(self, name, form)

    def __reduce__(self):
        # the forms are closures, rebuilt from the fields
        return CohesiveLaw, (self.kind, self.a)

    def __call__(self, s):
        out = self._values(_as_checked_opening(s))
        return out if out.ndim else float(out)

    @property
    def saturation_opening(self) -> float | None:
        """Opening past which phi is exactly 1, or None if never reached."""
        if self.kind is LawKind.DUGDALE:
            return 1.0 / self.a
        return None

    def deriv(self, s):
        """phi'(s), one-sided from above at the Dugdale kink (0 once saturated)."""
        out = self._slopes(_as_checked_opening(s))
        return out if out.ndim else float(out)


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

    The initial slope ``law.a`` sets both rescaled slopes.  ``h`` in
    [1, inf) is the size ratio and ``alpha`` in (0, 2) the boundary-datum
    scaling exponent.  ``h = 1`` returns identity weights regardless of
    ``alpha``.
    """
    if not 1.0 <= h < math.inf:
        raise ValueError(f"size ratio must satisfy 1 <= h < inf, got {h}")
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


# grid points scanned at once by ``relax_bulk_oracle``; it sets speed
# only.  A chunk's float64 temporaries (128 KiB each here) stay in L2 and
# reuse the heap blocks that the previous chunk freed.  At 1 << 16
# (512 KiB each) every chunk faulted in fresh pages: 1 636 minor faults
# over the three relax-check slopes at grid 2e-4, against 32-77 here
# (Xeon, 2 MiB L2, Python 3.11, numpy 2.4).  At 1 << 13 the faults are as
# few, but twice as many per-chunk calls made the scan slower.
_ORACLE_CHUNK = 1 << 14
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
    or a nonempty array (the result has its shape); every point shares
    the grid, so a scalar searches ``[-|xi|-a, |xi|+a]``.  For
    ``base(x) = x**2`` the result must agree with :class:`BulkDensity` up
    to O(grid_step * a); the grid search is kept deliberately independent
    of that closed form so it can certify it.

    The search is an L1 distance transform (Felzenszwalb & Huttenlocher,
    2012): grid points ``x1 <= xi`` give ``a*xi + min(base(x1) - a*x1)``,
    the others ``-a*xi + min(base(x1) + a*x1)``.  With the points sorted,
    the grid splits into ``len(xi) + 1`` segments between consecutive
    points; one ``minimum.reduceat`` per side takes each segment's
    minimum, and one ``minimum.accumulate`` per side over the segments
    gives every point the minimum over all grid points on that side.  The
    minima are of the same floats as a point-by-point scan, so the result
    equals it exactly.  The cost is one evaluation of ``base`` per grid
    point plus one binary search per point and chunk, not one scan of the
    grid per point.  Memory stays flat however fine the grid: it is
    scanned in chunks of ``_ORACLE_CHUNK`` points, carrying the segment
    minima across.  The chunk is sized so that its temporaries stay in L2
    and are reused from the heap, not faulted in afresh (1 636 minor
    faults over the three relax-check slopes at grid 2e-4 with chunks of
    ``1 << 16``, 32-77 with ``1 << 14``); every chunk size gives the same
    floats.  A grid of more than ``_ORACLE_MAX_POINTS`` points, a
    slope ``a`` that is not positive and finite, and an empty ``xi`` raise
    ``ValueError`` before any scan.
    """
    if not (grid_step > 0.0 and math.isfinite(grid_step)):
        raise ValueError(f"grid_step must be positive and finite, got {grid_step}")
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"a must be positive and finite, got {a}")
    pts = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("xi must be finite")
    if pts.size == 0:
        raise ValueError(f"xi must hold at least one point, got shape {pts.shape}")
    flat = pts.ravel()
    half = float(np.max(np.abs(flat))) + a
    span = 2.0 * half / grid_step
    if not span < _ORACLE_MAX_POINTS:
        raise ValueError(
            f"a grid of {span + 1.0:.3g} points exceeds the cap of {_ORACLE_MAX_POINTS:.0e}"
        )
    n = int(math.ceil(span)) + 1
    order = np.argsort(flat)
    sorted_pts = flat[order]
    # segment j holds the grid points in (sorted_pts[j-1], sorted_pts[j]];
    # min of base - a*x1 and of base + a*x1 over each segment
    left = np.full(flat.size + 1, math.inf)
    right = np.full(flat.size + 1, math.inf)
    for start in range(0, n, _ORACLE_CHUNK):
        # -half + grid_step*k, in place
        x1 = np.arange(start, min(start + _ORACLE_CHUNK, n), dtype=float)
        x1 *= grid_step
        x1 -= half
        vals = np.asarray(base(x1), dtype=float)
        # first grid point of each segment in this chunk; reduceat needs
        # the empty segments dropped
        firsts = np.concatenate(([0], np.searchsorted(x1, sorted_pts, side="right")))
        filled = firsts < np.append(firsts[1:], x1.size)
        at = firsts[filled]
        ax = a * x1
        left[filled] = np.minimum(left[filled], np.minimum.reduceat(vals - ax, at))
        ax += vals
        right[filled] = np.minimum(right[filled], np.minimum.reduceat(ax, at))
    # point j reads segments 0..j on the left and j+1.. on the right
    lmin = np.minimum.accumulate(left)[:-1]
    rmin = np.minimum.accumulate(right[::-1])[::-1][1:]
    best = np.empty(flat.size)
    best[order] = np.minimum(lmin + a * sorted_pts, rmin - a * sorted_pts)
    return float(best[0]) if pts.ndim == 0 else best.reshape(pts.shape)
