import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from cohesivefrac import laws
from cohesivefrac.laws import (
    BulkDensity,
    CohesiveLaw,
    LawKind,
    _lambert_w0,
    plain_laws,
    relax_bulk_oracle,
    rescale_laws,
)
from stationary_oracle import stationary_points

LAW_SLOPES = [0.5, 2.0, 10.0]


def dugdale(a=2.0):
    return CohesiveLaw(LawKind.DUGDALE, a)


def exponential(a=2.0):
    return CohesiveLaw(LawKind.EXPONENTIAL, a)


def test_phi_eval_pinned_values():
    assert dugdale(2.0)(0.25) == 0.5
    assert dugdale(2.0)(0.0) == 0.0
    assert exponential(2.0)(0.0) == 0.0
    assert exponential(2.0)(1.0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-15)


def test_phi_rejects_negative_opening():
    with pytest.raises(ValueError):
        dugdale()(-0.1)
    with pytest.raises(ValueError):
        exponential()(np.array([0.2, -1e-9]))
    # the float forms keep the check
    for law in (dugdale(), exponential()):
        for form in (law._value, law._slope):
            with pytest.raises(ValueError, match="nonnegative"):
                form(-1e-9)


def test_law_requires_positive_finite_slope():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            CohesiveLaw(LawKind.DUGDALE, bad)


@pytest.mark.parametrize("kind", list(LawKind))
@pytest.mark.parametrize("a", LAW_SLOPES)
def test_phi_concave_increasing_bounded(kind, a):
    law = CohesiveLaw(kind, a)
    s = np.linspace(0.0, 10.0 / a, 1000)
    v = law(s)
    assert np.all(np.diff(v) >= -1e-14)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)
    # concavity via second differences on the uniform grid
    d2 = np.diff(v, 2)
    assert np.max(d2) <= 1e-10
    # phi(s) <= a*s with equality slope at the origin
    assert np.all(v <= a * s + 1e-12)


@pytest.mark.parametrize("a", LAW_SLOPES)
def test_phi_reaches_one(a):
    assert CohesiveLaw(LawKind.DUGDALE, a)(1.0 / a) == 1.0
    assert CohesiveLaw(LawKind.EXPONENTIAL, a)(21.0 / a) >= 1.0 - 1e-9


def test_bulk_eval_pinned_values():
    f = BulkDensity(2.0)
    assert f(0.5) == 0.25
    assert f(1.0) == 1.0
    assert f(2.0) == 3.0
    assert f(-2.0) == 3.0


@pytest.mark.parametrize("kind", list(LawKind))
def test_deriv_matches_difference_quotient(kind):
    law = CohesiveLaw(kind, 2.0)
    s = np.array([0.0, 0.1, 0.3, 0.49, 0.51, 2.0])
    step = 1e-7
    assert np.allclose(law.deriv(s), (law(s + step) - law(s)) / step, atol=1e-6)
    # one-sided from above at the Dugdale kink
    assert law.deriv(0.5) == (0.0 if kind is LawKind.DUGDALE else pytest.approx(2.0 / math.e))


@pytest.mark.parametrize("kind", list(LawKind))
def test_stationary_points_zero_the_derivative(kind):
    law = CohesiveLaw(kind, 2.0)
    rng = np.random.default_rng(3)
    kappa, b = 0.7, law.a
    d = rng.uniform(-2.0, 3.0, 400)
    weight = rng.uniform(0.0, 3.0, 400)
    x = np.array([law._stationary(kappa, di, wi) for di, wi in zip(d.tolist(), weight.tolist())])
    if kind is LawKind.DUGDALE:
        grad = 2.0 * kappa * (x - d) + weight * b
    else:
        grad = 2.0 * kappa * (x - d) + weight * b * np.exp(-b * x)
        # the derivative is convex in x; it has real roots exactly when
        # its minimum, at exp(-b*x) = 2*kappa/(weight*b**2), is <= 0
        x_low = np.log(weight * b * b / (2.0 * kappa)) / b
        has_roots = 2.0 * kappa * (x_low - d) + 2.0 * kappa / b <= 0.0
        assert np.array_equal(np.isfinite(x), has_roots)
        assert has_roots.any() and not has_roots.all()
        # W_0 is the local minimum: second derivative 2*kappa*(1 + W) >= 0
        curvature = 2.0 * kappa - weight * b * b * np.exp(-b * x)
        assert np.all(curvature[has_roots] >= -1e-9)
    real = np.isfinite(x)
    assert np.max(np.abs(grad[real])) <= 1e-12 * (1.0 + np.max(np.abs(x[real])))
    # no surface weight: only the vertex d is stationary
    assert law._stationary(kappa, 0.4, 0.0) == 0.4


def test_lambert_w0_matches_scipy():
    rng = np.random.default_rng(6)
    branch = -math.exp(-1.0)
    z = np.concatenate([
        branch * rng.uniform(0.0, 1.0, 60_000),
        # toward the branch point, and toward 0 down to the subnormals
        branch * (1.0 - 10.0 ** rng.uniform(-15.5, 0.0, 30_000)),
        branch * 10.0 ** rng.uniform(-320.0, 0.0, 10_000),
        [branch * (1.0 - 1e-15), np.nextafter(branch, 0.0), np.nextafter(-0.25, -1.0), -0.25,
         np.nextafter(-0.25, 0.0), -1e-300, -5e-324, -0.0, 0.0],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # within the iteration cap everywhere, or ArithmeticError
        w = np.array([_lambert_w0(x) for x in z.tolist()])
        assert _lambert_w0(branch) == -1.0
    assert np.all((-1.0 <= w) & (w <= 0.0))
    eps = np.finfo(float).eps
    assert np.all(np.abs(w * np.exp(w) - z) <= 4.0 * eps * np.abs(z))
    # dW/dz = W/(z*(1 + W)): a relative error eps in z moves W by
    # eps*|W|/|1 + W|, which grows without bound at the branch point
    want = lambertw(z, 0).real
    assert np.all(np.abs(w - want) <= 4.0 * eps * np.abs(w) / (1.0 + w))
    # W(z) = z - z**2 + ...: z itself once z**2 is below half an ulp of z
    tiny = np.abs(z) < 1e-17
    assert tiny.sum() > 1000 and np.array_equal(w[tiny], z[tiny])


def test_lambert_w0_raises_past_its_cap(monkeypatch):
    monkeypatch.setattr(laws, "_W0_MAX_ITERS", 1)
    for z in (-0.3, -0.1):
        with pytest.raises(ArithmeticError, match="Halley steps"):
            _lambert_w0(z)


@pytest.mark.parametrize("kind", list(LawKind))
def test_law_is_a_value_with_forms_resolved_once(kind):
    law = CohesiveLaw(kind, 2.0)
    # equality, hashing and pickling see only (kind, a)
    assert law == CohesiveLaw(kind.value, 2.0) and hash(law) == hash(CohesiveLaw(kind, 2.0))
    assert law != CohesiveLaw(kind, 3.0)
    copy = pickle.loads(pickle.dumps(law))
    assert copy == law and copy._value(0.3) == law._value(0.3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        law.a = 3.0
    # the float forms were chosen by kind when the law was built
    for form in (law._value, law._slope, law._stationary):
        assert "LawKind" not in form.__code__.co_names


@pytest.mark.parametrize("kind", list(LawKind))
def test_float_forms_match_array_forms(kind):
    law = CohesiveLaw(kind, 2.0)
    rng = np.random.default_rng(4 + list(LawKind).index(kind))
    # zero, the Dugdale kink 1/a, past saturation, and seeded random openings
    s = np.concatenate([[0.0, 1.0 / law.a, 0.75, 3.0], rng.uniform(0.0, 2.0, 500)])
    value = np.array([law._value(x) for x in s.tolist()])
    slope = np.array([law._slope(x) for x in s.tolist()])
    assert np.array_equal(value, law(s)) and np.array_equal(slope, law.deriv(s))
    kappa = 0.7
    # the last pair puts the exponential law's z at -exp(-1.0), the branch point
    d = np.append(rng.uniform(-2.0, 3.0, 3), 0.5)[:, None]
    weights = np.append(rng.uniform(0.0, 3.0, 3), 0.35)
    points = np.array([[law._stationary(kappa, x, w) for w in weights.tolist()]
                       for x in d[:, 0].tolist()])
    # the oracle's first row: the vertex, or the W_0 points
    want_points = stationary_points(law, kappa, d, weights)[0]
    if kind is LawKind.DUGDALE:
        assert np.array_equal(points, want_points)
        assert law._slope(1.0 / law.a) == 0.0 and law._value(3.0) == 1.0
    else:
        # x = d + W/a, with W within its conditioning eps*|W|/|1 + W| of
        # the oracle's: see test_lambert_w0_matches_scipy
        real = np.isfinite(want_points)
        assert np.array_equal(np.isfinite(points), real) and real.any()
        w = law.a * (points - d)[real]
        eps = np.finfo(float).eps
        with np.errstate(divide="ignore"):  # W = -1 at the branch point
            bound = 4.0 * eps * (np.abs(points[real]) + np.abs(w) / (law.a * (1.0 + w)))
        assert np.all(np.abs(points[real] - want_points[real]) <= bound)
        assert points[-1, -1] == want_points[-1, -1] == 0.0
    assert type(law._value(0.5)) is float and type(law._slope(0.5)) is float

    # the bulk density: inside, at and beyond the threshold, both signs
    f = BulkDensity(law.a)
    xi = np.concatenate([[0.0, f.threshold, -f.threshold, 10.0 * f.threshold],
                         rng.uniform(-3.0 * f.threshold, 3.0 * f.threshold, 500)])
    bulk = np.array([f._value(x) for x in xi.tolist()])
    assert np.array_equal(bulk, f(xi))
    assert (xi < -f.threshold).any() and (np.abs(xi) < f.threshold).any()
    assert type(f._value(-0.3)) is float


@pytest.mark.parametrize("a", LAW_SLOPES)
def test_bulk_density_shape(a):
    f = BulkDensity(a)
    xi = np.linspace(-5.0 * a, 5.0 * a, 2001)
    v = f(xi)
    assert np.all(v <= xi**2 + 1e-12)
    assert np.all(v >= a * np.abs(xi) - a * a / 4.0 - 1e-12)
    # C1 match across the threshold
    thr = f.threshold
    eps = 1e-7
    assert f(thr + eps) - f(thr - eps) == pytest.approx(2.0 * thr * 2 * eps, abs=1e-9)
    assert f.deriv(thr) == pytest.approx(a, abs=1e-12)
    assert f.deriv(10.0 * a) == a
    assert f.deriv(-10.0 * a) == -a


@given(xi=st.floats(-50.0, 50.0), a=st.floats(0.1, 20.0))
@settings(max_examples=200, deadline=None)
def test_bulk_derivative_is_clipped_gradient(xi, a):
    f = BulkDensity(a)
    assert f.deriv(xi) == pytest.approx(np.clip(2.0 * xi, -a, a), abs=1e-12)


class TestRescale:
    def test_rejects_small_h_and_bad_alpha(self):
        for h in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"size ratio must satisfy 1 <= h < inf, got {h}"):
                rescale_laws(dugdale(), h, 0.5)
        for alpha in (0.0, -1.0, 2.0, 2.5):
            with pytest.raises(ValueError):
                rescale_laws(dugdale(), 4.0, alpha)

    def test_identity_at_h_one(self):
        rl = rescale_laws(exponential(2.0), 1.0, 0.5)
        s = np.linspace(0.0, 3.0, 50)
        np.testing.assert_allclose(rl.phi(s), exponential(2.0)(s), rtol=0, atol=1e-15)
        assert rl.bulk.a == 2.0
        assert (rl.bulk_weight, rl.surface_weight) == (1.0, 1.0)

    def test_pinned_values_half_exponent(self):
        rl = rescale_laws(exponential(2.0), 4.0, 0.5)
        assert rl.phi(0.5) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-15)
        assert rl.bulk(3.0) == pytest.approx(8.0, abs=1e-12)
        assert rl.bulk.threshold == 2.0

    def test_dugdale_large_h(self):
        rl = rescale_laws(dugdale(2.0), 100.0, 0.5)
        assert rl.phi(0.02) == pytest.approx(0.4, abs=1e-14)
        assert rl.phi(0.05) == 1.0
        assert rl.bulk.threshold == 10.0

    def test_regime_weights(self):
        rl = rescale_laws(dugdale(2.0), 16.0, 0.25)
        assert rl.bulk_weight == 1.0
        assert rl.surface_weight == pytest.approx(4.0)
        rl = rescale_laws(dugdale(2.0), 16.0, 0.75)
        assert rl.bulk_weight == pytest.approx(4.0)
        assert rl.surface_weight == 1.0
        rl = rescale_laws(dugdale(2.0), 9.0, 0.5)
        assert (rl.bulk_weight, rl.surface_weight) == (1.0, 1.0)

    @given(
        s=st.floats(0.0, 5.0),
        h=st.floats(1.0, 1e4),
        alpha=st.floats(0.05, 1.95),
        a=st.floats(0.2, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_phi_h_is_dilated_base_law(self, s, h, alpha, a):
        for kind in LawKind:
            law = CohesiveLaw(kind, a)
            rl = rescale_laws(law, h, alpha)
            assert rl.phi(s) == pytest.approx(law(h**alpha * s), rel=1e-12, abs=1e-12)

    def test_monotone_in_h_and_limits(self):
        # alpha = 1/2: f_h(xi) grows to |xi|^2 and is exact once the
        # threshold passes |xi|; phi_h grows to 1.
        law = dugdale(2.0)
        xi, s = 3.0, 0.7
        hs = [1.0, 2.0, 5.0, 9.0, 16.0, 100.0, 1e4]
        fvals = [rescale_laws(law, h, 0.5).bulk(xi) for h in hs]
        assert all(b - a >= -1e-12 for a, b in zip(fvals, fvals[1:]))
        for h in hs:
            rl = rescale_laws(law, h, 0.5)
            if rl.bulk.threshold >= abs(xi):
                assert abs(rl.bulk(xi) - xi**2) < 1e-6
            assert rl.bulk(xi) <= xi**2 + 1e-12
            if h**0.5 * s >= 1.0 / 2.0:
                assert rl.phi(s) == 1.0
        pvals = [rescale_laws(law, h, 0.5).phi(s) for h in hs]
        assert all(b - a >= -1e-12 for a, b in zip(pvals, pvals[1:]))


def _wavy(x):
    """A non-convex base: its relaxation has no closed form here."""
    return np.cos(3.0 * x) + 0.1 * x**4


class TestRelaxOracle:
    def test_grid_cap_raises_before_scanning(self):
        def base(x):
            raise AssertionError("the grid was scanned")

        # 2 * (1 + 2) / 1e-9 grid points, far past the cap
        with pytest.raises(ValueError, match="6e\\+09 points"):
            relax_bulk_oracle(base, 2.0, np.array([-1.0, 1.0]), grid_step=1e-9)

    def test_zero_strain(self):
        assert relax_bulk_oracle(lambda x: x**2, 2.0, 0.0) == pytest.approx(0.0, abs=1e-7)

    def test_pinned_values(self):
        got = relax_bulk_oracle(lambda x: x**2, 2.0, 3.0, grid_step=1e-4)
        assert got == pytest.approx(5.0, abs=1e-3)
        got = relax_bulk_oracle(lambda x: x**2, 2.0, 0.5, grid_step=1e-4)
        assert got == pytest.approx(0.25, abs=1e-3)

    @pytest.mark.parametrize("a", LAW_SLOPES)
    def test_matches_closed_form(self, a):
        f = BulkDensity(a)
        step = 1e-3
        for xi in np.linspace(-5.0 * a, 5.0 * a, 21):
            got = relax_bulk_oracle(lambda x: x**2, a, float(xi), grid_step=step)
            assert abs(got - f(xi)) <= 2.0 * a * step

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            relax_bulk_oracle(lambda x: x**2, 2.0, 1.0, grid_step=0.0)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_rejects_nonfinite_step(self, step):
        with pytest.raises(ValueError, match="grid_step"):
            relax_bulk_oracle(lambda x: x**2, 2.0, 1.0, grid_step=step)

    @pytest.mark.parametrize("xi", [math.inf, np.array([0.5, math.nan])])
    def test_rejects_nonfinite_strain(self, xi):
        with pytest.raises(ValueError, match="finite"):
            relax_bulk_oracle(lambda x: x**2, 2.0, xi)

    @pytest.mark.parametrize("a, step", [(0.7, 1e-3), (2.0, 2e-5)])
    def test_batched_equals_exhaustive_scan(self, a, step):
        # the batched call must be the minimum over the shared grid, point
        # by point; the finer grid spans several scan chunks
        xi = np.random.default_rng(7).uniform(-3.0, 3.0, 25)
        half = float(np.max(np.abs(xi))) + a
        x1 = -half + step * np.arange(int(math.ceil(2.0 * half / step)) + 1)
        values = _wavy(x1)
        want = np.array([np.min(values + a * np.abs(p - x1)) for p in xi])
        got = relax_bulk_oracle(_wavy, a, xi, grid_step=step)
        assert got.shape == xi.shape
        assert np.max(np.abs(got - want)) <= 1e-12

    @staticmethod
    def pointwise_scan(base, a, xi, step):
        # one full grid scan per point, in the oracle's arithmetic: grid
        # points at or left of the point, then those right of it
        half = float(np.max(np.abs(xi))) + a
        x1 = -half + step * np.arange(int(math.ceil(2.0 * half / step)) + 1)
        values = base(x1)
        out = []
        for p in xi.tolist():
            on_left = x1 <= p
            left = np.min((values - a * x1)[on_left]) + a * p
            right = np.min((values + a * x1)[~on_left]) - a * p
            out.append(min(left, right))
        return np.array(out), x1

    @pytest.mark.parametrize("base, a", [(_wavy, 0.7), (np.square, 2.0)])
    def test_unsorted_repeated_and_on_grid_points_equal_the_pointwise_scan(self, base, a):
        step = 1e-3
        rng = np.random.default_rng(11)
        xi = rng.uniform(-3.0, 3.0, 20)
        _, x1 = self.pointwise_scan(base, a, xi, step)
        # grid points themselves, in the square's quadratic core too, then
        # repeats, in no order
        centre = x1.size // 2
        on_grid = x1[[1500, 4000, 2201] + list(range(centre - 400, centre + 400, 7))]
        xi = np.concatenate([xi, on_grid, xi[[3, 3, 7]], on_grid[:2]])
        rng.shuffle(xi)
        want, _ = self.pointwise_scan(base, a, xi, step)
        assert np.array_equal(relax_bulk_oracle(base, a, xi, grid_step=step), want)

    def test_points_on_both_sides_of_a_chunk_boundary_equal_the_pointwise_scan(self):
        from cohesivefrac.laws import _ORACLE_CHUNK

        a, step = 2.0, 1e-4
        xi = np.array([1.9, -1.9])
        _, x1 = self.pointwise_scan(_wavy, a, xi, step)
        assert x1.size > _ORACLE_CHUNK + 2
        edge = x1[_ORACLE_CHUNK - 2:_ORACLE_CHUNK + 2]
        xi = np.concatenate([xi, edge, edge[:-1] + 0.5 * step, [edge[1]]])[::-1]
        want, _ = self.pointwise_scan(_wavy, a, xi, step)
        assert np.array_equal(relax_bulk_oracle(_wavy, a, xi, grid_step=step), want)

    @pytest.mark.parametrize("a", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_a_bad_slope_before_scanning(self, a):
        def base(x):
            raise AssertionError("the grid was scanned")

        with pytest.raises(ValueError, match=f"a must be positive and finite, got {a}"):
            relax_bulk_oracle(base, a, np.array([0.5, 1.0]))

    def test_rejects_no_points_before_scanning(self):
        def base(x):
            raise AssertionError("the grid was scanned")

        with pytest.raises(ValueError, match=r"at least one point, got shape \(0,\)"):
            relax_bulk_oracle(base, 2.0, np.array([]))

    # the chunk size tunes speed only.  Chunks of 1 take one numpy pass per
    # grid point (0.6 million at a = 10 and step 2e-4), so they run on the
    # coarser grid alone
    @pytest.mark.parametrize("a", LAW_SLOPES)
    @pytest.mark.parametrize("step, chunks", [
        (2e-4, (7, laws._ORACLE_CHUNK, 1 << 16)),
        (1e-2, (1, 7, laws._ORACLE_CHUNK, 1 << 16)),
    ], ids=["step2e-4", "step1e-2"])
    def test_chunk_size_never_changes_the_relax_check_result(self, monkeypatch, a, step, chunks):
        xi = np.linspace(-5.0 * a, 5.0 * a, 201)  # as in ``cohesivefrac relax-check``
        want = relax_bulk_oracle(lambda x: x * x, a, xi, step)
        for chunk in chunks:
            monkeypatch.setattr(laws, "_ORACLE_CHUNK", chunk)
            assert np.array_equal(relax_bulk_oracle(lambda x: x * x, a, xi, step), want), chunk

    def test_chunk_size_never_changes_a_non_convex_result(self, monkeypatch):
        xi = np.random.default_rng(3).uniform(-3.0, 3.0, 25)
        want = relax_bulk_oracle(_wavy, 0.7, xi, grid_step=1e-3)
        for chunk in (1, 7, laws._ORACLE_CHUNK, 1 << 16):
            monkeypatch.setattr(laws, "_ORACLE_CHUNK", chunk)
            assert np.array_equal(relax_bulk_oracle(_wavy, 0.7, xi, grid_step=1e-3), want), chunk

    def test_scalar_returns_float(self):
        got = relax_bulk_oracle(_wavy, 2.0, 0.37, grid_step=1e-3)
        assert isinstance(got, float)
        # one point alone spans the same grid as its scalar call
        batched = relax_bulk_oracle(_wavy, 2.0, np.array([0.37]), grid_step=1e-3)
        assert abs(batched[0] - got) <= 1e-12
