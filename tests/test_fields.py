import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from peridyn import fields as F

EZ = np.array([0.0, 0.0, 1.0])


@pytest.fixture
def iface():
    return F.PlanarInterface(np.zeros(3), EZ)


class TestPlanarInterface:
    def test_signed_distance_cases(self, iface):
        assert iface.signed_distance(iface.point) == 0.0
        assert iface.signed_distance(iface.point + 2.0 * iface.normal) == 2.0
        assert iface.signed_distance(iface.point - 0.5 * iface.normal) == -0.5

    def test_vectorized(self, iface):
        pts = np.array([[0.0, 1.0, 0.25], [3.0, -1.0, -0.5]])
        assert_allclose(iface.signed_distance(pts), [0.25, -0.5])

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            F.PlanarInterface(np.zeros(3), np.array([0.0, 0.0, 2.0]))


class TestLameAt:
    def test_two_phase_convention(self, iface):
        # plus values on the interface itself
        mat = F.TwoPhaseMaterial(1.0, 1.0, 2.0, 2.0, iface)
        assert mat.lame_at(np.array([0.3, -0.7, 0.0])) == (1.0, 1.0)
        assert mat.lame_at(np.array([0.0, 0.0, -1.0])) == (2.0, 2.0)
        assert mat.lame_at(np.array([0.0, 0.0, 0.5])) == (1.0, 1.0)

    def test_smooth_material(self):
        mu = F.AnalyticScalarField(
            value=lambda p: 2.0 + np.sin(p[..., 0]),
            grad=lambda p: np.stack([np.cos(p[..., 0]),
                                     np.zeros(p.shape[:-1]),
                                     np.zeros(p.shape[:-1])], axis=-1))
        mat = F.SmoothMaterial(mu, mu)
        lam, m = mat.lame_at(np.zeros(3))
        assert m == 2.0

    def test_positive_shear_required(self, iface):
        with pytest.raises(ValueError):
            F.TwoPhaseMaterial(1.0, -1.0, 1.0, 1.0, iface)


class TestStress:
    def test_uniaxial(self):
        g = np.zeros((3, 3))
        g[2, 2] = 1.0
        field = F.PiecewiseField.smooth(F.linear_field(np.zeros(3), g))
        mat = F.constant_material(1.0, 1.0)
        sig = F.stress(mat, field, np.array([0.1, 0.2, 0.3]))
        assert_allclose(sig, np.eye(3) + 2.0 * np.outer(EZ, EZ))

    def test_constant_field(self):
        field, mat = F.make_manufactured("constant")
        assert_allclose(F.stress(mat, field, np.zeros(3)), 0.0)

    def test_pure_shear(self):
        g = np.zeros((3, 3))
        g[0, 1] = g[1, 0] = 1.0
        field = F.PiecewiseField.smooth(F.linear_field(np.zeros(3), g))
        sig = F.stress(F.constant_material(1.0, 1.0), field, np.zeros(3))
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 2.0
        assert_allclose(sig, expected)


class TestTractionJump:
    def test_patch_jump_is_traction_free(self):
        field, mat = F.make_manufactured("patch_jump_zero_traction")
        assert_allclose(F.traction_jump(mat, field, np.zeros(3)), 0.0, atol=1e-14)

    def test_gradient_jump(self):
        field, mat = F.make_manufactured("gradient_jump")
        assert_allclose(F.traction_jump(mat, field, np.array([0.4, -0.2, 0.0])),
                        [0.0, 0.0, -3.0], atol=1e-14)

    def test_no_jump_when_materials_equal(self, iface):
        field, _ = F.make_manufactured("trig_smooth")
        field = F.PiecewiseField(field.plus_side, field.plus_side, iface)
        mat = F.TwoPhaseMaterial(1.0, 1.0, 1.0, 1.0, iface)
        assert_allclose(F.traction_jump(mat, field, np.zeros(3)), 0.0, atol=1e-14)

    def test_off_interface_rejected(self):
        field, mat = F.make_manufactured("patch_jump_zero_traction")
        with pytest.raises(ValueError):
            F.traction_jump(mat, field, np.array([0.0, 0.0, 0.1]))

    def test_requires_two_phase(self):
        field, mat = F.make_manufactured("trig_smooth")
        with pytest.raises(TypeError, match="requires a two-phase material"):
            F.traction_jump(mat, field, np.zeros(3))


class TestNavier:
    def test_quadratic_constant_coefficients(self):
        field, mat = F.make_manufactured("quadratic")
        x = np.array([0.7, -0.3, 0.2])
        assert_allclose(F.navier(mat, field, x), [6.0, 0.0, 0.0], atol=1e-14)

    def test_linear_field_vanishes(self):
        field, mat = F.make_manufactured("linear")
        assert_allclose(F.navier(mat, field, np.array([1.0, 2.0, 3.0])), 0.0,
                        atol=1e-14)

    def test_dilatational_part_vanishes_when_lame_equal(self, rng):
        field, mat = F.make_manufactured("trig_smooth")  # lambda = mu = 1
        for _ in range(5):
            x = rng.normal(size=3)
            assert_allclose(F.navier_d(mat, field, x), 0.0, atol=1e-14)

    def test_split_sums_to_total(self, rng):
        field, mat = F.make_manufactured("smooth_material_trig")
        for _ in range(10):
            x = rng.normal(size=3)
            total = F.navier(mat, field, x)
            parts = F.navier_s(mat, field, x) + F.navier_d(mat, field, x)
            assert np.abs(total - parts).max() < 1e-13


    @pytest.mark.parametrize("name", F.MANUFACTURED_NAMES)
    @pytest.mark.parametrize("fn", [F.navier, F.navier_s, F.navier_d],
                             ids=["navier", "navier_s", "navier_d"])
    def test_batch_equals_points(self, name, fn, rng):
        # a batch of points on both sides of the interface z = 0 and on it
        field, mat = F.make_manufactured(name)
        pts = rng.uniform(-0.5, 0.5, size=(12, 3))
        pts[:3, 2] = 0.0
        for side in F.SideTag:
            batch = fn(mat, field, pts, side)
            assert batch.shape == pts.shape
            points = np.array([fn(mat, field, x, side) for x in pts])
            assert np.abs(batch - points).max() <= 1e-15


class TestManufactured:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            F.make_manufactured("nope")

    def test_constant_has_zero_derivatives(self):
        field, _ = F.make_manufactured("constant")
        pts = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])
        assert_allclose(field.grad_on(pts, F.SideTag.PLUS), 0.0)
        assert_allclose(field.hessian_on(pts, F.SideTag.PLUS), 0.0)

    def test_all_names_build(self):
        for name in F.MANUFACTURED_NAMES:
            field, material = F.make_manufactured(name)
            v = field.value(np.array([0.1, 0.2, 0.3]))
            assert v.shape == (3,)
            lam, mu = material.lame_at(np.array([0.1, 0.2, 0.3]))
            assert np.all(np.asarray(mu) > 0)

    def test_interface_continuity_at_random_points(self, rng):
        for name in F.MANUFACTURED_NAMES:
            field, _ = F.make_manufactured(name)
            if field.interface is None:
                continue
            t = rng.normal(size=(100, 3))
            pts = t - np.outer(field.interface.signed_distance(t),
                               field.interface.normal)
            gap = (field.value_on(pts, F.SideTag.PLUS)
                   - field.value_on(pts, F.SideTag.MINUS))
            assert np.abs(gap).max() < 1e-12

    @pytest.mark.parametrize("name", F.MANUFACTURED_NAMES)
    def test_grad_matches_finite_differences(self, name, rng):
        field, _ = F.make_manufactured(name)
        step = 1e-5
        for side in (F.SideTag.PLUS, F.SideTag.MINUS):
            x = rng.normal(size=3)
            g = field.grad_on(x, side)
            fd = np.empty((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = step
                fd[:, j] = (field.value_on(x + e, side)
                            - field.value_on(x - e, side)) / (2 * step)
            assert np.abs(g - fd).max() <= 1e-7 * max(1.0, np.abs(g).max())

    @pytest.mark.parametrize("name", F.MANUFACTURED_NAMES)
    def test_hessian_matches_finite_differences(self, name, rng):
        field, _ = F.make_manufactured(name)
        step = 1e-5
        x = rng.normal(size=3)
        h = field.hessian_on(x, F.SideTag.PLUS)
        fd = np.empty((3, 3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = step
            fd[:, :, k] = (field.grad_on(x + e, F.SideTag.PLUS)
                           - field.grad_on(x - e, F.SideTag.PLUS)) / (2 * step)
        assert np.abs(h - fd).max() <= 1e-7 * max(1.0, np.abs(h).max())

    def test_side_selection_vectorized(self):
        field, _ = F.make_manufactured("patch_jump_zero_traction")
        pts = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5], [0.0, 0.0, 0.0]])
        vals = field.value(pts)
        assert_allclose(vals[:, 2], [1.0, -0.5, 0.0])


class TestSplit:
    """Every manufactured closed form declares how a shifted value separates
    into products."""

    @staticmethod
    def _steps(split, d):
        """The steps W(d) (..., m + m_c, 3) that ``split`` writes."""
        w = np.empty(np.shape(d)[:-1] + split.base.shape)
        split.step(d, w)
        return w

    @staticmethod
    def _declared():
        trig, _ = F.make_manufactured("trig_smooth")
        material_trig, _ = F.make_manufactured("smooth_material_trig")
        quadratic, _ = F.make_manufactured("quadratic")
        patch, _ = F.make_manufactured("patch_jump_zero_traction")
        linear, _ = F.make_manufactured("linear")
        constant, _ = F.make_manufactured("constant")
        return {
            "trig_smooth": trig.plus_side,
            "smooth_material_trig": material_trig.plus_side,
            "quadratic": quadratic.plus_side,
            "linear": linear.plus_side,
            "constant": constant.plus_side,
            "patch_minus": patch.minus_side,
        }

    def test_products_are_the_shifted_value(self, rng):
        # u(y + d) = sum F(y) (V(0) + W(d)), u(y) = sum F(y) V(0), and the
        # steps alone give the difference u(y + d) - u(y), with W(0) = 0
        y = rng.uniform(-1.0, 1.0, size=(200, 3))
        d = rng.uniform(-0.2, 0.2, size=(200, 3))
        for name, field in self._declared().items():
            split = field.split
            f, w = split.factors(y), self._steps(split, d)
            assert_allclose(np.sum(f * (split.base + w), axis=-2), field.value(y + d),
                            rtol=0, atol=1e-15, err_msg=name)
            assert_allclose(np.sum(f * split.base, axis=-2), field.value(y),
                            rtol=0, atol=1e-15, err_msg=name)
            assert_allclose(np.sum(f * w, axis=-2), field.value(y + d) - field.value(y),
                            rtol=0, atol=1e-14, err_msg=name)
            assert_array_equal(self._steps(split, np.zeros(3)), 0.0, err_msg=name)

    def test_steps_keep_their_digits_far_from_the_origin(self):
        # u = (sin x_2, sin x_3, sin x_1) at 1e4, a step of 1e-6: the steps
        # give the difference to rounding, where the difference of the two
        # values loses six digits to the rounding of 1e4 + 1e-6
        trig, _ = F.make_manufactured("trig_smooth")
        split = trig.plus_side.split
        y = np.full((1, 3), 1e4)
        d = np.full((1, 3), 1e-6)
        want = np.cos(1e4) * np.sin(1e-6) - 2.0 * np.sin(1e4) * np.sin(5e-7) ** 2
        step = np.sum(split.factors(y) * self._steps(split, d), axis=-2)
        assert_allclose(step, want, rtol=1e-15)
        values = trig.value(y + d) - trig.value(y)
        assert np.abs(values - want).max() > 1e-9 * np.abs(want).max()

    def test_manufactured_non_affine_fields_declare_it(self):
        # the affine ones too: a linear field splits as u(y) * 1 + 1 * G d,
        # the second product constant in y, and the constant configuration
        # is the linear field with G = 0
        for name in F.MANUFACTURED_NAMES:
            field, _ = F.make_manufactured(name)
            for side in (field.plus_side, field.minus_side):
                assert isinstance(side.split, F.Split), name
        y = np.zeros((2, 3))
        d = np.ones((2, 3))
        constant, _ = F.make_manufactured("constant")
        for split in (F.linear_field(np.ones(3), np.eye(3)).split,
                      constant.plus_side.split):
            assert split.terms == 1 and split.constant.shape == (1, 3)
            assert split.base.shape == (2, 3) and self._steps(split, y).shape == (2, 2, 3)
        assert_array_equal(self._steps(constant.plus_side.split, d), 0.0)
