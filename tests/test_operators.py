import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from numpy.polynomial.legendre import leggauss

from peridyn import fields as F
from peridyn import operators as O
from peridyn.tensor import contract_t3_mat
from nested_reference import (moment_scale, reference_batch_moments,
                              reference_moments, term_scale)

EZ = np.array([0.0, 0.0, 1.0])
X0 = np.zeros(3)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def patch():
    return F.make_manufactured("patch_jump_zero_traction")


@pytest.fixture(scope="module")
def ramp():
    return F.make_manufactured("gradient_jump")


def split_config(delta, angular_order=12):
    return O.make_config(delta, angular_order=angular_order, split_normal=EZ)


class TestNonFiniteFieldValues:
    @staticmethod
    def _poisoned():
        # finite at the origin, NaN elsewhere; the split's outer factor is
        # the value, and its step W is NaN at every nonzero offset, so both
        # the nested pass and the bond sums read the poison
        def value(p):
            out = np.where((np.abs(p) < 1e-30).all(axis=-1)[..., None], 0.0, np.nan)
            return np.broadcast_to(out, p.shape).copy()

        zeros3 = lambda p: np.zeros(p.shape[:-1] + (3, 3))
        zeros4 = lambda p: np.zeros(p.shape[:-1] + (3, 3, 3))
        split = F.Split(lambda y: value(y)[..., None, :],
                        lambda d: value(d)[..., None, :], np.ones((1, 3)))
        return F.PiecewiseField.smooth(F.AnalyticVectorField(value, zeros3, zeros4,
                                                             split=split))

    def test_bond_type_reports(self):
        cfg = O.make_config(0.1, radial_order=2, angular_order=2)
        with pytest.raises(FloatingPointError):
            O.base_operator(cfg, self._poisoned(), X0)

    def test_nested_type_reports(self):
        cfg = O.make_config(0.1, radial_order=2, angular_order=2)
        mat = F.constant_material(2.0, 1.0)
        with pytest.raises(FloatingPointError):
            O.dilatation_operator(cfg, mat, self._poisoned(), X0)


def _seeded_oblique_kinks(rng, count=3):
    """(field, material, x, n) of continuous piecewise-linear fields with a
    random kink across an oblique plane through x with normal n, on random
    moduli, for ``count`` draws of ``rng``."""
    for _ in range(count):
        n = random_unit(rng)
        x = rng.normal(size=3)
        iface = F.PlanarInterface(x, n)
        g_minus = rng.normal(size=(3, 3))
        g_plus = g_minus + np.outer(rng.normal(size=3), n)
        c_minus = rng.normal(size=3)
        c_plus = c_minus - (g_plus - g_minus) @ x
        field = F.PiecewiseField(F.linear_field(c_plus, g_plus),
                                 F.linear_field(c_minus, g_minus), iface)
        yield field, F.TwoPhaseMaterial(*rng.uniform(0.5, 3.0, size=4), iface), x, n


def _lam_ne_mu(mat):
    return mat.lambda_plus != mat.mu_plus and mat.lambda_minus != mat.mu_minus


class TestWeightMass:
    def test_ball_volume_case(self):
        assert abs(O.weight_mass(1.0, 2.0) - 4 * np.pi / 3) < 1e-15

    def test_general_exponent(self):
        assert abs(O.weight_mass(2.0, 0.0) - 4 * np.pi * 32 / 5) < 1e-13

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ValueError):
            O.weight_mass(1.0, 5.0)


class TestBaseOperator:
    def test_constant_field(self):
        field, _ = F.make_manufactured("constant")
        cfg = O.make_config(0.2)
        assert_allclose(O.base_operator(cfg, field, X0), 0.0, atol=1e-12)

    @pytest.mark.parametrize("delta", [1.0, 0.3, 0.01])
    def test_quadratic_exact_at_any_horizon(self, delta):
        field, _ = F.make_manufactured("quadratic")
        cfg = O.make_config(delta)
        x = np.array([0.4, -0.2, 0.7])
        assert_allclose(O.base_operator(cfg, field, x), [6.0, 0.0, 0.0],
                        atol=1e-10)

    def test_scalar_variant(self):
        cfg = O.make_config(0.5)
        got = O.base_operator_scalar(cfg, lambda p: p[..., 0] ** 2,
                                     np.array([0.3, 0.1, -0.2]))
        assert_allclose(got, np.diag([6.0, 2.0, 2.0]), atol=1e-10)


class TestBondOperator:
    def test_constant_field(self, patch):
        field, mat = patch
        cfg = split_config(0.1)
        cf, _ = F.make_manufactured("constant")
        assert_allclose(O.bond_operator(cfg, mat, cf, X0), 0.0, atol=1e-12)

    def test_homogeneous_half_shear_is_half_base(self):
        field, _ = F.make_manufactured("quadratic")
        mat = F.constant_material(1.0, 0.5)
        cfg = O.make_config(0.25)
        x = np.array([0.4, -0.2, 0.7])
        assert_allclose(O.bond_operator(cfg, mat, field, x), [3.0, 0.0, 0.0],
                        atol=1e-10)

    def test_interface_scaling_limit(self):
        # smooth uniaxial ramp across a shear-modulus jump: the scaled value
        # is 15 K applied to (mu+ - mu-) grad u
        g = np.zeros((3, 3))
        g[2, 2] = 1.0
        field = F.PiecewiseField.smooth(F.linear_field(np.zeros(3), g))
        mat = F.TwoPhaseMaterial(1.0, 1.0, 2.0, 2.0, F.INTERFACE_Z)
        for delta in (1e-2, 1e-3):
            got = delta * O.bond_operator(split_config(delta), mat, field, X0)
            assert np.abs(got - [0.0, 0.0, -45.0 / 16.0]).max() < 2e-3


class TestDilatationOperator:
    def test_vanishes_for_equal_lame(self):
        field, _ = F.make_manufactured("quadratic")
        mat = F.constant_material(1.0, 1.0)
        cfg = O.make_config(0.3, radial_order=4, angular_order=6)
        assert_array_equal(O.dilatation_operator(cfg, mat, field, X0), 0.0)

    @pytest.mark.parametrize("delta", [0.5, 0.05])
    def test_quadratic_exact(self, delta):
        field, _ = F.make_manufactured("quadratic")
        mat = F.constant_material(2.0, 1.0)
        cfg = O.make_config(delta)
        x = np.array([0.1, 0.2, -0.3])
        assert_allclose(O.dilatation_operator(cfg, mat, field, x),
                        [2.0, 0.0, 0.0], atol=1e-9)


class TestStateOperator:
    def test_constant_coefficients_quadratic(self):
        field, mat = F.make_manufactured("quadratic")
        cfg = O.make_config(0.3)
        x = np.array([0.4, -0.2, 0.7])
        assert_allclose(O.state_operator(cfg, mat, field, x), [6.0, 0.0, 0.0],
                        atol=1e-9)

    def test_patch_field_off_interface(self, patch):
        # piecewise-linear field, ball away from the interface: zero force
        field, mat = patch
        delta = 0.05
        cfg = O.make_config(delta)
        x = np.array([0.2, -0.1, 2.0 * delta])
        assert_allclose(O.state_operator(cfg, mat, field, x), 0.0, atol=1e-9)

    def test_natural_condition_limit_oblique_kink(self, rng):
        # lambda != mu on both sides, so the divergence channel g matters; it
        # reads each outer node's own phase, and the scaled operator is the
        # natural-condition limit at every horizon
        for field, mat, x, n in _seeded_oblique_kinks(rng):
            assert _lam_ne_mu(mat)
            target = O.natural_condition_limit(mat, field, x)
            for delta in (0.1, 0.01):
                cfg = O.make_config(delta, 4, 6, split_normal=n)
                got = delta * O.state_operator(cfg, mat, field, x)
                assert np.abs(got - target).max() < 1e-10


class TestCorrectionTerms:
    def test_bond_correction_constant(self, patch):
        _, mat = patch
        cf, _ = F.make_manufactured("constant")
        assert_allclose(O.bond_correction_term(split_config(0.1), mat, cf, X0),
                        0.0, atol=1e-12)

    def test_bond_correction_homogeneous_quadratic(self):
        field, _ = F.make_manufactured("quadratic")
        mat = F.constant_material(1.0, 1.0)
        cfg = O.make_config(0.25)
        x = np.array([0.4, -0.2, 0.7])
        assert_allclose(O.bond_correction_term(cfg, mat, field, x),
                        [-3.0, 0.0, 0.0], atol=1e-10)

    def test_normal_term_constant_field(self, patch):
        _, mat = patch
        cf, _ = F.make_manufactured("constant")
        got = O.normal_correction_term(split_config(0.1), mat, cf, X0, EZ)
        assert np.abs(got).max() < 1e-12

    def test_normal_term_limit_globally_linear(self, ramp):
        # no gradient kink: the shear-weighted jump formula is exact
        field, mat = ramp
        target = O.normal_correction_limit(mat, field, X0)
        assert_allclose(target, [0.0, 0.0, -45.0 / 32.0])
        got = 1e-3 * O.normal_correction_term(split_config(1e-3), mat, field,
                                              X0, EZ)
        assert np.abs(got - target).max() < 1e-10

    def test_normal_term_limit_gradient_kink(self, patch):
        # with a gradient kink the inner integral at each outer node takes
        # that node's own phase, so the shear-weighted jump formula stays
        # exact at every horizon; for the zero-traction patch it is zero
        field, mat = patch
        target = O.normal_correction_limit(mat, field, X0)
        assert_allclose(target, 0.0, atol=1e-15)
        for delta in (1.0, 1e-2):
            got = delta * O.normal_correction_term(
                split_config(delta), mat, field, X0, EZ)
            assert np.abs(got - target).max() < 1e-10

    def test_normal_term_limit_oblique_kink(self, rng):
        # continuous piecewise-linear fields with a random kink across an
        # oblique plane: the scaled term is the jump formula at every horizon
        for field, mat, x, n in _seeded_oblique_kinks(rng):
            target = O.normal_correction_limit(mat, field, x)
            for delta in (1.0, 1e-2):
                cfg = O.make_config(delta, 4, 6, split_normal=n)
                got = delta * O.normal_correction_term(cfg, mat, field, x, n)
                assert np.abs(got - target).max() < 1e-10


def _inner_ramp_profile(s):
    """Closed form of the inner integral of (w . n/|w|^2)(s + w . n)_+ over
    the unit ball: a ramp kinked on a plane at signed distance s from the
    ball's centre, as an inner integral crossing the interface sees it.  The
    s^3 log|s| term makes it only C^2 in s."""
    s = np.asarray(s, dtype=float)
    logs = np.log(np.maximum(np.abs(s), 1e-300))
    pos = 6 * s**3 * logs - 5 * s**3 + 9 * s + 4
    neg = -6 * np.abs(s) ** 3 * logs - 5 * s**3 + 9 * s + 4
    return np.pi / 18.0 * np.where(s >= 0, pos, neg)


def test_inner_ramp_profile_matches_direct_quadrature():
    t, w = leggauss(400)
    r, wr = 0.5 * (t + 1.0), 0.5 * w
    c, wc = t, w
    for s in (-0.8, -0.2, 0.35, 0.9):
        direct = 2 * np.pi * np.einsum(
            "i,j,ij->", wr * r, wc * c, np.maximum(s + np.outer(r, c), 0.0))
        assert abs(direct - _inner_ramp_profile(s)) < 5e-5


class TestInterfaceCorrection:
    def test_constant_field(self, patch):
        _, mat = patch
        cf, _ = F.make_manufactured("constant")
        got = O.interface_correction(split_config(0.1), mat, cf, X0)
        assert np.abs(got).max() < 1e-12

    def test_decomposition(self, ramp):
        field, mat = ramp
        cfg = split_config(0.05)
        x = np.array([0.1, 0.0, 0.01])
        combined = O.interface_correction(cfg, mat, field, x)
        parts = (O.bond_correction_term(cfg, mat, field, x)
                 + 0.25 * O.dilatation_operator(cfg, mat, field, x)
                 + O.normal_correction_term(cfg, mat, field, x, EZ))
        assert np.abs(combined - parts).max() < 1e-13

    def test_outside_slab_rejected(self, patch):
        field, mat = patch
        with pytest.raises(ValueError):
            O.interface_correction(split_config(0.05), mat, field,
                                   np.array([0.0, 0.0, 0.2]))

    def test_requires_two_phase(self):
        field, mat = F.make_manufactured("trig_smooth")
        with pytest.raises(TypeError):
            O.interface_correction(O.make_config(0.1), mat, field, X0)


class TestCorrectedOperator:
    def test_equals_state_outside_slab(self, patch):
        field, mat = patch
        cfg = O.make_config(0.05)
        x = np.array([0.3, 0.2, 0.0501])
        assert_array_equal(O.corrected_operator(cfg, mat, field, x),
                           O.state_operator(cfg, mat, field, x))

    def test_gradient_jump_traction_limit(self, ramp):
        field, mat = ramp
        target = 45.0 / 32.0 * F.traction_jump(mat, field, X0)
        assert_allclose(target, [0.0, 0.0, -135.0 / 32.0])
        got = 1e-3 * O.corrected_operator(split_config(1e-3), mat, field, X0)
        assert np.abs(got - target).max() < 1e-9

    def test_patch_scaled_value_is_the_cross_term(self, patch):
        # the zero-traction patch keeps only the normal-projected term, whose
        # inner integrals stay on each outer node's own phase; the scaled
        # value is 45/32 times the traction jump (zero) at every horizon
        field, mat = patch
        target = 45.0 / 32.0 * F.traction_jump(mat, field, X0)
        assert_allclose(target, 0.0, atol=1e-15)
        for delta in (1.0, 1e-2):
            got = delta * O.corrected_operator(split_config(delta), mat, field, X0)
            assert np.abs(got - target).max() < 1e-10

    def test_traction_limit_oblique_kink(self, rng):
        # lambda != mu on both sides: the scaled corrected operator is 45/32
        # times the traction jump at every horizon
        for field, mat, x, n in _seeded_oblique_kinks(rng):
            assert _lam_ne_mu(mat)
            target = 45.0 / 32.0 * F.traction_jump(mat, field, x)
            for delta in (0.1, 0.01):
                cfg = O.make_config(delta, 4, 6, split_normal=n)
                got = delta * O.corrected_operator(cfg, mat, field, x)
                assert np.abs(got - target).max() < 1e-10

    def test_fictitious_interface_smooth_field_scaled_limit(self):
        # all jumps vanish, so the corrected operator stays finite and its
        # scaled series extrapolates to zero under the first-order model
        from peridyn.analysis import richardson_limit

        field, _ = F.make_manufactured("quadratic")
        field = F.PiecewiseField(field.plus_side, field.plus_side, F.INTERFACE_Z)
        mat = F.TwoPhaseMaterial(1.0, 1.0, 1.0, 1.0, F.INTERFACE_Z)
        deltas = np.array([2e-3, 1e-3])
        scaled = []
        for d in deltas:
            val = O.corrected_operator(split_config(d), mat, field, X0)
            assert np.all(np.isfinite(val))
            assert np.abs(val).max() < 10.0  # stays bounded as the horizon shrinks
            scaled.append(d * val)
        limit = richardson_limit(deltas, np.asarray(scaled))
        assert np.abs(limit).max() < 2e-3


def _fused_cases():
    """(name, field, material, slab point) for the fusion pins."""
    patch_field, _ = F.make_manufactured("patch_jump_zero_traction")
    ramp_field, ramp_mat = F.make_manufactured("gradient_jump")
    rng = np.random.default_rng(4)
    n = random_unit(rng)
    x = rng.normal(size=3)
    iface = F.PlanarInterface(x, n)
    g_minus = rng.normal(size=(3, 3))
    g_plus = g_minus + np.outer(rng.normal(size=3), n)
    c_minus = rng.normal(size=3)
    c_plus = c_minus - (g_plus - g_minus) @ x
    oblique = F.PiecewiseField(F.linear_field(c_plus, g_plus),
                               F.linear_field(c_minus, g_minus), iface)
    return [
        ("patch_3152", patch_field,
         F.TwoPhaseMaterial(3.0, 1.0, 5.0, 2.0, F.INTERFACE_Z), X0),
        ("gradient_jump_lam_ne_mu", ramp_field,
         F.TwoPhaseMaterial(2.0, 1.0, 0.5, 2.0, F.INTERFACE_Z),
         np.array([0.01, -0.02, 0.03])),
        ("gradient_jump_lam_eq_mu", ramp_field, ramp_mat, X0),
        ("oblique_kink", oblique,
         F.TwoPhaseMaterial(*rng.uniform(0.5, 3.0, size=4), iface),
         x - 0.04 * n),
    ]


FUSED_CASES = _fused_cases()


def counted_split(field, count):
    """A twin of ``field`` whose split factors add the number of points they
    are read at to ``count[0]``."""
    def counted(fn):
        def wrapped(pts):
            count[0] += int(np.prod(np.shape(pts)[:-1]))
            return fn(pts)
        return wrapped

    def twin(side):
        split = side.split
        return F.AnalyticVectorField(
            side.value, side.grad, side.hessian,
            split=F.Split(counted(split.outer), counted(split.step), split.base,
                          split.constant))

    plus = twin(field.plus_side)
    minus = plus if field.minus_side is field.plus_side else twin(field.minus_side)
    return F.PiecewiseField(plus, minus, field.interface)


class TestFusedNestedPass:
    """The corrected operator reads one nested pass in the slab."""

    @pytest.mark.parametrize("name,field,mat,x", FUSED_CASES,
                             ids=[c[0] for c in FUSED_CASES])
    def test_equals_state_plus_correction(self, name, field, mat, x):
        cfg = O.make_config(0.1, 4, 6, split_normal=mat.interface.normal)
        assert abs(mat.interface.signed_distance(x)) < cfg.delta
        got = O.corrected_operator(cfg, mat, field, x)
        assert_array_equal(got, O.state_operator(cfg, mat, field, x)
                           + O.interface_correction(cfg, mat, field, x))

    def test_one_pass_per_evaluation(self, monkeypatch):
        _, field, mat, x = FUSED_CASES[0]
        cfg = O.make_config(0.1, 4, 6, split_normal=EZ)
        n = len(cfg.rule)
        reads = [0]
        for name in ("value", "value_on"):
            original = getattr(F.PiecewiseField, name)

            def counted(self, pts, *args, _original=original):
                reads[0] += int(np.prod(np.shape(pts)[:-1]))
                return _original(self, pts, *args)

            monkeypatch.setattr(F.PiecewiseField, name, counted)
        factors = [0]
        O.corrected_operator(cfg, mat, counted_split(field, factors), x)
        # one pass: the outer factors at the n outer nodes, each in the closed
        # form of its phase, and each side's steps W at the n offsets, which
        # serve the bond sums too; beyond the pass, the bond sums read each
        # side's outer factors at x, and for the gap between the sides at x,
        # at x's projection on the interface, with its steps at the offset
        # between the two
        assert O.nested_pass_points(n, field) == 3 * n == 1728
        assert factors[0] == 3 * n + 2 * 3 == 1734
        # and no value of the field
        assert reads[0] == 0


def nested_moments(cfg, field, xs):
    """(g, p) of the nested pass at the batch xs, from one read of the field."""
    return O._nested_moments(cfg, O._read(cfg, field, xs))


def _one_point(moments, cfg, field, x):
    """(g, p) at x of a pass that takes batches, run on the batch of x."""
    g, p = moments(cfg, field, x[None])
    return g[0], p[0]


def _assert_matches_reference(got, cfg, field, x):
    """``got`` = (g, p) of a nested pass at x against the n^2 reference,
    relative to the sum of the magnitudes of the terms."""
    g_ref, p_ref = reference_moments(cfg, field, x)
    scale = moment_scale(cfg, field, x)
    z = cfg.rule.points
    a_max = np.abs(z / np.einsum("qi,qi->q", z, z)[:, None]).sum(axis=1).max()
    assert np.abs(got[0] - g_ref).max() <= 1e-14 * scale
    assert np.abs(got[1] - p_ref).max() <= 1e-14 * scale * a_max


def _affine_cases():
    """(name, field, config, point) for affine closed forms: kinked fields
    on their split rule at an interface point and 0.03-0.04 off the plane,
    and affine fields with one closed form on a ball rule and on a split
    rule with a fictitious interface."""
    patch, _ = F.make_manufactured("patch_jump_zero_traction")
    ramp, _ = F.make_manufactured("gradient_jump")
    linear, _ = F.make_manufactured("linear")
    _, oblique, mat, x = FUSED_CASES[3]
    n = mat.interface.normal
    split = O.make_config(0.1, 2, 5, split_normal=EZ)
    oblique_split = O.make_config(0.1, 2, 5, split_normal=n)
    ball = O.make_config(0.1, 3, 5)
    slab = np.array([0.01, -0.02, 0.03])
    return [
        ("patch_on_plane", patch, split, X0),
        ("patch_in_slab", patch, split, slab),
        ("gradient_jump_on_plane", ramp, split, X0),
        ("gradient_jump_in_slab", ramp, split, -slab),
        ("oblique_on_plane", oblique, oblique_split, mat.interface.point),
        ("oblique_in_slab", oblique, oblique_split, x),
        ("linear_one_sided", linear, ball, slab),
        ("linear_fictitious_interface",
         F.PiecewiseField(linear.plus_side, linear.plus_side, F.INTERFACE_Z),
         split, slab),
    ]


AFFINE_CASES = _affine_cases()


class TestAffineNestedPass:
    """Affine closed forms declare a split into four products, and the one
    pass matches the n^2 reference to rounding; on a kinked field both
    channels read the closed form of each outer node's phase."""

    @pytest.mark.parametrize("name,field,cfg,x", AFFINE_CASES,
                             ids=[c[0] for c in AFFINE_CASES])
    def test_matches_untiled_reference(self, name, field, cfg, x):
        _assert_matches_reference(_one_point(nested_moments, cfg, field, x), cfg, field, x)

    @pytest.mark.parametrize("name,field,cfg,x", AFFINE_CASES,
                             ids=[c[0] for c in AFFINE_CASES])
    def test_two_calls_agree_bit_for_bit(self, name, field, cfg, x):
        first = _one_point(nested_moments, cfg, field, x)
        second = _one_point(nested_moments, cfg, field, x)
        assert_array_equal(first[0], second[0])
        assert_array_equal(first[1], second[1])

    def test_operator_lam_ne_mu_matches_reference_pass(self, monkeypatch):
        # lambda != mu on both sides, so g feeds the dilatational part and
        # p the normal-projected term; with and without a kink
        for _, field, mat, x in (FUSED_CASES[1], FUSED_CASES[3]):
            assert _lam_ne_mu(mat)
            cfg = O.make_config(0.1, 4, 6, split_normal=mat.interface.normal)
            got = O.corrected_operator(cfg, mat, field, x)
            with monkeypatch.context() as m:
                m.setattr(O, "_nested_moments", lambda cfg, reads, normal=True:
                          reference_batch_moments(cfg, reads.field, reads.x))
                want = O.corrected_operator(cfg, mat, field, x)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _split_cases():
    """(name, field, material) for the declared pass: every manufactured
    field that declares a split, and a scaled and a summed one; each
    material has lambda != mu, so the state operator makes a pass."""
    trig, _ = F.make_manufactured("trig_smooth")
    material_trig, trig_material = F.make_manufactured("smooth_material_trig")
    quadratic, _ = F.make_manufactured("quadratic")
    lam_ne_mu = F.constant_material(3.0, 1.0)
    return [
        ("trig_smooth", trig, lam_ne_mu),
        ("smooth_material_trig", material_trig, trig_material),
        ("quadratic", quadratic, lam_ne_mu),
        ("trig_scaled", 2.5 * trig, lam_ne_mu),
        ("trig_plus_trig", trig + trig, trig_material),
    ]


SPLIT_CASES = _split_cases()
SPLIT_POINTS = [np.array([0.3, -0.2, 0.45]), np.array([-0.7, 0.55, 1.1])]


class TestSplitNestedPass:
    """Closed forms that are not affine declare a split of their own, and
    the one pass matches the n^2 reference to rounding."""

    @pytest.mark.parametrize("delta", [0.1, 0.00625])
    @pytest.mark.parametrize("name,field,mat", SPLIT_CASES,
                             ids=[c[0] for c in SPLIT_CASES])
    def test_matches_untiled_reference(self, name, field, mat, delta):
        cfg = O.make_config(delta, 3, 5)
        for x in SPLIT_POINTS:
            _assert_matches_reference(_one_point(nested_moments, cfg, field, x),
                                      cfg, field, x)

    @pytest.mark.parametrize("name,field,mat", SPLIT_CASES,
                             ids=[c[0] for c in SPLIT_CASES])
    def test_two_calls_agree_bit_for_bit(self, name, field, mat):
        cfg = O.make_config(0.1, 4, 6)
        first = _one_point(nested_moments, cfg, field, SPLIT_POINTS[0])
        second = _one_point(nested_moments, cfg, field, SPLIT_POINTS[0])
        assert_array_equal(first[0], second[0])
        assert_array_equal(first[1], second[1])

    def test_point_count_is_the_factors(self):
        # the outer factors at the n outer nodes and the inner factors at the
        # n offsets, however many terms the split has
        trig, _ = F.make_manufactured("trig_smooth")
        quadratic, _ = F.make_manufactured("quadratic")
        cfg = O.make_config(0.1, 4, 6)
        n = len(cfg.rule)
        for field in (trig, trig + quadratic):
            count = [0]
            _one_point(nested_moments, cfg, counted_split(field, count), SPLIT_POINTS[0])
            assert count[0] == O.nested_pass_points(n, field) == 2 * n == 576


def _nested_cases():
    """(name, field, config, batch) for the one pass on a batch against the
    reference: every affine case at its point and at that point moved along
    the normal by 0.05, -0.07 and 0.2 (out of the slab at horizon 0.1), and
    every split case at its points."""
    cases = []
    for name, field, cfg, x in AFFINE_CASES:
        n = EZ if field.interface is None else field.interface.normal
        cases.append((name, field, cfg, x + np.outer([0.0, 0.05, -0.07, 0.2], n)))
    for name, field, _ in SPLIT_CASES:
        cases.append((name, field, O.make_config(0.1, 3, 5), np.array(SPLIT_POINTS)))
    return cases


NESTED_CASES = _nested_cases()


class TestNestedPass:
    """One pass serves every field: each closed form through its split, at
    the outer nodes in its phase."""

    @pytest.mark.parametrize("name,field,cfg,xs", NESTED_CASES,
                             ids=[c[0] for c in NESTED_CASES])
    def test_batch_matches_reference(self, name, field, cfg, xs):
        g, p = nested_moments(cfg, field, xs)
        for row, x in enumerate(xs):
            _assert_matches_reference((g[row], p[row]), cfg, field, x)

    @pytest.mark.parametrize("name,field,cfg,xs", NESTED_CASES,
                             ids=[c[0] for c in NESTED_CASES])
    def test_bond_differences_match_values(self, name, field, cfg, xs):
        # the definition, (u(x + delta z) - u(x)) . z from values, with the
        # rounding of values of size |u|; off the plane of a kinked field the
        # outer nodes across it take the gap between the sides at x
        reads = O._read(cfg, field, xs)
        u_y, u_x = field.value(reads.y), field.value(xs)
        want = np.einsum("pqj,qj->pq", u_y - u_x[:, None, :], cfg.rule.points)
        scale = np.abs(u_y).max() + np.abs(u_x).max()
        assert np.abs(O._bond_differences(cfg, reads) - want).max() <= 1e-14 * scale


# at horizon 0.1 about the plane z = 0: on it, in the slab on either side,
# and out of it on either side
BATCH_POINTS = np.array([[0.0, 0.0, 0.0], [0.03, -0.01, 0.04],
                         [-0.02, 0.05, -0.06], [0.1, 0.2, 0.3],
                         [-0.2, 0.1, -0.25], [0.01, 0.02, 0.0]])
BATCH_OPS = (("state", O.state_operator), ("corrected", O.corrected_operator))


def _batch_cases():
    """pytest params (field, material, operator) for batches against single
    points: every manufactured configuration, and the same field on moduli
    with lambda != mu, so that the state operator makes a nested pass."""
    cases = []
    for name in F.MANUFACTURED_NAMES:
        field, mat = F.make_manufactured(name)
        lam_ne_mu = (F.TwoPhaseMaterial(3.0, 1.0, 5.0, 2.0, mat.interface)
                     if isinstance(mat, F.TwoPhaseMaterial)
                     else F.constant_material(3.0, 1.0))
        for op_name, op in BATCH_OPS:
            cases += [pytest.param(field, mat, op, id=f"{name}-{op_name}"),
                      pytest.param(field, lam_ne_mu, op, id=f"{name}_3152-{op_name}")]
    return cases


BATCH_CASES = _batch_cases()


class TestBatches:
    """Every point operator takes a batch of points (P, 3) and returns the
    values of its points, to rounding, as single-point calls do."""

    @pytest.mark.parametrize("field,mat,op", BATCH_CASES)
    def test_batch_equals_single_points(self, field, mat, op):
        cfg = O.make_config(0.1, 2, 4, split_normal=EZ)
        batch = op(cfg, mat, field, BATCH_POINTS)
        assert batch.shape == BATCH_POINTS.shape
        points = np.array([op(cfg, mat, field, x) for x in BATCH_POINTS])
        scale = term_scale(cfg, mat, field, BATCH_POINTS)
        assert np.abs(batch - points).max() <= 1e-12 * scale

    @pytest.mark.parametrize("op", [
        lambda cfg, mat, f, x: O.base_operator(cfg, f, x),
        O.bond_operator, O.bond_correction_term, O.dilatation_operator,
        O.interface_correction,
        lambda cfg, mat, f, x: O.normal_correction_term(cfg, mat, f, x, EZ),
    ], ids=["base", "bond", "bond_correction", "dilatation",
            "interface_correction", "normal_term"])
    def test_every_evaluator_takes_a_batch(self, op):
        field, _ = F.make_manufactured("patch_jump_zero_traction")
        mat = F.TwoPhaseMaterial(3.0, 1.0, 5.0, 2.0, F.INTERFACE_Z)
        cfg = O.make_config(0.1, 2, 4, split_normal=EZ)
        slab = BATCH_POINTS[:3]  # interface_correction takes slab points only
        batch = op(cfg, mat, field, slab)
        points = np.array([op(cfg, mat, field, x) for x in slab])
        assert np.abs(batch - points).max() <= 1e-12 * term_scale(cfg, mat, field, slab)

    def test_scalar_variant_takes_a_batch(self):
        cfg = O.make_config(0.5)
        f = lambda p: p[..., 0] ** 2 * p[..., 1]
        batch = O.base_operator_scalar(cfg, f, BATCH_POINTS)
        assert batch.shape == (len(BATCH_POINTS), 3, 3)
        points = np.array([O.base_operator_scalar(cfg, f, x) for x in BATCH_POINTS])
        assert np.abs(batch - points).max() <= 1e-13

    def test_slab_split_keeps_the_summation_order(self):
        # a batch's slab points take state + correction in the order of
        # single points: (bond + dil) + ((bond correction + dil / 4) + normal)
        field, _ = F.make_manufactured("patch_jump_zero_traction")
        mat = F.TwoPhaseMaterial(3.0, 1.0, 5.0, 2.0, F.INTERFACE_Z)
        cfg = O.make_config(0.1, 2, 4, split_normal=EZ)
        slab = BATCH_POINTS[:3]
        assert_array_equal(O.corrected_operator(cfg, mat, field, slab),
                           O.state_operator(cfg, mat, field, slab)
                           + O.interface_correction(cfg, mat, field, slab))

    @pytest.mark.parametrize("x", [np.zeros(2), np.zeros((2, 4)),
                                   np.zeros((2, 2, 3))], ids=["2", "2x4", "2x2x3"])
    def test_other_shapes_rejected(self, x):
        field, mat = F.make_manufactured("trig_smooth")
        with pytest.raises(ValueError, match=r"shape \(3,\) or \(P, 3\)"):
            O.state_operator(O.make_config(0.1, 2, 2), mat, field, x)


class TestClosedFormLimits:
    def test_natural_condition_patch_value(self, patch):
        field, mat = patch
        assert_allclose(O.natural_condition_limit(mat, field, X0),
                        [0.0, 0.0, 45.0 / 16.0], atol=1e-14)

    def test_natural_condition_no_jump(self):
        field, _ = F.make_manufactured("trig_smooth")
        field = F.PiecewiseField(field.plus_side, field.plus_side, F.INTERFACE_Z)
        mat = F.TwoPhaseMaterial(1.0, 1.0, 1.0, 1.0, F.INTERFACE_Z)
        assert_allclose(O.natural_condition_limit(mat, field, X0), 0.0, atol=1e-14)

    def test_natural_condition_differs_from_traction_jump(self, patch):
        # the inequality that motivates the corrected operator
        field, mat = patch
        natural = O.natural_condition_limit(mat, field, X0)
        traction = 45.0 / 32.0 * F.traction_jump(mat, field, X0)
        assert np.abs(natural - traction).max() > 1.0

    def test_off_interface_rejected(self, patch):
        field, mat = patch
        with pytest.raises(ValueError):
            O.natural_condition_limit(mat, field, np.array([0.0, 0.0, 0.3]))


class TestHalfBallMomentClosedForm:
    def test_apply_identity_at_pole(self):
        assert_allclose(O.half_ball_moment_apply(np.eye(3), EZ),
                        [0.0, 0.0, 3.0 / 8.0], atol=1e-15)

    def test_antisymmetric_traceless_annihilated(self, rng):
        a = rng.normal(size=(3, 3))
        a = a - a.T
        n = random_unit(rng)
        got = O.half_ball_moment_apply(a, n)
        assert_allclose(got, 3.0 / 32.0 * ((a + a.T) @ n), atol=1e-14)
        assert np.abs(got).max() < 1e-14

    def test_tensor_contraction_matches_apply(self, rng):
        for _ in range(100):
            n = random_unit(rng)
            a = rng.normal(size=(3, 3))
            lhs = contract_t3_mat(O.half_ball_moment_tensor(n), a)
            rhs = O.half_ball_moment_apply(a, n)
            assert np.abs(lhs - rhs).max() < 1e-13

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            O.half_ball_moment_tensor(np.array([1.0, 1.0, 0.0]))


OPERATORS = [
    ("base", lambda cfg, mat, f, x: O.base_operator(cfg, f, x)),
    ("bond", O.bond_operator),
    ("dilatation", O.dilatation_operator),
    ("state", O.state_operator),
    ("corrected", O.corrected_operator),
]


class TestOperatorProperties:
    @pytest.mark.parametrize("name,op", OPERATORS)
    def test_linearity(self, name, op, rng):
        f1, _ = F.make_manufactured("quadratic")
        f2, _ = F.make_manufactured("trig_smooth")
        mat = F.TwoPhaseMaterial(2.0, 1.0, 0.5, 2.0, F.INTERFACE_Z)
        cfg = O.make_config(0.3, radial_order=4, angular_order=6)
        x = np.array([0.05, -0.1, 0.02])
        a, b = 1.7, -0.6
        combo = a * f1 + b * f2
        lhs = op(cfg, mat, combo, x)
        rhs = a * np.asarray(op(cfg, mat, f1, x)) + b * np.asarray(op(cfg, mat, f2, x))
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() < 1e-12 * scale

    @pytest.mark.parametrize("name,op", OPERATORS)
    def test_annihilates_constants(self, name, op):
        cf, _ = F.make_manufactured("constant")
        mat = F.TwoPhaseMaterial(2.0, 1.0, 0.5, 2.0, F.INTERFACE_Z)
        cfg = O.make_config(0.3, radial_order=4, angular_order=6)
        for x in (X0, np.array([0.1, 0.0, 0.05])):
            assert np.abs(np.asarray(op(cfg, mat, cf, x))).max() < 1e-12

    @pytest.mark.parametrize("delta", [0.1, 0.05, 0.025, 0.0125, 0.00625])
    def test_quadratic_exactness_every_default_horizon(self, delta):
        field, _ = F.make_manufactured("quadratic")
        mat = F.constant_material(2.0, 1.0)
        cfg = O.make_config(delta, radial_order=6, angular_order=8)
        x = np.array([0.12, -0.07, 0.31])
        ref = F.navier(mat, field, x)
        assert_allclose(ref, [8.0, 0.0, 0.0], atol=1e-13)
        got = O.state_operator(cfg, mat, field, x)
        assert np.abs(got - ref).max() < 1e-9


def _oblique_kink(rng, x0=None, n=None):
    """A continuous piecewise-linear field kinked across an oblique plane
    (x0, n), random unless given: ((c+, G+), (c-, G-), x0, n).

    The plane passes near the origin and the field vanishes at x0, so the
    rounding of positions and values stays at the operator's own scale."""
    n = random_unit(rng) if n is None else n
    x0 = 0.1 * rng.normal(size=3) if x0 is None else x0
    g_minus = rng.normal(size=(3, 3))
    g_plus = g_minus + np.outer(rng.normal(size=3), n)
    return (-g_plus @ x0, g_plus), (-g_minus @ x0, g_minus), x0, n


def _kinked(plus, minus, x0, n, moduli):
    iface = F.PlanarInterface(x0, n)
    field = F.PiecewiseField(F.linear_field(*plus), F.linear_field(*minus), iface)
    return field, F.TwoPhaseMaterial(*moduli, iface)


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


INVARIANCE_DELTA = 0.05


def _invariance_cases():
    """Seeded kinks and points on the plane and 0.02-0.03 off it on either
    side, inside the slab at INVARIANCE_DELTA."""
    rng = np.random.default_rng(7)
    for _ in range(3):
        plus, minus, x0, n = _oblique_kink(rng)
        s = rng.uniform(0.02, 0.03)
        for x in (x0, x0 + s * n, x0 - s * n):
            yield rng, plus, minus, x0, n, x


def _assert_close(got, want, moduli, *grads):
    # relative to the operator's size at an interface point, |moduli| |G| / delta
    scale = max(moduli) * max(np.abs(g).max() for g in grads) / INVARIANCE_DELTA
    assert np.abs(got - want).max() <= 1e-12 * scale


INVARIANCE_OPS = [("state", O.state_operator), ("corrected", O.corrected_operator)]
INVARIANCE_MODULI = [(1.0, 1.0, 2.0, 2.0), (3.0, 1.0, 5.0, 2.0)]


@pytest.mark.parametrize("moduli", INVARIANCE_MODULI,
                         ids=["1122", "3152"])
@pytest.mark.parametrize("name,op", INVARIANCE_OPS,
                         ids=[n for n, _ in INVARIANCE_OPS])
class TestObliqueKinkInvariances:
    """Geometric invariances of the point operators on seeded oblique
    kinks, at quadrature (4, 6), with the rule split along the interface."""

    def test_rotation_equivariance(self, name, op, moduli):
        # L[R u R^T; R n](R x) = R L[u; n](x)
        for rng, plus, minus, x0, n, x in _invariance_cases():
            rot = _random_rotation(rng)
            field, mat = _kinked(plus, minus, x0, n, moduli)
            turned, turned_mat = _kinked(
                (rot @ plus[0], rot @ plus[1] @ rot.T),
                (rot @ minus[0], rot @ minus[1] @ rot.T), rot @ x0, rot @ n, moduli)
            want = rot @ op(O.make_config(INVARIANCE_DELTA, 4, 6, split_normal=n),
                            mat, field, x)
            got = op(O.make_config(INVARIANCE_DELTA, 4, 6, split_normal=rot @ n),
                     turned_mat, turned, rot @ x)
            _assert_close(got, want, moduli, plus[1], minus[1])

    def test_linearity(self, name, op, moduli):
        for rng, plus, minus, x0, n, x in _invariance_cases():
            other_plus, other_minus, _, _ = _oblique_kink(rng, x0, n)
            a, b = rng.normal(size=2)
            field, mat = _kinked(plus, minus, x0, n, moduli)
            other, _ = _kinked(other_plus, other_minus, x0, n, moduli)
            combo, _ = _kinked(
                (a * plus[0] + b * other_plus[0], a * plus[1] + b * other_plus[1]),
                (a * minus[0] + b * other_minus[0], a * minus[1] + b * other_minus[1]),
                x0, n, moduli)
            cfg = O.make_config(INVARIANCE_DELTA, 4, 6, split_normal=n)
            got = op(cfg, mat, combo, x)
            want = a * op(cfg, mat, field, x) + b * op(cfg, mat, other, x)
            _assert_close(got, want, moduli, a * plus[1], a * minus[1],
                          b * other_plus[1], b * other_minus[1])

    def test_translation_invariance(self, name, op, moduli):
        # u(. - t) with the interface moved by t, evaluated at x + t
        for rng, plus, minus, x0, n, x in _invariance_cases():
            t = 0.3 * rng.normal(size=3)
            cfg = O.make_config(INVARIANCE_DELTA, 4, 6, split_normal=n)
            field, mat = _kinked(plus, minus, x0, n, moduli)
            moved, moved_mat = _kinked((plus[0] - plus[1] @ t, plus[1]),
                                       (minus[0] - minus[1] @ t, minus[1]),
                                       x0 + t, n, moduli)
            _assert_close(op(cfg, moved_mat, moved, x + t),
                          op(cfg, mat, field, x), moduli, plus[1], minus[1])


FAR_DELTA = 0.001
FAR_OPS = [
    ("base", lambda cfg, mat, f, x: O.base_operator(cfg, f, x)),
    ("bond", O.bond_operator),
    ("bond_correction", O.bond_correction_term),
    ("delta_state", lambda cfg, mat, f, x: FAR_DELTA * O.state_operator(cfg, mat, f, x)),
    ("delta_corrected",
     lambda cfg, mat, f, x: FAR_DELTA * O.corrected_operator(cfg, mat, f, x)),
]


@pytest.mark.parametrize("name,op", FAR_OPS, ids=[n for n, _ in FAR_OPS])
def test_translation_far_from_the_origin(name, op):
    """Seeded oblique kinks on 3,1,5,2, with the plane, the field and the
    point moved by |t| = 10, at horizon 0.001 and quadrature (4, 6).

    The bond differences are read through the split, so no value of u, of
    size |u| ~ |G| |t|, is subtracted from another.  At a point on the plane
    the moved evaluation reads the same sums: every operator here changed
    by 0 relative (7.2e-13 to 1.4e-11 when the differences were values).
    0.4 horizons off the plane its distance to the plane is known only to
    the rounding of positions of size 10, 2e-15 against 4e-4, and the
    change is at most 3.1e-12 (6.4e-12 from values)."""
    moduli = (3.0, 1.0, 5.0, 2.0)
    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        plus, minus, x0, n = _oblique_kink(rng)
        t = rng.normal(size=3)
        t *= 10.0 / np.linalg.norm(t)
        cfg = O.make_config(FAR_DELTA, 4, 6, split_normal=n)
        field, mat = _kinked(plus, minus, x0, n, moduli)
        moved, moved_mat = _kinked((plus[0] - plus[1] @ t, plus[1]),
                                   (minus[0] - minus[1] @ t, minus[1]), x0 + t, n, moduli)
        for x, bound in ((x0, 1e-14), (x0 + 0.4 * FAR_DELTA * n, 5e-12)):
            want = op(cfg, mat, field, x)
            got = op(cfg, moved_mat, moved, x + t)
            assert np.abs(got - want).max() <= bound * np.abs(want).max(), seed
