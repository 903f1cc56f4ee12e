import numpy as np
import pytest
from numpy.testing import assert_allclose

from peridyn import quadrature as quad
from peridyn.operators import half_ball_moment_tensor

EZ = np.array([0.0, 0.0, 1.0])


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestRuleInvariants:
    def test_ball_weight_sum(self, ball_rule):
        assert abs(ball_rule.weights.sum() - 4 * np.pi / 3) < 1e-12

    def test_ball_weights_positive_no_origin(self, ball_rule):
        assert np.all(ball_rule.weights > 0)
        assert np.linalg.norm(ball_rule.points, axis=1).min() > 1e-3

    def test_half_weight_sum(self, half_rule):
        assert abs(half_rule.weights.sum() - 2 * np.pi / 3) < 1e-12

    def test_half_oriented_side(self, half_rule, rng):
        for _ in range(5):
            n = random_unit(rng)
            assert np.all(half_rule.oriented(n) @ n > 0)

    def test_split_rule_weight_sum_and_symmetry(self, split_rule_z):
        assert abs(split_rule_z.weights.sum() - 4 * np.pi / 3) < 1e-12
        npts = len(split_rule_z) // 2
        assert_allclose(split_rule_z.points[npts:], -split_rule_z.points[:npts])

    @pytest.mark.parametrize("orders", [(1, 1), (2, 3), (8, 12)])
    def test_rule_size_without_building(self, orders):
        assert quad.ball_rule_size(*orders) == len(quad.build_ball_rule(*orders))
        split = quad.build_split_ball_rule(np.array([0.0, 0.6, 0.8]), *orders)
        assert quad.ball_rule_size(*orders, split=True) == len(split)

    def test_orders_validated(self):
        with pytest.raises(ValueError):
            quad.build_ball_rule(0, 4)


class TestIntegrateBall:
    def test_volume(self, ball_rule):
        v = quad.integrate_ball(ball_rule, 2.0, np.zeros(3), lambda p: np.ones(len(p)))
        assert abs(v - quad.ball_volume(2.0)) < 1e-12 * quad.ball_volume(2.0)

    def test_odd_vanishes(self, ball_rule):
        v = quad.integrate_ball(ball_rule, 1.0, np.zeros(3), lambda p: p)
        assert np.abs(v).max() < 1e-12

    def test_second_moment_identity(self, ball_rule):
        for delta in (1.0, 0.25):
            m = quad.second_moment(ball_rule, delta)
            assert np.abs(m - quad.ball_volume(delta) / 3 * np.eye(3)).max() < 1e-12 * delta**3

    def test_kernel_first_moment_vanishes(self, ball_rule):
        x = np.array([0.3, -0.1, 0.2])
        v = quad.integrate_ball(
            ball_rule, 0.5, x,
            lambda p: (p - x) / np.sum((p - x) ** 2, axis=1)[:, None])
        assert np.abs(v).max() < 1e-12 * 0.5**2

    def test_inverse_square_radial(self, ball_rule):
        x = np.array([1.0, 2.0, 3.0])
        v = quad.integrate_ball(ball_rule, 1.3, x,
                                lambda p: 1.0 / np.sum((p - x) ** 2, axis=1))
        assert abs(v - 4 * np.pi * 1.3) < 1e-10

    def test_nonfinite_integrand_raises(self, ball_rule):
        with pytest.raises(FloatingPointError):
            quad.integrate_ball(ball_rule, 1.0, np.zeros(3),
                                lambda p: np.full(len(p), np.nan))

    def test_nonpositive_delta_raises(self, ball_rule):
        with pytest.raises(ValueError):
            quad.integrate_ball(ball_rule, 0.0, np.zeros(3), lambda p: np.ones(len(p)))

    def test_tensor_valued_integrand(self, ball_rule):
        # fourth-order direction moment through the generic integrator
        def f(p):
            r4 = np.sum(p * p, axis=1) ** 2
            return np.einsum("qi,qj,qk,ql->qijkl", p, p, p, p) / r4[:, None, None, None, None]

        got = quad.integrate_ball(ball_rule, 0.7, np.zeros(3), f)
        assert got.shape == (3, 3, 3, 3)
        ref = quad.fourth_moment(ball_rule, 0.7) * quad.ball_volume(0.7) / 30.0
        assert np.abs(got - ref).max() < 1e-12


class TestIntegrateHalfBall:
    def test_half_volume(self, half_rule):
        v = quad.integrate_half_ball(half_rule, 0.8, np.zeros(3), EZ,
                                     lambda p: np.ones(len(p)))
        assert abs(v - quad.ball_volume(0.8) / 2) < 1e-12

    def test_kernel_first_moment(self, half_rule, rng):
        x = np.array([0.2, 0.1, -0.3])
        delta = 0.7
        for _ in range(3):
            n = random_unit(rng)
            v = quad.integrate_half_ball(
                half_rule, delta, x, n,
                lambda p: (p - x) / np.sum((p - x) ** 2, axis=1)[:, None])
            assert np.abs(v - np.pi * delta**2 / 2 * n).max() < 1e-10 * delta**2

    def test_halves_sum_to_ball(self, half_rule, ball_rule, rng):
        x = np.array([0.1, 0.0, -0.2])

        def f(p):
            return np.sin(p[:, 0]) * np.cos(2 * p[:, 1]) + p[:, 2] ** 2

        n = random_unit(rng)
        up = quad.integrate_half_ball(half_rule, 0.5, x, n, f)
        dn = quad.integrate_half_ball(half_rule, 0.5, x, -n, f)
        full = quad.integrate_ball(ball_rule, 0.5, x, f)
        assert abs(up + dn - full) < 1e-10

    def test_non_unit_normal_rejected(self, half_rule):
        with pytest.raises(ValueError):
            quad.integrate_half_ball(half_rule, 1.0, np.zeros(3),
                                     np.array([0.0, 0.0, 2.0]),
                                     lambda p: np.ones(len(p)))


class TestMoments:
    def test_fourth_moment_pattern(self, ball_rule):
        t = quad.fourth_moment(ball_rule, 0.37)
        for idx in np.ndindex(3, 3, 3, 3):
            i, j, k, l = idx
            if i == j == k == l:
                ref = 6.0
            elif (i == j and k == l) or (i == k and j == l) or (i == l and j == k):
                ref = 2.0
            else:
                ref = 0.0
            assert abs(t[idx] - ref) < 1e-12

    def test_third_moment_vanishes(self, ball_rule):
        for delta in (1.0, 0.1):
            t = quad.third_moment(ball_rule, delta)
            assert np.abs(t).max() < 1e-12 * delta**2


class TestHalfBallMoments:
    def test_scaled_third_moment_entries_at_pole(self, half_rule):
        for delta in (1.0, 0.1, 0.01):
            k = delta * quad.half_ball_third_moment_numeric(half_rule, delta, EZ)
            assert abs(k[2, 2, 2] - 3.0 / 16.0) < 1e-10
            assert abs(k[0, 0, 0]) < 1e-12

    def test_scaled_third_moment_matches_closed_form(self, half_rule, rng):
        for _ in range(10):
            n = random_unit(rng)
            k = quad.half_ball_third_moment_numeric(half_rule, 0.1, n)
            assert np.abs(0.1 * k - half_ball_moment_tensor(n)).max() < 1e-9

    def test_rotation_invariance(self, half_rule, rng):
        for _ in range(5):
            n = random_unit(rng)
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            kn = quad.half_ball_third_moment_numeric(half_rule, 0.2, n)
            krot = quad.half_ball_third_moment_numeric(half_rule, 0.2, q @ n)
            transported = np.einsum("ia,jb,kc,abc->ijk", q, q, q, kn)
            assert np.abs(krot - transported).max() < 1e-10

    def test_first_moment_along_pole(self, half_rule):
        assert_allclose(quad.half_ball_first_moment(half_rule, 0.3, EZ),
                        [0.0, 0.0, 9.0 / 8.0], atol=1e-10)
        assert_allclose(quad.half_ball_first_moment(half_rule, 0.3, -EZ),
                        [0.0, 0.0, -9.0 / 8.0], atol=1e-10)

    def test_first_moment_random_normals(self, half_rule, rng):
        for _ in range(10):
            n = random_unit(rng)
            assert np.abs(quad.half_ball_first_moment(half_rule, 0.05, n)
                          - 9.0 / 8.0 * n).max() < 1e-10

    def test_delta_independence(self, half_rule, rng):
        n = random_unit(rng)
        k_ref = 1.0 * quad.half_ball_third_moment_numeric(half_rule, 1.0, n)
        f_ref = quad.half_ball_first_moment(half_rule, 1.0, n)
        for delta in (0.1, 0.01):
            k = delta * quad.half_ball_third_moment_numeric(half_rule, delta, n)
            f = quad.half_ball_first_moment(half_rule, delta, n)
            assert np.abs(k - k_ref).max() < 1e-11
            assert np.abs(f - f_ref).max() < 1e-11


class TestMonteCarloOracle:
    def test_ball_rule_against_monte_carlo(self, ball_rule, rng):
        # independent brute-force check: polynomial-times-1/|z| integrands
        delta = 0.8
        nsamp = 1_000_000
        d = rng.normal(size=(nsamp, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        radii = delta * rng.random(nsamp) ** (1.0 / 3.0)
        pts = radii[:, None] * d
        vol = quad.ball_volume(delta)
        for _ in range(5):
            coef = rng.normal(size=(3, 3))
            shift = rng.normal(size=3)

            def f(p):
                poly = (np.einsum("qi,ij,qj->q", p, coef, p)
                        + p @ shift + 1.0)
                return poly / np.linalg.norm(p, axis=1)

            vals = f(pts)
            mc = vol * vals.mean()
            se = vol * vals.std() / np.sqrt(nsamp)
            exact = quad.integrate_ball(ball_rule, delta, np.zeros(3), f)
            assert abs(exact - mc) < 3 * se


def test_rotation_to_pole_properties(rng):
    for n in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], random_unit(rng), random_unit(rng)):
        n = np.asarray(n)
        r = quad.rotation_to_pole(n)
        assert_allclose(r @ n, [0.0, 0.0, 1.0], atol=1e-14)
        assert_allclose(r @ r.T, np.eye(3), atol=1e-14)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12
