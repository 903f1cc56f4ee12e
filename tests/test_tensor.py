import numpy as np
from numpy.testing import assert_allclose

from peridyn import tensor
from peridyn.operators import half_ball_moment_tensor
from peridyn.quadrature import build_ball_rule, fourth_moment

E1, E2, E3 = np.eye(3)


def test_outer_basis():
    m = tensor.outer(E1, E2)
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    assert_allclose(m, expected)


def test_outer_zero():
    assert_allclose(tensor.outer(np.zeros(3), np.array([1.0, 2.0, 3.0])), 0.0)


def test_outer3_basis():
    t = tensor.outer3(E3, E3, E3)
    assert t[2, 2, 2] == 1.0
    t[2, 2, 2] = 0.0
    assert_allclose(t, 0.0)


def test_outer4_entry():
    t = tensor.outer4(E1, E2, E3, E1)
    assert t[0, 1, 2, 0] == 1.0
    assert np.count_nonzero(t) == 1


def test_contract_t3_unit_normal_identity(rng):
    # K = n (x) n (x) n against the identity matrix gives n back
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    assert_allclose(tensor.contract_t3_mat(tensor.outer3(n, n, n), np.eye(3)),
                    n, atol=1e-15)


def test_contract_t3_zero():
    assert_allclose(tensor.contract_t3_mat(np.zeros((3, 3, 3)), np.ones((3, 3))), 0.0)


def test_contract_t3_halfball_tensor_identity():
    got = tensor.contract_t3_mat(half_ball_moment_tensor(E3), np.eye(3))
    assert_allclose(got, [0.0, 0.0, 3.0 / 8.0], atol=1e-15)


def test_contract_t4_zero():
    assert_allclose(tensor.contract_t4_mat(np.zeros((3, 3, 3, 3)), np.eye(3)), 0.0)


def test_contract_t4_single_entry():
    t = np.zeros((3, 3, 3, 3))
    t[0, 0, 0, 0] = 6.0
    got = tensor.contract_t4_mat(t, tensor.outer(E1, E1))
    assert_allclose(got, 6.0 * tensor.outer(E1, E1))


def test_contract_t4_reproduces_second_order_identity(ball_rule):
    # contracting the fourth moment against half the component Hessians of
    # u(x) = (x1^2, 0, 0) must give lap u + 2 grad(div u) = (6, 0, 0)
    t = fourth_moment(ball_rule, 1.0)
    hess1 = np.zeros((3, 3))
    hess1[0, 0] = 2.0
    got = np.array([tensor.contract_t4_mat(t, 0.5 * hess1)[i, 0] for i in range(3)])
    assert_allclose(got, [6.0, 0.0, 0.0], atol=1e-13)


def test_bilinearity(rng):
    a, b, c, d = rng.normal(size=(4, 3))
    a2, b2 = rng.normal(size=(2, 3))
    s, t = rng.normal(size=2)
    assert_allclose(tensor.outer(s * a + t * a2, b),
                    s * tensor.outer(a, b) + t * tensor.outer(a2, b), atol=1e-14)
    assert_allclose(tensor.outer3(a, s * b + t * b2, c),
                    s * tensor.outer3(a, b, c) + t * tensor.outer3(a, b2, c),
                    atol=1e-14)
    k = rng.normal(size=(3, 3, 3))
    m1, m2 = rng.normal(size=(2, 3, 3))
    assert_allclose(tensor.contract_t3_mat(k, s * m1 + t * m2),
                    s * tensor.contract_t3_mat(k, m1) + t * tensor.contract_t3_mat(k, m2),
                    atol=1e-13)
    t4 = rng.normal(size=(3, 3, 3, 3))
    assert_allclose(tensor.contract_t4_mat(t4, s * m1 + t * m2),
                    s * tensor.contract_t4_mat(t4, m1) + t * tensor.contract_t4_mat(t4, m2),
                    atol=1e-13)


def test_contract_of_rank_one_reduces_to_scalars(rng):
    for _ in range(20):
        a, b, c = rng.normal(size=(3, 3))
        m = rng.normal(size=(3, 3))
        assert_allclose(tensor.contract_t3_mat(tensor.outer3(a, b, c), m),
                        a * (b @ m @ c), atol=1e-13)
