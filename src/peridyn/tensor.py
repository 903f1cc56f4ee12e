"""Fixed-size real tensor algebra in three dimensions (orders 1 to 4).

Tensors are plain ``numpy`` arrays of shape (3,), (3, 3), (3, 3, 3) and
(3, 3, 3, 3).  The two contraction conventions used throughout the package
are pinned here once:

* ``contract_t3_mat(K, A)[i] = sum_jk K[i,j,k] A[j,k]``
* ``contract_t4_mat(T, A)[i,j] = sum_kl T[i,j,k,l] A[l,k]``
"""

from __future__ import annotations

import numpy as np

Vec3 = np.ndarray
Mat3 = np.ndarray
Tensor3 = np.ndarray
Tensor4 = np.ndarray

IDENTITY = np.eye(3)

E3 = np.array([0.0, 0.0, 1.0])


def outer(a: Vec3, b: Vec3) -> Mat3:
    """(a x b)_ij = a_i b_j."""
    return np.einsum("i,j->ij", a, b)


def outer3(a: Vec3, b: Vec3, c: Vec3) -> Tensor3:
    return np.einsum("i,j,k->ijk", a, b, c)


def outer4(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Tensor4:
    return np.einsum("i,j,k,l->ijkl", a, b, c, d)


def contract_t3_mat(K: Tensor3, A: Mat3) -> Vec3:
    """Contract a third-order tensor against a matrix over its last two slots."""
    return np.einsum("ijk,jk->i", K, A)


def contract_t4_mat(T: Tensor4, A: Mat3) -> Mat3:
    """Contract a fourth-order tensor against a matrix over its last two slots.

    Index order: result_ij = sum_kl T_ijkl A_lk.  With T the fourth moment of
    the unit-ball direction kernel and A the (symmetric) Hessian of a field
    component, summing result over its second index reproduces the
    Laplacian-plus-twice-gradient-of-divergence identity; see
    :func:`peridyn.quadrature.fourth_moment`.
    """
    return np.einsum("ijkl,lk->ij", T, A)
