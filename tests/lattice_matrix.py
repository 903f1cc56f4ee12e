"""The lattice operator as an assembled sparse matrix: the test reference.

``reference_matrix`` builds, entry by entry, the 3N x 3N matrix whose action
``solver.DiscreteOperator`` applies by FFT.  ``MatrixOperator`` wraps a
(possibly altered) matrix in the interface ``solver.solve_equilibrium`` and
``solver.residual_check`` use: ``grid``, ``action`` and ``diagonal``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from peridyn import solver as S
from peridyn.fields import TwoPhaseMaterial
from peridyn.quadrature import ball_volume


def _block_coo(rows, cols, blocks, shape):
    """COO matrix of p x q blocks placed at (row, col) block positions."""
    blocks = np.asarray(blocks)
    _, p, q = blocks.shape
    i = (p * np.asarray(rows))[:, None, None] + np.arange(p)[None, :, None]
    j = (q * np.asarray(cols))[:, None, None] + np.arange(q)[None, None, :]
    return sp.coo_matrix(
        (blocks.reshape(-1), (np.broadcast_to(i, blocks.shape).reshape(-1),
                              np.broadcast_to(j, blocks.shape).reshape(-1))),
        shape=shape)


def reference_matrix(opr) -> sp.csr_matrix:
    """The collocation matrix of ``opr``'s grid and material, as canonical CSR.

    Every term is one block build, and the terms are added in a fixed order:

    - the bond blocks, acting as differences: weight mu(x) + mu(y) on free
      rows, and mu(y) alone on extended rows, where the frozen-modulus
      correction removes mu(x);
    - the dilatational term, (9/m^2) C(free, (1 + [ext]/4)(lambda - mu))
      @ V(inner, 1), whose row factor carries the extended rows' extra
      quarter;
    - the normal-projected term on extended rows,
      kron((45/4m^2) V(ext, mu) @ C(inner, 1), n n^T).

    C and V are direction stencils, w_k (xi_k / |xi_k|^2) weight at
    (x, x + k): C puts the vector component on the row index (3N x N) and V
    on the column index (N x 3N).  Each nested term is the outer integral's
    stencil times the inner divergence integral's, one sparse product.
    """
    grid, material = opr.grid, opr.material
    n = grid.n_nodes
    h, delta = grid.h, grid.delta
    m = ball_volume(delta)
    lam, mu = material.lame_at(grid.points)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (n,))
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (n,))

    offs, frac = opr.offsets, opr.fractions
    n_offs = len(offs)
    w_vol = frac * h**3
    xi = h * offs.astype(float)
    r2 = np.einsum("ki,ki->k", xi, xi)
    bond_kern = np.einsum("ki,kj->kij", xi, xi) / (r2**2)[:, None, None]
    dir_kern = w_vol[:, None] * (xi / r2[:, None])  # both single integrals

    strides = np.array([grid.shape[1] * grid.shape[2], grid.shape[2], 1])
    idx3 = np.stack(np.meshgrid(*[np.arange(s) for s in grid.shape],
                                indexing="ij"), axis=-1).reshape(-1, 3)
    off_flat = offs @ strides

    free = np.flatnonzero(grid.tags != S.NodeTag.CONSTRAINT)
    cons = np.flatnonzero(grid.tags == S.NodeTag.CONSTRAINT)
    on_ext = grid.tags[free] == S.NodeTag.EXTENDED_INTERFACE
    reach = S._stencil_reach(h, delta)
    inner_ok = np.all((idx3 >= reach) & (idx3 <= np.array(grid.shape) - 1 - reach),
                      axis=1)
    inner_rows = np.flatnonzero(inner_ok)
    cols = free[:, None] + off_flat[None, :]
    assert np.all(inner_ok[cols]), "outer stencil references an incomplete inner row"

    def stencil(rows, weight, component_on_row):
        """w_k (xi_k / |xi_k|^2) weight at (x, x + k) for x in ``rows``, with
        ``weight`` per (x, k) pair; 3N x N if ``component_on_row``, else
        N x 3N."""
        vals = np.broadcast_to(weight, (len(rows), n_offs))[:, :, None] * dir_kern
        shape = (3 * n, n) if component_on_row else (n, 3 * n)
        return _block_coo(np.repeat(rows, n_offs),
                          (rows[:, None] + off_flat[None, :]).reshape(-1),
                          vals.reshape((-1, 3, 1) if component_on_row else (-1, 1, 3)),
                          shape).tocsr()

    wk = (15.0 / m) * w_vol
    # mu(x) + mu(y); the frozen-modulus correction removes mu(x) on extended rows
    bond_w = wk * (np.where(on_ext, 0.0, mu[free])[:, None] + mu[cols])
    bond = bond_w[:, :, None, None] * bond_kern
    diag = np.zeros((len(free), 3, 3))
    for k in range(n_offs):
        diag -= bond[:, k]
    matrix = _block_coo(
        np.concatenate([np.repeat(free, n_offs), free, cons]),
        np.concatenate([cols.reshape(-1), free, cons]),
        np.concatenate([bond.reshape(-1, 3, 3), diag,
                        np.broadcast_to(np.eye(3), (len(cons), 3, 3))]),
        (3 * n, 3 * n)).tocsr()

    c_coef = lam - mu
    if np.any(c_coef != 0.0):
        row_factor = (9.0 / m**2) * np.where(on_ext, 1.25, 1.0)
        matrix = matrix + (stencil(free, row_factor[:, None] * c_coef[cols], True)
                           @ stencil(inner_rows, 1.0, False))

    if on_ext.any() and isinstance(material, TwoPhaseMaterial):
        normal = material.interface.normal
        w_scalar = (stencil(free[on_ext], (45.0 / (4.0 * m**2)) * mu[cols[on_ext]], False)
                    @ stencil(inner_rows, 1.0, True))
        matrix = matrix + sp.kron(w_scalar, np.outer(normal, normal))

    # a block build keeps exact zeros that a sparse sum would drop, and a sum
    # with an unsorted product leaves its indices unsorted
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return matrix


@dataclass(frozen=True)
class MatrixOperator:
    """An assembled matrix behind the operator interface the solver uses."""

    grid: S.BoxGrid
    matrix: sp.csr_matrix

    def action(self, nodal):
        return (self.matrix @ np.asarray(nodal, dtype=float).reshape(-1)).reshape(-1, 3)

    def diagonal(self):
        return self.matrix.diagonal().reshape(-1, 3)
