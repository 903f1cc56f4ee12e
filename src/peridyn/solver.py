"""Meshfree collocation and Krylov solve of the equilibrium interface system.

Nodes are lattice points of an axis-aligned box, each owning a cubic cell of
volume h^3.  Integrals become midpoint sums over neighbor cells with a
partial-volume factor for cells straddling the interaction sphere (computed
once per lattice offset by 4^3 subsampling).  The composed double-integral
terms, dilatational and normal-projected, are each one sparse product of two
direction stencils: the outer single integral's times the inner one's.

Displacements are prescribed on a constraint collar of width at least two
horizons (volume constraints standing in for boundary conditions); rows of
extended-interface nodes carry the corrected operator with zero right-hand
side, realizing the nonlocal interface condition.

The free-node block stays sparse and is solved by restarted GMRES (Saad &
Schultz 1986), preconditioned by the inverse of its diagonal (Jacobi).  A
zero or non-finite diagonal entry, or a run that misses the residual target,
is refused as singular or ill-conditioned.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres

from .fields import Material, PlanarInterface, TwoPhaseMaterial
from .quadrature import ball_volume


class NodeTag(enum.IntEnum):
    INTERIOR = 0
    EXTENDED_INTERFACE = 1
    CONSTRAINT = 2


@dataclass(frozen=True)
class BoxGrid:
    lo: np.ndarray
    hi: np.ndarray
    h: float
    shape: tuple
    points: np.ndarray  # (N, 3) lattice nodes
    tags: np.ndarray  # (N,) NodeTag values
    horizon_ratio: float
    interface: Optional[PlanarInterface]

    @property
    def delta(self) -> float:
        return self.horizon_ratio * self.h

    @property
    def n_nodes(self) -> int:
        return self.points.shape[0]

    def nodes_with_tag(self, tag: NodeTag) -> np.ndarray:
        return np.flatnonzero(self.tags == tag)


def _stencil_reach(h: float, delta: float) -> int:
    # farthest lattice offset whose cell can intersect the sphere
    return int(math.floor(delta / h + math.sqrt(3.0) / 2.0 + 1e-12))


def build_grid(box, h: float, horizon_ratio: float,
               interface: Optional[PlanarInterface] = None) -> BoxGrid:
    """Tagged lattice over ``box`` = (lo, hi) with spacing ``h``.

    The horizon is ``horizon_ratio * h`` and must exceed the spacing.  The
    constraint collar is widened from 2 delta to the two-hop stencil reach
    when the ratio is not an integer, so composed stencils never leave the
    lattice.
    """
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if horizon_ratio <= 1:
        raise ValueError("horizon must exceed the grid spacing (ratio > 1)")
    counts = (hi - lo) / h
    n_axis = np.rint(counts).astype(int)
    if np.any(np.abs(counts - n_axis) > 1e-9) or np.any(n_axis < 1):
        raise ValueError("box edges must be positive integer multiples of h")
    delta = horizon_ratio * h
    reach = _stencil_reach(h, delta)
    collar = max(2.0 * delta, 2.0 * reach * h)

    axes = [lo[d] + h * np.arange(n_axis[d] + 1) for d in range(3)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    face_dist = np.minimum(pts - lo, hi - pts).min(axis=1)
    free = face_dist >= collar - 1e-9 * h
    if not free.any():
        raise ValueError("constraint collar does not fit: box too small for "
                         f"a {collar:.4g} collar at h = {h:.4g}")

    tags = np.full(pts.shape[0], NodeTag.CONSTRAINT, dtype=np.int8)
    if interface is not None:
        sd = interface.signed_distance(pts)
        ext = free & (np.abs(sd) < delta)
        tags[free] = NodeTag.INTERIOR
        tags[ext] = NodeTag.EXTENDED_INTERFACE
    else:
        tags[free] = NodeTag.INTERIOR
    return BoxGrid(lo=lo, hi=hi, h=h, shape=tuple(int(n) + 1 for n in n_axis),
                   points=pts, tags=tags, horizon_ratio=horizon_ratio,
                   interface=interface)


def _offset_fractions(h: float, delta: float):
    """Lattice offsets with the fraction of their cell inside the sphere.

    Fractions are estimated by 4^3 midpoint subsampling of each cell; the
    origin cell is excluded (singular kernel, zero difference integrand).
    """
    reach = _stencil_reach(h, delta)
    rng = np.arange(-reach, reach + 1)
    offs = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    offs = offs[np.any(offs != 0, axis=1)]
    sub = (np.arange(4) + 0.5) / 4.0 - 0.5
    sub_pts = h * np.stack(np.meshgrid(sub, sub, sub, indexing="ij"), axis=-1).reshape(-1, 3)
    centers = h * offs.astype(float)
    d2 = np.sum((centers[:, None, :] + sub_pts[None, :, :]) ** 2, axis=-1)
    frac = np.mean(d2 <= delta**2, axis=1)
    keep = frac > 0
    return offs[keep], frac[keep]


@dataclass(frozen=True)
class DiscreteOperator:
    """Sparse 3N x 3N system matrix plus the grid and assembly metadata."""

    grid: BoxGrid
    material: Material
    matrix: sp.csr_matrix
    offsets: np.ndarray
    fractions: np.ndarray

    def action(self, nodal: np.ndarray) -> np.ndarray:
        """Matrix action on a nodal (N, 3) field, as (N, 3)."""
        return (self.matrix @ np.asarray(nodal, dtype=float).reshape(-1)).reshape(-1, 3)


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


def assemble(grid: BoxGrid, material: Material) -> DiscreteOperator:
    """Assemble the corrected-operator collocation matrix.

    Interior rows carry the state operator, extended-interface rows add the
    correction terms, constraint rows are identity.  Every term is one block
    build, and the terms are added in a fixed order:

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
    stencil times the inner divergence integral's, one sparse product.  The
    result is canonical CSR: sorted indices, no duplicates, no stored zeros.
    """
    n = grid.n_nodes
    h, delta = grid.h, grid.delta
    m = ball_volume(delta)
    lam, mu = material.lame_at(grid.points)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (n,))
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (n,))

    offs, frac = _offset_fractions(h, delta)
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

    free = np.flatnonzero(grid.tags != NodeTag.CONSTRAINT)
    cons = np.flatnonzero(grid.tags == NodeTag.CONSTRAINT)
    on_ext = grid.tags[free] == NodeTag.EXTENDED_INTERFACE
    reach = _stencil_reach(h, delta)
    inner_ok = np.all((idx3 >= reach) & (idx3 <= np.array(grid.shape) - 1 - reach),
                      axis=1)
    inner_rows = np.flatnonzero(inner_ok)
    cols = free[:, None] + off_flat[None, :]
    if not np.all(inner_ok[cols]):
        raise AssertionError("outer stencil references an incomplete inner row")

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
    return DiscreteOperator(grid=grid, material=material, matrix=matrix,
                            offsets=offs, fractions=frac)


# GMRES: relative residual target, restart length and restart cycles (at most
# _GMRES_RESTART * _GMRES_CYCLES iterations)
_GMRES_RTOL = 1e-12
_GMRES_RESTART = 200
_GMRES_CYCLES = 5


@dataclass
class SolveResult:
    u: np.ndarray  # (N, 3)
    residuals: dict
    iterations: int
    residual_history: list  # preconditioned residual norm / |rhs|, per iteration
    timings: dict
    rcond: Optional[float] = None  # no condition estimate; bench/workloads.py reads it


def _as_nodal(values, pts) -> np.ndarray:
    if callable(values):
        return np.asarray(values(pts), dtype=float).reshape(len(pts), 3)
    arr = np.asarray(values, dtype=float)
    if arr.shape != (len(pts), 3):
        raise ValueError("nodal data must have shape (n_nodes, 3)")
    return arr


def build_rhs(opr: DiscreteOperator, b, g) -> np.ndarray:
    """Right-hand side: body force at interior nodes, zero on the extended
    interface (the nonlocal interface condition), prescribed values on the
    constraint collar."""
    grid = opr.grid
    rhs = np.zeros((grid.n_nodes, 3))
    interior = grid.tags == NodeTag.INTERIOR
    if b is not None:
        rhs[interior] = _as_nodal(b, grid.points)[interior]
    cons = grid.tags == NodeTag.CONSTRAINT
    rhs[cons] = _as_nodal(g, grid.points)[cons]
    return rhs.reshape(-1)


def solve_equilibrium(opr: DiscreteOperator, b, g) -> SolveResult:
    """Solve the collocation system by Jacobi-preconditioned GMRES.

    Constraint values are eliminated first (their rows are identity), so
    GMRES runs on the sparse free-node block; no dense block is formed and
    nothing is factored.  The preconditioner divides by the block's diagonal.
    GMRES restarts every 200 iterations, makes at most 1000, and stops when
    the free residual is at most 1e-12 of the free right-hand side.
    ``residual_history`` holds the relative residual GMRES reports after each
    iteration: the preconditioned residual norm over the right-hand side's.

    Raises ``np.linalg.LinAlgError`` (singular or ill-conditioned) when a
    diagonal entry of the free block is zero or not finite, or when GMRES
    does not reach the target.
    """
    grid = opr.grid
    rhs = build_rhs(opr, b, g)
    t0 = time.perf_counter()
    free = np.flatnonzero(grid.tags != NodeTag.CONSTRAINT)
    free3 = (3 * free[:, None] + np.arange(3)[None, :]).reshape(-1)
    # prescribed values on constraint dofs, zeros on free ones
    u = rhs.copy()
    u[free3] = 0.0
    a_f = opr.matrix[free3]
    rhs_f = rhs[free3] - a_f @ u
    a_ff = a_f[:, free3]
    t1 = time.perf_counter()

    diag = a_ff.diagonal()
    if not np.all(np.isfinite(diag) & (diag != 0.0)):
        raise np.linalg.LinAlgError(
            "collocation matrix is singular or ill-conditioned "
            "(zero or non-finite diagonal entry in the free block)")
    jacobi = LinearOperator(a_ff.shape, matvec=lambda x: x / diag, dtype=float)
    history = []
    u_f, info = gmres(a_ff, rhs_f, rtol=_GMRES_RTOL, atol=0.0,
                      restart=_GMRES_RESTART, maxiter=_GMRES_CYCLES, M=jacobi,
                      callback=history.append, callback_type="pr_norm")
    if info != 0:
        raise np.linalg.LinAlgError(
            f"collocation matrix is singular or ill-conditioned (GMRES info "
            f"{info}, {len(history)} iterations)")
    u[free3] = u_f
    t2 = time.perf_counter()

    u = u.reshape(-1, 3)
    residuals = residual_check(opr, u, b, g)
    return SolveResult(u=u, residuals=residuals, iterations=len(history),
                       residual_history=history,
                       timings={"extract_s": t1 - t0, "solve_s": t2 - t1})


def residual_check(opr: DiscreteOperator, u: np.ndarray, b, g) -> dict:
    """Residual norms of the full system split by node tag."""
    grid = opr.grid
    r = (opr.matrix @ np.asarray(u, dtype=float).reshape(-1)
         - build_rhs(opr, b, g)).reshape(-1, 3)
    out = {}
    for tag in NodeTag:
        sel = grid.tags == tag
        if not sel.any():
            out[tag.name.lower()] = {"l2": 0.0, "max": 0.0}
            continue
        rn = np.linalg.norm(r[sel], axis=1)
        out[tag.name.lower()] = {"l2": float(np.sqrt(np.mean(rn**2))),
                                 "max": float(rn.max())}
    return out
