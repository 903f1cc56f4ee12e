"""Meshfree collocation and direct solve of the equilibrium interface system.

Nodes are lattice points of an axis-aligned box, each owning a cubic cell of
volume h^3.  Integrals become midpoint sums over neighbor cells with a
partial-volume factor for cells straddling the interaction sphere (computed
once per lattice offset by 4^3 subsampling).  The composed double-integral
terms are assembled as products of two single-integral sparse matrices.

Displacements are prescribed on a constraint collar of width at least two
horizons (volume constraints standing in for boundary conditions); rows of
extended-interface nodes carry the corrected operator with zero right-hand
side, realizing the nonlocal interface condition.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

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


def _block_coo(rows, cols, blocks, n_dofs):
    """COO triplets for 3x3 blocks at (row, col) node pairs."""
    nr = len(rows)
    i = (3 * np.asarray(rows))[:, None, None] + np.arange(3)[None, :, None]
    j = (3 * np.asarray(cols))[:, None, None] + np.arange(3)[None, None, :]
    return sp.coo_matrix(
        (np.asarray(blocks).reshape(-1), (np.broadcast_to(i, (nr, 3, 3)).reshape(-1),
                                          np.broadcast_to(j, (nr, 3, 3)).reshape(-1))),
        shape=(n_dofs, n_dofs))


def assemble(grid: BoxGrid, material: Material) -> DiscreteOperator:
    """Assemble the corrected-operator collocation matrix.

    Interior rows carry the state operator, extended-interface rows add the
    correction terms, constraint rows are identity.  The nested dilatational
    and normal-projected terms are assembled as products of single-integral
    matrices (inner divergence integral times outer kernel integral).

    Each term is built once and the terms are added in a fixed order: the
    bond blocks (state part on free rows, frozen-modulus correction on
    extended rows, identity on constraint rows), then the dilatational term,
    its extra quarter on extended rows, then the normal-projected term.  The
    result is canonical CSR: sorted indices, no duplicates, no stored zeros.
    """
    n = grid.n_nodes
    ndofs = 3 * n
    h, delta = grid.h, grid.delta
    m = ball_volume(delta)
    pts = grid.points
    lam, mu = material.lame_at(pts)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (n,))
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (n,))

    offs, frac = _offset_fractions(h, delta)
    w_vol = frac * h**3
    xi = h * offs.astype(float)
    r2 = np.einsum("ki,ki->k", xi, xi)
    bond_kern = np.einsum("ki,kj->kij", xi, xi) / (r2**2)[:, None, None]
    dir_kern = xi / r2[:, None]  # both the outer and inner single kernels

    strides = np.array([grid.shape[1] * grid.shape[2], grid.shape[2], 1])
    idx3 = np.stack(np.meshgrid(*[np.arange(s) for s in grid.shape],
                                indexing="ij"), axis=-1).reshape(-1, 3)
    off_flat = offs @ strides

    free = np.flatnonzero(grid.tags != NodeTag.CONSTRAINT)
    ext = np.flatnonzero(grid.tags == NodeTag.EXTENDED_INTERFACE)
    cons = np.flatnonzero(grid.tags == NodeTag.CONSTRAINT)
    reach = _stencil_reach(h, delta)
    inner_ok = np.all((idx3 >= reach) & (idx3 <= np.array(grid.shape) - 1 - reach),
                      axis=1)
    inner_rows = np.flatnonzero(inner_ok)

    # bond blocks (F, K, 3, 3) acting as differences: the state part with
    # weight mu(x) + mu(y), and the correction with the frozen weight mu(x),
    # negated, on extended rows (zero weight elsewhere)
    wk = (15.0 / m) * w_vol
    cols = free[:, None] + off_flat[None, :]
    state = (wk * (mu[free, None] + mu[cols]))[:, :, None, None] * bond_kern
    frozen = np.where(grid.tags[free] == NodeTag.EXTENDED_INTERFACE, mu[free], 0.0)
    corr = -(wk * frozen[:, None])[:, :, None, None] * bond_kern
    diag = np.zeros((len(free), 3, 3))
    for part in (state, corr):
        for k in range(len(offs)):
            diag -= part[:, k]
    matrix = _block_coo(
        np.concatenate([np.repeat(free, len(offs)), free, cons]),
        np.concatenate([cols.reshape(-1), free, cons]),
        np.concatenate([(state + corr).reshape(-1, 3, 3), diag,
                        np.broadcast_to(np.eye(3), (len(cons), 3, 3))]),
        ndofs).tocsr()

    # inner divergence matrix: (N, 3N), rows where the full stencil exists
    g_rows = np.repeat(inner_rows, len(offs))
    g_cols = (inner_rows[:, None] + off_flat[None, :]).reshape(-1)
    g_vals = np.broadcast_to(w_vol[None, :, None] * dir_kern[None, :, :],
                             (len(inner_rows), len(offs), 3)).reshape(-1)
    g_cols3 = (3 * g_cols[:, None] + np.arange(3)[None, :]).reshape(-1)
    g_rows3 = np.repeat(g_rows, 3)
    G = sp.coo_matrix((g_vals, (g_rows3, g_cols3)), shape=(n, ndofs)).tocsr()

    # outer kernel matrices (3N, N): rows free / extended as needed
    def outer_vector(rows, node_weight, scale=9.0 / m**2):
        """D[3x+i, y] = scale w_k node_weight(y) dir_kern_k,i for y = x + k."""
        cols = (rows[:, None] + off_flat[None, :]).reshape(-1)
        if not np.all(inner_ok[cols]):
            raise AssertionError("outer stencil references an incomplete inner row")
        vals = (w_vol[None, :, None] * dir_kern[None, :, :]
                * node_weight[cols].reshape(len(rows), len(offs))[:, :, None])
        rows3 = (3 * np.repeat(rows, len(offs))[:, None]
                 + np.arange(3)[None, :]).reshape(-1)
        cols3 = np.repeat(cols, 3)
        return sp.coo_matrix((scale * vals.reshape(-1), (rows3, cols3)),
                             shape=(ndofs, n)).tocsr()

    c_coef = lam - mu
    if np.any(c_coef != 0.0):
        dil = outer_vector(free, c_coef) @ G
        # extended rows carry an extra quarter of the dilatational term
        quarter = np.repeat(np.where(grid.tags == NodeTag.EXTENDED_INTERFACE,
                                     0.25, 0.0), 3)
        matrix = matrix + dil + sp.diags(quarter) @ dil

    # normal-projected correction on extended rows:
    # (5/4)(9/m^2) W[x, z] (n (x) n) with W = sum_axis Q_axis S_axis
    if len(ext) and isinstance(material, TwoPhaseMaterial):
        normal = material.interface.normal
        q = outer_vector(ext, mu, scale=1.0)
        w_scalar = sum(q[axis::3] @ G[:, axis::3] for axis in range(3))
        w_scalar = (1.25 * 9.0 / m**2) * w_scalar
        matrix = matrix + sp.kron(w_scalar, np.outer(normal, normal))

    # a block build keeps exact zeros that a sparse sum would drop, and a sum
    # with an unsorted product leaves its indices unsorted
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return DiscreteOperator(grid=grid, material=material, matrix=matrix,
                            offsets=offs, fractions=frac)


@dataclass
class SolveResult:
    u: np.ndarray  # (N, 3)
    residuals: dict
    rcond: float
    timings: dict


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


def solve_equilibrium(opr: DiscreteOperator, b, g,
                      rcond_floor: float = 1e-14) -> SolveResult:
    """Direct dense factorization of the collocation system.

    Constraint values are eliminated first (their rows are identity), so the
    factorization runs on the free-node block; the result is identical to
    solving the full system.  Raises on an ill-conditioned block, reporting
    the reciprocal condition estimate.
    """
    grid = opr.grid
    rhs = build_rhs(opr, b, g)
    t0 = time.perf_counter()
    free = np.flatnonzero(grid.tags != NodeTag.CONSTRAINT)
    free3 = (3 * free[:, None] + np.arange(3)[None, :]).reshape(-1)
    cons3 = np.setdiff1d(np.arange(3 * grid.n_nodes), free3)
    a_f = opr.matrix[free3]
    a_ff = a_f[:, free3].toarray()
    rhs_f = rhs[free3] - a_f[:, cons3] @ rhs[cons3]
    t1 = time.perf_counter()

    anorm = np.abs(a_ff).sum(axis=0).max()
    lu, piv = lu_factor(a_ff)
    gecon = get_lapack_funcs(("gecon",), (a_ff,))[0]
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond < rcond_floor:
        raise np.linalg.LinAlgError(
            f"collocation matrix is singular or ill-conditioned "
            f"(reciprocal condition estimate {rcond:.3e})")
    u_f = lu_solve((lu, piv), rhs_f)
    t2 = time.perf_counter()

    u = np.empty(3 * grid.n_nodes)
    u[free3] = u_f
    u[cons3] = rhs[cons3]
    u = u.reshape(-1, 3)
    residuals = residual_check(opr, u, b, g)
    return SolveResult(u=u, residuals=residuals, rcond=float(rcond),
                       timings={"extract_s": t1 - t0, "factor_solve_s": t2 - t1})


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
