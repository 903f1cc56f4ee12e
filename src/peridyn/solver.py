"""Meshfree collocation and Krylov solve of the equilibrium interface system.

Nodes are lattice points of an axis-aligned box, each owning a cubic cell of
volume h^3.  Integrals become midpoint sums over neighbor cells with a
partial-volume factor for cells straddling the interaction sphere (computed
once per lattice offset by 4^3 subsampling).  Each sum is a correlation with
a fixed lattice stencil and the moduli enter as pointwise products, so the
operator is applied by FFT (Jafarzadeh, Larios & Bobaru 2020); no matrix is
assembled.

Displacements are prescribed on a constraint collar of width at least two
horizons (volume constraints standing in for boundary conditions); rows of
extended-interface nodes carry the corrected operator with zero right-hand
side, realizing the nonlocal interface condition.

The action runs in its transform layout (``DiscreteOperator``): fields are
scattered into a zero buffer of the transform shape, the stencils' spectra are
real or imaginary and kept as one real array each, one application transforms
23 fields in four stages, and only the non-constraint rows are read back.

The free-node block is solved by restarted GMRES (Saad & Schultz 1986),
preconditioned by the inverse of its closed-form diagonal (Jacobi).  GMRES
applies the block on a window, the free nodes' bounding box widened by one
stencil reach, whose transforms are shorter than the lattice's; the window is
wide enough that no free row sees a wrapped value (``DiscreteOperator``).  A
zero or non-finite diagonal entry, or a run that misses the residual target,
is refused as singular or ill-conditioned.  The Krylov loop (``_gmres``) is
this module's own, in numpy, so neither importing the module nor solving
loads scipy's sparse stack.
"""

from __future__ import annotations

import enum
import functools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("box corners must be finite")
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"grid spacing h must be positive and finite, got {h!r}")
    if not horizon_ratio > 1:  # also refuses NaN
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

    tags = np.where(free, NodeTag.INTERIOR, NodeTag.CONSTRAINT).astype(np.int8)
    if interface is not None:
        tags[free & (np.abs(interface.signed_distance(pts)) < delta)] = \
            NodeTag.EXTENDED_INTERFACE
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


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy.fft transforms fast."""
    k = range(n.bit_length() + 1)
    return min(m for m in (2**a * 3**b * 5**c for a in k for b in k for c in k) if m >= n)


def _dot(a, b):
    """sum_j a[j] b[j], accumulated in place."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


@dataclass(frozen=True)
class DiscreteOperator:
    """The 3N x 3N collocation operator, applied matrix-free by FFT.

    Its terms are correlations (S * f)(x) = sum_k S_k f(x + k) with the bond
    stencil S_k = (15/m) w_k xi_k xi_k^T / |xi_k|^4 and the direction stencil
    d_k = w_k xi_k / |xi_k|^2 (xi_k = h k, w_k = fraction_k h^3), each a
    product of spectra.  S and d_i^2 are even stencils, so their spectra are
    real, and d is odd, so its spectrum is imaginary: one real array holds
    each.  Fields live in the transform layout, the lattice at the low corner
    of a zero buffer of ``fft_shape``, and are read back only at the
    non-constraint rows, whose coefficients are built once (``_rows``).  One
    application (``_apply``) transforms 23 fields, at most three per call:
    forward v, mu v; inverse S * v, g = d . * v, M = d * (n . v); forward
    c g, mu M (c = lambda - mu); inverse S * (mu v) + (9/m^2) d * (c g) and
    the extended rows' part (9/4m^2) d * (c g) + (45/4m^2) n (d . * (mu M)),
    masked to those rows.  Where lambda = mu, g is skipped and that part is
    n times one field (19 fields).  Free rows read only nodes of the box (the
    collar is two stencil reaches wide), so the transforms' wrap-around
    reaches no value a free row uses.

    ``free_action`` applies the free block alone on a smaller lattice, the
    ``window``: the free nodes' bounding box widened on each side by the
    stencil's reach r, with the moduli sliced to it and zero-padded to fast
    transform lengths of its own.  No value a free row uses is aliased.
    With F free nodes along an axis, the window has F + 2r, and a free row
    reads the field and the moduli at most r nodes away: inside the window,
    with no wrap-around.  A two-hop term's intermediate (the inner sum) is
    read only on the window, where it is multiplied by the sliced moduli;
    outside the window it meets zero-padded moduli.  On the window it reads
    the field up to r nodes beyond it, and a transform length L >= F + 2r
    wraps those positions onto the padding or the window's rim, outside the
    free box, where the field is zero as it is at the positions they stand
    for.
    """

    grid: BoxGrid
    material: Material
    offsets: np.ndarray
    fractions: np.ndarray
    lam: np.ndarray  # nodal moduli, on the lattice shape
    mu: np.ndarray
    fft_shape: tuple
    bond_hat: np.ndarray  # (3, 3, *spectrum): S, real
    dir_hat: np.ndarray  # (3, *spectrum): d / i, real

    def _on_layout(self, f: np.ndarray) -> np.ndarray:
        """``f`` (..., *grid.shape) at the low corner of a zero buffer of
        ``fft_shape``."""
        s0, s1, s2 = self.grid.shape
        out = np.zeros(f.shape[:-3] + self.fft_shape)
        out[..., :s0, :s1, :s2] = f
        return out

    def _inverse(self, spec: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """The inverse transform of ``spec`` read at the flat positions ``pos``."""
        f = np.fft.irfftn(spec, s=self.fft_shape, axes=(-3, -2, -1))
        return f.reshape(f.shape[:-3] + (-1,))[..., pos]

    @functools.cached_property
    def _rows(self):
        """The rows' flat positions on the layout and extended-row mask;
        a = mu, and 0 on extended rows, where the frozen-modulus correction
        removes mu(x); a sum S + S * mu as (3, 3, rows); mu and c on the
        layout (c None where lambda = mu); and n (None without the
        normal-projected term)."""
        grid = self.grid
        rows = grid.tags != NodeTag.CONSTRAINT
        pos = np.ravel_multi_index(np.indices(grid.shape).reshape(3, -1)[:, rows],
                                   self.fft_shape)
        ext = grid.tags[rows] == NodeTag.EXTENDED_INTERFACE
        mu, c = self._on_layout(self.mu), self.lam - self.mu
        c = self._on_layout(c) if c.any() else None
        a = np.where(ext, 0.0, mu.reshape(-1)[pos])
        mu_hat = np.fft.rfftn(mu)
        bond_self = np.stack([self._inverse(s * mu_hat, pos) for s in self.bond_hat])
        # the zero frequency of a stencil's spectrum is the sum of its values
        bond_self += a * self.bond_hat[..., 0, 0, :1]
        normal = (self.material.interface.normal if ext.any()
                  and isinstance(self.material, TwoPhaseMaterial) else None)
        return pos, ext, a, bond_self, mu, c, normal

    def _apply(self, v: np.ndarray) -> np.ndarray:
        """The rows of the action, (rows, 3), on a field ``v`` laid out for
        the transforms, (3, *fft_shape); see the class docstring."""
        pos, ext, a, bond_self, mu, c, normal = self._rows
        m2 = ball_volume(self.grid.delta) ** 2
        s, d, axes = self.bond_hat, self.dir_hat, (-3, -2, -1)
        v_hat = np.fft.rfftn(v, axes=axes)
        # S is symmetric, so S v = sum_j S[j] v[j]; d's spectrum is i d
        sw = _dot(s, np.fft.rfftn(mu * v, axes=axes))
        out = (a * self._inverse(_dot(s, v_hat), pos)
               - np.einsum("ijr,jr->ir", bond_self, v.reshape(3, -1)[:, pos]))
        if c is not None:
            g = np.fft.irfftn(1j * _dot(d, v_hat), s=self.fft_shape, axes=axes)
            dcg_hat = d * ((9j / m2) * np.fft.rfftn(c * g))
            sw += dcg_hat
            ext_hat = 0.25 * dcg_hat
        if normal is not None:
            big_m = np.fft.irfftn(d * (1j * _dot(normal, v_hat)), s=self.fft_shape, axes=axes)
            p_hat = (45j / (4.0 * m2)) * _dot(d, np.fft.rfftn(mu * big_m, axes=axes))
            if c is None:  # the extended rows' part is n times one field
                out += ext * normal[:, None] * self._inverse(p_hat, pos)
            else:
                ext_hat += normal[:, None, None, None] * p_hat
        out += self._inverse(sw, pos)
        if c is not None and ext.any():
            out += ext * self._inverse(ext_hat, pos)
        return out.T

    def action(self, nodal: np.ndarray) -> np.ndarray:
        """Action on a nodal (N, 3) field v, with c = lambda - mu:
        a (S * v) + S * (mu v) - (a sum S + S * mu) v + dil_w d * (c (d . * v))
        + proj_w n (d . * (mu d * (n . v))), with dil_w = (9/m^2)(1 + [ext]/4)
        and proj_w = (45/4m^2)[ext]; constraint rows return v."""
        nodal = np.asarray(nodal, dtype=float).reshape(-1, 3)
        rows = self.grid.tags != NodeTag.CONSTRAINT
        out = nodal.copy()
        out[rows] = self._apply(self._on_layout(nodal.T.reshape(3, *self.grid.shape)))
        return out

    @functools.cached_property
    def window(self) -> "DiscreteOperator":
        """The operator on the free nodes' bounding box widened by the
        stencil's reach, on transform lengths of its own (see the class
        docstring); its free nodes are this operator's, in the same order."""
        return self._on_free_box(widen=int(np.abs(self.offsets).max()))

    def _on_free_box(self, widen: int) -> "DiscreteOperator":
        """The operator on the free nodes' bounding box widened by ``widen``
        nodes on each side, zero-padded to fast transform lengths."""
        grid = self.grid
        free = np.argwhere((grid.tags != NodeTag.CONSTRAINT).reshape(grid.shape))
        lo, hi = free.min(axis=0) - widen, free.max(axis=0) + widen + 1
        shape = tuple(int(n) for n in hi - lo)
        fft_shape = tuple(_fft_length(n) for n in shape)
        if (np.any(lo < 0) or np.any(hi > np.array(grid.shape))
                or np.any(np.array(fft_shape) < np.ptp(free, axis=0) + 1 + 2 * widen)):
            raise AssertionError("the free window leaves the lattice or its "
                                 "transforms are shorter than F + 2r")
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        points, tags = (a.reshape(grid.shape + a.shape[1:])[box].reshape(
            (-1,) + a.shape[1:]) for a in (grid.points, grid.tags))
        window = BoxGrid(lo=points[0], hi=points[-1], h=grid.h, shape=shape,
                         points=points, tags=tags, horizon_ratio=grid.horizon_ratio,
                         interface=grid.interface)
        return _operator(window, self.material, self.offsets, self.fractions,
                         self.lam[box], self.mu[box], fft_shape)

    def free_action(self, x: np.ndarray) -> np.ndarray:
        """The free block's action on free values ``x``, ordered like
        ``u[free]``, as (n_free, 3): the window's rows of a field that is
        ``x`` on the free nodes and zero on the collar."""
        window = self.window
        x = np.asarray(x, dtype=float).reshape(-1, 3)
        v = np.zeros((3, *window.fft_shape))
        v.reshape(3, -1)[:, window._rows[0]] = x.T  # at the rows' flat positions
        return window._apply(v)

    def diagonal(self) -> np.ndarray:
        """The diagonal as (N, 3), in closed form since d_{-k} = -d_k:
        -(a sum S + S * mu)_ii - dil_w (d_i^2 * c) - proj_w n_i^2 (|d|^2 * mu),
        and 1 on constraint rows."""
        pos, ext, _, bond_self, mu, c, normal = self._rows
        m2 = ball_volume(self.grid.delta) ** 2
        diag = -np.einsum("iir->ir", bond_self)
        if c is not None or normal is not None:
            # d_i^2 is even, so its spectrum is real; only the diagonal reads it
            _, dirs = _stencils(self.offsets, self.fractions, self.grid.h, self.grid.delta)
            sq_hat = np.array([s.real for s in _spectra(self.offsets, (dirs**2).T,
                                                        self.fft_shape)])
        if c is not None:
            diag -= ((9.0 / m2) * np.where(ext, 1.25, 1.0)
                     * self._inverse(sq_hat * np.fft.rfftn(c), pos))
        if normal is not None:
            diag -= ((45.0 / (4.0 * m2)) * ext * normal[:, None] ** 2
                     * self._inverse(sq_hat.sum(axis=0) * np.fft.rfftn(mu), pos))
        out = np.ones((self.grid.n_nodes, 3))
        out[self.grid.tags != NodeTag.CONSTRAINT] = diag.T
        return out


def _stencils(offsets, fractions, h: float, delta: float):
    """The values at the offsets of the bond stencil S, (K, 9) row-major,
    and of the direction stencil d, (K, 3)."""
    w_vol = fractions * h**3
    xi = h * offsets.astype(float)
    r2 = np.einsum("ki,ki->k", xi, xi)
    bond = (((15.0 / ball_volume(delta)) * w_vol / r2**2)[:, None, None]
            * np.einsum("ki,kj->kij", xi, xi))
    return bond.reshape(-1, 9), w_vol[:, None] * (xi / r2[:, None])


def _spectra(offsets, kernels, fft_shape: tuple):
    """The complex spectra of ``kernels``, each a stencil's values at the
    offsets, zero-padded to ``fft_shape``, one kernel at a time, so the
    transform's work arrays are one kernel's."""
    # S_k sits at index (-k) mod n, so the inverse transform of its spectrum
    # times a field's is sum_k S_k f(x + k)
    kernel = np.zeros(fft_shape)
    at = tuple((-offsets % np.array(fft_shape)).T)
    for values in kernels:
        kernel[at] = values
        yield np.fft.rfftn(kernel)


def _operator(grid, material, offsets, fractions, lam, mu, fft_shape) -> DiscreteOperator:
    """The operator on ``grid`` with nodal moduli ``lam``, ``mu`` on its
    shape.  It keeps the real parts of the even stencil's spectra (S) and
    the imaginary parts of the odd one's (d)."""
    bond, dirs = _stencils(offsets, fractions, grid.h, grid.delta)
    parts = np.array([s.imag if k >= 9 else s.real for k, s in enumerate(
        _spectra(offsets, np.concatenate([bond, dirs], axis=1).T, fft_shape))])
    return DiscreteOperator(grid, material, offsets, fractions, lam, mu, fft_shape,
                            parts[:9].reshape(3, 3, *parts.shape[1:]), parts[9:])


def assemble(grid: BoxGrid, material: Material) -> DiscreteOperator:
    """The collocation operator on ``grid``: the state operator on interior
    rows, the corrected operator on extended-interface rows, identity on
    constraint rows.  Nothing is assembled: the operator keeps the nodal
    moduli and the stencils' spectra."""
    h, delta = grid.h, grid.delta
    free = np.argwhere((grid.tags != NodeTag.CONSTRAINT).reshape(grid.shape))
    hops = 2 * _stencil_reach(h, delta)
    if np.any(free < hops) or np.any(free >= np.array(grid.shape) - hops):
        raise AssertionError("a free row reads beyond the lattice in two hops")
    # the free window (DiscreteOperator.window) widens the free box by one
    # reach, so the check above keeps it inside the lattice; its own check
    # asserts transforms of at least F + 2r, for which it does not alias
    lam, mu = (np.broadcast_to(np.asarray(c, dtype=float), (grid.n_nodes,)).reshape(grid.shape)
               for c in material.lame_at(grid.points))
    return _operator(grid, material, *_offset_fractions(h, delta), lam, mu,
                     tuple(_fft_length(n) for n in grid.shape))


# GMRES: relative residual target, restart length and restart cycles (at most
# _GMRES_RESTART * _GMRES_CYCLES iterations)
_GMRES_RTOL = 1e-12
_GMRES_RESTART = 200
_GMRES_CYCLES = 5

# estimated peak bytes per lattice node of a solve: the GMRES basis, restart
# + 1 vectors of 3 doubles per node, and 100 doubles per node for the rest.
# tracemalloc over assemble and solve on box +-1.0 (the kinked patch on
# 3,1,5,2) put the rest, the peak less the basis of the free nodes, at 53
# doubles per node at h = 1/16 and 66 at h = 1/24, where 26% and 43% of the
# nodes are free; the basis term counts every node, free or not
SOLVE_BYTES_PER_NODE = 8 * (3 * (_GMRES_RESTART + 1) + 100)


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


def _gmres(apply, diag: np.ndarray, b: np.ndarray):
    """Restarted GMRES on ``apply`` x = ``b``, left-preconditioned by
    1 / ``diag`` (Saad & Schultz 1986).

    Each cycle builds a Krylov basis of the preconditioned operator by
    classical Gram-Schmidt done twice, two products against the basis per
    iteration, and tracks the least-squares residual by Givens rotations.  A
    cycle ends when that (preconditioned) residual reaches the target, at
    ``_GMRES_RESTART`` iterations, or on a lucky breakdown.  After it the
    true residual is checked against ``_GMRES_RTOL`` |b|; a miss tightens
    the target to the preconditioned residual scaled by the true residual's
    shortfall.  Returns x, info (0 on success, else the cycles run) and the
    preconditioned residual over |b| per iteration."""
    n = b.size
    restart = min(_GMRES_RESTART, n)
    x, history = np.zeros(n), []
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x, 0, history
    atol = _GMRES_RTOL * b_norm
    ptol = _GMRES_RTOL * float(np.linalg.norm(b / diag))
    eps = np.finfo(float).eps
    basis = np.empty((restart + 1, n))
    r = b
    for cycle in range(1, _GMRES_CYCLES + 1):
        z = r / diag
        basis[0] = z / np.linalg.norm(z)
        hess = np.zeros((restart, restart))  # the rotated Hessenberg matrix
        g = np.zeros(restart + 1)  # the rotated |z| e_1
        g[0] = np.linalg.norm(z)
        rot = []
        for j in range(restart):
            w = apply(basis[j]) / diag
            w_norm = np.linalg.norm(w)
            v = basis[:j + 1]
            col = v @ w
            w -= col @ v
            again = v @ w
            w -= again @ v
            col += again
            h_next = float(np.linalg.norm(w))
            breakdown = h_next <= eps * w_norm  # the Krylov space is exact
            if breakdown:
                h_next = 0.0
            else:
                np.divide(w, h_next, out=basis[j + 1])
            for k, (c, s) in enumerate(rot):
                col[k], col[k + 1] = c * col[k] + s * col[k + 1], c * col[k + 1] - s * col[k]
            mag = math.hypot(col[j], h_next)
            c, s = (col[j] / mag, h_next / mag) if mag else (1.0, 0.0)
            rot.append((c, s))
            col[j] = mag
            hess[:j + 1, j] = col
            g[j], g[j + 1] = c * g[j], -s * g[j]
            presid = abs(g[j + 1])
            history.append(presid / b_norm)
            if presid <= ptol:  # also on a breakdown, where presid is 0
                break
        k = j + 1 if hess[j, j] else j  # a zero pivot drops its direction
        x += np.linalg.solve(hess[:k, :k], g[:k]) @ basis[:k]
        r = b - apply(x)
        r_norm = float(np.linalg.norm(r))
        if r_norm <= atol:
            return x, 0, history
        if breakdown:
            break
        ptol = presid * atol / r_norm
    return x, cycle, history


def solve_equilibrium(opr: DiscreteOperator, b, g) -> SolveResult:
    """Solve the collocation system by Jacobi-preconditioned GMRES.

    The constraint values, applied by the operator, move to the right-hand
    side; GMRES (``_gmres``) runs on the free-node block through the
    operator's action, restarts every 200 iterations, makes at most 1000,
    and stops at a free residual of 1e-12 of the free right-hand side.
    ``residual_history`` holds the preconditioned residual norm over the
    right-hand side's, per iteration.  Raises ``np.linalg.LinAlgError``
    (singular or ill-conditioned) when a diagonal entry of the free block is
    zero or not finite, or when GMRES does not reach the target.
    """
    rhs = build_rhs(opr, b, g).reshape(-1, 3)
    t0 = time.perf_counter()
    free = opr.grid.tags != NodeTag.CONSTRAINT
    # prescribed values on constraint nodes, zeros on free ones
    u = rhs.copy()
    u[free] = 0.0
    rhs_f = (rhs - opr.action(u))[free].reshape(-1)
    t1 = time.perf_counter()

    diag = opr.diagonal()[free].reshape(-1)
    if not np.all(np.isfinite(diag) & (diag != 0.0)):
        raise np.linalg.LinAlgError(
            "collocation matrix is singular or ill-conditioned "
            "(zero or non-finite diagonal entry in the free block)")

    u_f, info, history = _gmres(lambda x: opr.free_action(x).reshape(-1), diag, rhs_f)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"collocation matrix is singular or ill-conditioned (GMRES info "
            f"{info}, {len(history)} iterations)")
    u[free] = u_f.reshape(-1, 3)
    t2 = time.perf_counter()

    residuals = residual_check(opr, u, b, g)
    return SolveResult(u=u, residuals=residuals, iterations=len(history),
                       residual_history=history,
                       timings={"extract_s": t1 - t0, "solve_s": t2 - t1,
                                "residual_s": time.perf_counter() - t2})


def residual_check(opr: DiscreteOperator, u: np.ndarray, b, g) -> dict:
    """Residual norms of the full system split by node tag."""
    grid = opr.grid
    r = opr.action(u) - build_rhs(opr, b, g).reshape(-1, 3)
    out = {}
    for tag in NodeTag:
        rn = np.linalg.norm(r[grid.tags == tag], axis=1)
        out[tag.name.lower()] = {"l2": float(np.sqrt(np.mean(rn**2))) if rn.size else 0.0,
                                 "max": float(rn.max(initial=0.0))}
    return out
