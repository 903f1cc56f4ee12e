"""Deterministic quadrature over balls and half-balls with singular kernels.

The rules are product Gauss rules in spherical coordinates: Gauss-Legendre in
the radius on (0, 1], Gauss-Legendre in the polar cosine, and a uniform
(trapezoidal) rule in the azimuth.  The ``r^2`` radial Jacobian is folded into
the weights, so a kernel ``1/|z|^k`` with ``k <= 2`` leaves a radially smooth
integrand and no singularity treatment is needed: integrands that are
polynomial in the node coordinates times ``1/|z|^k`` are integrated to
machine precision.

A half-ball rule is built for a given unit normal: its reference nodes are
rotated once, at build, so the flat face is perpendicular to the normal.

A rule's arrays are read-only, because every evaluation and every thread
that reads a rule shares it.

Tensors are plain ``numpy`` arrays of shape (3,), (3, 3), (3, 3, 3) and
(3, 3, 3, 3); the aliases below name them in signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

Vec3 = np.ndarray
Mat3 = np.ndarray
Tensor3 = np.ndarray
Tensor4 = np.ndarray

IDENTITY = np.eye(3)

E3 = np.array([0.0, 0.0, 1.0])

DEFAULT_RADIAL_ORDER = 8
DEFAULT_ANGULAR_ORDER = 12

UNIT_BALL_VOLUME = 4.0 * np.pi / 3.0


def ball_volume(delta: float) -> float:
    """Volume of a ball of radius ``delta``."""
    return UNIT_BALL_VOLUME * delta**3


def _check_unit_normal(n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise ValueError("normal must be a unit 3-vector")
    return n


def rotation_to_pole(n: Vec3) -> Mat3:
    """Rotation matrix R with R n = (0, 0, 1).

    Built from the spherical angles of ``n``, with the azimuth set to zero
    when ``n`` is parallel to the polar axis.  The inverse is the transpose.
    """
    n = _check_unit_normal(n)
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])  # atan2(0, 0) = 0 at the poles
    cp, sp = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [cp * ct, sp * ct, -st],
            [-sp, cp, 0.0],
            [cp * st, sp * st, ct],
        ]
    )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _spherical_product_nodes(radial_order, angular_order, cos_lo, cos_hi):
    """Nodes/weights of the product rule with polar cosine in (cos_lo, cos_hi)."""
    if radial_order < 1 or angular_order < 1:
        raise ValueError("quadrature orders must be >= 1")
    tr, wr = leggauss(radial_order)
    r = 0.5 * (tr + 1.0)
    wr = 0.5 * wr * r**2  # radial Jacobian folded in
    tc, wc = leggauss(angular_order)
    half = 0.5 * (cos_hi - cos_lo)
    c = cos_lo + half * (tc + 1.0)
    wc = half * wc
    n_azim = 2 * angular_order
    phi = 2.0 * np.pi * np.arange(n_azim) / n_azim
    wphi = np.full(n_azim, 2.0 * np.pi / n_azim)

    s = np.sqrt(np.maximum(0.0, 1.0 - c**2))
    # direction grid: polar index slow, azimuth fast
    dirs = np.empty((angular_order, n_azim, 3))
    dirs[:, :, 0] = s[:, None] * np.cos(phi)[None, :]
    dirs[:, :, 1] = s[:, None] * np.sin(phi)[None, :]
    dirs[:, :, 2] = c[:, None]
    dirs = dirs.reshape(-1, 3)
    wdir = (wc[:, None] * wphi[None, :]).reshape(-1)

    points = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    weights = (wr[:, None] * wdir[None, :]).reshape(-1)
    return points, weights


@dataclass(frozen=True)
class BallQuadrature:
    """Quadrature rule on the unit ball (weights sum to 4*pi/3) or on a half
    ball {|z| < 1, z . normal > 0} (weights sum to 2*pi/3)."""

    radial_order: int
    angular_order: int
    points: np.ndarray  # (n, 3), all strictly inside the punctured unit ball
    weights: np.ndarray  # (n,), all positive

    def __post_init__(self):
        # read-only views: a rule serves every evaluation that reads it
        for name in ("points", "weights"):
            object.__setattr__(self, name, _read_only(getattr(self, name).view()))

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def square_norms(self) -> np.ndarray:
        """|z|^2 of each node (n,), which every singular kernel divides by;
        computed once per rule."""
        return _read_only(np.einsum("qi,qi->q", self.points, self.points))

    @cached_property
    def outer_weights(self) -> np.ndarray:
        """z/|z|^2 of each node (n, 3), the outer nodes' weights of a nested
        pass; computed once per rule."""
        return _read_only((self.points.T / self.square_norms).T)

    @property
    def nbytes(self) -> int:
        """Bytes of the rule's arrays, the cached ones included."""
        return sum(a.nbytes for a in vars(self).values() if isinstance(a, np.ndarray))


def ball_rule_size(radial_order: int, angular_order: int,
                   split: bool = False) -> int:
    """Node count of :func:`build_ball_rule`, or with ``split`` of
    :func:`build_split_ball_rule`, without building the rule."""
    return (2 if split else 1) * 2 * radial_order * angular_order**2


def build_ball_rule(radial_order: int = DEFAULT_RADIAL_ORDER,
                    angular_order: int = DEFAULT_ANGULAR_ORDER) -> BallQuadrature:
    """Rule on the unit ball."""
    points, weights = _spherical_product_nodes(radial_order, angular_order, -1.0, 1.0)
    return BallQuadrature(radial_order, angular_order, points, weights)


def build_half_ball_rule(normal: Vec3,
                         radial_order: int = DEFAULT_RADIAL_ORDER,
                         angular_order: int = DEFAULT_ANGULAR_ORDER) -> BallQuadrature:
    """Rule on the half ball {|z| < 1, z . normal > 0}: the reference nodes
    on {z_3 > 0}, rotated once so they fill that side."""
    points, weights = _spherical_product_nodes(radial_order, angular_order, 0.0, 1.0)
    return BallQuadrature(radial_order, angular_order,
                          points @ rotation_to_pole(normal), weights)  # R^T z, as rows


def build_split_ball_rule(normal: Vec3,
                          radial_order: int = DEFAULT_RADIAL_ORDER,
                          angular_order: int = DEFAULT_ANGULAR_ORDER) -> BallQuadrature:
    """Full-ball rule assembled from two half-ball rules split by a plane.

    The upper half is a proper Gauss rule on {z . normal > 0}; the lower half
    is its point reflection, so the rule is exactly antipodally symmetric.
    Used when integrands are smooth on each side of a plane through the ball
    center but kinked across it, where a plain ball rule loses accuracy.
    """
    half = build_half_ball_rule(normal, radial_order, angular_order)
    points = np.concatenate([half.points, -half.points])
    weights = np.concatenate([half.weights, half.weights])
    return BallQuadrature(radial_order, angular_order, points, weights)


def _weighted_sum(weights, values):
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("integrand produced a non-finite value at a quadrature node")
    return np.tensordot(weights, values, axes=(0, 0))


def integrate_ball(rule: BallQuadrature, delta: float, center: Vec3, f):
    """Integral of ``f`` over the ball of radius ``delta`` around ``center``.

    ``f`` must be vectorized: it receives all scaled nodes as an (n, 3) array
    and returns an (n, ...) array.  Scalar, vector and tensor valued
    integrands are all supported through the trailing shape.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    pts = np.asarray(center, dtype=float) + delta * rule.points
    return delta**3 * _weighted_sum(rule.weights, f(pts))


def second_moment(rule: BallQuadrature, delta: float) -> Mat3:
    """integral over B_delta(0) of z (x) z / |z|^2; equals |B_delta|/3 times I."""
    z = rule.points
    return delta**3 * np.einsum("q,qi,qj->ij", rule.weights / rule.square_norms, z, z)


def third_moment(rule: BallQuadrature, delta: float) -> Tensor3:
    """integral over B_delta(0) of z (x) z (x) z / |z|^4; zero by symmetry."""
    z = rule.points
    r4 = rule.square_norms ** 2
    return delta**2 * np.einsum("q,qi,qj,qk->ijk", rule.weights / r4, z, z, z)


def fourth_moment(rule: BallQuadrature) -> Tensor4:
    """(30/|B_delta|) integral of z_i z_j z_k z_l / |z|^4 over B_delta(0).

    Independent of delta; entries are 6 where all indices agree, 2 where
    the indices form two distinct pairs, 0 otherwise.
    """
    z = rule.points
    r4 = rule.square_norms ** 2
    raw = np.einsum("q,qi,qj,qk,ql->ijkl", rule.weights / r4, z, z, z, z)
    return (30.0 / UNIT_BALL_VOLUME) * raw


def half_ball_third_moment_numeric(rule: BallQuadrature, delta: float) -> Tensor3:
    """(1/|B_delta|) integral of z (x) z (x) z / |z|^4 over the half-ball
    {z . normal > 0} of radius delta that the half-ball ``rule`` fills.

    The integrand is homogeneous of degree -1, so the result is exactly
    ``1/delta`` times a delta-independent tensor; see
    :func:`peridyn.operators.half_ball_moment_tensor` for its closed form.
    """
    p = rule.points
    r4 = rule.square_norms ** 2
    raw = np.einsum("q,qi,qj,qk->ijk", rule.weights / r4, p, p, p)
    return raw / (UNIT_BALL_VOLUME * delta)


def half_ball_first_moment(rule: BallQuadrature) -> Vec3:
    """(3 delta/|B_delta|) integral of (y - x)/|y - x|^2 over the half-ball
    {(y - x) . normal > 0} of radius delta around x that the half-ball
    ``rule`` fills.

    Independent of delta for a planar split; equals (9/8) normal.
    """
    p = rule.points
    raw = np.einsum("q,qi->i", rule.weights / rule.square_norms, p)
    return (3.0 / UNIT_BALL_VOLUME) * raw
