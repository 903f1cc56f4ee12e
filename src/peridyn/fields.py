"""Two-phase material models and piecewise-smooth manufactured vector fields.

All fields carry hand-differentiated closed-form derivatives and evaluate
vectorized: ``value`` maps points of shape (..., 3) to (..., 3), ``grad`` to
(..., 3, 3) with ``grad[..., i, j] = d u_i / d x_j``, and ``hessian`` to
(..., 3, 3, 3) with ``hessian[..., i, j, k] = d^2 u_i / d x_j d x_k``.

Conventions for a planar interface with unit normal n pointing from the minus
side into the plus side: points with nonnegative signed distance (the plus
region together with the interface itself) take the plus-side values.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import E3, IDENTITY, Mat3, Vec3


class SideTag(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class PlanarInterface:
    """An oriented plane: a point on it and the unit normal into the plus side."""

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        point = np.asarray(self.point, dtype=float)
        normal = np.asarray(self.normal, dtype=float)
        nrm = np.linalg.norm(normal)
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError("interface normal must be a unit vector")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "normal", normal / nrm)

    def signed_distance(self, x) -> np.ndarray:
        """Positive on the plus side, zero on the plane."""
        x = np.asarray(x, dtype=float)
        return (x - self.point) @ self.normal

    def side_of(self, x, out=None) -> np.ndarray:
        """Whether each point lies on the plus side, the plane included
        (signed distance >= 0), written to the bool array ``out`` if given."""
        return np.greater_equal(self.signed_distance(x), 0.0, out=out)


# a plane through the origin normal to the third axis; the default interface
# of the manufactured two-phase configurations
INTERFACE_Z = PlanarInterface(np.zeros(3), E3)


@dataclass(frozen=True, eq=False)
class Split:
    """How a closed form's shifted value separates into products::

        u(y + d)_i = sum_m F(y)_mi V(d)_mi,  V(d) = V(0) + W(d)

    with outer factors F(y) = (U(y), C).  ``outer(y, out)`` writes the m
    factors U(y) that depend on y, at points y (..., 3), into ``out``
    (..., m, 3), so that the reader decides where they are held, and
    ``constant`` holds the m_c factors C (m_c, 3) that do not, once, so
    that a reader need not copy them to every point.  The inner factors
    V, whose terms pair first with U's and then with C's, are declared as
    ``base``, V(0) (m + m_c, 3), and ``step(d, out)``, which writes W(d)
    at offsets d (..., 3) into ``out`` (..., m + m_c, 3), a C-contiguous
    array, without cancellation: d for a term linear in d, -2 sin^2(q/2)
    for cos q.  So both declared reads write into an array the reader
    passes.  And u(y) = sum_m F(y)_m V(0)_m, so the difference
    u(y + d) - u(y) = sum_m F(y)_m W(d)_m loses no digits to the size of
    u(y).
    """

    outer: Callable[[np.ndarray, np.ndarray], None]
    step: Callable[[np.ndarray, np.ndarray], None]
    base: np.ndarray
    constant: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros((0, 3)))

    def __post_init__(self):
        for name in ("base", "constant"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float).reshape(-1, 3))

    @property
    def terms(self) -> int:
        """m, the number of outer factors that depend on y."""
        return len(self.base) - len(self.constant)

    def factors(self, y) -> np.ndarray:
        """All m + m_c outer factors at points y (..., 3): U(y), then C."""
        f = np.empty(np.shape(y)[:-1] + self.base.shape)
        self.outer(y, f[..., :self.terms, :])
        f[..., self.terms:, :] = self.constant
        return f


@dataclass(frozen=True)
class AnalyticVectorField:
    """Closed-form vector field with supplied first and second derivatives.

    ``split`` declares how a shifted value separates into products (a
    :class:`Split`), so that the point operators read the field from rule
    sums (see :mod:`peridyn.operators`): the nested pass from the factors
    of u(y + d), the bond sums from those of u(y + d) - u(y).
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    split: Split = dataclasses.field(compare=False)


@dataclass(frozen=True)
class AnalyticScalarField:
    """Closed-form scalar field with supplied derivatives."""

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PiecewiseField:
    """Vector field with independent closed forms on each side of an interface.

    Without an interface the field is globally smooth and only the plus side
    is used.  With one, the field is required to be continuous across it
    (checked pointwise by the test suite, not at construction).
    """

    plus_side: AnalyticVectorField
    minus_side: AnalyticVectorField
    interface: Optional[PlanarInterface] = None

    @classmethod
    def smooth(cls, field: AnalyticVectorField) -> "PiecewiseField":
        return cls(field, field, None)

    def _side(self, side: SideTag) -> AnalyticVectorField:
        return self.plus_side if side is SideTag.PLUS else self.minus_side

    def value_on(self, x, side: SideTag) -> np.ndarray:
        return self._side(side).value(np.asarray(x, dtype=float))

    def grad_on(self, x, side: SideTag) -> np.ndarray:
        return self._side(side).grad(np.asarray(x, dtype=float))

    def hessian_on(self, x, side: SideTag) -> np.ndarray:
        return self._side(side).hessian(np.asarray(x, dtype=float))

    def value(self, x) -> np.ndarray:
        """u at points x (..., 3), each from the closed form of its side."""
        x = np.asarray(x, dtype=float)
        if self.interface is None or self.plus_side is self.minus_side:
            return self.plus_side.value(x)
        return np.where(self.interface.side_of(x)[..., None], self.plus_side.value(x),
                        self.minus_side.value(x))


@dataclass(frozen=True)
class TwoPhaseMaterial:
    """Piecewise-constant Lamé parameters separated by a planar interface.

    Points on the interface take the plus values.
    """

    lambda_plus: float
    mu_plus: float
    lambda_minus: float
    mu_minus: float
    interface: PlanarInterface

    def __post_init__(self):
        moduli = (self.lambda_plus, self.mu_plus, self.lambda_minus, self.mu_minus)
        if not np.all(np.isfinite(moduli)):
            raise ValueError("lambda and mu must be finite")
        if self.mu_plus <= 0 or self.mu_minus <= 0:
            raise ValueError("shear moduli must be positive")

    def lame_at(self, x):
        return self.lame_where(self.interface.side_of(x))

    def lame_where(self, plus):
        """(lambda, mu) at points whose sides the bool array ``plus`` gives,
        as :meth:`PlanarInterface.side_of` reads them."""
        lam = np.where(plus, self.lambda_plus, self.lambda_minus)
        mu = np.where(plus, self.mu_plus, self.mu_minus)
        return lam, mu

    def lame_on(self, side: SideTag):
        if side is SideTag.PLUS:
            return self.lambda_plus, self.mu_plus
        return self.lambda_minus, self.mu_minus

    def lame_grad_at(self, x):
        # piecewise constant: zero gradient on each side
        x = np.asarray(x, dtype=float)
        z = np.zeros(x.shape)
        return z, z


@dataclass(frozen=True)
class SmoothMaterial:
    """Lamé parameters given by smooth closed-form scalar fields."""

    lam: AnalyticScalarField
    mu: AnalyticScalarField

    def lame_at(self, x):
        x = np.asarray(x, dtype=float)
        return self.lam.value(x), self.mu.value(x)

    def lame_grad_at(self, x):
        x = np.asarray(x, dtype=float)
        return self.lam.grad(x), self.mu.grad(x)


Material = TwoPhaseMaterial | SmoothMaterial


def constant_material(lam: float, mu: float) -> SmoothMaterial:
    def const(c):
        return AnalyticScalarField(
            value=lambda p: np.full(p.shape[:-1], c),
            grad=lambda p: np.zeros(p.shape),
        )

    return SmoothMaterial(const(lam), const(mu))


def _lame_for(material: Material, x, side: SideTag):
    if isinstance(material, TwoPhaseMaterial):
        return material.lame_on(side)
    return material.lame_at(x)


def stress(material: Material, field: PiecewiseField, x, side: SideTag = SideTag.PLUS) -> Mat3:
    """Isotropic stress lam (div u) I + mu (grad u + grad u^T), one-sided."""
    x = np.asarray(x, dtype=float)
    lam, mu = _lame_for(material, x, side)
    g = field.grad_on(x, side)
    div = np.trace(g)
    return lam * div * IDENTITY + mu * (g + g.T)


def traction_jump(material: TwoPhaseMaterial, field: PiecewiseField, x) -> Vec3:
    """Jump sigma(x+) n - sigma(x-) n of the traction across the interface."""
    if not isinstance(material, TwoPhaseMaterial):
        raise TypeError("traction jump requires a two-phase material")
    x = np.asarray(x, dtype=float)
    iface = material.interface
    if abs(iface.signed_distance(x)) > 1e-12:
        raise ValueError("point is not on the material interface")
    n = iface.normal
    sp = stress(material, field, x, SideTag.PLUS)
    sm = stress(material, field, x, SideTag.MINUS)
    return (sp - sm) @ n


def _second_derivative_parts(field: PiecewiseField, x, side: SideTag):
    h = field.hessian_on(x, side)
    lap = np.einsum("...ikk->...i", h)
    grad_div = np.einsum("...jji->...i", h)
    return lap, grad_div


def _local_parts(material: Material, field: PiecewiseField, x, side: SideTag):
    """(lam, mu, grad lam, grad mu, grad u, div u) at points x of shape
    (..., 3), one-sided; the moduli and the divergence carry a trailing axis
    of length 1, so that they scale vectors."""
    x = np.asarray(x, dtype=float)
    lam, mu = (np.asarray(c, dtype=float)[..., None]
               for c in _lame_for(material, x, side))
    glam, gmu = material.lame_grad_at(x)
    g = field.grad_on(x, side)
    div = np.trace(g, axis1=-2, axis2=-1)[..., None]
    return lam, mu, glam, gmu, g, div


def _sym_apply(g, v):
    """(g + g^T) v for stacked matrices g (..., 3, 3) and vectors v (..., 3)."""
    return np.einsum("...ij,...j->...i", g + np.swapaxes(g, -1, -2), v)


def navier(material: Material, field: PiecewiseField, x, side: SideTag = SideTag.PLUS) -> Vec3:
    """grad(lam div u) + div(mu (grad u + grad u^T)) from one-sided
    derivatives, at one point (3,) or a batch of points (P, 3)."""
    lam, mu, glam, gmu, g, div = _local_parts(material, field, x, side)
    lap, grad_div = _second_derivative_parts(field, x, side)
    return div * glam + lam * grad_div + _sym_apply(g, gmu) + mu * (lap + grad_div)


def navier_s(material: Material, field: PiecewiseField, x, side: SideTag = SideTag.PLUS) -> Vec3:
    """The shear-modulus part: grad(mu div u) + div(mu (grad u + grad u^T))."""
    _, mu, _, gmu, g, div = _local_parts(material, field, x, side)
    lap, grad_div = _second_derivative_parts(field, x, side)
    return div * gmu + _sym_apply(g, gmu) + mu * (lap + 2.0 * grad_div)


def navier_d(material: Material, field: PiecewiseField, x, side: SideTag = SideTag.PLUS) -> Vec3:
    """The dilatational part: grad((lam - mu) div u)."""
    lam, mu, glam, gmu, _, div = _local_parts(material, field, x, side)
    _, grad_div = _second_derivative_parts(field, x, side)
    return div * (glam - gmu) + (lam - mu) * grad_div


# ---------------------------------------------------------------------------
# manufactured configurations
# ---------------------------------------------------------------------------


def linear_field(c, g) -> AnalyticVectorField:
    c = np.asarray(c, dtype=float)
    g = np.asarray(g, dtype=float)

    def value(p):
        return c + p @ g.T

    def outer(y, out):
        u = np.matmul(y, g.T, out=out[..., 0, :])
        u += c

    def grad(p):
        out = np.empty(p.shape[:-1] + (3, 3))
        out[...] = g
        return out

    # u(y + d) = u(y) * 1 + 1 * G d: two products, the second constant in
    # y; their steps W(d) = (0, G d) are one product d @ (0 | G^T)
    steps = np.zeros((3, 2, 3))
    steps[:, 1, :] = g.T

    def step(d, out):
        np.matmul(d, steps.reshape(3, 6), out=out.reshape(d.shape[:-1] + (6,)))

    return AnalyticVectorField(
        value=value,
        grad=grad,
        hessian=lambda p: np.zeros(p.shape[:-1] + (3, 3, 3)),
        split=Split(outer, step, [[1.0] * 3, [0.0] * 3], np.ones((1, 3))),
    )


def _quadratic_x1_field() -> AnalyticVectorField:
    # u(x) = (x_1^2, 0, 0)
    def value(p):
        out = np.zeros(p.shape)
        out[..., 0] = p[..., 0] ** 2
        return out

    def grad(p):
        out = np.zeros(p.shape[:-1] + (3, 3))
        out[..., 0, 0] = 2.0 * p[..., 0]
        return out

    def hessian(p):
        out = np.zeros(p.shape[:-1] + (3, 3, 3))
        out[..., 0, 0, 0] = 2.0
        return out

    # (y_1 + d_1)^2 = y_1^2 * 1 + 2 y_1 * d_1 + 1 * d_1^2 on component 0,
    # the last product constant in y
    def outer(y, out):
        out[...] = 0.0
        out[..., 0, 0] = y[..., 0] ** 2
        out[..., 1, 0] = 2.0 * y[..., 0]

    def step(d, out):
        out[..., 0, :] = 0.0
        out[..., 1, :] = d[..., 0, None]
        out[..., 2, :] = d[..., 0, None] ** 2

    return AnalyticVectorField(value, grad, hessian,
                               split=Split(outer, step, [[1.0] * 3, [0.0] * 3, [0.0] * 3],
                                           [[1.0, 0.0, 0.0]]))


def _trig_field() -> AnalyticVectorField:
    # u(x) = (sin x_2, sin x_3, sin x_1)
    def value(p):
        out = np.empty(p.shape)
        out[..., 0] = np.sin(p[..., 1])
        out[..., 1] = np.sin(p[..., 2])
        out[..., 2] = np.sin(p[..., 0])
        return out

    def grad(p):
        out = np.zeros(p.shape[:-1] + (3, 3))
        out[..., 0, 1] = np.cos(p[..., 1])
        out[..., 1, 2] = np.cos(p[..., 2])
        out[..., 2, 0] = np.cos(p[..., 0])
        return out

    def hessian(p):
        out = np.zeros(p.shape[:-1] + (3, 3, 3))
        out[..., 0, 1, 1] = -np.sin(p[..., 1])
        out[..., 1, 2, 2] = -np.sin(p[..., 2])
        out[..., 2, 0, 0] = -np.sin(p[..., 0])
        return out

    # with q = (y_2, y_3, y_1): sin(q + q_d) = sin q cos q_d + cos q sin q_d,
    # and cos q_d - 1 = -2 sin^2(q_d / 2)
    def outer(y, out):
        for i, j in enumerate((1, 2, 0)):
            np.sin(y[..., j], out=out[..., 0, i])
            np.cos(y[..., j], out=out[..., 1, i])

    def step(d, out):
        for i, j in enumerate((1, 2, 0)):
            np.sin(d[..., j], out=out[..., 1, i])
            c = np.multiply(0.5, d[..., j], out=out[..., 0, i])
            np.sin(c, out=c)
            np.square(c, out=c)
            c *= -2.0

    return AnalyticVectorField(value, grad, hessian,
                               split=Split(outer, step, [[1.0] * 3, [0.0] * 3]))


def _axial_ramp_field(slope: float) -> AnalyticVectorField:
    # u(x) = (0, 0, slope * x_3)
    g = np.zeros((3, 3))
    g[2, 2] = slope
    return linear_field(np.zeros(3), g)


def _trig_material() -> SmoothMaterial:
    mu = AnalyticScalarField(
        value=lambda p: 2.0 + 0.5 * np.sin(p[..., 0]),
        grad=lambda p: np.stack(
            [0.5 * np.cos(p[..., 0]), np.zeros(p.shape[:-1]), np.zeros(p.shape[:-1])],
            axis=-1,
        ),
    )
    lam = AnalyticScalarField(
        value=lambda p: 3.0 + 0.5 * np.sin(p[..., 0]),
        grad=mu.grad,
    )
    return SmoothMaterial(lam, mu)


_CONTRAST_MATERIAL = dict(lambda_plus=1.0, mu_plus=1.0,
                          lambda_minus=2.0, mu_minus=2.0)


def _build_constant():
    field = PiecewiseField.smooth(linear_field([0.5, -0.25, 1.0], np.zeros((3, 3))))
    return field, constant_material(1.0, 1.0)


def _build_linear():
    g = np.array([[0.2, -0.5, 0.1],
                  [0.4, 0.3, -0.2],
                  [-0.1, 0.6, 0.5]])
    field = PiecewiseField.smooth(linear_field([0.1, -0.2, 0.3], g))
    return field, constant_material(1.0, 1.0)


def _build_quadratic():
    return PiecewiseField.smooth(_quadratic_x1_field()), constant_material(1.0, 1.0)


def _build_trig_smooth():
    return PiecewiseField.smooth(_trig_field()), constant_material(1.0, 1.0)


def _build_patch_jump_zero_traction():
    # continuous ramp with a gradient kink chosen so the traction jump vanishes:
    # (lam+2mu) du3/dx3 matches across the interface
    field = PiecewiseField(_axial_ramp_field(2.0), _axial_ramp_field(1.0), INTERFACE_Z)
    return field, TwoPhaseMaterial(interface=INTERFACE_Z, **_CONTRAST_MATERIAL)


def _build_gradient_jump():
    # globally smooth ramp; only the material jumps, so the traction does too
    field = PiecewiseField(_axial_ramp_field(1.0), _axial_ramp_field(1.0), INTERFACE_Z)
    return field, TwoPhaseMaterial(interface=INTERFACE_Z, **_CONTRAST_MATERIAL)


def _build_smooth_material_trig():
    return PiecewiseField.smooth(_trig_field()), _trig_material()


_REGISTRY = {
    "constant": _build_constant,
    "linear": _build_linear,
    "quadratic": _build_quadratic,
    "trig_smooth": _build_trig_smooth,
    "patch_jump_zero_traction": _build_patch_jump_zero_traction,
    "gradient_jump": _build_gradient_jump,
    "smooth_material_trig": _build_smooth_material_trig,
}

MANUFACTURED_NAMES = tuple(sorted(_REGISTRY))


def make_manufactured(name: str):
    """Return the named (field, material) pair with analytic derivatives."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown manufactured configuration {name!r}; "
            f"choose one of {', '.join(MANUFACTURED_NAMES)}"
        ) from None
    return builder()
