"""Point evaluation of the linear peridynamic operators for isotropic media.

The state-based operator splits into a bond part (weighted by the shear
modulus at both bond ends) and a dilatational part (a composition of two
singular single integrals weighted by lambda - mu).  For two-phase materials
an interface correction operator, supported on the slab of points within one
horizon of the interface, repairs the jump in the nonlocal traction; adding
it to the state operator yields the corrected operator whose horizon-scaled
value at interface points tends to 45/32 times the local traction jump.

That limit, and the natural-condition limit of the state operator, hold
also for fields with a gradient kink across the interface: the inner
integrals at each outer node read the closed form of that node's own phase.

All evaluators are pure functions of (config, material, field, points), and
each takes one point of shape (3,) or a batch of P points of shape (P, 3),
returning one value per point in the same layout.  A call on a batch builds
the outer nodes x_p + delta z_q once, reads the material at the P points and
the P x n outer nodes, and forms each sum over the nodes as one matrix
product over the batch.  It reads the field only through each closed form's
declared split of u(y + d) into products of factors of y and of d (see
:class:`peridyn.fields.Split`).  The steps W(d) = V(d) - V(0) of the inner
factors are read once, at the n offsets delta z_q, and serve every sum.
With the outer factors at the P points they give the bond sums the
differences u(x + delta z) - u(x), with no value of u subtracted from
another.  With V(0) they give the inner factors V of the nested double
integrals, which reuse one reference ball rule for the inner and outer
integral and compute both inner integrals at every outer node in one nested
pass from the outer factors there, each read in the closed form of the
node's phase, O(n m) work per point.

Every summation order is fixed for a given batch, so results are
reproducible bit for bit.  A point's value in a batch agrees with its value
alone to rounding: the matrix products may add a sum in another order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .fields import Material, PiecewiseField, SideTag, Split, TwoPhaseMaterial
from .quadrature import (
    BallQuadrature,
    DEFAULT_ANGULAR_ORDER,
    DEFAULT_RADIAL_ORDER,
    ball_volume,
    build_ball_rule,
    build_split_ball_rule,
    _check_unit_normal,
)
from .tensor import Mat3, Tensor3, Vec3


@dataclass(frozen=True)
class Horizon:
    """The interaction radius of the nonlocal model."""

    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("horizon must be positive")
        # the nested operators scale by 9/|B_delta|^2, which is not finite
        # below a horizon of about 4e-52
        vol = ball_volume(self.delta)
        if not vol * vol > 9.0 / sys.float_info.max:
            raise FloatingPointError(
                f"horizon {self.delta!r} is too small: the nested operators' "
                "prefactor 9/|B_delta|^2 is not finite")


@dataclass(frozen=True)
class OperatorConfig:
    horizon: Horizon
    rule: BallQuadrature

    @property
    def delta(self) -> float:
        return self.horizon.delta


def make_config(delta: float,
                radial_order: int = DEFAULT_RADIAL_ORDER,
                angular_order: int = DEFAULT_ANGULAR_ORDER,
                split_normal=None) -> OperatorConfig:
    """Convenience constructor.

    With ``split_normal`` the ball rule is assembled from two half-ball rules
    split by the plane normal to it, which keeps integrands that are smooth
    on each side of that plane exactly integrable.
    """
    if split_normal is not None:
        rule = build_split_ball_rule(split_normal, radial_order, angular_order)
    else:
        rule = build_ball_rule(radial_order, angular_order)
    return OperatorConfig(Horizon(delta), rule)


def weight_mass(delta: float, r: float) -> float:
    """The scalar weight 4 pi delta^(5-r)/(5-r) of the kernel |z|^(-r) |z|^2.

    For r = 2 this is the ball volume.  Exponents r >= 5 make the moment
    diverge and are rejected.
    """
    if r >= 5:
        raise ValueError("weight exponent must satisfy r < 5")
    return 4.0 * np.pi * delta ** (5.0 - r) / (5.0 - r)


# ---------------------------------------------------------------------------
# single-integral (bond-type) evaluations
# ---------------------------------------------------------------------------


def _batch(x):
    """The points x as a batch of shape (P, 3), and the shape of the vector
    results: (3,) for one point of shape (3,), else (P, 3)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 3:
        raise ValueError(f"points must have shape (3,) or (P, 3), got {x.shape}")
    return x.reshape(-1, 3), x.shape


def _outer_nodes(config: OperatorConfig, x) -> np.ndarray:
    """The outer nodes x_p + delta z_q of a batch, shape (P, n, 3)."""
    return x[:, None, :] + config.delta * config.rule.points


def _require_finite(values) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(
            "field produced a non-finite value at a quadrature node")
    return values


def _closed_forms(field: PiecewiseField):
    """The closed forms an evaluation reads: both sides of a field with a
    kink across its interface, else the one closed form."""
    if field.interface is None or field.plus_side is field.minus_side:
        return (field.plus_side,)
    return field.plus_side, field.minus_side


class _Form(NamedTuple):
    """One closed form's reads at a batch: its declared split, the mask
    (P, n) of the outer nodes in its phase (signed distance >= 0 for the
    plus side; None for a field with one closed form), the inner sums
    Q (3, m + m_c, 3) of its inner factors V at the n offsets delta z (see
    :func:`_nested_moments`) and its steps W (n, m + m_c, 3) there."""

    split: Split
    phase: Optional[np.ndarray]
    q: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class _Reads:
    """What one evaluation at a batch x (P, 3) reads of the field before
    any sum: the outer nodes y = x + delta z (P, n, 3), and each closed
    form's :class:`_Form` (see :func:`_closed_forms`)."""

    field: PiecewiseField
    x: np.ndarray
    y: np.ndarray
    forms: tuple

    def take(self, rows) -> "_Reads":
        """The reads of the points ``rows`` (a mask) of the batch."""
        if rows.all():
            return self
        return _Reads(self.field, self.x[rows], self.y[rows],
                      tuple(form._replace(phase=None if form.phase is None
                                          else form.phase[rows])
                            for form in self.forms))


def _read(config: OperatorConfig, field: PiecewiseField, x) -> _Reads:
    """The reads of ``field`` at the batch x, which every sum of an
    evaluation shares: each closed form's steps W are read once at the n
    offsets, and its inner factors V = V(0) + W enter the pass only as
    their inner sums Q."""
    sides = _closed_forms(field)
    y = _outer_nodes(config, x)
    dz = config.delta * config.rule.points
    if len(sides) == 1:
        phases = (None,)
    else:
        plus = field.interface.signed_distance(y) >= 0.0
        phases = (plus, ~plus)
    # the inner nodes' weights bw_k = (w_k/|z_k|^2) z_k, as (3, n)
    bw = config.rule.points.T * (config.rule.weights / config.rule.square_norms)
    bw_sum = bw @ np.ones(len(dz))  # one product: np.sum over n is slower here
    forms = []
    for side, phase in zip(sides, phases):
        split = side.split
        w = split.step(dz)
        # Q = sum_k bw_k (x) (V(0) + W(delta z_k))
        q = ((bw @ w.reshape(len(dz), -1)).reshape(3, -1, 3)
             + bw_sum[:, None, None] * split.base)
        forms.append(_Form(split, phase, q, w))
    return _Reads(field, x, y, tuple(forms))


def _moduli(config: OperatorConfig, material: Material, x, y):
    """mu at the points of a batch (P,), and mu and lambda - mu at their
    outer nodes y (P, n): one read of the material at each."""
    shape = y.shape[:2]
    _, mu_x = material.lame_at(x)
    lam_y, mu_y = material.lame_at(y)
    return (np.broadcast_to(np.asarray(mu_x, dtype=float), shape[:1]),
            np.broadcast_to(np.asarray(mu_y, dtype=float), shape),
            np.broadcast_to(np.asarray(lam_y - mu_y, dtype=float), shape))


def _steps(f, w, z) -> np.ndarray:
    """sum_m F(x_p)_m W(delta z_q)_m . z_q (P, n) of one closed form, from
    its outer factors f = (U, C) (P, m + m_c, 3) at the points and its W at
    the n offsets: one (3P x 3M) @ (3M x n) product, with f block-diagonal
    over the components, and the projection on z."""
    fb = np.einsum("pmi,ij->ipmj", f, np.eye(3)).reshape(3 * len(f), -1)
    d = (fb @ w.reshape(len(w), -1).T).reshape(3, len(f), -1)
    return d[0] * z[:, 0] + d[1] * z[:, 1] + d[2] * z[:, 2]


def _bond_differences(config: OperatorConfig, reads: _Reads):
    """(u(x_p + delta z_q) - u(x_p)) . z_q for each point x_p of a batch,
    shape (P, n), from the splits: with s the phase of the outer node and
    F_s = (U_s, C_s) the closed form's outer factors,

        u_s(x + delta z) - u(x) = sum_m F_s(x)_m W_s(delta z)_m + (u_s(x) - u(x)).

    The gap u_s(x) - u(x) is zero in x's own phase.  Elsewhere it is read
    from the projection x' = x - e of x on the interface, where the sides of
    a continuous field agree: u_s(x) - u(x) = sum_m F_s(x')_m W_s(e)_m minus
    the same sum of x's own closed form.  So the outer factors are read at
    the P points and their projections, and W at the n offsets, once for
    the pass too (:func:`_read`), and at the P offsets e: no value of u is
    subtracted from another, and no digit is lost to the size of u or of
    x."""
    x = reads.x
    z = config.rule.points
    steps = [_steps(form.split.factors(x), form.w, z) for form in reads.forms]
    if len(steps) == 1:
        return _require_finite(steps[0])
    iface = reads.field.interface
    sd = iface.signed_distance(x)
    e = sd[:, None] * iface.normal
    rises = [np.einsum("pmi,pmi->pi", form.split.factors(x - e), form.split.step(e))
             for form in reads.forms]  # u_s(x) - u_s(x')
    own = np.where((sd >= 0.0)[:, None], *rises)
    dz = np.where(reads.forms[0].phase, steps[0] + (rises[0] - own) @ z.T,
                  steps[1] + (rises[1] - own) @ z.T)
    return _require_finite(dz)


def _bond_sum(config: OperatorConfig, dz, node_weights):
    """sum_q node_weights_pq (z_q (x) z_q / |z_q|^4) (u(x_p + delta z_q) - u(x_p))
    for each point x_p of a batch, from its differences ``dz`` projected on
    z, which :func:`_bond_differences` reads through the split; the weights
    are (n,) or (P, n)."""
    r4 = config.rule.square_norms ** 2
    return (node_weights / r4 * dz) @ config.rule.points


def base_operator(config: OperatorConfig, field: PiecewiseField, x) -> Vec3:
    """Material-independent difference operator.

    (30/|B_delta|) integral over B_delta(x) of
    ((y-x)(x)(y-x)/|y-x|^4) (u(y) - u(x)) dy.  For fields with bounded third
    derivatives this tends to 2 grad(div u) + lap u, exactly so for
    quadratic fields at every horizon.
    """
    x, shape = _batch(x)
    delta = config.delta
    dz = _bond_differences(config, _read(config, field, x))
    s = _bond_sum(config, dz, config.rule.weights)
    return ((30.0 / ball_volume(delta)) * delta * s).reshape(shape)


def base_operator_scalar(config: OperatorConfig, scalar_field, x) -> Mat3:
    """Scalar-field variant of :func:`base_operator`; returns a matrix per
    point.

    ``scalar_field`` is a vectorized callable mapping (m, 3) points to (m,)
    values.  The limit is 2 grad grad f + (lap f) I.
    """
    x, shape = _batch(x)
    delta = config.delta
    z = config.rule.points
    r4 = np.einsum("qi,qi->q", z, z) ** 2
    y = _outer_nodes(config, x).reshape(-1, 3)
    df = _require_finite(np.asarray(scalar_field(y)).reshape(len(x), -1)
                         - np.asarray(scalar_field(x))[:, None])
    s = np.einsum("pq,qi,qj->pij", config.rule.weights * df / r4, z, z)
    return ((30.0 / ball_volume(delta)) * delta * s).reshape(shape[:-1] + (3, 3))


def _bond(config: OperatorConfig, dz, mu_x, mu_y):
    """The bond part at a batch, from its projected differences and mu at
    its points and outer nodes."""
    w = config.rule.weights * (mu_x[:, None] + mu_y)
    return (15.0 / ball_volume(config.delta)) * config.delta * _bond_sum(config, dz, w)


def bond_operator(config: OperatorConfig, material: Material,
                  field: PiecewiseField, x) -> Vec3:
    """Bond-based part: the kernel is weighted by mu(x) + mu(y)."""
    x, shape = _batch(x)
    reads = _read(config, field, x)
    mu_x, mu_y, _ = _moduli(config, material, x, reads.y)
    return _bond(config, _bond_differences(config, reads), mu_x, mu_y).reshape(shape)


def _frozen_bond(config: OperatorConfig, dz, mu_x):
    """The bond correction at a batch, from its projected differences and
    mu at its points."""
    s = _bond_sum(config, dz, config.rule.weights)
    return -(15.0 / ball_volume(config.delta)) * config.delta * mu_x[:, None] * s


def bond_correction_term(config: OperatorConfig, material: Material,
                         field: PiecewiseField, x) -> Vec3:
    """Bond-type correction term: minus the bond kernel with mu frozen at x."""
    x, shape = _batch(x)
    reads = _read(config, field, x)
    mu_x, _, _ = _moduli(config, material, x, reads.y)
    return _frozen_bond(config, _bond_differences(config, reads), mu_x).reshape(shape)


# ---------------------------------------------------------------------------
# nested (composition-type) evaluations
# ---------------------------------------------------------------------------

# Estimated peak bytes per field point of one operator evaluation on a batch,
# the rule included, where the field points are the P x n outer nodes of the
# batch's points.  Measured with tracemalloc at one point per batch (rules of
# more than 2048 nodes), where the rule's n-sized constants count per node,
# on the first evaluation on a rule (its cached |z|^2 included): the
# corrected operator on a kinked affine field, which holds each side's steps
# W at the n offsets through the evaluation, peaks at 270-283 on split rules
# of 4608 to 36,864 nodes; the state operator on one closed form at 171-194
# for the linear field, 200-202 for the quadratic one and 240-242 for the
# trig one, on ball rules of 1728 to 27,648 nodes.  Batches of several
# points spread the rule's constants: 105-184 on the 288-node ball rule and
# the 576-node split rule.
EVALUATION_BYTES_PER_NODE = 8 * 36


def nested_pass_points(n: int, field: PiecewiseField) -> int:
    """Field points one nested pass over an n-node rule evaluates on
    ``field`` at one point: the outer factors at the n outer nodes, each in
    the closed form of its phase, and each closed form's steps at the n
    offsets (see :func:`_nested_moments`), which the bond sums share."""
    return n + len(_closed_forms(field)) * n


def _split_channels(split, q, u, a, normal: bool):
    """(g, p) of :func:`_nested_moments` for one closed form, from its
    declared ``split``, its inner sums Q[i, m, l] ``q``, and its
    y-dependent outer factors u (..., m, 3) at outer nodes whose weights
    a_j are ``a`` (..., 3), broadcasting against u's leading axes; p is
    None unless ``normal``.  The y-constant factors C enter once: g gains
    the scalar sum C . B, and p the product a @ K."""
    c = split.constant
    m = u.shape[-2]
    b = np.einsum("imi->mi", q)
    g = u.reshape(u.shape[:-2] + (3 * m,)) @ b[:m].ravel()
    if len(c):
        g += np.sum(c * b[m:])
    if not normal:
        return g, None
    aq = a @ q[:, :m].reshape(3, 3 * m)
    p = a @ np.einsum("icl,cl->il", q[:, m:], c)
    for k in range(m):  # the sum over m in order; .sum(axis=-2) is slower
        p = p + u[..., k, :] * aq[..., 3 * k:3 * k + 3]
    return g, np.broadcast_to(p, u.shape[:-2] + (3,))


def _nested_moments(config: OperatorConfig, reads: _Reads, normal: bool = True):
    """Inner integrals of the composed kernels at every outer node of each
    point of a batch, from its reads (:func:`_read`).

    For outer nodes y_j = x + delta z_j of a point x, with u_j the closed
    form of the phase that y_j lies in (the plus side on the interface), also
    where the inner ball reaches across the interface, returns

    * ``g[j] = sum_k (w_k/|z_k|^2) z_k . u_j(y_j + delta z_k)`` -- the scalar
      divergence channel; the physical inner integral is delta^2 g;
    * ``p[j] = M_j^T (z_j/|z_j|^2)`` with
      ``M_j = sum_k (w_k/|z_k|^2) z_k (x) u_j(y_j + delta z_k)`` -- the
      normal-projection channel; the physical value is delta p.

    as g of shape (P, n) and, if ``normal``, p of shape (P, n, 3), else
    None.  The horizon-scaled limits are then the formulas of
    :func:`natural_condition_limit` and :func:`normal_correction_limit`.

    Each closed form declares a split u(y + d)_i = sum_m F(y)_mi V(d)_mi
    with F = (U(y), C) (see :class:`peridyn.fields.Split`).  With
    Q[i, m, l] = sum_k bw_ki V(delta z_k)_ml and B[m, i] = Q[i, m, i],
    g_j = sum_mi F(y_j)_mi B[m, i] and p_j[l] = sum_m F(y_j)_ml (a_j^T Q)[m, l]
    (:func:`_split_channels`).  So the pass reads each closed form's steps
    W at the n offsets delta z_k, with V = V(0) + W (read once in
    :func:`_read`), and its y-dependent outer factors U at the outer nodes
    in its phase: every node of the batch for a field with one closed form,
    else the nodes with signed distance >= 0 for the plus side and the rest
    for the minus side.  That is O(n m) work per point, each sum one matrix
    product over the batch.
    """
    # the outer nodes' weights a_j = z_j/|z_j|^2, scaled by rows of n
    a = (config.rule.points.T / config.rule.square_norms).T
    y = reads.y
    if len(reads.forms) == 1:
        split, _, q, _ = reads.forms[0]
        g, p = _split_channels(split, q, split.outer(y), a, normal)
    else:
        # the nodes of each phase by flat index: take and assignment by an
        # index are several times faster than by a mask on these layouts;
        # the flat index of the P x n nodes wraps to the rule node's
        g = np.empty(y.shape[:2])
        p = np.empty(y.shape) if normal else None
        for split, phase, q, _ in reads.forms:
            at = np.flatnonzero(phase)
            u = split.outer(np.take(y.reshape(-1, 3), at, axis=0))
            g_at, p_at = _split_channels(split, q, u, np.take(a, at, axis=0, mode="wrap"),
                                         normal)
            g.reshape(-1)[at] = g_at
            if normal:
                p.reshape(-1, 3)[at] = p_at
    _require_finite(g)  # non-finite field values propagate through the sums
    if normal:
        _require_finite(p)
    return g, p


def _makes_nested_pass(config: OperatorConfig, material: Material, x,
                       corrected: bool) -> bool:
    """Whether the state operator at some point of the batch x, or the
    corrected operator if ``corrected``, makes a nested pass: the corrected
    operator does in the interface slab, and either does where lambda - mu
    is nonzero at an outer node (see :func:`_dilatation`)."""
    x, _ = _batch(x)
    if (corrected and isinstance(material, TwoPhaseMaterial)
            and _in_slab(config, material, x).any()):
        return True
    return bool(_moduli(config, material, x, _outer_nodes(config, x))[2].any())


def _dilatation(config: OperatorConfig, reads: _Reads, c_y, g=None) -> np.ndarray:
    """The dilatational part at a batch from lambda - mu at its outer
    nodes, ``c_y``, and the inner divergence integrals ``g`` of a nested
    pass there, or of one made here from ``reads`` if ``g`` is None.

    Where lambda - mu vanishes at every outer node of a point the integrand
    is zero, and the result is an exact zero vector without a nested pass.
    """
    z = config.rule.points
    w = config.rule.weights
    delta = config.delta
    out = np.zeros((len(c_y), 3))
    active = c_y.any(axis=1)
    if not active.any():
        return out
    if g is None:
        g, _ = _nested_moments(config, reads.take(active), normal=False)
    else:
        g = g[active]
    s = ((w / config.rule.square_norms) * c_y[active] * g) @ z
    out[active] = (9.0 / ball_volume(delta) ** 2) * delta**4 * s
    return out


def dilatation_operator(config: OperatorConfig, material: Material,
                        field: PiecewiseField, x) -> Vec3:
    """Dilatational part: nested double integral weighted by lambda - mu.

    The outer kernel is composed against the inner divergence integral of
    the field itself; the terms that cancel by the odd symmetry of the
    kernel over a full ball are dropped.
    """
    x, shape = _batch(x)
    reads = _read(config, field, x)
    _, _, c_y = _moduli(config, material, x, reads.y)
    return _dilatation(config, reads, c_y).reshape(shape)


def _state(config: OperatorConfig, material: Material, reads: _Reads) -> np.ndarray:
    """Bond plus dilatational part at a batch, from its reads."""
    mu_x, mu_y, c_y = _moduli(config, material, reads.x, reads.y)
    return (_bond(config, _bond_differences(config, reads), mu_x, mu_y)
            + _dilatation(config, reads, c_y))


def state_operator(config: OperatorConfig, material: Material,
                   field: PiecewiseField, x) -> Vec3:
    """The full linear peridynamic operator: bond plus dilatational part."""
    x, shape = _batch(x)
    return _state(config, material, _read(config, field, x)).reshape(shape)


def _normal_term(config: OperatorConfig, mu_y, p, normal) -> np.ndarray:
    """The normal-projected term at a batch, from mu at its outer nodes and
    the moments ``p`` of a nested pass there."""
    delta = config.delta
    v = (9.0 / ball_volume(delta) ** 2) * delta**4 * np.einsum(
        "pq,pqi->pi", config.rule.weights * mu_y, p)
    return 1.25 * (v @ normal)[:, None] * np.asarray(normal, dtype=float)


def normal_correction_term(config: OperatorConfig, material: Material,
                           field: PiecewiseField, x, normal) -> Vec3:
    """Normal-projected correction: 5/4 times the mu-weighted scalar double
    integral of the composed kernels against the field, projected onto the
    interface normal.  The inner integral at each outer node uses the closed
    form of that node's own phase (see :func:`_nested_moments`)."""
    x, shape = _batch(x)
    normal = _check_unit_normal(normal)
    reads = _read(config, field, x)
    _, mu_y, _ = _moduli(config, material, x, reads.y)
    _, p = _nested_moments(config, reads)
    return _normal_term(config, mu_y, p, normal).reshape(shape)


def _require_interface(material: Material) -> TwoPhaseMaterial:
    if not isinstance(material, TwoPhaseMaterial):
        raise TypeError("interface operators require a two-phase material")
    return material


def _in_slab(config: OperatorConfig, material: TwoPhaseMaterial, x) -> np.ndarray:
    """Which points of the batch x lie within one horizon of the interface."""
    return np.abs(material.interface.signed_distance(x)) < config.delta


def _slab_parts(config: OperatorConfig, material: TwoPhaseMaterial, reads: _Reads):
    """(mu at the points, mu at the outer nodes, the projected bond
    differences, dilatational part, interface correction) at a batch in
    the slab, from its reads, one nested pass and one set of bond
    differences: ``g`` feeds the dilatational part and the correction's
    quarter of it, ``p`` the normal-projected term, and the differences
    both the bond part and the frozen-modulus correction."""
    g, p = _nested_moments(config, reads)
    mu_x, mu_y, c_y = _moduli(config, material, reads.x, reads.y)
    dil = _dilatation(config, reads, c_y, g)
    dz = _bond_differences(config, reads)
    correction = ((_frozen_bond(config, dz, mu_x) + 0.25 * dil)
                  + _normal_term(config, mu_y, p, material.interface.normal))
    return mu_x, mu_y, dz, dil, correction


def interface_correction(config: OperatorConfig, material: Material,
                         field: PiecewiseField, x) -> Vec3:
    """Correction operator acting on the extended-interface slab.

    Sum of the frozen-modulus bond correction, one quarter of the
    dilatational part, and the normal-projected term with the normal taken
    at the orthogonal projection of x onto the interface.
    """
    x, shape = _batch(x)
    material = _require_interface(material)
    if not _in_slab(config, material, x).all():
        raise ValueError("point lies outside the extended interface slab")
    return _slab_parts(config, material, _read(config, field, x))[4].reshape(shape)


def corrected_operator(config: OperatorConfig, material: Material,
                       field: PiecewiseField, x) -> Vec3:
    """State operator plus the indicator-gated interface correction.

    The points of the batch in the slab take both parts from one nested
    pass (see :func:`_slab_parts`); the others take the state operator.
    One read of the field serves both.
    """
    x, shape = _batch(x)
    reads = _read(config, field, x)
    if not isinstance(material, TwoPhaseMaterial):
        return _state(config, material, reads).reshape(shape)
    slab = _in_slab(config, material, x)
    out = np.empty((len(x), 3))
    if not slab.all():
        out[~slab] = _state(config, material, reads.take(~slab))
    if slab.any():
        mu_x, mu_y, dz, dil, correction = _slab_parts(config, material,
                                                      reads.take(slab))
        out[slab] = (_bond(config, dz, mu_x, mu_y) + dil) + correction
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# closed-form limits at interface points
# ---------------------------------------------------------------------------


def half_ball_moment_tensor(normal) -> Tensor3:
    """Closed form of the scaled third moment of a half-ball direction kernel.

    The fully symmetric tensor K with K : (a (x) b (x) c) built from the
    spherical angles of the unit normal; contracting it against any matrix A
    reproduces :func:`half_ball_moment_apply`.  It equals the limit of
    delta times the numeric half-ball moment of
    :func:`peridyn.quadrature.half_ball_third_moment_numeric` (exactly
    delta-independent for a planar split).
    """
    n = _check_unit_normal(normal)
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])
    c, s = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)

    k = np.zeros((3, 3, 3))

    def fill(i, j, l, value):
        # the tensor is fully symmetric: set every distinct permutation
        for perm in {(i, j, l), (i, l, j), (j, i, l), (j, l, i), (l, i, j), (l, j, i)}:
            k[perm] = value

    f = 3.0 / 32.0
    fill(0, 0, 0, f * c * st * (3.0 - c**2 * st**2))
    fill(0, 0, 1, f * s * st * (1.0 - c**2 * st**2))
    fill(0, 0, 2, f * ct * (1.0 - c**2 * st**2))
    fill(0, 1, 1, f * c * st * (1.0 - s**2 * st**2))
    fill(0, 1, 2, -f * s * c * st**2 * ct)
    fill(0, 2, 2, f * c * st**3)
    fill(1, 1, 2, f * ct * (1.0 - s**2 * st**2))
    fill(1, 2, 2, f * s * st**3)
    fill(1, 1, 1, f * s * st * (3.0 - s**2 * st**2))
    fill(2, 2, 2, f * ct * (3.0 - ct**2))
    return k


def half_ball_moment_apply(a: Mat3, normal) -> Vec3:
    """(3/32) ((A + A^T) n + (tr A - A n . n) n), the action of the
    half-ball moment tensor on a matrix."""
    n = _check_unit_normal(normal)
    a = np.asarray(a, dtype=float)
    return (3.0 / 32.0) * ((a + a.T) @ n + (np.trace(a) - a @ n @ n) * n)


def _one_sided_grads(material: TwoPhaseMaterial, field: PiecewiseField, x):
    iface = material.interface
    if abs(iface.signed_distance(x)) > 1e-12:
        raise ValueError("point is not on the material interface")
    gp = field.grad_on(x, SideTag.PLUS)
    gm = field.grad_on(x, SideTag.MINUS)
    return iface.normal, gp, gm


def natural_condition_limit(material: Material, field: PiecewiseField, x) -> Vec3:
    """Local limit of the horizon-scaled state operator at an interface point.

    Evaluated from one-sided gradients and the phase constants.  The result
    differs from 45/32 times the traction jump, which is what motivates the
    corrected operator.
    """
    material = _require_interface(material)
    x = np.asarray(x, dtype=float)
    n, gp, gm = _one_sided_grads(material, field, x)
    wp = material.mu_plus + material.mu_plus
    wm = material.mu_plus + material.mu_minus
    a = wp * gp - wm * gm  # jump of (mu_plus + mu) grad u
    cd_jump = ((material.lambda_plus - material.mu_plus) * np.trace(gp)
               - (material.lambda_minus - material.mu_minus) * np.trace(gm))
    return (45.0 / 32.0) * ((a + a.T) @ n + np.trace(a) * n
                            - float(a @ n @ n) * n + 0.8 * cd_jump * n)


def normal_correction_limit(material: Material, field: PiecewiseField, x) -> Vec3:
    """Local limit of the horizon-scaled normal-projected correction term:
    (45/32) ((jump of mu grad u) n . n) n, with the shear-modulus weights
    kept inside the jump."""
    material = _require_interface(material)
    x = np.asarray(x, dtype=float)
    n, gp, gm = _one_sided_grads(material, field, x)
    a = material.mu_plus * gp - material.mu_minus * gm
    return (45.0 / 32.0) * float(a @ n @ n) * n
