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

:func:`state_operator` and :func:`corrected_operator`, which the studies
evaluate over a series of batches, take an optional :class:`Workspace` that
the evaluations of one worker share, series after series; it changes no
value.

Every summation order is fixed for a given batch, so results are
reproducible bit for bit.  A point's value in a batch agrees with its value
alone to rounding: the matrix products may add a sum in another order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .fields import Material, PiecewiseField, SideTag, Split, TwoPhaseMaterial
from .quadrature import (
    BallQuadrature,
    DEFAULT_ANGULAR_ORDER,
    DEFAULT_RADIAL_ORDER,
    IDENTITY,
    Mat3,
    Tensor3,
    Vec3,
    ball_volume,
    build_ball_rule,
    build_split_ball_rule,
    _check_unit_normal,
)


@dataclass(frozen=True)
class OperatorConfig:
    """The horizon delta, the interaction radius of the nonlocal model, and
    the reference ball rule that every evaluation scales by it."""

    delta: float
    rule: BallQuadrature

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
    return OperatorConfig(delta, rule)


# ---------------------------------------------------------------------------
# single-integral (bond-type) evaluations
# ---------------------------------------------------------------------------


def _batch(x):
    """The points x as a batch of shape (P, 3), and the shape of the vector
    results: (3,) for one point of shape (3,), else (P, 3)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 3 or not x.size:
        raise ValueError(f"points must have shape (3,) or (P, 3) with P >= 1, got {x.shape}")
    return x.reshape(-1, 3), x.shape


class Workspace:
    """Arrays that the evaluations of one worker reuse, across batches and
    series.

    An evaluation on a batch writes its largest arrays into arrays it takes
    from here, each under a name of its own: the outer nodes ``y``
    (P, n, 3), the outer factors ``u`` (P, n, m, 3) of the nested pass
    there, and for a field with a kink the outer nodes' phase masks
    ``plus`` and ``minus`` (P, n) and the pass's channels ``g`` (P, n) and
    ``p`` (P, n, 3).  Each closed form writes its steps W (n, m + m_c, 3)
    at the offsets delta z to ``w0`` and ``w1``, as it writes its outer
    factors to ``u``: both declared reads of a split write into arrays
    taken here.  The steps stay here with their inner sums Q while the
    horizon and the field do.  So the evaluations allocate those once, not
    once per batch or per horizon, and write them to the same pages,
    whose cost then does not hinge on whether the allocator
    hands them back to the system between evaluations (which depends on
    where the process's earlier allocations lie).  A taken array holds its
    contents until its name is taken again, and grows to the largest batch
    it has served: a workspace keeps ``nbytes``, about half of
    :data:`EVALUATION_BYTES_PER_NODE` per field point of that batch (166
    bytes a node on a split rule of a kinked field, at one point per
    batch).  No evaluation returns one of these arrays.  One workspace
    serves one worker at a time, whichever thread that runs on;
    ``passes`` counts the nested passes made with it.
    """

    def __init__(self):
        self._arrays = {}
        self._offsets = None  # (config, field, forms) of the last horizon
        self.passes = 0

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays kept here."""
        return sum(a.nbytes for a in self._arrays.values())

    def take(self, name: str, shape, dtype=float) -> np.ndarray:
        """The array ``name`` of shape ``shape``, contents undefined."""
        size = math.prod(shape)
        buf = self._arrays.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._arrays[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


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
    """One closed form's reads at a horizon: its declared split, the inner
    sums Q (3, m + m_c, 3) of its inner factors V at the n offsets delta z
    (see :func:`_nested_moments`) and its steps W (n, m + m_c, 3) there."""

    split: Split
    q: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class _Reads:
    """What one evaluation at a batch x (P, 3) reads of the field before
    any sum: the outer nodes y = x + delta z (P, n, 3), each closed form's
    :class:`_Form` (see :func:`_closed_forms`) and the masks (P, n) of the
    outer nodes in its phase (None for a field with one closed form), with
    the :class:`Workspace` it writes to."""

    field: PiecewiseField
    x: np.ndarray
    y: np.ndarray
    forms: tuple
    phases: tuple
    ws: Workspace


def _offset_reads(config: OperatorConfig, field: PiecewiseField, ws: Workspace,
                  dz: np.ndarray):
    """The :class:`_Form` of each closed form at the horizon's n offsets
    ``dz`` = delta z, kept in ``ws`` while the horizon and the field stay
    the same: each closed form writes its steps W at the n offsets into the
    workspace in one read, and its inner factors V = V(0) + W enter the
    pass only as their inner sums Q."""
    kept = ws._offsets
    if kept is not None and kept[0] is config and kept[1] is field:
        return kept[2]
    ws._offsets = None  # the steps below overwrite the kept ones
    rule = config.rule
    n = len(rule)
    # the inner nodes' weights bw_k = (w_k/|z_k|^2) z_k, as (3, n)
    bw = rule.points.T * (rule.weights / rule.square_norms)
    bw_sum = bw @ np.ones(n)  # one product: np.sum over n is slower here
    forms = []
    for i, side in enumerate(_closed_forms(field)):
        split = side.split
        w = ws.take(f"w{i}", (n,) + split.base.shape)
        split.step(dz, w)
        # Q = sum_k bw_k (x) (V(0) + W(delta z_k))
        q = ((bw @ w.reshape(n, -1)).reshape(3, -1, 3)
             + bw_sum[:, None, None] * split.base)
        forms.append(_Form(split, q, w))
    ws._offsets = (config, field, tuple(forms))
    return ws._offsets[2]


def _read(config: OperatorConfig, field: PiecewiseField, x,
          ws: Optional[Workspace] = None) -> _Reads:
    """The reads of ``field`` at the batch x, which every sum of an
    evaluation shares, with the outer nodes written to ``ws`` (a new
    workspace if None).  For a field with a kink the outer nodes' sides of
    its interface are read once, into ``ws``, as both phase masks."""
    ws = Workspace() if ws is None else ws
    nodes = (len(x), len(config.rule))
    # delta z + x, in place: the bits of x + delta z; before x is added,
    # each point's row holds the offsets delta z that the steps read
    y = np.multiply(config.delta, config.rule.points, out=ws.take("y", nodes + (3,)))
    forms = _offset_reads(config, field, ws, y[0])
    y += x[:, None, :]
    if len(forms) == 1:
        phases = (None,)
    else:
        plus = field.interface.side_of(y, out=ws.take("plus", nodes, bool))
        phases = (plus, np.logical_not(plus, out=ws.take("minus", nodes, bool)))
    return _Reads(field, x, y, forms, phases, ws)


def _moduli(material: Material, reads: _Reads):
    """mu at the points of a batch (P,), and mu and lambda - mu at their
    outer nodes (P, n): one read of the material at each.  A two-phase
    material on the interface of a kinked field takes its outer nodes'
    sides from the field's plus mask, a read of the same plane."""
    x, y = reads.x, reads.y
    shape = y.shape[:2]
    _, mu_x = material.lame_at(x)
    plus = reads.phases[0]
    if (isinstance(material, TwoPhaseMaterial) and plus is not None
            and material.interface is reads.field.interface):
        lam_y, mu_y = material.lame_where(plus)
    else:
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
    rises = []  # u_s(x) - u_s(x')
    for split, _, _ in reads.forms:
        w = np.empty((len(x),) + split.base.shape)
        split.step(e, w)
        rises.append(np.einsum("pmi,pmi->pi", split.factors(x - e), w))
    own = np.where(iface.side_of(x)[:, None], *rises)
    dz = np.where(reads.phases[0], steps[0] + (rises[0] - own) @ z.T,
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
    r4 = config.rule.square_norms ** 2
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
    mu_x, mu_y, _ = _moduli(material, reads)
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
    mu_x, _, _ = _moduli(material, reads)
    return _frozen_bond(config, _bond_differences(config, reads), mu_x).reshape(shape)


# ---------------------------------------------------------------------------
# nested (composition-type) evaluations
# ---------------------------------------------------------------------------

# Estimated peak bytes per field point of one operator evaluation on a batch,
# the rule included, where the field points are the P x n outer nodes of the
# batch's points.  Measured with tracemalloc at one point per batch (rules of
# 1728 nodes and more), where the rule's n-sized arrays count per node:
# traced from before the rule is built (its points and weights, 32 bytes a
# node), over the first evaluation on it with a new workspace (which
# computes the rule's |z|^2 and z/|z|^2, 32 bytes a node more) and two more
# on that workspace, at a new horizon and on a new field.  Both declared
# reads of a split write into workspace arrays, and the steps read their n
# offsets delta z from the outer nodes' array.  The corrected operator on a
# kinked affine field, which keeps each side's steps W at the n offsets in
# the workspace, peaks at 302-317 on split rules of 4608 to 36,864 nodes;
# the state operator on one closed form, with lambda != mu, at 224-228 for
# the linear field, 272-275 for the quadratic one and 248-251 for the trig
# one, on ball rules of 1728 to 27,648 nodes.  Batches of several points
# spread the rule's arrays: 168-183 on the 288-node ball rule (14 points)
# and the 576-node split rule (7 points).
EVALUATION_BYTES_PER_NODE = 8 * 40


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
    y, ws = reads.y, reads.ws
    a = config.rule.outer_weights
    ws.passes += 1
    if len(reads.forms) == 1:
        split, q, _ = reads.forms[0]
        u = ws.take("u", y.shape[:2] + (split.terms, 3))
        split.outer(y, u)
        g, p = _split_channels(split, q, u, a, normal)
    else:
        # the nodes of each phase by flat index: take and assignment by an
        # index are several times faster than by a mask on these layouts;
        # the flat index of the P x n nodes wraps to the rule node's
        g = ws.take("g", y.shape[:2])
        p = ws.take("p", y.shape) if normal else None
        for (split, q, _), phase in zip(reads.forms, reads.phases):
            at = np.flatnonzero(phase)
            u = ws.take("u", (len(at), split.terms, 3))
            split.outer(np.take(y.reshape(-1, 3), at, axis=0), u)
            g_at, p_at = _split_channels(split, q, u, np.take(a, at, axis=0, mode="wrap"),
                                         normal)
            g.reshape(-1)[at] = g_at
            if normal:
                p.reshape(-1, 3)[at] = p_at
    _require_finite(g)  # non-finite field values propagate through the sums
    if normal:
        _require_finite(p)
    return g, p


def _dilatation(config: OperatorConfig, reads: _Reads, c_y, g=None) -> np.ndarray:
    """The dilatational part at a batch from lambda - mu at its outer
    nodes, ``c_y``, and the inner divergence integrals ``g`` of a nested
    pass there, or of one made here from ``reads`` if ``g`` is None.

    Where lambda - mu vanishes at every outer node of the batch the
    integrand is zero, and the result is exact zero vectors without a nested
    pass; a point whose outer nodes all have lambda = mu gets zero from the
    product.
    """
    out = np.zeros((len(c_y), 3))
    if c_y.any():
        if g is None:
            g, _ = _nested_moments(config, reads, normal=False)
        delta = config.delta
        s = ((config.rule.weights / config.rule.square_norms) * c_y * g) @ config.rule.points
        out[:] = (9.0 / ball_volume(delta) ** 2) * delta**4 * s
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
    _, _, c_y = _moduli(material, reads)
    return _dilatation(config, reads, c_y).reshape(shape)


def _state(config: OperatorConfig, material: Material, reads: _Reads) -> np.ndarray:
    """Bond plus dilatational part at a batch, from its reads."""
    mu_x, mu_y, c_y = _moduli(material, reads)
    return (_bond(config, _bond_differences(config, reads), mu_x, mu_y)
            + _dilatation(config, reads, c_y))


def state_operator(config: OperatorConfig, material: Material,
                   field: PiecewiseField, x, workspace: Optional[Workspace] = None) -> Vec3:
    """The full linear peridynamic operator: bond plus dilatational part."""
    x, shape = _batch(x)
    return _state(config, material, _read(config, field, x, workspace)).reshape(shape)


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
    _, mu_y, _ = _moduli(material, reads)
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
    differences, dilatational part, interface correction) at a batch, from
    its reads, one nested pass and one set of bond differences: ``g`` feeds
    the dilatational part and the correction's quarter of it, ``p`` the
    normal-projected term, and the differences both the bond part and the
    frozen-modulus correction."""
    g, p = _nested_moments(config, reads)
    mu_x, mu_y, c_y = _moduli(material, reads)
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
                       field: PiecewiseField, x,
                       workspace: Optional[Workspace] = None) -> Vec3:
    """State operator plus the indicator-gated interface correction.

    A batch with a point in the slab takes both parts from one nested pass
    (see :func:`_slab_parts`), and its points outside the slab keep the
    state part; a batch without one takes the state operator.
    """
    x, shape = _batch(x)
    reads = _read(config, field, x, workspace)
    if isinstance(material, TwoPhaseMaterial):
        slab = _in_slab(config, material, x)
        if slab.any():
            mu_x, mu_y, dz, dil, correction = _slab_parts(config, material, reads)
            state = _bond(config, dz, mu_x, mu_y) + dil
            return np.where(slab[:, None], state + correction, state).reshape(shape)
    return _state(config, material, reads).reshape(shape)


# ---------------------------------------------------------------------------
# closed-form limits at interface points
# ---------------------------------------------------------------------------


def half_ball_moment_tensor(normal) -> Tensor3:
    """Closed form of the scaled third moment of a half-ball direction kernel.

    K_ijk = (3/32) (delta_ij n_k + delta_ik n_j + delta_jk n_i - n_i n_j n_k),
    fully symmetric; contracting it against any matrix A over its last two
    slots gives :func:`half_ball_moment_apply`.  It equals the limit of
    delta times the numeric half-ball moment
    ``half_ball_third_moment_numeric(build_half_ball_rule(normal), delta)``
    of :mod:`peridyn.quadrature` (exactly delta-independent for a planar
    split).
    """
    n = _check_unit_normal(normal)
    return (3.0 / 32.0) * (np.einsum("ij,k->ijk", IDENTITY, n)
                           + np.einsum("ik,j->ijk", IDENTITY, n)
                           + np.einsum("jk,i->ijk", IDENTITY, n)
                           - np.einsum("i,j,k->ijk", n, n, n))


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
