"""Point evaluation of the linear peridynamic operators for isotropic media.

The state-based operator splits into a bond part (weighted by the shear
modulus at both bond ends) and a dilatational part (a composition of two
singular single integrals weighted by lambda - mu).  For two-phase materials
an interface correction operator, supported on the slab of points within one
horizon of the interface, repairs the jump in the nonlocal traction; adding
it to the state operator yields the corrected operator whose horizon-scaled
value at interface points tends to 45/32 times the local traction jump.

That limit, and the natural-condition limit of the state operator, do not
hold for fields with a gradient kink across the interface when lambda !=
mu: the inner integral of the divergence channel ``g`` takes each inner
point's own phase and so crosses the interface, which leaves a
horizon-independent term.  The zero-traction patch on the moduli (3, 1, 5, 2)
misses 45/32 times the traction jump by about 1.04.

All evaluators are pure functions of (config, material, field, points), and
each takes one point of shape (3,) or a batch of P points of shape (P, 3),
returning one value per point in the same layout.  A call on a batch builds
the rule's constants once, reads the material and the field at all P x n
outer nodes x_p + delta z_q in one call each, and forms each sum over the
nodes as one matrix product over the batch.  The nested double integrals
reuse one reference ball rule for the inner and outer integral, and one
nested pass computes both inner integrals at every outer node.  There are
three passes, chosen by what the field declares:

* A field whose closed forms are affine, as every manufactured interface
  configuration is, is integrated from the rule's moments: the pass reads
  the n outer nodes once per side, O(n) work per point.  With one closed
  form the whole batch is one pass; with a kink across the interface each
  point of the batch sorts the nodes by side, O(n log n) work, in turn.
* A field with one closed form that declares a split of u(y + d) into
  products of factors of y and of d, as the manufactured trig and quadratic
  fields do, is integrated from rule sums of the inner factors: the pass
  reads the outer factors at the n outer nodes of every point of the batch
  and the inner factors at the n offsets once, O(n m) work per point for m
  products.
* Any other field is read at the n^2 inner points, point by point; these are
  symmetric in the pair of nodes, so the pass evaluates the field once per
  unordered pair of node tiles and adds the values into both tiles' sums.

The tiles, the sort and every summation order are fixed for a given batch,
so results are reproducible bit for bit.  A point's value in a batch agrees
with its value alone to rounding: the matrix products may add a sum in
another order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .fields import Material, PiecewiseField, SideTag, TwoPhaseMaterial
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


def _moduli(config: OperatorConfig, material: Material, x):
    """mu at the points of a batch (P,), and mu and lambda - mu at their
    outer nodes (P, n): one read of the material at each."""
    shape = (len(x), len(config.rule))
    _, mu_x = material.lame_at(x)
    lam_y, mu_y = material.lame_at(_outer_nodes(config, x))
    return (np.broadcast_to(np.asarray(mu_x, dtype=float), shape[:1]),
            np.broadcast_to(np.asarray(mu_y, dtype=float), shape),
            np.broadcast_to(np.asarray(lam_y - mu_y, dtype=float), shape))


def _bond_differences(config: OperatorConfig, field: PiecewiseField, x):
    """(u(x_p + delta z_q) - u(x_p)) . z_q for each point x_p of a batch,
    shape (P, n): the one read of the field that the bond sums share."""
    dv = _require_finite(field.value(_outer_nodes(config, x))
                         - field.value(x)[:, None, :])
    return np.einsum("pqj,qj->pq", dv, config.rule.points)


def _bond_sum(config: OperatorConfig, dz, node_weights):
    """sum_q node_weights_pq (z_q (x) z_q / |z_q|^4) (u(x_p + delta z_q) - u(x_p))
    for each point x_p of a batch, from its differences ``dz`` projected on
    z (:func:`_bond_differences`); the weights are (n,) or (P, n)."""
    z = config.rule.points
    r4 = np.einsum("qi,qi->q", z, z) ** 2
    return (node_weights / r4 * dz) @ z


def base_operator(config: OperatorConfig, field: PiecewiseField, x) -> Vec3:
    """Material-independent difference operator.

    (30/|B_delta|) integral over B_delta(x) of
    ((y-x)(x)(y-x)/|y-x|^4) (u(y) - u(x)) dy.  For fields with bounded third
    derivatives this tends to 2 grad(div u) + lap u, exactly so for
    quadratic fields at every horizon.
    """
    x, shape = _batch(x)
    delta = config.delta
    s = _bond_sum(config, _bond_differences(config, field, x), config.rule.weights)
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
    mu_x, mu_y, _ = _moduli(config, material, x)
    return _bond(config, _bond_differences(config, field, x), mu_x, mu_y).reshape(shape)


def _frozen_bond(config: OperatorConfig, dz, mu_x):
    """The bond correction at a batch, from its projected differences and
    mu at its points."""
    s = _bond_sum(config, dz, config.rule.weights)
    return -(15.0 / ball_volume(config.delta)) * config.delta * mu_x[:, None] * s


def bond_correction_term(config: OperatorConfig, material: Material,
                         field: PiecewiseField, x) -> Vec3:
    """Bond-type correction term: minus the bond kernel with mu frozen at x."""
    x, shape = _batch(x)
    mu_x, _, _ = _moduli(config, material, x)
    return _frozen_bond(config, _bond_differences(config, field, x), mu_x).reshape(shape)


# ---------------------------------------------------------------------------
# nested (composition-type) evaluations
# ---------------------------------------------------------------------------

# Tile width of the nested pass, in rule nodes.  The width fixes the order in
# which each node's sums are accumulated, so it is a constant and not a
# setting: results are reproducible bit for bit.  At 64 a tile's arrays of
# 64 x 64 points stay below 100 kB, which the allocator reuses from tile to
# tile, so the pass adds no measurable peak RSS.  On one core of a shared
# 2-core x86 machine one pass at 64 took 17 ms on the 768-node rule and
# 1.05 s on the 4608-node rule; widths 96 to 192 were up to 17% faster but
# added 0.4 to 3.5 MiB to the peak RSS, and 32 and 48 were 20-75% slower.
_NESTED_TILE = 64


# Estimated peak bytes per field point of one operator evaluation on a batch,
# the rule included, where the field points are the P x n outer nodes of the
# batch's points.  Measured with tracemalloc: with one point per batch (rules
# of more than 2048 nodes) the rule holds 32 and the closed-form pass of an
# affine two-sided field about 352, 384-386 in all on split rules of 4608 to
# 36,864 nodes; a state operator evaluation on a declared split peaks at
# 288-323 for the trig field (2 products) and 328-371 for the quadratic one
# (3 products), on ball rules of 2304 to 18,432 nodes.  Batches of several
# points spread the rule's constants: 182-211 on the 768-node ball rule and
# the 1536-node split rule.  The tiled pass holds about 100 per node beside
# its tiles.
EVALUATION_BYTES_PER_NODE = 8 * 48


def _nested_tiles(n: int):
    """The tiles of the nested pass over an n-node rule, in a fixed order:
    each row block J of the node index with the column blocks K at or after
    it.  A rule of at most ``_NESTED_TILE`` nodes is one diagonal tile."""
    blocks = [slice(a, min(a + _NESTED_TILE, n)) for a in range(0, n, _NESTED_TILE)]
    for i, rows in enumerate(blocks):
        yield rows, blocks[i:]


def _two_sided(field: PiecewiseField) -> bool:
    """Whether the nested pass evaluates both sides' closed forms: a field
    with a kink across its interface."""
    return not (field.interface is None or field.plus_side is field.minus_side)


def _affine(field: PiecewiseField) -> bool:
    """Whether every closed form the nested pass reads declares a constant
    gradient, so that the pass integrates it from rule moments."""
    sides = (field.plus_side, field.minus_side) if _two_sided(field) else (field.plus_side,)
    return all(side.constant_grad is not None for side in sides)


def _separable(field: PiecewiseField) -> bool:
    """Whether the field has one closed form and it declares a split, so
    that the pass integrates it from rule sums."""
    return not _two_sided(field) and field.plus_side.split is not None


def nested_pass_points(n: int, field: PiecewiseField) -> int:
    """Field points one nested pass over an n-node rule evaluates on
    ``field``, once per side for a field with a kink: the n outer nodes for
    an affine field (see :func:`_affine_moments`), the outer factors at the
    n outer nodes and the inner factors at the n offsets for a declared
    split (see :func:`_split_moments`), else each tile of
    :func:`_nested_tiles` once.  Closed form, so it also counts passes too
    large to enumerate."""
    sides = 2 if _two_sided(field) else 1
    if _affine(field):
        return sides * n
    if _separable(field):
        return 2 * n
    full, rest = divmod(n, _NESTED_TILE)
    diagonal = full * _NESTED_TILE**2 + rest**2  # the diagonal tiles' points
    return sides * (n * n + diagonal) // 2


def _by_side(plus, moments, up, um):
    """``moments`` of the plus values where ``plus`` holds, else of the
    minus values; ``plus`` is a mask over the leading axis of the result."""
    if plus.all():
        return moments(up)
    if not plus.any():
        return moments(um)
    return np.where(plus[:, None, None], moments(up), moments(um))


def _nested_moments(config: OperatorConfig, field: PiecewiseField, x):
    """Inner integrals of the composed kernels at every outer node of each
    point of a batch x of shape (P, 3).

    For outer nodes y_j = x + delta z_j of a point x returns

    * ``g[j] = sum_k (w_k/|z_k|^2) z_k . u(y_j + delta z_k)`` -- the scalar
      divergence channel; the physical inner integral is delta^2 g.  Each
      inner point takes its own phase (the plus side on the interface): the
      side of x + (delta z_j + delta z_k), read from its signed distance
      sd(x) + (s_j + s_k) with s = delta z . n.
    * ``p[j] = M_j^T (z_j/|z_j|^2)`` with
      ``M_j = sum_k (w_k/|z_k|^2) z_k (x) u_j(y_j + delta z_k)`` -- the
      normal-projection channel; the physical value is delta p.  Here u_j is
      the closed form of the phase that y_j lies in (the plus side on the
      interface), also where the inner ball reaches across the interface.
      Its horizon-scaled limit is then the shear-weighted jump formula of
      :func:`normal_correction_limit`.

    as g of shape (P, n) and p of shape (P, n, 3).  Three passes compute
    these, tried in order:

    * a field whose closed forms are all affine is integrated from rule
      moments with n field points per side (:func:`_affine_moments` for the
      whole batch with one closed form, :func:`_kinked_moments` point by
      point with a kink);
    * a field with one closed form that declares a split is integrated from
      rule sums of its inner factors, with its outer factors read at the n
      outer nodes of every point of the batch (:func:`_split_moments`);
    * any other field is evaluated at the n^2 inner points by pair-symmetric
      tiles, point by point (:func:`_tiled_moments`).

    All three agree to rounding on the fields the first two accept.
    """
    if _affine(field) and not _two_sided(field):
        g, p = _affine_moments(config, field, x)
    elif _separable(field):
        g, p = _split_moments(config, field, x)
    else:
        one = _kinked_moments if _affine(field) else _tiled_moments
        moments = [one(config, field, point) for point in x]
        g = np.stack([m[0] for m in moments])
        p = np.stack([m[1] for m in moments])
    _require_finite(g)  # non-finite field values propagate through the sums
    _require_finite(p)
    return g, p


def _nested_weights(config: OperatorConfig):
    """(bw, a, delta z) of the rule: bw_k = (w_k/|z_k|^2) z_k weighs the
    inner nodes, a_j = z_j/|z_j|^2 the outer ones."""
    z = config.rule.points
    r2 = np.einsum("qi,qi->q", z, z)
    return (config.rule.weights / r2)[:, None] * z, z / r2[:, None], config.delta * z


def _minus_counts(s, sd_x: float) -> np.ndarray:
    """For each outer node j, how many inner nodes k put the inner point on
    the minus side: those where ``sd_x + (s_j + s_k) >= 0`` fails.

    Rounding is monotone, so the predicate is monotone in s_k bit for bit,
    and these nodes come first in ascending order of s.  ``searchsorted`` on
    the distinct values of s finds each boundary to rounding; the predicate
    itself then moves it, by a few distinct values at most, to where it
    holds exactly.
    """
    values, counts = np.unique(s, return_counts=True)
    last = len(values) - 1

    def minus(i):
        return ~(sd_x + (s + values[i]) >= 0.0)

    m = np.searchsorted(values, -sd_x - s)
    while True:
        down = (m > 0) & ~minus(np.maximum(m - 1, 0))
        up = (m <= last) & minus(np.minimum(m, last))
        if not (down.any() or up.any()):
            break
        m = m - down + up
    return np.concatenate(([0], np.cumsum(counts)))[m]


def _prefix_sums(v) -> np.ndarray:
    """The sums of the first i rows of v, i = 0..len(v), compensated: the
    rounding error of each step of the running sum is recovered exactly
    (Knuth's TwoSum) and the errors are added back, so each sum is good to
    about one rounding however many rows it adds."""
    run = np.cumsum(v, axis=0)
    before, step, after = run[:-1], v[1:], run[1:]
    back = after - before
    err = (before - (after - back)) + (step - back)
    out = np.zeros((len(v) + 1,) + v.shape[1:])
    out[1:] = run
    out[2:] += np.cumsum(err, axis=0)
    return out


def _rule_moments(bw, dz):
    """B0 = sum_k bw_k and B1 = sum_k bw_k (x) delta z_k, compensated."""
    b0 = _prefix_sums(bw)[-1]
    b1 = np.stack([_prefix_sums(bw * dz[:, l, None])[-1] for l in range(3)], axis=1)
    return b0, b1


def _affine_p(a, b0, b1, u, grad):
    """The ``p`` channel (B0 . a_j) u(y_j) + G (B1^T a_j) of an affine closed
    form with gradient G, from its values u at the outer nodes."""
    return (a @ b0)[:, None] * u + (a @ b1) @ grad.T


def _affine_moments(config: OperatorConfig, field: PiecewiseField, x):
    """The channels of :func:`_nested_moments` for a field with one closed
    form u, affine with gradient G, at a batch x, from the n outer nodes of
    each point.

    Since u(y_j + delta z_k) = u(y_j) + G delta z_k, the rule moments B0 and
    B1 (:func:`_rule_moments`) give g_j = B0 . u(y_j) + G : B1, where
    G : B1 = sum_il G_il (B1)_il, and p_j = (B0 . a_j) u(y_j) + G (B1^T a_j).
    """
    bw, a, dz = _nested_weights(config)
    b0, b1 = _rule_moments(bw, dz)
    grad = field.plus_side.constant_grad
    u = field.value(x[:, None, :] + dz)
    return u @ b0 + np.sum(grad * b1), _affine_p(a, b0, b1, u, grad)


def _kinked_moments(config: OperatorConfig, field: PiecewiseField, x):
    """The channels of :func:`_nested_moments` at one point x for a field
    whose two closed forms u_s are affine with gradients G_s, from the n
    outer nodes per side.

    As in :func:`_affine_moments`, p_j = (B0 . a_j) u_s(y_j) + G_s (B1^T a_j)
    with s the phase of y_j.  g_j starts from the plus side and switches j's
    minus-side inner nodes over:

        g_j = B0 . u_+(y_j) + G_+ : B1
              + sum_{k minus} bw_k . (u_-(y_j) - u_+(y_j) + (G_- - G_+) delta z_k)

    Those nodes are a prefix of the nodes in ascending order of s_k
    (:func:`_minus_counts`), so the last sum is two prefix sums.  Every sum
    is compensated (:func:`_prefix_sums`), and the prefix sums weigh only the
    jump between the sides, which is small near the interface of a
    continuous field.
    """
    bw, a, dz = _nested_weights(config)
    y = x + dz
    b0, b1 = _rule_moments(bw, dz)
    grad_plus = field.plus_side.constant_grad
    grad_minus = field.minus_side.constant_grad
    iface = field.interface
    u_plus = field.value_on(y, SideTag.PLUS)
    u_minus = field.value_on(y, SideTag.MINUS)
    s = dz @ iface.normal
    minus = _minus_counts(s, float(iface.signed_distance(x)))
    order = np.argsort(s, kind="stable")

    def prefix(v):  # sums of v over each outer node's minus-side inner nodes
        return _prefix_sums(v[order])[minus]

    jump = np.einsum("ki,ki->k", bw, dz @ (grad_minus - grad_plus).T)
    g = (u_plus @ b0 + np.sum(grad_plus * b1)
         + np.einsum("ji,ji->j", prefix(bw), u_minus - u_plus) + prefix(jump))
    outer_plus = (iface.signed_distance(y) >= 0.0)[:, None]
    p = np.where(outer_plus, _affine_p(a, b0, b1, u_plus, grad_plus),
                 _affine_p(a, b0, b1, u_minus, grad_minus))
    return g, p


def _split_moments(config: OperatorConfig, field: PiecewiseField, x):
    """The channels of :func:`_nested_moments` for a field with one closed
    form that declares a split u(y + d)_i = sum_m U(y)_mi V(d)_mi, at a batch
    x, from the outer factors U at the n outer nodes of each point and the
    inner factors V at the n offsets delta z_k.

    With Q[i, m, l] = sum_k bw_ki V(delta z_k)_ml and B[m, i] = Q[i, m, i],
    g_j = sum_mi U(y_j)_mi B[m, i] and p_j[l] = sum_m U(y_j)_ml (a_j^T Q)[m, l]:
    O(n m) work per point, each sum one matrix product over the batch.
    """
    bw, a, dz = _nested_weights(config)
    outer, inner = field.plus_side.split
    u = outer(x[:, None, :] + dz)  # (P, n, m, 3)
    n, m = u.shape[1:3]
    q = bw.T @ inner(dz).reshape(n, 3 * m)  # q[i, 3m + l] = Q[i, m, l]
    b = np.einsum("imi->mi", q.reshape(3, m, 3))
    g = u.reshape(-1, 3 * m) @ b.ravel()
    aq = (a @ q).reshape(n, m, 3)
    p = u[:, :, 0] * aq[:, 0]
    for k in range(1, m):  # the sum over m in order; .sum(axis=2) is slower
        p += u[:, :, k] * aq[:, k]
    return g.reshape(len(x), n), p


def _tiled_moments(config: OperatorConfig, field: PiecewiseField, x):
    """The channels of :func:`_nested_moments` from the field's values at
    all n^2 inner points.

    The inner point of the pair (j, k) is x + (delta z_j + delta z_k), the
    same point, bit for bit, as that of (k, j).  So the pass visits square
    tiles (J, K) of the node index with J at or before K (see
    :func:`_nested_tiles`) and evaluates the field once per tile: the rows J
    take the moments summed over K, and off the diagonal the rows K take the
    mirrored moments summed over J, from the same values.
    """
    bw, a, dz = _nested_weights(config)
    n = dz.shape[0]
    # a tile's arrays are laid out (rows, 3 * columns), so that each
    # elementwise step runs along a contiguous row of the tile
    tile = min(_NESTED_TILE, n)
    dz_flat = dz.reshape(-1)
    x_flat = np.tile(x, tile)
    iface = field.interface
    two_sided = _two_sided(field)
    if two_sided:
        # the signed distance of an inner point splits symmetrically as
        # sd(x) + (s_j + s_k), so its side does not depend on the order
        s = dz @ iface.normal
        sd_x = float(iface.signed_distance(x))
        outer_plus = iface.signed_distance(x + dz) >= 0.0

    g = np.zeros(n)
    p = np.zeros((n, 3))

    def add(nodes, m_inner, m_outer):
        """Adds moments M of the nodes read through each inner point's
        phase (to g) and through the outer node's phase (to p)."""
        g[nodes] += np.trace(m_inner, axis1=1, axis2=2)
        p[nodes] += np.einsum("bil,bi->bl", m_outer, a[nodes])

    for rows, col_blocks in _nested_tiles(n):
        n_rows = rows.stop - rows.start
        dz_rows = np.tile(dz[rows], (1, tile))
        bwt_rows = bw[rows].T
        for cols in col_blocks:
            flat = slice(3 * cols.start, 3 * cols.stop)
            width = flat.stop - flat.start
            mirror = rows.start != cols.start
            # row moments as one GEMM: (u @ b)[j, 3i + l] = sum_k bw[k, i] u[j, k, l]
            b = np.zeros((width // 3, 3, 3, 3))
            for l in range(3):
                b[:, l, :, l] = bw[cols]
            b = b.reshape(width, 9)

            def row_moments(u):  # (T_J, 3, 3): summed over the columns
                return (u @ b).reshape(n_rows, 3, 3)

            def col_moments(u):  # (T_K, 3, 3): summed over the rows
                m = bwt_rows @ u
                return m.reshape(3, -1, 3).transpose(1, 0, 2)

            pts = dz_rows[:, :width] + dz_flat[flat]
            pts += x_flat[:width]
            pts = pts.reshape(n_rows, -1, 3)
            if not two_sided:
                u = field.value(pts).reshape(n_rows, width)
                m = row_moments(u)
                add(rows, m, m)
                if mirror:
                    m = col_moments(u)
                    add(cols, m, m)
                continue
            # one evaluation per side; g selects by the inner point's phase
            up = field.value_on(pts, SideTag.PLUS).reshape(n_rows, width)
            um = field.value_on(pts, SideTag.MINUS).reshape(n_rows, width)
            inner_plus = sd_x + (s[rows, None] + np.repeat(s[cols], 3)) >= 0.0
            if inner_plus.all():
                u_inner = up
            elif not inner_plus.any():
                u_inner = um
            else:
                u_inner = np.where(inner_plus, up, um)
            add(rows, row_moments(u_inner),
                _by_side(outer_plus[rows], row_moments, up, um))
            if mirror:
                add(cols, col_moments(u_inner),
                    _by_side(outer_plus[cols], col_moments, up, um))
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
    return bool(_moduli(config, material, x)[2].any())


def _dilatation(config: OperatorConfig, field: PiecewiseField, x, c_y,
                g=None) -> np.ndarray:
    """The dilatational part at a batch x from lambda - mu at its outer
    nodes, ``c_y``, and the inner divergence integrals ``g`` of a nested
    pass at x, or of one made here if ``g`` is None.

    Where lambda - mu vanishes at every outer node of a point the integrand
    is zero, and the result is an exact zero vector without a nested pass.
    """
    z = config.rule.points
    w = config.rule.weights
    delta = config.delta
    out = np.zeros((len(x), 3))
    active = c_y.any(axis=1)
    if not active.any():
        return out
    if g is None:
        g, _ = _nested_moments(config, field, x[active])
    else:
        g = g[active]
    r2 = np.einsum("qi,qi->q", z, z)
    s = ((w / r2) * c_y[active] * g) @ z
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
    _, _, c_y = _moduli(config, material, x)
    return _dilatation(config, field, x, c_y).reshape(shape)


def _state(config: OperatorConfig, material: Material, field: PiecewiseField,
           x) -> np.ndarray:
    """Bond plus dilatational part at a batch x."""
    mu_x, mu_y, c_y = _moduli(config, material, x)
    return (_bond(config, _bond_differences(config, field, x), mu_x, mu_y)
            + _dilatation(config, field, x, c_y))


def state_operator(config: OperatorConfig, material: Material,
                   field: PiecewiseField, x) -> Vec3:
    """The full linear peridynamic operator: bond plus dilatational part."""
    x, shape = _batch(x)
    return _state(config, material, field, x).reshape(shape)


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
    _, mu_y, _ = _moduli(config, material, x)
    _, p = _nested_moments(config, field, x)
    return _normal_term(config, mu_y, p, normal).reshape(shape)


def _require_interface(material: Material) -> TwoPhaseMaterial:
    if not isinstance(material, TwoPhaseMaterial):
        raise TypeError("interface operators require a two-phase material")
    return material


def _in_slab(config: OperatorConfig, material: TwoPhaseMaterial, x) -> np.ndarray:
    """Which points of the batch x lie within one horizon of the interface."""
    return np.abs(material.interface.signed_distance(x)) < config.delta


def _slab_parts(config: OperatorConfig, material: TwoPhaseMaterial,
                field: PiecewiseField, x):
    """(mu at the points, mu at the outer nodes, the projected bond
    differences, dilatational part, interface correction) at a batch x in
    the slab, from one nested pass and one read of the bond differences:
    ``g`` feeds the dilatational part and the correction's quarter of it,
    ``p`` the normal-projected term, and the differences both the bond part
    and the frozen-modulus correction."""
    g, p = _nested_moments(config, field, x)
    mu_x, mu_y, c_y = _moduli(config, material, x)
    dil = _dilatation(config, field, x, c_y, g)
    dz = _bond_differences(config, field, x)
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
    return _slab_parts(config, material, field, x)[4].reshape(shape)


def corrected_operator(config: OperatorConfig, material: Material,
                       field: PiecewiseField, x) -> Vec3:
    """State operator plus the indicator-gated interface correction.

    The points of the batch in the slab take both parts from one nested
    pass (see :func:`_slab_parts`); the others take the state operator.
    """
    x, shape = _batch(x)
    if not isinstance(material, TwoPhaseMaterial):
        return _state(config, material, field, x).reshape(shape)
    slab = _in_slab(config, material, x)
    out = np.empty((len(x), 3))
    if not slab.all():
        out[~slab] = _state(config, material, field, x[~slab])
    if slab.any():
        xs = x[slab]
        mu_x, mu_y, dz, dil, correction = _slab_parts(config, material, field, xs)
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
    corrected operator.  For fields with a gradient kink and lambda != mu the
    scaled operator misses this formula by a horizon-independent term: the
    inner integral of the divergence channel ``g`` crosses the interface.
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
