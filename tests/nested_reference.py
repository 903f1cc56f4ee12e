"""The nested pass from its definition: the test reference.

``reference_moments`` computes the two channels that
``operators._nested_moments`` returns straight from their definitions, one
outer node at a time over every inner node, so it visits all n^2 ordered node
pairs, reads the field's values rather than its split, and shares no layout
or side test with the pass.
"""

import numpy as np

from peridyn.fields import SideTag


def reference_moments(config, field, x):
    """(g, p) of the nested pass at x, from the n^2 ordered node pairs.

    Both ``g[j]`` and ``p[j]`` read the closed form of the phase of the
    outer node y_j (the plus side on the interface)."""
    z = config.rule.points
    r2 = np.einsum("qi,qi->q", z, z)
    bw = (config.rule.weights / r2)[:, None] * z
    y = x + config.delta * z
    g = np.empty(len(z))
    p = np.empty((len(z), 3))
    for j, y_j in enumerate(y):
        inner = y_j + config.delta * z
        if field.interface is None:
            u = field.value(inner)
        else:
            side = (SideTag.PLUS if field.interface.signed_distance(y_j) >= 0.0
                    else SideTag.MINUS)
            u = field.value_on(inner, side)
        g[j] = np.sum(bw * u)
        p[j] = (bw.T @ u).T @ (z[j] / r2[j])
    return g, p


def moment_scale(config, field, x) -> float:
    """A bound on the sum of the magnitudes of the terms of any ``g[j]``:
    sum_k |w_k z_k / |z_k|^2|_1 times the largest |u| component of either
    side's closed form on the inner points.  The ``p`` channel's terms carry
    a further factor of at most max_j |z_j / |z_j|^2|_1."""
    z = config.rule.points
    r2 = np.einsum("qi,qi->q", z, z)
    bw = (config.rule.weights / r2)[:, None] * z
    inner = x + config.delta * (z[:, None, :] + z[None, :, :])
    u_max = max(np.abs(field.value_on(inner, side)).max() for side in SideTag)
    return float(np.abs(bw).sum() * u_max)


def reference_batch_moments(config, field, xs):
    """(g, p) of :func:`reference_moments` at each point of a batch xs of
    shape (P, 3), stacked as the batched pass returns them."""
    moments = [reference_moments(config, field, x) for x in xs]
    return np.stack([m[0] for m in moments]), np.stack([m[1] for m in moments])


def term_scale(config, material, field, pts) -> float:
    """The size of the terms the point operators sum at the points pts:
    the largest modulus at their outer nodes times the largest |u| component
    of either side's closed form on their inner points, over delta^2."""
    z = config.rule.points
    outer = pts[:, None, :] + config.delta * z
    inner = outer[:, :, None, :] + config.delta * z
    moduli = max(np.abs(m).max() for m in material.lame_at(outer))
    u_max = max(np.abs(field.value_on(inner, side)).max() for side in SideTag)
    return float(moduli * u_max / config.delta**2)
