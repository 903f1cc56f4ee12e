"""Reference values the benchmark derives by hand, without calling peridyn.

Each function restates a closed form from linear elasticity in plain NumPy,
so the benchmark's checks do not rest on the program's own formulas:

* the traction sigma n of an isotropic material, and the 45/32 traction-jump
  limit of the corrected operator at an interface point;
* the Navier operator of the ``smooth_material_trig`` configuration, derived
  symbol by symbol below;
* the continuous axial ramp whose traction jump vanishes across z = 0, and
  the slopes that make it so.
"""

from __future__ import annotations

import numpy as np

STAR_LIMIT_FACTOR = 45.0 / 32.0
E3 = np.array([0.0, 0.0, 1.0])


def p_wave_modulus(lam: float, mu: float) -> float:
    """lambda + 2 mu, the stiffness against uniaxial strain."""
    return lam + 2.0 * mu


def traction(lam: float, mu: float, grad: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """sigma n with sigma = lambda tr(G) I + mu (G + G^T), G = grad u."""
    grad = np.asarray(grad, dtype=float)
    normal = np.asarray(normal, dtype=float)
    return lam * np.trace(grad) * normal + mu * (grad + grad.T) @ normal


def star_limit(moduli, grad_plus, grad_minus, normal=E3) -> np.ndarray:
    """45/32 [sigma+ - sigma-] n for moduli (lam+, mu+, lam-, mu-)."""
    lp, mp, lm, mm = moduli
    jump = traction(lp, mp, grad_plus, normal) - traction(lm, mm, grad_minus, normal)
    return STAR_LIMIT_FACTOR * jump


def axial_grad(slope: float) -> np.ndarray:
    """Gradient of u = (0, 0, slope z)."""
    g = np.zeros((3, 3))
    g[2, 2] = slope
    return g


def zero_traction_slopes(moduli):
    """Slopes (s+, s-) of u = (0, 0, s z) whose traction jump vanishes.

    (lam+ + 2 mu+) s+ = (lam- + 2 mu-) s-: the slopes stand in the inverse
    ratio of the P-wave moduli.  The larger slope is 1, so the field has the
    same scale whatever the moduli and an absolute tolerance means the same.
    """
    lp, mp, lm, mm = moduli
    p_plus, p_minus = p_wave_modulus(lp, mp), p_wave_modulus(lm, mm)
    top = max(p_plus, p_minus)
    return p_minus / top, p_plus / top


def kinked_axial_field(points: np.ndarray, slopes) -> np.ndarray:
    """u = (0, 0, s+ z) for z >= 0 and (0, 0, s- z) below; continuous at z = 0."""
    points = np.asarray(points, dtype=float)
    z = points[..., 2]
    out = np.zeros(points.shape)
    out[..., 2] = np.where(z >= 0.0, slopes[0] * z, slopes[1] * z)
    return out


def navier_smooth_material_trig(points: np.ndarray) -> np.ndarray:
    """grad(lam div u) + div(mu (grad u + grad u^T)) for the trig configuration.

    u = (sin x2, sin x3, sin x1), mu = 2 + sin(x1)/2, lam = 3 + sin(x1)/2.

    * div u = 0, so the lambda term vanishes.
    * E = grad u + grad u^T has E12 = E21 = cos x2, E23 = E32 = cos x3,
      E13 = E31 = cos x1, zero diagonal.
    * div(mu E)_i = (d_j mu) E_ij + mu d_j E_ij with grad mu = (cos(x1)/2, 0, 0):
      (d_j mu) E_ij = (0, cos(x1) cos(x2)/2, cos(x1)^2/2) and
      d_j E_ij = (-sin x2, -sin x3, -sin x1).
    """
    points = np.asarray(points, dtype=float)
    x1, x2, x3 = points[..., 0], points[..., 1], points[..., 2]
    mu = 2.0 + 0.5 * np.sin(x1)
    return np.stack([
        -mu * np.sin(x2),
        0.5 * np.cos(x1) * np.cos(x2) - mu * np.sin(x3),
        0.5 * np.cos(x1) ** 2 - mu * np.sin(x1),
    ], axis=-1)


def loglog_slope(deltas, norms) -> float:
    """Least-squares slope of log(norm) against log(delta)."""
    slope, _ = np.polyfit(np.log(np.asarray(deltas, dtype=float)),
                          np.log(np.asarray(norms, dtype=float)), 1)
    return float(slope)
