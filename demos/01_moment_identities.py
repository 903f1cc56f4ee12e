"""Geometric moment identities of the singular direction kernels.

The product Gauss rules fold the radial Jacobian into the weights, so every
polynomial-times-1/|z|^k integrand used by the nonlocal operators is
integrated to machine precision.  This script prints the classical moment
identities that calibrate all operator scalings.
"""

import numpy as np

from peridyn import (
    build_ball_rule,
    build_half_ball_rule,
    fourth_moment,
    half_ball_first_moment,
    half_ball_moment_tensor,
    half_ball_third_moment_numeric,
    second_moment,
    ball_volume,
)

rule = build_ball_rule()
print(f"ball rule: {len(rule)} nodes, weight sum error "
      f"{rule.weights.sum() - 4 * np.pi / 3:+.2e}")

# second moment of z (x) z / |z|^2 -- one third of the ball volume times I
sm = second_moment(rule, 0.5)
print("\nsecond moment (delta = 0.5), error vs |B|/3 I:",
      f"{np.abs(sm - ball_volume(0.5) / 3 * np.eye(3)).max():.2e}")

# fourth moment (30/|B|) z_i z_j z_k z_l / |z|^4: entries 6 / 2 / 0
fm = fourth_moment(rule)
print("fourth moment entries: "
      f"T1111 = {fm[0, 0, 0, 0]:.12f} (6), "
      f"T1122 = {fm[0, 0, 1, 1]:.12f} (2), "
      f"T1112 = {fm[0, 0, 0, 1]:+.1e} (0)")

# half-ball first moment: (3 delta/|B|) int (y-x)/|y-x|^2 = (9/8) n
rng = np.random.default_rng(0)
n = rng.normal(size=3)
n /= np.linalg.norm(n)
half = build_half_ball_rule(n)
print(f"\nrandom normal n = {np.array2string(n, precision=4)}")
print("half-ball first moment / n:",
      np.array2string(half_ball_first_moment(half) / n, precision=12))

# the scaled half-ball third moment is horizon-independent and matches the
# closed form K_ijk = (3/32)(d_ij n_k + d_ik n_j + d_jk n_i - n_i n_j n_k)
closed = half_ball_moment_tensor(n)
for delta in (1.0, 0.1, 0.01):
    k = delta * half_ball_third_moment_numeric(half, delta)
    print(f"delta = {delta:5.2f}: max |scaled third moment - closed form| = "
          f"{np.abs(k - closed).max():.2e}")
