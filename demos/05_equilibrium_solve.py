"""Meshfree collocation solve of the equilibrium interface system.

A 17^3 lattice over a unit box, horizon three spacings, displacements
prescribed on a two-horizon collar from the zero-traction patch field.
Interior rows carry the state operator, extended-interface rows the
corrected operator with zero right-hand side.  The solve reproduces the
analytic field to a few percent of a spacing at the patch-test tolerance.
"""

import numpy as np

from peridyn import make_manufactured
from peridyn.solver import NodeTag, assemble, build_grid, solve_equilibrium

field, material = make_manufactured("patch_jump_zero_traction")
h = 1.0 / 16.0
box = (np.full(3, -0.5), np.full(3, 0.5))
grid = build_grid(box, h, 3.0, material.interface)
tags = grid.tags
print(f"grid {grid.shape}, {grid.n_nodes} nodes "
      f"({np.sum(tags == NodeTag.CONSTRAINT)} constrained, "
      f"{np.sum(tags == NodeTag.EXTENDED_INTERFACE)} on the extended interface, "
      f"{np.sum(tags == NodeTag.INTERIOR)} interior)")

operator = assemble(grid, material)
result = solve_equilibrium(operator, None, lambda p: field.value(p))
print(f"GMRES (Jacobi preconditioner): {result.iterations} iterations, "
      f"final relative residual {result.residual_history[-1]:.3e}")
for tag, res in result.residuals.items():
    print(f"  residual[{tag}]: max {res['max']:.3e}")

exact = field.value(grid.points)
err = np.linalg.norm(result.u - exact, axis=1)
free = tags != NodeTag.CONSTRAINT
print(f"\nmax nodal error over free nodes: {err[free].max():.4e} "
      f"(tolerance 5 h = {5 * h:.4f})")

print("\nerror along the center column (x = y = 0):")
col = (np.abs(grid.points[:, 0]) < 1e-12) & (np.abs(grid.points[:, 1]) < 1e-12)
for z, e, t in zip(grid.points[col, 2], err[col], tags[col]):
    bar = "#" * int(60 * e / max(err[free].max(), 1e-300))
    print(f"  z = {z:+.4f}  {NodeTag(t).name.lower():18s} {e:9.3e} {bar}")
