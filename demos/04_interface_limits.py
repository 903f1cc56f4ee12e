"""Horizon-scaled operator limits at an interface point.

Three quantities per configuration:

* the scaled uncorrected operator tends to a closed-form combination of
  one-sided gradients (the local content of the "natural" interface
  condition);
* 45/32 times the traction jump is what a local interface model requires;
* the scaled corrected operator is built to bridge the two.

For both the gradient-jump configuration (smooth field, jumping moduli) and
the zero-traction patch (kinked field) the corrected operator hits 45/32
times the traction jump to machine precision: both inner integrals of the
nested pass are evaluated at each outer node on that node's own phase.  The
run below shows all numbers side by side.
"""

import numpy as np

from peridyn import make_manufactured, natural_condition_limit, traction_jump
from peridyn.analysis import geometric_deltas, natural_limit_check, star_limit_check

x0 = np.zeros(3)
deltas = geometric_deltas(0.1, 1e-3, 5)

for name in ("gradient_jump", "patch_jump_zero_traction"):
    field, material = make_manufactured(name)
    natural = natural_limit_check(material, field, x0, deltas)
    star = star_limit_check(material, field, x0, deltas)
    target = 45.0 / 32.0 * traction_jump(material, field, x0)
    print(f"{name}:")
    print("  natural-condition closed form  :",
          np.array2string(natural_condition_limit(material, field, x0), precision=6))
    print("  scaled uncorrected limit       :",
          np.array2string(natural.limit_estimate, precision=6))
    print("  45/32 x traction jump          :",
          np.array2string(target, precision=6))
    print("  scaled corrected limit         :",
          np.array2string(star.limit_estimate, precision=6))
    print()
