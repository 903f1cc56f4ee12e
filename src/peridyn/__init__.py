"""Linear state-based peridynamic operators for isotropic heterogeneous
media, an interface-corrected variant, and their local elasticity limits.

Layers:

* :mod:`peridyn.tensor` -- small fixed-size tensor algebra and the two
  contraction conventions used everywhere.
* :mod:`peridyn.quadrature` -- product Gauss rules on balls and half-balls
  with singular-kernel weights, and the geometric moment integrals.
* :mod:`peridyn.fields` -- two-phase materials and manufactured
  piecewise-smooth fields with hand-differentiated derivatives.
* :mod:`peridyn.operators` -- point evaluation of the nonlocal operators and
  the closed-form interface limit formulas.
* :mod:`peridyn.analysis` -- convergence/blow-up/limit studies with rate
  fits and serialization.
* :mod:`peridyn.solver` -- meshfree collocation of the equilibrium interface
  system, applied by FFT and solved by Krylov iteration.
* :mod:`peridyn.cli` -- the ``peridyn`` command.
"""

# first, so a submodule can import it while the package initialises
__version__ = "0.1.0"

from .fields import (
    AnalyticScalarField,
    AnalyticVectorField,
    MANUFACTURED_NAMES,
    PiecewiseField,
    PlanarInterface,
    SideTag,
    SmoothMaterial,
    TwoPhaseMaterial,
    constant_material,
    make_manufactured,
    navier,
    navier_d,
    navier_s,
    stress,
    traction_jump,
)
from .operators import (
    Horizon,
    OperatorConfig,
    base_operator,
    base_operator_scalar,
    bond_correction_term,
    bond_operator,
    corrected_operator,
    dilatation_operator,
    half_ball_moment_apply,
    half_ball_moment_tensor,
    interface_correction,
    make_config,
    natural_condition_limit,
    normal_correction_limit,
    normal_correction_term,
    state_operator,
    weight_mass,
)
from .quadrature import (
    BallQuadrature,
    HalfBallQuadrature,
    ball_volume,
    build_ball_rule,
    build_half_ball_rule,
    build_split_ball_rule,
    fourth_moment,
    half_ball_first_moment,
    half_ball_third_moment_numeric,
    integrate_ball,
    integrate_half_ball,
    rotation_to_pole,
    second_moment,
    third_moment,
)
from .tensor import contract_t3_mat, contract_t4_mat, outer, outer3, outer4
