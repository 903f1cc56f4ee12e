import numpy as np
import pytest
from numpy.testing import assert_allclose

from peridyn import fields as F
from peridyn import operators as O
from peridyn import solver as S

BOX = (np.full(3, -0.5), np.full(3, 0.5))


@pytest.fixture(scope="module")
def patch():
    return F.make_manufactured("patch_jump_zero_traction")


@pytest.fixture(scope="module")
def flagship_grid(patch):
    _, mat = patch
    return S.build_grid(BOX, 1.0 / 16.0, 3.0, mat.interface)


@pytest.fixture(scope="module")
def flagship_operator(flagship_grid, patch):
    _, mat = patch
    return S.assemble(flagship_grid, mat)


def assemble_oblique():
    # lambda != mu on both sides and an oblique interface off the lattice
    # planes, so every assembled term is present
    iface = F.PlanarInterface(np.array([0.01, 0.0, 0.02]), np.array([0.6, 0.0, 0.8]))
    mat = F.TwoPhaseMaterial(3.0, 1.0, 5.0, 2.0, iface)
    return S.assemble(S.build_grid(BOX, 1.0 / 16.0, 3.0, iface), mat)


def assemble_bond_only():
    # lambda = mu and no extended rows: only the bond blocks and the identity
    iface = F.PlanarInterface(np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, 1.0]))
    mat = F.TwoPhaseMaterial(1.0, 1.0, 1.0, 1.0, iface)
    return S.assemble(S.build_grid(BOX, 1.0 / 16.0, 3.0, iface), mat)


@pytest.fixture(scope="module")
def oblique_operator():
    return assemble_oblique()


def matrix_scale(opr):
    return abs(opr.matrix).sum(axis=1).max()


class TestBuildGrid:
    def test_flagship_shape_and_tags(self, flagship_grid):
        grid = flagship_grid
        assert grid.shape == (17, 17, 17)
        assert grid.delta == pytest.approx(3.0 / 16.0)
        ext = grid.nodes_with_tag(S.NodeTag.EXTENDED_INTERFACE)
        sd = grid.interface.signed_distance(grid.points)
        free = grid.tags != S.NodeTag.CONSTRAINT
        assert np.array_equal(np.flatnonzero(free & (np.abs(sd) < grid.delta)), ext)

    def test_interface_outside_box(self):
        iface = F.PlanarInterface(np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, 1.0]))
        grid = S.build_grid(BOX, 1.0 / 16.0, 3.0, iface)
        assert len(grid.nodes_with_tag(S.NodeTag.EXTENDED_INTERFACE)) == 0
        assert len(grid.nodes_with_tag(S.NodeTag.INTERIOR)) > 0

    def test_ratio_must_exceed_one(self):
        with pytest.raises(ValueError):
            S.build_grid(BOX, 1.0 / 16.0, 1.0, None)

    def test_collar_must_fit(self):
        with pytest.raises(ValueError):
            S.build_grid(BOX, 1.0 / 4.0, 3.0, None)

    def test_box_must_be_lattice_compatible(self):
        with pytest.raises(ValueError):
            S.build_grid((np.zeros(3), np.array([1.0, 1.0, 0.95])), 1.0 / 16.0,
                         3.0, None)


class TestAssembly:
    def test_constraint_rows_are_identity(self, flagship_operator, flagship_grid):
        cons = flagship_grid.nodes_with_tag(S.NodeTag.CONSTRAINT)[:50]
        m = flagship_operator.matrix
        for c in cons:
            for i in range(3):
                row = m.getrow(3 * c + i)
                assert row.nnz == 1 and row[0, 3 * c + i] == 1.0

    @pytest.mark.parametrize("name", ["flagship_operator", "oblique_operator"])
    def test_constant_annihilation(self, name, request):
        opr = request.getfixturevalue(name)
        cf, _ = F.make_manufactured("constant")
        act = opr.action(cf.value(opr.grid.points))
        free = opr.grid.tags != S.NodeTag.CONSTRAINT
        assert np.abs(act[free]).max() <= 1e-10 * matrix_scale(opr)

    # a fresh matrix: a row sum on a shared one sorts its indices in place
    @pytest.mark.parametrize("build", [assemble_oblique, assemble_bond_only])
    def test_matrix_is_canonical(self, build):
        m = build().matrix
        assert m.has_sorted_indices and m.has_canonical_format
        assert (m.data != 0).all()

    def test_linear_residual_homogeneous(self):
        grid = S.build_grid(BOX, 1.0 / 16.0, 3.0, F.INTERFACE_Z)
        mat = F.TwoPhaseMaterial(1.0, 1.0, 1.0, 1.0, F.INTERFACE_Z)
        opr = S.assemble(grid, mat)
        lf, _ = F.make_manufactured("linear")
        act = opr.action(lf.value(grid.points))
        free = grid.tags != S.NodeTag.CONSTRAINT
        assert np.abs(act[free]).max() <= 1e-8

    def test_cross_validation_against_direct_quadrature(self):
        # two independent discretizations of the same operator: midpoint
        # cells versus the product Gauss rule, compared at one interior node
        tf, _ = F.make_manufactured("trig_smooth")
        iface = F.PlanarInterface(np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, 1.0]))
        mat = F.TwoPhaseMaterial(2.0, 1.0, 2.0, 1.0, iface)
        h = 1.0 / 16.0
        grid = S.build_grid(BOX, h, 3.0, iface)
        opr = S.assemble(grid, mat)
        target = np.array([1, 2, -1]) * h
        node = np.flatnonzero(np.all(np.abs(grid.points - target) < 1e-12, axis=1))[0]
        act = opr.action(tf.value(grid.points))[node]
        direct = O.state_operator(O.make_config(grid.delta), mat, tf,
                                  grid.points[node])
        assert np.abs(act - direct).max() <= 10.0 * h * h


class TestSolve:
    def test_constant_recovery(self, flagship_operator, flagship_grid):
        cf, _ = F.make_manufactured("constant")
        res = S.solve_equilibrium(flagship_operator, None, lambda p: cf.value(p))
        assert np.abs(res.u - cf.value(flagship_grid.points)).max() < 1e-10

    def test_linear_recovery(self):
        grid = S.build_grid(BOX, 1.0 / 16.0, 3.0, F.INTERFACE_Z)
        mat = F.TwoPhaseMaterial(1.0, 1.0, 1.0, 1.0, F.INTERFACE_Z)
        opr = S.assemble(grid, mat)
        lf, _ = F.make_manufactured("linear")
        res = S.solve_equilibrium(opr, None, lambda p: lf.value(p))
        assert np.abs(res.u - lf.value(grid.points)).max() < 1e-8

    def test_patch_jump_recovery_within_tolerance(self, flagship_operator,
                                                  flagship_grid, patch):
        field, _ = patch
        res = S.solve_equilibrium(flagship_operator, None, lambda p: field.value(p))
        err = np.linalg.norm(res.u - field.value(flagship_grid.points), axis=1)
        assert err.max() <= 5.0 * flagship_grid.h

    def test_solved_residuals_small(self, flagship_operator, patch):
        field, _ = patch
        res = S.solve_equilibrium(flagship_operator, None, lambda p: field.value(p))
        scale = matrix_scale(flagship_operator)
        for tag_res in res.residuals.values():
            assert tag_res["max"] <= 1e-10 * scale

    def test_perturbation_scales_linearly(self, flagship_operator,
                                          flagship_grid, patch, rng):
        # starting from the solved state the residual is pure perturbation
        field, _ = patch
        g = lambda p: field.value(p)
        solved = S.solve_equilibrium(flagship_operator, None, g)
        d = rng.normal(size=solved.u.shape)
        r1 = S.residual_check(flagship_operator, solved.u + 1e-3 * d, None, g)
        r2 = S.residual_check(flagship_operator, solved.u + 2e-3 * d, None, g)
        g1 = r1["extended_interface"]["l2"]
        g2 = r2["extended_interface"]["l2"]
        assert abs(g2 / g1 - 2.0) < 1e-6

    def test_injected_field_scaled_slab_residual_bounded(self, patch):
        # the analytic field does not satisfy the discrete interface rows;
        # the horizon-scaled residual is the scale-invariant quantity and
        # must stay bounded as h is refined at fixed ratio
        field, mat = patch
        scaled = []
        for h in (1.0 / 8.0, 1.0 / 16.0):
            half = 1.0 / 8.0 + 6.0 * h
            grid = S.build_grid((np.full(3, -half), np.full(3, half)), h, 3.0,
                                mat.interface)
            opr = S.assemble(grid, mat)
            res = S.residual_check(opr, field.value(grid.points), None,
                                   lambda p: field.value(p))
            scaled.append(grid.delta * res["extended_interface"]["max"])
        assert scaled[1] <= 1.05 * scaled[0]
        assert scaled[1] < 10.0

    def test_m_convergence(self, patch):
        # halving h at fixed ratio over the same physical free region
        field, mat = patch
        errs = []
        for h in (1.0 / 8.0, 1.0 / 16.0):
            half = 1.0 / 8.0 + 6.0 * h
            grid = S.build_grid((np.full(3, -half), np.full(3, half)), h, 3.0,
                                mat.interface)
            opr = S.assemble(grid, mat)
            res = S.solve_equilibrium(opr, None, lambda p: field.value(p))
            e = np.linalg.norm(res.u - field.value(grid.points), axis=1)
            errs.append(e[grid.tags != S.NodeTag.CONSTRAINT].max())
        assert errs[0] / errs[1] >= 1.5

    def test_permutation_consistency(self, flagship_operator, flagship_grid,
                                     patch, rng):
        field, _ = patch
        res = S.solve_equilibrium(flagship_operator, None, lambda p: field.value(p))
        ndofs = 3 * flagship_grid.n_nodes
        perm = rng.permutation(ndofs)
        import scipy.sparse as sp

        p = sp.csr_matrix((np.ones(ndofs), (np.arange(ndofs), perm)),
                          shape=(ndofs, ndofs))
        a_perm = (p @ flagship_operator.matrix @ p.T).tocsr()
        rhs = S.build_rhs(flagship_operator, None, lambda q: field.value(q))
        import scipy.sparse.linalg as spl

        u_perm = spl.spsolve(a_perm.tocsc(), p @ rhs)
        u_back = (p.T @ u_perm).reshape(-1, 3)
        assert np.abs(u_back - res.u).max() < 1e-9

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_matrix_reported(self, flagship_grid, patch):
        _, mat = patch
        opr = S.assemble(flagship_grid, mat)
        bad = opr.matrix.tolil()
        free = np.flatnonzero(flagship_grid.tags != S.NodeTag.CONSTRAINT)
        bad[3 * free[0]] = 0.0
        bad_opr = S.DiscreteOperator(grid=flagship_grid, material=mat,
                                     matrix=bad.tocsr(), offsets=opr.offsets,
                                     fractions=opr.fractions)
        with pytest.raises(np.linalg.LinAlgError, match="condition"):
            S.solve_equilibrium(bad_opr, None,
                                lambda p: np.zeros(p.shape))

    def test_body_force_rows_receive_rhs(self, flagship_grid, patch):
        # interior rows get b, extended-interface rows stay homogeneous
        _, mat = patch
        iface_out = F.PlanarInterface(np.array([0.0, 0.0, 5.0]),
                                      np.array([0.0, 0.0, 1.0]))
        grid = S.build_grid(BOX, 1.0 / 16.0, 3.0, iface_out)
        opr = S.assemble(grid, F.TwoPhaseMaterial(1.0, 1.0, 1.0, 1.0, iface_out))
        b = lambda p: np.tile([0.0, 0.0, 1.0], p.shape[:-1] + (1,))
        rhs = S.build_rhs(opr, b, lambda p: np.zeros(p.shape)).reshape(-1, 3)
        interior = grid.tags == S.NodeTag.INTERIOR
        assert np.all(rhs[interior, 2] == 1.0)
        res = S.solve_equilibrium(opr, b, lambda p: np.zeros(p.shape))
        assert np.all(np.isfinite(res.u))
        assert res.residuals["interior"]["max"] <= 1e-9 * matrix_scale(opr)
