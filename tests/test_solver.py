import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from lattice_matrix import MatrixOperator, reference_matrix
from peridyn import cli
from peridyn import fields as F
from peridyn import operators as O
from peridyn import solver as S
from peridyn.quadrature import ball_volume

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


def assemble_bench_box():
    # the benchmark's lattice_solve problem: box +-0.75, e3 interface, moduli
    # (3, 4.5, 2, 3), 6591 free dofs
    iface = F.PlanarInterface(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    mat = F.TwoPhaseMaterial(3.0, 4.5, 2.0, 3.0, iface)
    return S.assemble(S.build_grid((np.full(3, -0.75), np.full(3, 0.75)), 1.0 / 16.0,
                                   3.0, iface), mat)


def assemble_non_cubic():
    # unequal axis lengths, one of them padded to a fast transform length
    iface = F.PlanarInterface(np.array([0.0, 0.0, 0.03]), np.array([0.0, 0.0, 1.0]))
    mat = F.TwoPhaseMaterial(3.0, 1.0, 5.0, 2.0, iface)
    box = (np.array([-0.5, -0.625, -0.5625]), np.array([0.5625, 0.5, 0.5]))
    return S.assemble(S.build_grid(box, 1.0 / 16.0, 3.0, iface), mat)


def assemble_ratio_2_5():
    # a non-integer ratio, where the collar is widened to the two-hop reach
    iface = F.PlanarInterface(np.array([0.01, 0.0, 0.02]), np.array([0.6, 0.0, 0.8]))
    mat = F.TwoPhaseMaterial(3.0, 1.0, 5.0, 2.0, iface)
    return S.assemble(S.build_grid(BOX, 1.0 / 16.0, 2.5, iface), mat)


def assemble_single_phase():
    # smoothly varying moduli and extended rows, but no normal-projected term
    _, mat = F.make_manufactured("smooth_material_trig")
    return S.assemble(S.build_grid(BOX, 1.0 / 16.0, 3.0, F.INTERFACE_Z), mat)


def assemble_flagship():
    _, mat = F.make_manufactured("patch_jump_zero_traction")
    return S.assemble(S.build_grid(BOX, 1.0 / 16.0, 3.0, mat.interface), mat)


def assemble_oblique_tilted():
    # an interface normal off every lattice plane, (0.36, 0.48, 0.8)
    iface = F.PlanarInterface(np.array([0.01, -0.02, 0.03]), np.array([0.36, 0.48, 0.8]))
    mat = F.TwoPhaseMaterial(3.0, 1.0, 5.0, 2.0, iface)
    return S.assemble(S.build_grid(BOX, 1.0 / 16.0, 3.0, iface), mat)


def assemble_anisotropic_box():
    # three axis lengths, each window axis shorter than the lattice's
    iface = F.PlanarInterface(np.array([0.0, 0.0, 0.1]), np.array([0.36, 0.48, 0.8]))
    mat = F.TwoPhaseMaterial(3.0, 1.0, 5.0, 2.0, iface)
    box = (np.array([-0.75, -1.0, -0.5]), np.array([0.75, 1.0, 0.75]))
    return S.assemble(S.build_grid(box, 1.0 / 16.0, 2.5, iface), mat)


def assemble_ratio_3_4():
    # a stencil reach of 4 nodes
    iface = F.PlanarInterface(np.array([0.0, 0.0, 0.02]), np.array([0.0, 0.0, 1.0]))
    mat = F.TwoPhaseMaterial(3.0, 1.0, 5.0, 2.0, iface)
    return S.assemble(S.build_grid((np.full(3, -0.75), np.full(3, 0.75)), 1.0 / 16.0,
                                   3.4, iface), mat)


REFERENCE_CASES = {
    "flagship": assemble_flagship,
    "oblique": assemble_oblique,
    "bond_only": assemble_bond_only,
    "bench_box": assemble_bench_box,
    "non_cubic": assemble_non_cubic,
    "ratio_2_5": assemble_ratio_2_5,
    "single_phase": assemble_single_phase,
}


@pytest.fixture(scope="module")
def oblique_operator():
    return assemble_oblique()


@pytest.fixture(scope="module", params=list(REFERENCE_CASES))
def reference_case(request):
    """An operator and its reference matrix, built once per case."""
    opr = REFERENCE_CASES[request.param]()
    return opr, reference_matrix(opr)


def matrix_scale(opr):
    """The max absolute row sum of the reference matrix."""
    return abs(reference_matrix(opr)).sum(axis=1).max()


def lattice_action(opr, nodal):
    """Matrix-free reference of the lattice operator on an (N, 3) field.

    Each term is applied straight from the midpoint-cell sums by shifting
    nodal arrays on the lattice: first the inner sums g(y) = sum w (xi . v)
    / |xi|^2 and M(y) = sum w xi (n . v) / |xi|^2, then the outer sums of
    the bond, dilatational (an extra quarter on extended rows) and
    normal-projected terms.  Shifts wrap at the box faces, which only
    reaches rows the constraint collar keeps out of the free set.
    """
    grid, mat = opr.grid, opr.material
    shape = grid.shape
    m = ball_volume(grid.delta)
    lam, mu = (np.broadcast_to(np.asarray(c, dtype=float), (grid.n_nodes,)).reshape(shape)
               for c in mat.lame_at(grid.points))
    v = np.asarray(nodal, dtype=float).reshape(*shape, 3)
    ext = (grid.tags == S.NodeTag.EXTENDED_INTERFACE).reshape(shape)
    normal = mat.interface.normal

    def at(a, k):  # a(x + k h)
        return np.roll(a, tuple(-k), axis=(0, 1, 2))

    def stencil_terms():
        for k, frac in zip(opr.offsets, opr.fractions):
            xi = grid.h * k
            r2 = xi @ xi
            yield k, frac * grid.h**3, xi, r2

    bond = np.zeros_like(v)
    g = np.zeros(shape)
    big_m = np.zeros_like(v)
    for k, w, xi, r2 in stencil_terms():
        beta = np.where(ext, 0.0, mu) + at(mu, k)
        bond += (15.0 / m) * w * (beta * ((at(v, k) - v) @ xi) / r2**2)[..., None] * xi
        g += w * (at(v, k) @ xi) / r2
        big_m += w * at(v @ normal, k)[..., None] * xi / r2
    dil = np.zeros_like(v)
    proj = np.zeros(shape)
    for k, w, xi, r2 in stencil_terms():
        dil += w * at((lam - mu) * g, k)[..., None] * xi / r2
        proj += w * (at(mu[..., None] * big_m, k) @ xi) / r2
    out = (bond + (9.0 / m**2) * np.where(ext, 1.25, 1.0)[..., None] * dil
           + (45.0 / (4.0 * m**2)) * np.where(ext, proj, 0.0)[..., None] * normal)
    out = out.reshape(-1, 3)
    cons = grid.tags == S.NodeTag.CONSTRAINT
    out[cons] = v.reshape(-1, 3)[cons]
    return out


@pytest.fixture(scope="module")
def e3_operator():
    iface = F.PlanarInterface(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    mat = F.TwoPhaseMaterial(3.0, 1.0, 5.0, 2.0, iface)
    return S.assemble(S.build_grid(BOX, 1.0 / 16.0, 3.0, iface), mat)


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
    def test_constraint_rows_are_identity(self, flagship_operator, flagship_grid, rng):
        cons = flagship_grid.tags == S.NodeTag.CONSTRAINT
        v = rng.normal(size=(flagship_grid.n_nodes, 3))
        assert np.array_equal(flagship_operator.action(v)[cons], v[cons])
        assert np.all(flagship_operator.diagonal()[cons] == 1.0)

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
        m = reference_matrix(build())
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


class TestLatticeReference:
    def test_action_matches_reference_matrix(self, reference_case, rng):
        opr, matrix = reference_case
        v = rng.normal(size=(opr.grid.n_nodes, 3))
        ref = (matrix @ v.reshape(-1)).reshape(-1, 3)
        scale = abs(matrix).sum(axis=1).max() * np.abs(v).max()
        assert np.abs(opr.action(v) - ref).max() <= 1e-12 * scale

    def test_diagonal_matches_reference_matrix(self, reference_case):
        opr, matrix = reference_case
        ref = matrix.diagonal().reshape(-1, 3)
        assert np.abs(opr.diagonal() - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_cli_residual_scale_within_row_sums(self, reference_case):
        # the CLI's residual gate scales by max (lambda + 2 mu) / h^2, which
        # must not exceed the scale of the operator it gates
        opr, matrix = reference_case
        assert cli._residual_scale(opr) <= abs(matrix).sum(axis=1).max()

    @pytest.mark.parametrize("name", ["oblique_operator", "flagship_operator"])
    def test_action_matches_matrix_free_reference(self, name, request, rng):
        opr = request.getfixturevalue(name)
        for _ in range(2):
            v = rng.normal(size=(opr.grid.n_nodes, 3))
            ref = lattice_action(opr, v)
            assert np.abs(opr.action(v) - ref).max() <= 1e-12 * np.abs(ref).max()


def free_block_error(opr, rng):
    """max |free_action(x) - action(nodal)[free]| / max |action(nodal)[free]|
    for random free values x on a zero collar."""
    free = opr.grid.tags != S.NodeTag.CONSTRAINT
    x = rng.normal(size=(np.count_nonzero(free), 3))
    nodal = np.zeros((opr.grid.n_nodes, 3))
    nodal[free] = x
    ref = opr.action(nodal)[free]
    return np.abs(opr.free_action(x) - ref).max() / np.abs(ref).max()


class TestFreeAction:
    @pytest.mark.parametrize("build", [
        assemble_flagship, assemble_oblique_tilted, assemble_bond_only,
        assemble_anisotropic_box, assemble_ratio_3_4,
    ], ids=["flagship", "oblique_tilted", "bond_only", "anisotropic_box", "ratio_3_4"])
    def test_matches_lattice_action(self, build, rng):
        opr = build()
        assert opr.window.fft_shape != opr.fft_shape
        assert free_block_error(opr, rng) <= 1e-13

    def test_window_is_free_box_plus_reach(self):
        opr = assemble_anisotropic_box()
        free = np.argwhere((opr.grid.tags != S.NodeTag.CONSTRAINT).reshape(opr.grid.shape))
        reach = np.abs(opr.offsets).max()
        assert opr.window.grid.shape == tuple(np.ptp(free, axis=0) + 1 + 2 * reach)
        assert np.array_equal(opr.window.grid.points[opr.window.grid.tags != S.NodeTag.CONSTRAINT],
                              opr.grid.points[opr.grid.tags != S.NodeTag.CONSTRAINT])

    @pytest.mark.parametrize("build", [assemble_flagship, assemble_oblique],
                             ids=["flagship", "oblique"])
    def test_window_narrower_than_reach_differs(self, build, rng):
        # negative control: a window widened by one node less than the reach
        # reads wrapped or zero-padded moduli on the free box's rim rows
        opr = build()
        reach = int(np.abs(opr.offsets).max())
        tight = dataclasses.replace(opr)  # a copy with nothing cached
        tight.__dict__["window"] = opr._on_free_box(widen=reach - 1)
        assert free_block_error(tight, rng) > 1e-4

    def test_matrix_free_block_matches(self, reference_case, rng):
        opr, matrix = reference_case
        x = rng.normal(size=(np.count_nonzero(opr.grid.tags != S.NodeTag.CONSTRAINT), 3))
        ref = MatrixOperator(opr.grid, matrix).free_action(x)
        assert np.abs(opr.free_action(x) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_gmres_applies_only_the_free_block(self, flagship_operator, patch,
                                               monkeypatch):
        # the staged routine behind action and free_action runs twice on the
        # lattice, for the extraction and the residuals; every GMRES
        # iteration runs it on the window
        field, _ = patch
        shapes = []
        apply = S.DiscreteOperator._apply
        monkeypatch.setattr(S.DiscreteOperator, "_apply",
                            lambda self, v: shapes.append(self.grid.shape) or apply(self, v))
        res = S.solve_equilibrium(dataclasses.replace(flagship_operator), None,
                                  lambda p: field.value(p))
        window = flagship_operator.window.grid.shape
        assert shapes.count(flagship_operator.grid.shape) == 2
        assert shapes.count(window) >= res.iterations > 0
        assert len(shapes) == 2 + shapes.count(window)


class TestStagedAction:
    @pytest.mark.parametrize("build", list(REFERENCE_CASES.values()), ids=list(REFERENCE_CASES))
    def test_stencil_spectra_parity(self, build):
        # S and d_i^2 are even stencils and d is odd, so the operator keeps
        # one part of each spectrum; the other must be rounding alone
        opr = build()
        for o in (opr, opr.window):
            bond, dirs = S._stencils(o.offsets, o.fractions, o.grid.h, o.grid.delta)
            kernels = np.concatenate([bond, dirs, dirs**2], axis=1).T
            for k, spectrum in enumerate(S._spectra(o.offsets, kernels, o.fft_shape)):
                dropped = spectrum.real if 9 <= k < 12 else spectrum.imag
                assert np.abs(dropped).max() <= 1e-13 * np.abs(spectrum).max()

    @pytest.mark.parametrize("build,count", [
        # every term: forward v, mu v; inverse S v, g, M; forward c g, mu M;
        # inverse S (mu v) + d (c g) and the extended rows' part, 6 + 7 + 4 + 6
        (assemble_bench_box, 23),
        # lambda = mu: no g, and the extended rows' part is n times one field
        (assemble_flagship, 19),
        # lambda = mu and no extended rows: the bond part alone
        (assemble_bond_only, 12),
    ], ids=["bench_box", "flagship", "bond_only"])
    def test_free_action_transform_count(self, build, count, monkeypatch, rng):
        # fields per application, at most 3 per transform call
        opr = build()
        x = rng.normal(size=(np.count_nonzero(opr.grid.tags != S.NodeTag.CONSTRAINT), 3))
        opr.free_action(x)  # builds the window's row coefficients
        fields = []
        for name in ("rfftn", "irfftn"):
            original = getattr(np.fft, name)

            def counted(a, *args, _original=original, **kwargs):
                fields.append(int(np.prod(np.shape(a)[:-3])))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        opr.free_action(x)
        assert sum(fields) == count
        assert max(fields) <= 3


class TestLatticeSymmetry:
    # lattice symmetries that keep the box, the e3 interface and both phases
    # in place: (T v)(R x) = R v(x) must give A(T v) = T(A v)
    SYMMETRIES = {
        "reflect_x1": np.diag([-1.0, 1.0, 1.0]),
        "swap_x1_x2": np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        "quarter_turn_e3": np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    }

    @pytest.mark.parametrize("sym", list(SYMMETRIES))
    def test_action_is_equivariant(self, sym, e3_operator, rng):
        rot = self.SYMMETRIES[sym]
        grid = e3_operator.grid
        idx = np.rint((grid.points @ rot.T - grid.lo) / grid.h).astype(int)
        image = np.ravel_multi_index(idx.T, grid.shape)
        assert np.array_equal(grid.tags[image], grid.tags)

        def transform(nodal):
            out = np.empty_like(nodal)
            out[image] = nodal @ rot.T
            return out

        v = rng.normal(size=(grid.n_nodes, 3))
        av = e3_operator.action(v)
        err = np.abs(e3_operator.action(transform(v)) - transform(av)).max()
        assert err <= 1e-12 * np.abs(av).max()


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
        p = sp.csr_matrix((np.ones(ndofs), (np.arange(ndofs), perm)),
                          shape=(ndofs, ndofs))
        a_perm = (p @ reference_matrix(flagship_operator) @ p.T).tocsr()
        rhs = S.build_rhs(flagship_operator, None, lambda q: field.value(q))
        u_perm = spl.spsolve(a_perm.tocsc(), p @ rhs)
        u_back = (p.T @ u_perm).reshape(-1, 3)
        assert np.abs(u_back - res.u).max() < 1e-9

    def test_singular_matrix_reported(self, flagship_operator, flagship_grid):
        bad = reference_matrix(flagship_operator).tolil()
        free = np.flatnonzero(flagship_grid.tags != S.NodeTag.CONSTRAINT)
        bad[3 * free[0]] = 0.0
        bad_opr = MatrixOperator(flagship_grid, bad.tocsr())
        with pytest.raises(np.linalg.LinAlgError, match="condition.*diagonal"):
            S.solve_equilibrium(bad_opr, None,
                                lambda p: np.zeros(p.shape))

    def test_non_finite_diagonal_refused(self, flagship_operator, flagship_grid):
        free = np.flatnonzero(flagship_grid.tags != S.NodeTag.CONSTRAINT)
        bad = reference_matrix(flagship_operator)
        bad[3 * free[-1] + 2, 3 * free[-1] + 2] = np.inf
        bad_opr = MatrixOperator(flagship_grid, bad)
        with pytest.raises(np.linalg.LinAlgError,
                           match="singular or ill-conditioned .*diagonal"):
            S.solve_equilibrium(bad_opr, None, lambda p: np.zeros(p.shape))

    @pytest.mark.parametrize("name", ["oblique_operator", "flagship_operator"])
    def test_matches_dense_reference_solve(self, name, request, rng):
        # the free block densified and solved by LU, with the collar values
        # moved to the right-hand side
        opr = request.getfixturevalue(name)
        n = opr.grid.n_nodes
        g = rng.normal(size=(n, 3))
        b = lambda p: np.tile([0.0, 0.0, 1.0], p.shape[:-1] + (1,))
        free = np.flatnonzero(opr.grid.tags != S.NodeTag.CONSTRAINT)
        free3 = (3 * free[:, None] + np.arange(3)).reshape(-1)
        rhs = S.build_rhs(opr, b, g)
        collar = rhs.copy()
        collar[free3] = 0.0
        matrix = reference_matrix(opr)
        a_ff = matrix[free3][:, free3].toarray()
        ref = collar.copy()
        ref[free3] = scipy.linalg.solve(a_ff, rhs[free3] - matrix[free3] @ collar)
        res = S.solve_equilibrium(opr, b, g)
        assert res.iterations == len(res.residual_history) > 0
        assert np.abs(res.u - ref.reshape(-1, 3)).max() <= 1e-10

    def test_non_convergence_refused(self):
        # free row 3q+2 copied from row 3p makes the system singular and, with
        # a body force along e3, inconsistent; every diagonal entry stays
        # nonzero, so only GMRES can find it out
        opr = assemble_bond_only()
        grid = opr.grid
        centre = np.flatnonzero(np.all(np.abs(grid.points) < 1e-12, axis=1))[0]
        strides = np.array([grid.shape[1] * grid.shape[2], grid.shape[2], 1])
        p, q = centre, centre + strides @ np.array([1, 0, 1])
        assert grid.tags[p] == grid.tags[q] == S.NodeTag.INTERIOR
        matrix = reference_matrix(opr)
        bad = matrix.tolil()
        bad[3 * q + 2] = matrix[3 * p]
        bad_opr = MatrixOperator(grid, bad.tocsr())
        assert np.all(bad_opr.diagonal() != 0.0)
        b = lambda x: np.tile([0.0, 0.0, 1.0], x.shape[:-1] + (1,))
        with pytest.raises(np.linalg.LinAlgError, match="singular or ill-conditioned"):
            S.solve_equilibrium(bad_opr, b, lambda x: np.zeros(x.shape))

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
