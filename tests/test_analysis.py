import csv
import json
import math
import os

import jsonschema
import numpy as np
import pytest
import scipy
from numpy.testing import assert_allclose

import peridyn
from peridyn import analysis as A
from peridyn import fields as F
from peridyn import operators as O
from nested_reference import term_scale

EZ = np.array([0.0, 0.0, 1.0])
X0 = np.zeros(3)

FAST_QUAD = dict(radial_order=6, angular_order=8)
SHORT_DELTAS = (0.04, 0.02, 0.01)


class TestFitRate:
    def test_quadratic_series(self):
        d = np.array([0.1, 0.05, 0.025, 0.0125])
        assert abs(A.fit_rate(d, d**2) - 2.0) < 1e-12

    def test_constant_series(self):
        d = np.array([0.1, 0.05, 0.025])
        assert abs(A.fit_rate(d, np.full(3, 0.37))) < 1e-12

    def test_first_order_with_noise(self, rng):
        d = np.geomspace(0.1, 1e-3, 9)
        e = d * (1.0 + 0.01 * rng.standard_normal(9))
        assert abs(A.fit_rate(d, e) - 1.0) < 0.05

    def test_exact_series_flagged(self):
        d = np.array([0.1, 0.05, 0.025])
        assert math.isnan(A.fit_rate(d, np.full(3, 1e-14)))

    def test_too_few_positive_pairs(self):
        with pytest.raises(ValueError):
            A.fit_rate([0.1, 0.05, 0.025], [0.1, 0.0, 0.0])


class TestRichardson:
    def test_recovers_first_order_model(self):
        d = np.array([0.1, 0.05, 0.025])
        limit = np.array([1.0, -2.0, 0.5])
        slope = np.array([3.0, 0.0, -1.0])
        vals = limit[None, :] + d[:, None] * slope[None, :]
        assert_allclose(A.richardson_limit(d, vals), limit, atol=1e-13)


class TestDeltaSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            A.as_delta_series([0.1, 0.1])
        with pytest.raises(ValueError):
            A.as_delta_series([0.1, -0.05])
        with pytest.raises(ValueError):
            A.as_delta_series([])

    def test_geometric(self):
        d = A.geometric_deltas(0.1, 1e-3, 5)
        assert len(d) == 5 and d[0] == 0.1 and abs(d[-1] - 1e-3) < 1e-15


class TestConvergeToNavier:
    def test_quadratic_is_exact(self):
        field, mat = F.make_manufactured("quadratic")
        pts = A.default_sample_grid(2, 0.3)
        rep = A.converge_to_navier(mat, field, (0.1, 0.05, 0.025), pts,
                                   **FAST_QUAD)
        assert rep.exact and rep.slope is None
        assert max(rep.norms) < 1e-9

    def test_trig_field_second_order(self):
        field, mat = F.make_manufactured("trig_smooth")
        pts = A.default_sample_grid(3, 0.4)
        rep = A.converge_to_navier(mat, field, (0.1, 0.05, 0.025), pts,
                                   **FAST_QUAD)
        assert all(np.diff(rep.norms) < 0)
        assert rep.slope >= 0.9

    def test_two_phase_sample_points_validated(self):
        field, mat = F.make_manufactured("patch_jump_zero_traction")
        pts = np.array([[0.0, 0.0, 0.05]])
        with pytest.raises(ValueError):
            A.converge_to_navier(mat, field, (0.1, 0.05, 0.025), pts,
                                 **FAST_QUAD)

    def test_threads_do_not_change_results(self):
        field, mat = F.make_manufactured("trig_smooth")
        pts = A.default_sample_grid(2, 0.4)
        one = A.converge_to_navier(mat, field, (0.1, 0.05, 0.025), pts,
                                   threads=1, **FAST_QUAD)
        many = A.converge_to_navier(mat, field, (0.1, 0.05, 0.025), pts,
                                    threads=8, **FAST_QUAD)
        assert np.array_equal(one.values, many.values)
        assert one.norms == many.norms


class TestBatchSize:
    """The series hands the operator batches of BATCH_FIELD_POINTS field
    points; one point per batch and one batch per horizon agree with it to
    rounding."""

    @pytest.mark.parametrize("study", ["converge", "star_offinterface"])
    def test_extreme_batch_sizes_agree(self, study, monkeypatch):
        field, mat = F.make_manufactured("smooth_material_trig")
        deltas = (0.1, 0.05, 0.025)
        # 27 points on the 288-node rule take two batches per horizon; for
        # the corrected operator they lie in the slab and out of it, on both
        # sides of the interface
        if study == "converge":
            pts = A.default_sample_grid(3, 0.3)
            run = lambda: A.converge_to_navier(
                mat, field, deltas, pts, radial_order=4, angular_order=6).values
        else:
            mat = F.TwoPhaseMaterial(3.0, 1.0, 5.0, 2.0, F.INTERFACE_Z)
            pts = A.default_sample_grid(3, 0.05)
            run = lambda: A.star_converges_offinterface(
                mat, field, deltas, pts, radial_order=4, angular_order=6).values
        assert A.BATCH_FIELD_POINTS // 288 < len(pts)
        default = run()
        scale = term_scale(O.make_config(min(deltas), 4, 6), mat, field, pts)
        for size in (1, 10**9):
            monkeypatch.setattr(A, "BATCH_FIELD_POINTS", size)
            assert np.abs(run() - default).max() <= 1e-12 * scale

    def test_navier_refs_take_each_point_on_its_side(self):
        field, mat = F.make_manufactured("patch_jump_zero_traction")
        pts = np.array([[0.1, 0.0, 0.3], [0.0, 0.2, -0.3], [0.3, 0.1, 0.0]])
        sides = [F.SideTag.PLUS, F.SideTag.MINUS, F.SideTag.PLUS]
        want = np.array([F.navier(mat, field, x, s) for x, s in zip(pts, sides)])
        assert np.abs(A._navier_refs(mat, field, pts) - want).max() <= 1e-15


class TestInterfaceBlowup:
    def test_patch_scaling(self):
        field, mat = F.make_manufactured("patch_jump_zero_traction")
        rep = A.interface_blowup(mat, field, X0, SHORT_DELTAS, **FAST_QUAD)
        assert abs(rep.slope + 1.0) <= 0.05

    def test_gradient_jump_scaling(self):
        field, mat = F.make_manufactured("gradient_jump")
        rep = A.interface_blowup(mat, field, X0, SHORT_DELTAS, **FAST_QUAD)
        assert abs(rep.slope + 1.0) <= 0.05

    def test_no_jump_stays_bounded(self):
        base, _ = F.make_manufactured("trig_smooth")
        field = F.PiecewiseField(base.plus_side, base.plus_side, F.INTERFACE_Z)
        mat = F.TwoPhaseMaterial(1.0, 1.0, 1.0, 1.0, F.INTERFACE_Z)
        rep = A.interface_blowup(mat, field, X0, SHORT_DELTAS, **FAST_QUAD)
        assert rep.exact or rep.slope >= -0.05

    def test_off_interface_point_rejected(self):
        field, mat = F.make_manufactured("patch_jump_zero_traction")
        with pytest.raises(ValueError):
            A.interface_blowup(mat, field, np.array([0.0, 0.0, 0.1]),
                               SHORT_DELTAS, **FAST_QUAD)


class TestNaturalLimit:
    def test_patch_value(self):
        field, mat = F.make_manufactured("patch_jump_zero_traction")
        rep = A.natural_limit_check(mat, field, X0, SHORT_DELTAS, **FAST_QUAD)
        target = np.array([0.0, 0.0, 45.0 / 16.0])
        assert np.linalg.norm(rep.limit_estimate - target) < 0.01 * np.linalg.norm(target)

    def test_gradient_jump_matches_formula(self):
        field, mat = F.make_manufactured("gradient_jump")
        rep = A.natural_limit_check(mat, field, X0, SHORT_DELTAS, **FAST_QUAD)
        target = O.natural_condition_limit(mat, field, X0)
        assert np.linalg.norm(rep.limit_estimate - target) < 0.01 * np.linalg.norm(target)

    def test_no_jump_limit_is_zero(self):
        base, _ = F.make_manufactured("trig_smooth")
        field = F.PiecewiseField(base.plus_side, base.plus_side, F.INTERFACE_Z)
        mat = F.TwoPhaseMaterial(1.0, 1.0, 1.0, 1.0, F.INTERFACE_Z)
        rep = A.natural_limit_check(mat, field, X0, SHORT_DELTAS, **FAST_QUAD)
        assert np.abs(rep.limit_estimate).max() < 1e-3

    @staticmethod
    def _curved_two_sided():
        # continuous axial field with quadratic per-side parts, so the
        # horizon-scaled series carries an exactly first-order remainder
        def axial(lin, quad):
            def value(p):
                out = np.zeros(p.shape)
                out[..., 2] = lin * p[..., 2] + quad * p[..., 2] ** 2
                return out

            def grad(p):
                out = np.zeros(p.shape[:-1] + (3, 3))
                out[..., 2, 2] = lin + 2.0 * quad * p[..., 2]
                return out

            def hessian(p):
                out = np.zeros(p.shape[:-1] + (3, 3, 3))
                out[..., 2, 2, 2] = 2.0 * quad
                return out

            # u_3(y + d) = u_3(y) * 1 + (lin + 2 quad y_3) * d_3 + quad * d_3^2,
            # the last product constant in y
            def outer(y):
                out = np.zeros(y.shape[:-1] + (2, 3))
                out[..., 0, 2] = value(y)[..., 2]
                out[..., 1, 2] = lin + 2.0 * quad * y[..., 2]
                return out

            def step(d):
                w = np.zeros(d.shape[:-1] + (3, 3))
                w[..., 1, 2] = d[..., 2]
                w[..., 2, 2] = d[..., 2] ** 2
                return w

            base = np.zeros((3, 3))
            base[0] = 1.0
            return F.AnalyticVectorField(
                value, grad, hessian,
                split=F.Split(outer, step, base, [[0.0, 0.0, quad]]))

        field = F.PiecewiseField(axial(2.0, 1.0), axial(1.0, -1.0), F.INTERFACE_Z)
        mat = F.TwoPhaseMaterial(1.0, 1.0, 2.0, 2.0, F.INTERFACE_Z)
        return field, mat

    def test_first_order_rate_with_curvature(self):
        field, mat = self._curved_two_sided()
        deltas = (0.08, 0.04, 0.02, 0.01)
        rep = A.natural_limit_check(mat, field, X0, deltas, **FAST_QUAD)
        assert abs(rep.slope - 1.0) < 0.02  # errors to the target shrink like delta
        target = O.natural_condition_limit(mat, field, X0)
        assert np.linalg.norm(rep.limit_estimate - target) < 1e-10

    def test_richardson_agrees_with_raw_within_first_order_model(self):
        field, mat = self._curved_two_sided()
        deltas = (0.04, 0.02, 0.01)
        rep = A.natural_limit_check(mat, field, X0, deltas, **FAST_QUAD)
        raw_step = np.linalg.norm(rep.values[-1, 0] - rep.values[-2, 0])
        assert np.linalg.norm(rep.limit_estimate - rep.values[-1, 0]) <= raw_step + 1e-12


class TestStarLimit:
    def test_gradient_jump_traction_limit(self):
        field, mat = F.make_manufactured("gradient_jump")
        rep = A.star_limit_check(mat, field, X0, SHORT_DELTAS, **FAST_QUAD)
        target = np.array([0.0, 0.0, -135.0 / 32.0])
        assert np.linalg.norm(rep.limit_estimate - target) < 0.01 * np.linalg.norm(target)

    def test_patch_limit_is_the_cross_term(self):
        # the zero-traction patch: the normal-projected correction term keeps
        # its inner integrals on each outer node's own phase, so the scaled
        # limit meets the traction-jump target (zero)
        field, mat = F.make_manufactured("patch_jump_zero_traction")
        rep = A.star_limit_check(mat, field, X0, SHORT_DELTAS,
                                 radial_order=8, angular_order=12)
        target = 45.0 / 32.0 * F.traction_jump(mat, field, X0)
        assert abs(rep.limit_estimate[2] - target[2]) < 1e-9
        assert np.abs(rep.limit_estimate[:2]).max() < 1e-9

    def test_differs_from_natural_by_scaled_correction(self):
        field, mat = F.make_manufactured("gradient_jump")
        deltas = SHORT_DELTAS
        nat = A.natural_limit_check(mat, field, X0, deltas, **FAST_QUAD)
        star = A.star_limit_check(mat, field, X0, deltas, **FAST_QUAD)
        for i, d in enumerate(deltas):
            cfg = O.make_config(d, split_normal=EZ, **FAST_QUAD)
            gamma = O.interface_correction(cfg, mat, field, X0)
            diff = star.values[i, 0] - nat.values[i, 0]
            assert np.abs(diff - d * gamma).max() < 1e-12 * max(1.0, np.abs(diff).max())


class TestStarOffInterface:
    def test_patch_per_side_consistency(self):
        field, mat = F.make_manufactured("patch_jump_zero_traction")
        deltas = (0.05, 0.025)
        pts = np.array([[0.1, -0.2, 0.2], [0.0, 0.3, -0.2], [0.2, 0.1, 0.012]])
        rep = A.star_converges_offinterface(mat, field, deltas, pts,
                                            **FAST_QUAD)
        # both sides are linear with constant coefficients: exact at points
        # farther than one horizon from the interface
        for i, d in enumerate(deltas):
            off = np.abs(mat.interface.signed_distance(pts)) >= d
            assert rep.errors[i, off].max() < 1e-9
        assert all(np.isfinite(rep.extra["collar_scaled_sup"]))

    def test_report_matches_schema(self, tmp_path):
        field, mat = F.make_manufactured("patch_jump_zero_traction")
        pts = np.array([[0.1, -0.2, 0.2], [0.2, 0.1, 0.012]])
        rep = A.star_converges_offinterface(mat, field, (0.05, 0.025), pts,
                                            radial_order=2, angular_order=2)
        path = tmp_path / "report.json"
        rep.write_json(path)
        with open(path) as f:
            payload = json.load(f)
        with open(os.path.join(os.path.dirname(__file__), "..", "docs",
                               "report_schema.json")) as f:
            schema = json.load(f)
        jsonschema.validate(payload, schema)
        # params are pinned: a stray key does not validate
        payload["params"]["ld_form"] = "reduced"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, schema)

    def test_quadratic_fictitious_interface(self):
        base, _ = F.make_manufactured("quadratic")
        field = F.PiecewiseField(base.plus_side, base.plus_side, F.INTERFACE_Z)
        mat = F.TwoPhaseMaterial(1.0, 1.0, 1.0, 1.0, F.INTERFACE_Z)
        pts = np.array([[0.3, 0.0, 0.4], [-0.1, 0.2, -0.3]])
        rep = A.star_converges_offinterface(mat, field, (0.1, 0.05), pts,
                                            **FAST_QUAD)
        assert np.nanmax(rep.errors) < 1e-9

    def test_indicator_turns_off(self):
        field, mat = F.make_manufactured("patch_jump_zero_traction")
        x = np.array([0.0, 0.0, 0.03])
        for d in (0.05, 0.04, 0.031):
            cfg = O.make_config(d, **FAST_QUAD)
            assert not np.array_equal(O.corrected_operator(cfg, mat, field, x),
                                      O.state_operator(cfg, mat, field, x))
        for d in (0.03, 0.02):
            cfg = O.make_config(d, **FAST_QUAD)
            assert np.array_equal(O.corrected_operator(cfg, mat, field, x),
                                  O.state_operator(cfg, mat, field, x))


class TestReportSerialization:
    @pytest.fixture
    def report(self):
        field, mat = F.make_manufactured("gradient_jump")
        return A.star_limit_check(mat, field, X0, SHORT_DELTAS, **FAST_QUAD)

    def test_json_round_trip(self, report, tmp_path):
        path = tmp_path / "report.json"
        report.write_json(path)
        with open(path) as f:
            back = json.load(f)
        assert back["study"] == report.study
        assert back["deltas"] == [float(d) for d in report.deltas]
        # records run horizon-major, one per point
        assert [(r["delta"], r["point_id"]) for r in back["records"]] == \
            [(float(d), j) for d in report.deltas for j in report.point_ids]
        values = np.array([r["value"] for r in back["records"]])
        errors = np.array([r["err"] for r in back["records"]])
        assert np.array_equal(values, report.values.reshape(-1, 3))
        assert np.array_equal(errors, report.errors.reshape(-1))
        assert back["slope"] == report.slope
        assert back["exact"] is report.exact
        assert_allclose(back["limit_estimate"], report.limit_estimate, rtol=0, atol=0)

    def test_csv_round_trip(self, report, tmp_path):
        # the 17-digit cells read back bit for bit
        path = tmp_path / "report.csv"
        report.write_csv(path)
        with open(path, newline="") as f:
            records = [{"delta": float(row["delta"]),
                        "point_id": int(row["point_id"]),
                        "value": [float(row[k]) for k in ("vx", "vy", "vz")],
                        "err": float(row["err_p"])}
                       for row in csv.DictReader(f)]
        assert records == list(report.records())

    def test_json_says_what_produced_it(self, report, tmp_path):
        path = tmp_path / "report.json"
        report.write_json(path)
        with open(path) as f:
            payload = json.load(f)
        assert payload["provenance"] == {"peridyn": peridyn.__version__,
                                         "numpy": np.__version__,
                                         "scipy": scipy.__version__}
        assert payload["params"]["threads"] == 1
        assert payload["params"]["nodes"] == 2 * 6 * 8 * 16  # split rule
        # what one nested pass cost: the outer factors at each node, and each
        # side's inner factors at each offset, of the kinked ramp
        assert payload["params"]["nested_points"] == 3 * 2 * 6 * 8 * 16
        with open(os.path.join(os.path.dirname(__file__), "..", "docs",
                               "report_schema.json")) as f:
            schema = json.load(f)
        jsonschema.validate(payload, schema)
        for drop in (lambda p: p.pop("provenance"),
                     lambda p: p["provenance"].pop("scipy"),
                     lambda p: p["params"].pop("threads"),
                     lambda p: p["params"].pop("nested_points")):
            broken = json.loads(json.dumps(payload))
            drop(broken)
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(broken, schema)

    def test_nested_points_is_the_pass_of_the_study(self):
        # lambda != mu, so the point off the slab makes a pass: the outer
        # factors at the n nodes, and the inner factors at the n offsets once
        # for the quadratic field's one closed form, once per side of the
        # kinked patch
        quadratic, _ = F.make_manufactured("quadratic")
        fictitious = F.PiecewiseField(quadratic.plus_side, quadratic.plus_side,
                                      F.INTERFACE_Z)
        patch, _ = F.make_manufactured("patch_jump_zero_traction")
        mat = F.TwoPhaseMaterial(3.0, 1.0, 3.0, 1.0, F.INTERFACE_Z)
        for field, sides in ((fictitious, 1), (patch, 2)):
            rep = A.star_converges_offinterface(mat, field, (0.1,),
                                                np.array([[0.3, 0.0, 0.4]]), **FAST_QUAD)
            nodes = rep.params["nodes"]
            assert rep.params["nested_points"] == O.nested_pass_points(nodes, field)
            assert rep.params["nested_points"] == (1 + sides) * nodes

    def test_nested_points_counts_only_passes_made(self, report, tmp_path):
        # gradient_jump's material has lambda = mu on both sides, so the
        # state operator makes no nested pass there; the corrected one makes
        # one in the slab, and the state operator does once lambda != mu
        field, mat = F.make_manufactured("gradient_jump")
        blowup = A.interface_blowup(mat, field, X0, SHORT_DELTAS, **FAST_QUAD)
        assert blowup.params["nested_points"] == 0
        assert report.params["nested_points"] == O.nested_pass_points(
            report.params["nodes"], field)
        lam_ne_mu = F.TwoPhaseMaterial(3.0, 1.0, 5.0, 2.0, F.INTERFACE_Z)
        blowup_dil = A.interface_blowup(lam_ne_mu, field, X0, SHORT_DELTAS, **FAST_QUAD)
        assert blowup_dil.params["nested_points"] == report.params["nested_points"]
        path = tmp_path / "report.json"
        blowup.write_json(path)
        with open(path) as f:
            payload = json.load(f)
        with open(os.path.join(os.path.dirname(__file__), "..", "docs",
                               "report_schema.json")) as f:
            jsonschema.validate(payload, json.load(f))

    def test_json_layout(self, tmp_path):
        # one space of indent per level, keys sorted at every level, the
        # provenance entry added, and a final newline
        path = tmp_path / "report.json"
        A.write_json(path, {"b": [1.5, {"d": 2, "c": None}], "a": "x"})
        provenance = A._PROVENANCE
        want = ("{\n"
                ' "a": "x",\n'
                ' "b": [\n'
                "  1.5,\n"
                "  {\n"
                '   "c": null,\n'
                '   "d": 2\n'
                "  }\n"
                " ],\n"
                ' "provenance": {\n'
                f'  "numpy": "{provenance["numpy"]}",\n'
                f'  "peridyn": "{provenance["peridyn"]}",\n'
                f'  "scipy": "{provenance["scipy"]}"\n'
                " }\n"
                "}\n")
        assert path.read_text() == want

    def test_csv_is_rfc4180(self, report, tmp_path):
        path = tmp_path / "report.csv"
        report.write_csv(path)
        raw = path.read_bytes()
        assert raw.count(b"\r\n") == len(report.deltas) * len(report.point_ids) + 1
        assert raw.splitlines()[0] == b"delta,point_id,vx,vy,vz,err_p"


def test_default_sample_grid_excludes_collar():
    iface = F.INTERFACE_Z
    pts = A.default_sample_grid(5, 0.45, iface, 0.2)
    assert len(pts) > 0
    assert np.all(np.abs(iface.signed_distance(pts)) >= 0.2)
