"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.

Criterion 8 prescribes that the horizon-scaled corrected operator tends to
zero for the zero-traction patch configuration.  The normal-projected
correction term is a composition of two integrals; its inner integral at each
outer node takes the closed form of that node's own phase, also where the
inner ball reaches across the interface, so the term tends to the
shear-weighted jump formula of ``normal_correction_limit`` and the patch
limit meets the traction-jump target.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from peridyn import analysis as A
from peridyn import fields as F
from peridyn import operators as O
from peridyn import quadrature as Q
from peridyn import solver as S
from peridyn.cli import main as cli_main

EZ = np.array([0.0, 0.0, 1.0])
X0 = np.zeros(3)
BOX = (np.full(3, -0.5), np.full(3, 0.5))


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_criterion_01_moment_identities(ball_rule):
    worst4 = 0.0
    t = Q.fourth_moment(ball_rule)
    for idx in np.ndindex(3, 3, 3, 3):
        i, j, k, l = idx
        if i == j == k == l:
            ref = 6.0
        elif (i == j and k == l) or (i == k and j == l) or (i == l and j == k):
            ref = 2.0
        else:
            ref = 0.0
        worst4 = max(worst4, abs(t[idx] - ref))
    worst2 = 0.0
    for delta in (1.0, 0.2):
        sm = Q.second_moment(ball_rule, delta)
        ref2 = Q.ball_volume(delta) / 3.0 * np.eye(3)
        worst2 = max(worst2, float(np.abs(sm - ref2).max()))
    ok = worst4 < 1e-10 and worst2 < 1e-10
    assert report(1, "moment identities", ok,
                  f"fourth-moment err {worst4:.2e}, second-moment err {worst2:.2e} "
                  f"(tol 1e-10)")


def test_criterion_02_k_tensor_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    spread = 0.0
    for _ in range(20):
        n = random_unit(rng)
        closed = O.half_ball_moment_tensor(n)
        rule = Q.build_half_ball_rule(n)
        scaled = [d * Q.half_ball_third_moment_numeric(rule, d)
                  for d in (1.0, 0.1, 0.01)]
        worst = max(worst, max(float(np.abs(k - closed).max()) for k in scaled))
        spread = max(spread, max(float(np.abs(a - b).max())
                                 for a in scaled for b in scaled))
    worst_apply = 0.0
    for _ in range(100):
        n = random_unit(rng)
        a = rng.normal(size=(3, 3))
        lhs = np.einsum("ijk,jk->i", O.half_ball_moment_tensor(n), a)
        worst_apply = max(worst_apply,
                          float(np.abs(lhs - O.half_ball_moment_apply(a, n)).max()))
    ok = worst < 1e-9 and spread < 1e-11 and worst_apply < 1e-13
    assert report(2, "half-ball moment tensor oracle", ok,
                  f"closed-form err {worst:.2e} (tol 1e-9), horizon spread "
                  f"{spread:.2e} (tol 1e-11), contraction err {worst_apply:.2e} "
                  f"(tol 1e-13)")


def test_criterion_03_half_ball_first_moment():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        n = random_unit(rng)
        got = Q.half_ball_first_moment(Q.build_half_ball_rule(n))
        worst = max(worst, float(np.abs(got - 9.0 / 8.0 * n).max()))
    assert report(3, "half-ball first moment equals 9/8 n", worst < 1e-10,
                  f"max error {worst:.2e} (tol 1e-10)")


def test_criterion_04_quadratic_exactness():
    field, _ = F.make_manufactured("quadratic")
    x = np.array([0.12, -0.07, 0.31])
    worst = 0.0
    for lam, mu in ((1.0, 1.0), (2.0, 1.0)):
        mat = F.constant_material(lam, mu)
        ref = F.navier(mat, field, x)
        for delta in A.DEFAULT_DELTAS:
            got = O.state_operator(O.make_config(delta), mat, field, x)
            worst = max(worst, float(np.abs(got - ref).max()))
    assert report(4, "quadratic fields are exact at every horizon",
                  worst < 1e-9, f"max |state - navier| {worst:.2e} (tol 1e-9)")


def test_criterion_05_smooth_media_convergence():
    field, mat = F.make_manufactured("smooth_material_trig")
    pts = A.default_sample_grid(5, 0.45)
    rep = A.converge_to_navier(mat, field, A.DEFAULT_DELTAS, pts, p=2.0,
                               radial_order=6, angular_order=8, threads=2)
    monotone = bool(np.all(np.diff(rep.norms) < 0))
    ok = monotone and rep.slope is not None and rep.slope >= 0.9
    assert report(5, "smooth-media convergence to the local operator", ok,
                  f"L2 norms {['%.3e' % v for v in rep.norms]}, slope "
                  f"{rep.slope:.3f} (need monotone decrease and >= 0.9)")


def test_criterion_06_interface_blowup():
    field, mat = F.make_manufactured("patch_jump_zero_traction")
    deltas = A.geometric_deltas(0.1, 1e-3, 5)
    rep = A.interface_blowup(mat, field, X0, deltas)
    ok = rep.slope is not None and abs(rep.slope + 1.0) <= 0.05
    assert report(6, "interface blow-up at rate 1/horizon", ok,
                  f"log-log slope {rep.slope:.4f} (need -1 +- 0.05)")


def test_criterion_07_natural_condition_limit():
    field, mat = F.make_manufactured("patch_jump_zero_traction")
    deltas = A.geometric_deltas(0.1, 1e-3, 5)
    rep = A.natural_limit_check(mat, field, X0, deltas)
    target = np.array([0.0, 0.0, 45.0 / 16.0])
    err = float(np.linalg.norm(rep.limit_estimate - target))
    ok = err <= 0.01 * float(np.linalg.norm(target))
    assert report(7, "natural-condition limit equals the closed form", ok,
                  f"limit {np.array2string(rep.limit_estimate, precision=6)}, "
                  f"|err| {err:.2e} (tol 1%); the nonzero value also shows the "
                  f"natural condition does not recover zero traction jump")


def test_criterion_08_star_operator_traction_limit():
    deltas = A.geometric_deltas(0.1, 1e-3, 5)

    field, mat = F.make_manufactured("gradient_jump")
    rep_g = A.star_limit_check(mat, field, X0, deltas)
    target_g = np.array([0.0, 0.0, -135.0 / 32.0])
    err_g = float(np.linalg.norm(rep_g.limit_estimate - target_g))
    ok_g = err_g <= 0.01 * float(np.linalg.norm(target_g))

    field, mat = F.make_manufactured("patch_jump_zero_traction")
    rep_p = A.star_limit_check(mat, field, X0, deltas)
    err_p = float(np.linalg.norm(rep_p.limit_estimate))
    ok_p = err_p <= 5e-3

    ok = ok_g and ok_p
    report(8, "star-operator traction limit", ok,
           f"gradient_jump limit {np.array2string(rep_g.limit_estimate, precision=6)} "
           f"err {err_g:.2e} ({'ok' if ok_g else 'bad'}, tol 1%); "
           f"patch limit {np.array2string(rep_p.limit_estimate, precision=6)} "
           f"|err| {err_p:.3e} ({'ok' if ok_p else 'bad'}, tol 5e-3)")
    assert ok_g, "gradient_jump star limit failed"
    assert ok_p, "patch star limit is not zero"


def test_criterion_09_off_interface_consistency():
    field, mat = F.make_manufactured("patch_jump_zero_traction")
    delta = 0.05
    cfg = O.make_config(delta)
    exact_equal = True
    for x in (np.array([0.2, -0.1, 0.06]), np.array([0.0, 0.3, -0.08])):
        a = O.corrected_operator(cfg, mat, field, x)
        b = O.state_operator(cfg, mat, field, x)
        exact_equal &= bool(np.array_equal(a, b))
    worst = 0.0
    for x in (np.array([0.1, 0.2, 2 * delta]), np.array([-0.2, 0.0, -2 * delta])):
        side = F.SideTag.PLUS if x[2] >= 0 else F.SideTag.MINUS
        ref = F.navier(mat, field, x, side)
        got = O.corrected_operator(cfg, mat, field, x)
        worst = max(worst, float(np.abs(got - ref).max()))
    ok = exact_equal and worst < 1e-9
    assert report(9, "star operator off the interface", ok,
                  f"identical to the state operator outside the slab: "
                  f"{exact_equal}; per-side local-limit error at 2 horizons "
                  f"{worst:.2e} (tol 1e-9)")


def test_criterion_10_solver_patch_tests():
    field, mat = F.make_manufactured("patch_jump_zero_traction")
    h = 1.0 / 16.0
    grid = S.build_grid(BOX, h, 3.0, mat.interface)
    opr = S.assemble(grid, mat)
    free = grid.tags != S.NodeTag.CONSTRAINT

    cf, _ = F.make_manufactured("constant")
    res_c = S.solve_equilibrium(opr, None, lambda p: cf.value(p))
    err_c = float(np.abs(res_c.u - cf.value(grid.points)).max())

    hom = S.assemble(grid, F.TwoPhaseMaterial(1.0, 1.0, 1.0, 1.0, mat.interface))
    lf, _ = F.make_manufactured("linear")
    res_l = S.solve_equilibrium(hom, None, lambda p: lf.value(p))
    err_l = float(np.abs(res_l.u - lf.value(grid.points)).max())

    res_p = S.solve_equilibrium(opr, None, lambda p: field.value(p))
    err_p = float(np.linalg.norm(
        (res_p.u - field.value(grid.points))[free], axis=1).max())

    tf, _ = F.make_manufactured("trig_smooth")
    iface_out = F.PlanarInterface(np.array([0.0, 0.0, 5.0]), EZ)
    mat_hom = F.TwoPhaseMaterial(2.0, 1.0, 2.0, 1.0, iface_out)
    grid_x = S.build_grid(BOX, h, 3.0, iface_out)
    opr_x = S.assemble(grid_x, mat_hom)
    target = np.array([1, 2, -1]) * h
    node = np.flatnonzero(np.all(np.abs(grid_x.points - target) < 1e-12, axis=1))[0]
    act = opr_x.action(tf.value(grid_x.points))[node]
    direct = O.state_operator(O.make_config(grid_x.delta), mat_hom, tf,
                              grid_x.points[node])
    err_x = float(np.abs(act - direct).max())

    ok = (err_c <= 1e-10 and err_l <= 1e-8 and err_p <= 5 * h
          and err_x <= 10 * h * h)
    assert report(10, "solver patch tests on the 17^3 grid", ok,
                  f"constant {err_c:.2e} (tol 1e-10), linear {err_l:.2e} "
                  f"(tol 1e-8), zero-traction patch {err_p:.2e} (tol {5*h:.3f}), "
                  f"cross-validation {err_x:.2e} (tol {10*h*h:.2e})")


def test_criterion_11_cli_determinism(tmp_path):
    fast = ["--quad", "4,6"]
    fast_d = ["--delta-series", "0.04,0.02,0.01"]
    runs = [
        (["moments"], ["moments.csv"]),
        (["kdelta"], ["kdelta.csv"]),
        (["converge", *fast, "--delta-series", "0.05,0.025,0.0125"],
         ["converge.csv"]),
        (["blowup", *fast, *fast_d], ["blowup.csv"]),
        (["natural", *fast, *fast_d], ["natural.csv"]),
        (["star", *fast, *fast_d], ["star.csv"]),
        (["solve", "--field", "linear"], ["solution.csv"]),
    ]
    identical = True
    for argv, csvs in runs:
        payloads = []
        for threads, sub in (("1", "t1"), ("8", "t8")):
            out = tmp_path / (argv[0] + sub)
            cli_main([*argv, "--out", str(out), "--threads", threads])
            payloads.append([(out / c).read_bytes() for c in csvs])
        identical &= payloads[0] == payloads[1]
    assert report(11, "CLI outputs byte-identical across thread counts",
                  identical, f"{len(runs)} studies compared with 1 and 8 threads")
