"""The benchmark's workloads: inputs made from a seed, operations that drive
peridyn through its public entry points, and checks on what they output.

Each workload is a fixed list of operations; one round runs every operation
once, in order.  An operation fails when the program reports failure (a
nonzero CLI exit, or an exception from the solver); the outputs of an
operation that did not fail are checked against the references in
:mod:`oracles`, which never call the program's own formulas.  The checks
read only the study reports and ``SolveResult.u``/``SolveResult.residuals``,
never the assembled matrix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import traceback

import numpy as np

import oracles
from peridyn import cli, solver
from peridyn.fields import PlanarInterface, TwoPhaseMaterial, make_manufactured, navier

# three horizons: enough for the CLI's rate fit when a limit is not exact
STAR_DELTAS = (0.1, 0.01, 0.001)
STAR_QUAD = (8, 12)  # the CLI's default: a 4608-node split rule
# kinked zero-traction field on moduli where lambda != mu on both sides: the
# corrected operator misses 45/32 times the traction jump here (see README)
PATCH_MODULI = (3.0, 1.0, 5.0, 2.0)
STAR_LIMIT_RTOL = 1e-6

SMOOTH_DELTAS = (0.1, 0.05, 0.025, 0.0125, 0.00625)
SMOOTH_QUAD = (6, 8)
SMOOTH_SAMPLE_COUNT = 4  # 4^3 sample points, as in demo 02
SMOOTH_HALF_WIDTH = 0.45
SMOOTH_RATE, SMOOTH_RATE_TOL = 2.0, 0.1
NAVIER_ATOL = 1e-12

LATTICE_HALF_WIDTH = 0.75
LATTICE_H = 1.0 / 16.0
LATTICE_RATIO = 3.0
LATTICE_FREE_DOFS = 6591
RECOVERY_TOL_H = 5.0  # recovery tolerance in lattice spacings, as the CLI's
RESIDUAL_RTOL = 1e-10  # the CLI's relative residual gate


def seeded_moduli(seed: int):
    """(lam+, mu+, lam-, mu-) on a 0.5 grid in [1, 6], with lambda != mu on
    both sides and unequal P-wave moduli, so the traction jumps."""
    rng = np.random.default_rng(seed)
    while True:
        lp, mp, lm, mm = (float(v) for v in rng.integers(2, 13, size=4) / 2.0)
        if (lp != mp and lm != mm
                and oracles.p_wave_modulus(lp, mp) != oracles.p_wave_modulus(lm, mm)):
            return lp, mp, lm, mm


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _ints(values) -> str:
    return ",".join(str(int(v)) for v in values)


class Outcome:
    """What one operation did: whether it failed, the benchmark's checks on
    its outputs, and accuracy figures for the log."""

    def __init__(self, failed: bool, checks=(), info=None, free_dofs: int = 0):
        self.failed = failed
        self.checks = list(checks)  # (name, passed, detail)
        self.info = info or {}
        self.free_dofs = free_dofs

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class StarStudy:
    """``peridyn star`` at the interface point, checked against 45/32 times
    the traction jump of the axial ramp u = (0, 0, s+/- z)."""

    def __init__(self, field, moduli, slopes, out):
        self.out = out
        self.target = oracles.star_limit(moduli, oracles.axial_grad(slopes[0]),
                                         oracles.axial_grad(slopes[1]))
        self.argv = ["star", "--field", field, "--material", "two-phase:" + _csv(moduli),
                     "--quad", _ints(STAR_QUAD), "--delta-series", _csv(STAR_DELTAS),
                     "--threads", "1", "--out", out]

    def run(self):
        return _run_cli(self.argv)

    def check(self, code) -> Outcome:
        path = os.path.join(self.out, "star.json")
        if code != 0 and not os.path.exists(path):
            return Outcome(True)
        with open(path) as f:
            report = json.load(f)
        limit = np.asarray(report["limit_estimate"], dtype=float)
        values = np.array([r["value"] for r in report["records"]], dtype=float)
        tol = STAR_LIMIT_RTOL * max(1.0, float(np.linalg.norm(self.target)))
        limit_err = float(np.linalg.norm(limit - self.target))
        info = {"limit": limit.tolist(), "target": self.target.tolist(),
                "limit_err": limit_err}
        if code != 0:
            return Outcome(True, info=info)
        value_err = float(np.abs(values - self.target).max())
        return Outcome(False, [
            ("deltas", report["deltas"] == list(STAR_DELTAS), f"{report['deltas']}"),
            ("limit", limit_err <= tol, f"|limit - 45/32 jump| {limit_err:.3e} (tol {tol:.1e})"),
            ("scaled_values", value_err <= tol,
             f"max |delta L - 45/32 jump| {value_err:.3e} (tol {tol:.1e})"),
        ], info)


class ConvergeStudy:
    """``peridyn converge`` for the trig field in the trig material; the
    benchmark recomputes the norms from the records and fits the rate."""

    def __init__(self, out):
        self.out = out
        os.makedirs(out, exist_ok=True)
        config = os.path.join(out, "config.json")
        with open(config, "w") as f:
            json.dump({"sample_count": SMOOTH_SAMPLE_COUNT}, f)
        self.argv = ["converge", "--config", config, "--field", "smooth_material_trig",
                     "--quad", _ints(SMOOTH_QUAD),
                     "--delta-series", _csv(SMOOTH_DELTAS), "--threads", "1",
                     "--out", out]
        axis = np.linspace(-SMOOTH_HALF_WIDTH, SMOOTH_HALF_WIDTH, SMOOTH_SAMPLE_COUNT)
        self.points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                               axis=-1).reshape(-1, 3)

    def run(self):
        return _run_cli(self.argv)

    def check(self, code) -> Outcome:
        if code != 0:
            return Outcome(True)
        with open(os.path.join(self.out, "converge.json")) as f:
            report = json.load(f)
        n_points = len(self.points)
        by_delta = {d: [] for d in SMOOTH_DELTAS}
        for r in report["records"]:
            by_delta[r["delta"]].append(np.linalg.norm(r["value"]))
        norms = [float(np.sqrt(np.mean(np.square(by_delta[d])))) for d in SMOOTH_DELTAS]
        slope = oracles.loglog_slope(SMOOTH_DELTAS, norms)
        # the reference the study subtracts, against the hand derivation
        field, material = make_manufactured("smooth_material_trig")
        program = np.array([navier(material, field, x) for x in self.points])
        navier_err = float(np.abs(program - oracles.navier_smooth_material_trig(self.points)).max())
        return Outcome(False, [
            ("records", all(len(v) == n_points for v in by_delta.values()),
             f"{[len(v) for v in by_delta.values()]} per horizon (want {n_points})"),
            ("monotone", bool(np.all(np.diff(norms) < 0)), f"norms {norms}"),
            ("rate", abs(slope - SMOOTH_RATE) <= SMOOTH_RATE_TOL,
             f"fitted slope {slope:.4f} (want {SMOOTH_RATE} +- {SMOOTH_RATE_TOL})"),
            ("navier_reference", navier_err <= NAVIER_ATOL,
             f"max |navier - hand| {navier_err:.3e} (tol {NAVIER_ATOL:.0e})"),
        ], {"slope": slope, "finest_norm": norms[-1], "navier_err": navier_err})


class LatticeSolve:
    """The demo 05 sequence on a box of 2197 free nodes: build_grid, assemble,
    solve_equilibrium, with the constraint collar prescribed from a kinked
    zero-traction field the benchmark builds itself."""

    def __init__(self, moduli):
        self.slopes = oracles.zero_traction_slopes(moduli)
        self.interface = PlanarInterface(np.zeros(3), oracles.E3)
        self.material = TwoPhaseMaterial(*moduli, self.interface)
        self.box = (np.full(3, -LATTICE_HALF_WIDTH), np.full(3, LATTICE_HALF_WIDTH))
        # a fixed residual scale, no larger than the matrix row sums the CLI
        # scales by: max P-wave modulus over h^2
        lp, mp, lm, mm = moduli
        self.residual_tol = RESIDUAL_RTOL * max(
            oracles.p_wave_modulus(lp, mp), oracles.p_wave_modulus(lm, mm)) / LATTICE_H**2

    def boundary(self, points):
        return oracles.kinked_axial_field(points, self.slopes)

    def run(self):
        grid = solver.build_grid(self.box, LATTICE_H, LATTICE_RATIO, self.interface)
        operator = solver.assemble(grid, self.material)
        result = solver.solve_equilibrium(operator, None, self.boundary)
        return grid, result

    def check(self, output) -> Outcome:
        grid, result = output
        free_dofs = 3 * int(np.count_nonzero(grid.tags != solver.NodeTag.CONSTRAINT))
        recovery = float(np.linalg.norm(result.u - self.boundary(grid.points), axis=1).max())
        residual = max(v["max"] for v in result.residuals.values())
        tol = RECOVERY_TOL_H * LATTICE_H
        return Outcome(False, [
            ("free_dofs", free_dofs == LATTICE_FREE_DOFS,
             f"{free_dofs} (want {LATTICE_FREE_DOFS})"),
            ("recovery", recovery <= tol, f"max nodal error {recovery:.3e} (tol {tol:.3e})"),
            ("residual", residual <= self.residual_tol,
             f"max residual {residual:.3e} (tol {self.residual_tol:.3e})"),
        ], {"recovery": recovery, "residual": residual, "rcond": result.rcond},
            free_dofs=free_dofs)


def make_operations(workload: str, seed: int, out_root: str):
    """The named workload's operations for this seed, as (name, operation)."""
    out = os.path.join(out_root, workload)
    if workload == "interface_limit":
        moduli = seeded_moduli(seed)
        return [
            ("star_gradient_jump",
             StarStudy("gradient_jump", moduli, (1.0, 1.0),
                       os.path.join(out, "gradient_jump"))),
            ("star_patch_kinked",
             StarStudy("patch_jump_zero_traction", PATCH_MODULI, (2.0, 1.0),
                       os.path.join(out, "patch"))),
        ]
    if workload == "smooth_convergence":
        return [("converge_trig", ConvergeStudy(out))]
    if workload == "lattice_solve":
        return [("solve_kinked", LatticeSolve(seeded_moduli(seed)))]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("interface_limit", "smooth_convergence", "lattice_solve")


def run_operation(operation):
    """Run one operation: (seconds in the program, Outcome)."""
    start = time.perf_counter()
    try:
        output = operation.run()
    except Exception as exc:  # the operation failed; the round goes on
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return elapsed, Outcome(True, info={"error": f"{type(exc).__name__}: {exc}"})
    elapsed = time.perf_counter() - start
    try:
        return elapsed, operation.check(output)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # malformed outputs
        return elapsed, Outcome(False, [("outputs", False, f"{type(exc).__name__}: {exc}")])
