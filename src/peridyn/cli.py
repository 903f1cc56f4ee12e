"""Command-line front end: studies with embedded pass/fail checks.

Each subcommand runs one study, writes a CSV (plot-ready records) and a JSON
report into the output directory, prints one PASS/FAIL line per embedded
check, and exits 0 only if every check passed (1 if a check failed, 2 on
configuration errors and numerical refusals such as an overflowing horizon
or a singular solve).
Outputs are deterministic: identical configuration produces byte-identical
CSV regardless of thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from . import analysis, solver
from .fields import (
    MANUFACTURED_NAMES,
    PlanarInterface,
    TwoPhaseMaterial,
    make_manufactured,
)
from .operators import (
    EVALUATION_BYTES_PER_NODE,
    half_ball_moment_tensor,
    nested_pass_points,
)
from .quadrature import (
    DEFAULT_ANGULAR_ORDER,
    DEFAULT_RADIAL_ORDER,
    ball_rule_size,
    ball_volume,
    build_ball_rule,
    build_half_ball_rule,
    fourth_moment,
    half_ball_third_moment_numeric,
    second_moment,
    third_moment,
)

class ConfigError(Exception):
    pass


@dataclass
class StudyConfig:
    study: str
    field: Optional[str] = None
    material: Optional[tuple] = None  # (lam+, mu+, lam-, mu-)
    deltas: Optional[tuple] = None
    delta_min: Optional[float] = None
    quad: tuple = (DEFAULT_RADIAL_ORDER, DEFAULT_ANGULAR_ORDER)
    normal: tuple = (0.0, 0.0, 1.0)
    p: float = 2.0
    threads: int = 1
    out: str = "."
    box: tuple = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    h: float = 1.0 / 16.0
    ratio: float = 3.0
    b: Optional[tuple] = None
    sample_count: int = 5
    checks: list = dataclass_field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str) -> bool:
        self.checks.append((name, bool(ok), detail))
        print(f"{'PASS' if ok else 'FAIL'} {self.study}/{name}: {detail}")
        return bool(ok)


def _scalar(kind):
    """Converter for one value of type ``kind`` from JSON or flag text."""
    def convert(value):
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise ValueError(f"expected {kind.__name__}, got {value!r}") from None
    return convert


def _numbers(count=None, kind=float):
    """Converter for numbers from a JSON list or comma-separated text."""
    def convert(value):
        if isinstance(value, str):
            value = [t for t in value.split(",") if t != ""]
        if not isinstance(value, list) or count not in (None, len(value)):
            raise ValueError(f"expected {count or 'a list of'} numbers, "
                             f"got {value!r}")
        return tuple(map(_scalar(kind), value))
    return convert


def _material(value):
    """(l+, m+, l-, m-) from a JSON list or the text two-phase:l+,m+,l-,m-."""
    if isinstance(value, str):
        if not value.startswith("two-phase:"):
            raise ValueError(f"expected two-phase:l+,m+,l-,m-, got {value!r}")
        value = value[len("two-phase:"):]
    return _numbers(4)(value)


def _box(value):
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"expected corners [[x, y, z], [x, y, z]], got {value!r}")
    return tuple(map(_numbers(3), value))


# one converter per setting, for config-file values and flag text alike; a
# flag sets the key of its own name (--delta-series sets deltas)
_SETTINGS = {
    "field": str,
    "material": _material,
    "deltas": _numbers(),
    "delta_min": _scalar(float),
    "quad": _numbers(2, int),
    "normal": _numbers(3),
    "p": _scalar(float),
    "threads": _scalar(int),
    "out": str,
    "box": _box,
    "h": _scalar(float),
    "ratio": _scalar(float),
    "b": _numbers(),
    "sample_count": _scalar(int),
}


def _load_config(ns: argparse.Namespace) -> StudyConfig:
    data = {}
    if ns.config:
        try:
            with open(ns.config) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        study = data.pop("study", ns.study)
        if study != ns.study:
            raise ConfigError(f"config is for study {study!r}, "
                              f"command line says {ns.study!r}")
        unknown = set(data) - set(_SETTINGS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    # flags override the file; PERIDYN_THREADS applies where neither sets threads
    settings = {"threads": os.environ.get("PERIDYN_THREADS", 1), **data}
    settings.update((key, getattr(ns, key)) for key in _SETTINGS
                    if getattr(ns, key, None) is not None)
    cfg = StudyConfig(study=ns.study)
    for key, value in settings.items():
        try:
            setattr(cfg, key, _SETTINGS[key](value))
        except ValueError as e:
            raise ConfigError(f"{key}: {e}") from e

    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    if cfg.quad[0] < 1 or cfg.quad[1] < 1:
        raise ConfigError("quadrature orders must be >= 1")
    if not cfg.p > 0:
        raise ConfigError(f"p must be > 0, got {cfg.p}")
    return cfg


def _field_material(cfg: StudyConfig, default_field: str):
    name = cfg.field or default_field
    try:
        field, material = make_manufactured(name)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if cfg.material is not None:
        lamp, mup, lamm, mum = cfg.material
        iface = material.interface if isinstance(material, TwoPhaseMaterial) \
            else PlanarInterface(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        material = TwoPhaseMaterial(lamp, mup, lamm, mum, iface)
    return name, field, material


# Field points one nested pass may evaluate, checked before the rule is
# built.  One pass is the cost of one operator evaluation.  Every
# manufactured field is read at O(n) points: an affine field, as every
# interface configuration is, at each rule node once per side, and the
# smooth trig and quadratic fields, which declare a split, at 2n points.  So
# the budget refuses those only beyond 1e8 nodes; a field that declares
# neither is read at about n^2/2 points per side and refused beyond about
# 20,000 nodes.  Below that the pass is bounded by memory: each worker's
# evaluation holds about ``operators.EVALUATION_BYTES_PER_NODE`` per rule
# node.
NESTED_POINT_BUDGET = 2 * 10**8


def _physical_memory() -> int:
    """The machine's physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_quad_budget(cfg: StudyConfig, field, split: bool) -> None:
    """Refuse a ``quad`` whose nested pass on ``field`` exceeds the budget,
    or whose evaluations would need more than the physical memory."""
    n = ball_rule_size(*cfg.quad, split=split)
    points = nested_pass_points(n, field)
    if points > NESTED_POINT_BUDGET:
        raise ConfigError(
            f"quad {cfg.quad[0]},{cfg.quad[1]} gives a {n}-node rule whose "
            f"nested pass evaluates {points:.3g} field points, more than the "
            f"budget of {NESTED_POINT_BUDGET:.3g}")
    need = n * EVALUATION_BYTES_PER_NODE * cfg.threads
    memory = _physical_memory()
    if need > memory:
        raise ConfigError(
            f"quad {cfg.quad[0]},{cfg.quad[1]} gives a {n}-node rule whose "
            f"evaluations need about {need / 2**30:.3g} GiB, more than the "
            f"{memory / 2**30:.3g} GiB of physical memory")


def _deltas(cfg: StudyConfig, default):
    if cfg.deltas is not None:
        return analysis.as_delta_series(cfg.deltas)
    if cfg.delta_min is not None:
        return analysis.geometric_deltas(0.1, cfg.delta_min, 5)
    return analysis.as_delta_series(default)


def _outdir(cfg: StudyConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


# ---------------------------------------------------------------------------
# study runners
# ---------------------------------------------------------------------------


def _run_moments(cfg: StudyConfig) -> None:
    out = _outdir(cfg)
    rule = build_ball_rule(*cfg.quad)
    rows = []
    # np.maximum keeps a NaN error, so it fails its check
    worst4 = 0.0
    # the horizon column of this table is written in its short form
    for delta in (1.0, 0.5):
        fm = fourth_moment(rule, delta)
        for idx in np.ndindex(3, 3, 3, 3):
            i, j, k, l = idx
            if i == j == k == l:
                ref = 6.0
            elif (i == j and k == l) or (i == k and j == l) or (i == l and j == k):
                ref = 2.0
            else:
                ref = 0.0
            err = abs(fm[idx] - ref)
            worst4 = np.maximum(worst4, err)
            rows.append(["fourth", str(delta), i, j, k, l, fm[idx], ref, err])
    worst2 = 0.0
    for delta in (1.0, 0.5):
        sm = second_moment(rule, delta)
        ref2 = ball_volume(delta) / 3.0 * np.eye(3)
        for i, j in np.ndindex(3, 3):
            err = abs(sm[i, j] - ref2[i, j])
            worst2 = np.maximum(worst2, err / delta**3)
            rows.append(["second", str(delta), i, j, "", "", sm[i, j], ref2[i, j], err])
    worst3 = 0.0
    for delta in (1.0, 0.5):
        tm = third_moment(rule, delta)
        worst3 = np.maximum(worst3, float(np.abs(tm).max()) / delta**2)
    analysis.write_table(os.path.join(out, "moments.csv"),
                         ["quantity", "delta", "i", "j", "k", "l", "value",
                          "reference", "abs_err"],
                         rows)
    ok = True
    ok &= cfg.record("fourth_moment", worst4 < 1e-10, f"max entry error {worst4:.3e} (tol 1e-10)")
    ok &= cfg.record("second_moment", worst2 < 1e-10, f"max scaled error {worst2:.3e} (tol 1e-10)")
    ok &= cfg.record("third_moment", worst3 < 1e-12, f"max scaled entry {worst3:.3e} (tol 1e-12)")
    analysis.write_json(os.path.join(out, "moments.json"), {
        "study": "moments", "quad": list(cfg.quad),
        "fourth_moment_max_err": worst4, "second_moment_max_scaled_err": worst2,
        "third_moment_max_scaled": worst3,
        "checks": [list(c) for c in cfg.checks],
    })


def _run_kdelta(cfg: StudyConfig) -> None:
    out = _outdir(cfg)
    n = np.asarray(cfg.normal, dtype=float)
    if not np.all(np.isfinite(n)):
        raise ConfigError("normal must be finite")
    with np.errstate(over="ignore"):  # refused below, without a warning
        nrm = np.linalg.norm(n)
    if nrm == 0 and np.any(n != 0):
        # the squares underflow: scale by the largest component first
        n = n / np.abs(n).max()
        nrm = np.linalg.norm(n)
    if nrm == 0:
        raise ConfigError("normal must be nonzero")
    if not np.isfinite(nrm):
        raise ConfigError("normal is too long: its length overflows")
    n = n / nrm
    rule = build_half_ball_rule(*cfg.quad)
    closed = half_ball_moment_tensor(n)
    deltas = analysis.as_delta_series(cfg.deltas or (1.0, 0.1, 0.01))
    rows = []
    scaled = []
    worst = 0.0
    for delta in deltas:
        kd = delta * half_ball_third_moment_numeric(rule, delta, n)
        scaled.append(kd)
        for idx in np.ndindex(3, 3, 3):
            err = abs(kd[idx] - closed[idx])
            worst = np.maximum(worst, err)
            rows.append([delta, *idx, kd[idx], closed[idx], err])
    spread = float(np.ptp(scaled, axis=0).max())
    analysis.write_table(os.path.join(out, "kdelta.csv"),
                         ["delta", "i", "j", "k", "numeric_scaled",
                          "closed_form", "abs_err"],
                         rows)
    ok = cfg.record("closed_form", worst < 1e-9,
                    f"max |scaled numeric - closed| {worst:.3e} (tol 1e-9)")
    ok &= cfg.record("delta_independence", spread < 1e-11,
                     f"max spread across horizons {spread:.3e} (tol 1e-11)")
    analysis.write_json(os.path.join(out, "kdelta.json"), {
        "study": "kdelta", "normal": [float(v) for v in n],
        "deltas": [float(d) for d in deltas],
        "quad": list(cfg.quad), "max_err": worst, "delta_spread": spread,
        "checks": [list(c) for c in cfg.checks],
    })


def _report_outputs(cfg: StudyConfig, report: analysis.ConvergenceReport) -> None:
    out = _outdir(cfg)
    report.write_csv(os.path.join(out, f"{cfg.study}.csv"))
    report.params["checks"] = [list(c) for c in cfg.checks]
    report.write_json(os.path.join(out, f"{cfg.study}.json"))


def _run_converge(cfg: StudyConfig) -> None:
    name, field, material = _field_material(cfg, "trig_smooth")
    _check_quad_budget(cfg, field, split=False)
    deltas = _deltas(cfg, analysis.DEFAULT_DELTAS)
    iface = material.interface if isinstance(material, TwoPhaseMaterial) else None
    pts = analysis.default_sample_grid(cfg.sample_count, 0.45, iface,
                                       2.0 * float(deltas.max()))
    report = analysis.converge_to_navier(material, field, deltas, pts, p=cfg.p,
                                         radial_order=cfg.quad[0],
                                         angular_order=cfg.quad[1],
                                         threads=cfg.threads)
    report.params["field"] = name
    monotone = bool(np.all(np.diff(report.norms) < 0))
    if report.exact:
        cfg.record("exact", True, "errors below 1e-12 at every horizon (exact regime)")
    else:
        cfg.record("monotone", monotone, f"norms {['%.3e' % v for v in report.norms]}")
        cfg.record("rate", report.slope is not None and report.slope >= 0.9,
                   f"fitted slope {report.slope:.3f} (need >= 0.9)")
    _report_outputs(cfg, report)


def _material_jumps(material) -> bool:
    return (isinstance(material, TwoPhaseMaterial)
            and (material.lambda_plus != material.lambda_minus
                 or material.mu_plus != material.mu_minus))


def _two_phase(cfg: StudyConfig, default_field: str):
    """Field and material of an interface study, which needs two phases and
    runs on the split rule."""
    name, field, material = _field_material(cfg, default_field)
    if not isinstance(material, TwoPhaseMaterial):
        raise ConfigError(f"{cfg.study} study needs a two-phase material")
    _check_quad_budget(cfg, field, split=True)
    return name, field, material


def _run_blowup(cfg: StudyConfig) -> None:
    name, field, material = _two_phase(cfg, "patch_jump_zero_traction")
    deltas = _deltas(cfg, analysis.geometric_deltas(0.1, 1e-3, 5))
    x0 = material.interface.point
    report = analysis.interface_blowup(material, field, x0, deltas,
                                       radial_order=cfg.quad[0],
                                       angular_order=cfg.quad[1],
                                       threads=cfg.threads)
    report.params["field"] = name
    jumps = _material_jumps(material) or field.plus_side is not field.minus_side
    if jumps:
        ok = report.slope is not None and abs(report.slope + 1.0) <= 0.05
        cfg.record("blowup_rate", ok,
                   f"fitted slope {report.slope} (need -1 +- 0.05)")
    else:
        ok = report.exact or (report.slope is not None and report.slope >= -0.05)
        cfg.record("bounded", ok, f"fitted slope {report.slope} (need >= -0.05)")
    _report_outputs(cfg, report)


def _run_limit(cfg: StudyConfig, study, default_field: str, check: str,
               label: str) -> None:
    """An interface limit study, checked against the target it reports."""
    name, field, material = _two_phase(cfg, default_field)
    deltas = _deltas(cfg, analysis.geometric_deltas(0.1, 1e-3, 5))
    report = study(material, field, material.interface.point, deltas,
                   radial_order=cfg.quad[0], angular_order=cfg.quad[1],
                   threads=cfg.threads)
    report.params["field"] = name
    target = np.asarray(report.params["target"])
    err = float(np.linalg.norm(report.limit_estimate - target))
    tol = max(5e-3, 0.01 * float(np.linalg.norm(target)))
    cfg.record(check, err <= tol,
               f"|limit - {label}| = {err:.3e} (tol {tol:.3e}); "
               f"limit {np.array2string(report.limit_estimate, precision=6)}")
    _report_outputs(cfg, report)


_SOLVE_TOLS = {"constant": ("abs", 1e-10), "linear": ("abs", 1e-8),
               "patch_jump_zero_traction": ("h", 5.0)}


def _residual_scale(opr) -> float:
    """Scale of the solve's residual gate: the max P-wave modulus
    lambda + 2 mu over h^2, and at least 1.  It does not exceed the
    operator's max absolute row sum."""
    return max(float(np.max(opr.lam + 2.0 * opr.mu)) / opr.grid.h**2, 1.0)


def _run_solve(cfg: StudyConfig) -> None:
    lo, hi = (np.asarray(c, dtype=float) for c in cfg.box)
    # anything else is for build_grid to refuse
    if cfg.h > 0 and np.all(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)):
        nodes = float(np.prod(np.rint((hi - lo) / cfg.h) + 1.0))
        need = nodes * solver.SOLVE_BYTES_PER_NODE
        memory = _physical_memory()
        if need > memory:
            raise ConfigError(
                f"box and h give a lattice of {nodes:.3g} nodes, which needs "
                f"about {need / 2**30:.3g} GiB, more than the "
                f"{memory / 2**30:.3g} GiB of physical memory")
    out = _outdir(cfg)
    name, field, material = _field_material(cfg, "patch_jump_zero_traction")
    iface = material.interface if isinstance(material, TwoPhaseMaterial) else None
    try:
        grid = solver.build_grid((lo, hi), cfg.h, cfg.ratio, iface)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    t0 = time.perf_counter()
    opr = solver.assemble(grid, material)
    assemble_s = time.perf_counter() - t0
    body = None
    if cfg.b is not None:
        const = np.asarray(cfg.b, dtype=float)
        body = lambda p: np.broadcast_to(const, p.shape).copy()
    result = solver.solve_equilibrium(opr, body, lambda p: field.value(p))

    free = grid.tags != solver.NodeTag.CONSTRAINT
    rows = []
    for pt, u, tag in zip(grid.points, result.u, grid.tags):
        rows.append([*pt, *u, solver.NodeTag(tag).name.lower()])
    analysis.write_table(os.path.join(out, "solution.csv"),
                         ["x", "y", "z", "ux", "uy", "uz", "tag"], rows)

    res_scale = _residual_scale(opr)
    worst_res = max(v["max"] for v in result.residuals.values())
    ok = cfg.record("residual", worst_res <= 1e-10 * res_scale,
                    f"max residual {worst_res:.3e} (tol {1e-10 * res_scale:.3e})")
    recovery = None
    if cfg.b is None:
        exact = field.value(grid.points)
        recovery = float(np.linalg.norm(result.u[free] - exact[free], axis=1).max())
        kind = _SOLVE_TOLS.get(name)
        if kind is not None:
            tol = kind[1] if kind[0] == "abs" else kind[1] * cfg.h
            ok &= cfg.record("recovery", recovery <= tol,
                             f"max nodal error {recovery:.3e} (tol {tol:.3e})")
        else:
            cfg.record("recovery_info", True,
                       f"max nodal error {recovery:.3e} (no tolerance for field {name!r})")
    analysis.write_json(os.path.join(out, "solve_report.json"), {
        "study": "solve", "field": name, "h": cfg.h, "ratio": cfg.ratio,
        "n_nodes": int(grid.n_nodes), "n_free": int(free.sum()),
        "residuals": result.residuals, "iterations": result.iterations,
        "residual_history": result.residual_history,
        "recovery_error": recovery,
        # the transforms of the lattice (extraction, residuals, diagonal) and
        # of the free window (every GMRES iteration)
        "fft_shape": list(opr.fft_shape), "free_fft_shape": list(opr.window.fft_shape),
        "timings": {"assemble_s": assemble_s, **result.timings},
        "checks": [list(c) for c in cfg.checks],
    })


_RUNNERS = {
    "moments": _run_moments,
    "kdelta": _run_kdelta,
    "converge": _run_converge,
    "blowup": _run_blowup,
    # looked up per run, so a wrapped or patched study function is called
    "natural": lambda cfg: _run_limit(cfg, analysis.natural_limit_check,
                                      "patch_jump_zero_traction",
                                      "natural_limit", "formula"),
    "star": lambda cfg: _run_limit(cfg, analysis.star_limit_check,
                                   "gradient_jump", "star_limit",
                                   "45/32 traction jump"),
    "solve": _run_solve,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peridyn",
        description="Nonlocal-operator studies: moment identities, interface "
                    "limits, convergence rates, and equilibrium solves.")
    sub = parser.add_subparsers(dest="study", required=True)
    for study in _RUNNERS:
        p = sub.add_parser(study)
        p.add_argument("--config", help="JSON study configuration file")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--delta-series", dest="deltas",
                       help="comma-separated decreasing horizons")
        p.add_argument("--delta-min",
                       help="smallest horizon of a geometric series from 0.1")
        p.add_argument("--quad", help="quadrature orders R,A")
        p.add_argument("--material", help="two-phase:l+,m+,l-,m-")
        p.add_argument("--field", help=f"one of {', '.join(MANUFACTURED_NAMES)}")
        p.add_argument("--normal", help="unit normal x,y,z")
        p.add_argument("--p", help="exponent of the discrete norm")
        p.add_argument("--threads",
                       help="worker threads (default: PERIDYN_THREADS or 1)")
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = _load_config(ns)
        _RUNNERS[ns.study](cfg)
    # LinAlgError is a ValueError, so the numerical refusals come first
    except (OverflowError, FloatingPointError, np.linalg.LinAlgError) as e:
        print(f"error: numerical refusal ({type(e).__name__}): {e}",
              file=sys.stderr)
        return 2
    except (ConfigError, ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if all(ok for _, ok, _ in cfg.checks):
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
