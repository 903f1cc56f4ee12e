"""Command-line front end: studies with embedded pass/fail checks.

Each subcommand runs one study, writes a CSV (plot-ready records) and a JSON
report into the output directory, prints one PASS/FAIL line per embedded
check, and exits 0 only if every check passed (1 if a check failed, 2 on
configuration errors and numerical refusals such as an overflowing horizon).
Outputs are deterministic: identical configuration produces byte-identical
CSV regardless of thread count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from . import analysis, solver
from .fields import (
    MANUFACTURED_NAMES,
    PlanarInterface,
    TwoPhaseMaterial,
    make_manufactured,
    traction_jump,
)
from .operators import (
    half_ball_moment_tensor,
    natural_condition_limit,
)
from .quadrature import (
    DEFAULT_ANGULAR_ORDER,
    DEFAULT_RADIAL_ORDER,
    ball_volume,
    build_ball_rule,
    build_half_ball_rule,
    fourth_moment,
    half_ball_third_moment_numeric,
    second_moment,
    third_moment,
)

STUDIES = ("moments", "kdelta", "converge", "blowup", "natural", "star", "solve")

_KNOWN_KEYS = {
    "study", "field", "material", "deltas", "delta_min", "quad", "normal",
    "p", "threads", "out", "box", "h", "ratio", "b", "sample_count",
}


def _fmt(v: float) -> str:
    return f"{v:.16e}"


class ConfigError(Exception):
    pass


@dataclass
class StudyConfig:
    study: str
    field: Optional[str] = None
    material: Optional[tuple] = None  # (lam+, mu+, lam-, mu-)
    deltas: Optional[list] = None
    delta_min: Optional[float] = None
    quad: tuple = (DEFAULT_RADIAL_ORDER, DEFAULT_ANGULAR_ORDER)
    normal: tuple = (0.0, 0.0, 1.0)
    p: float = 2.0
    threads: int = 1
    out: str = "."
    box: tuple = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    h: float = 1.0 / 16.0
    ratio: float = 3.0
    b: Optional[list] = None
    sample_count: int = 5
    checks: list = dataclass_field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str) -> bool:
        self.checks.append((name, bool(ok), detail))
        print(f"{'PASS' if ok else 'FAIL'} {self.study}/{name}: {detail}")
        return bool(ok)


def _parse_floats(text: str, n: Optional[int] = None):
    try:
        vals = [float(t) for t in text.split(",") if t != ""]
    except ValueError as e:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from e
    if n is not None and len(vals) != n:
        raise ConfigError(f"expected {n} comma-separated numbers, got {text!r}")
    return vals


def _load_config(ns: argparse.Namespace) -> StudyConfig:
    data = {}
    if ns.config:
        try:
            with open(ns.config) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        unknown = set(data) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "study" in data and data["study"] != ns.study:
            raise ConfigError(f"config is for study {data['study']!r}, "
                              f"command line says {ns.study!r}")

    cfg = StudyConfig(study=ns.study)
    if "field" in data:
        cfg.field = data["field"]
    if "material" in data:
        cfg.material = tuple(float(v) for v in data["material"])
    if "deltas" in data:
        cfg.deltas = [float(v) for v in data["deltas"]]
    if "delta_min" in data:
        cfg.delta_min = float(data["delta_min"])
    if "quad" in data:
        cfg.quad = tuple(int(v) for v in data["quad"])
    if "normal" in data:
        cfg.normal = tuple(float(v) for v in data["normal"])
    for key in ("p", "h", "ratio"):
        if key in data:
            setattr(cfg, key, float(data[key]))
    for key in ("threads", "sample_count"):
        if key in data:
            setattr(cfg, key, int(data[key]))
    if "out" in data:
        cfg.out = str(data["out"])
    if "box" in data:
        cfg.box = (tuple(map(float, data["box"][0])), tuple(map(float, data["box"][1])))
    if "b" in data:
        cfg.b = [float(v) for v in data["b"]]

    # flags override file values
    if ns.field:
        cfg.field = ns.field
    if ns.material:
        spec = ns.material
        if not spec.startswith("two-phase:"):
            raise ConfigError("material must look like two-phase:l+,m+,l-,m-")
        cfg.material = tuple(_parse_floats(spec.split(":", 1)[1], 4))
    if ns.delta_series:
        cfg.deltas = _parse_floats(ns.delta_series)
    if ns.delta_min is not None:
        cfg.delta_min = ns.delta_min
    if ns.quad:
        vals = _parse_floats(ns.quad, 2)
        cfg.quad = (int(vals[0]), int(vals[1]))
    if ns.normal:
        cfg.normal = tuple(_parse_floats(ns.normal, 3))
    if ns.p is not None:
        cfg.p = ns.p
    if ns.out:
        cfg.out = ns.out
    if ns.threads is not None:
        cfg.threads = ns.threads
    elif "threads" not in data:
        cfg.threads = int(os.environ.get("PERIDYN_THREADS", "1"))

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


def _deltas(cfg: StudyConfig, default):
    if cfg.deltas is not None:
        return analysis.as_delta_series(cfg.deltas)
    if cfg.delta_min is not None:
        return analysis.geometric_deltas(0.1, cfg.delta_min, 5)
    return analysis.as_delta_series(default)


def _write_table(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


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
    worst4 = 0.0
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
            worst4 = max(worst4, err)
            rows.append(["fourth", delta, i, j, k, l, _fmt(fm[idx]), _fmt(ref), _fmt(err)])
    worst2 = 0.0
    for delta in (1.0, 0.5):
        sm = second_moment(rule, delta)
        ref2 = ball_volume(delta) / 3.0 * np.eye(3)
        for i, j in np.ndindex(3, 3):
            err = abs(sm[i, j] - ref2[i, j])
            worst2 = max(worst2, err / delta**3)
            rows.append(["second", delta, i, j, "", "", _fmt(sm[i, j]), _fmt(ref2[i, j]), _fmt(err)])
    worst3 = 0.0
    for delta in (1.0, 0.5):
        tm = third_moment(rule, delta)
        worst3 = max(worst3, float(np.abs(tm).max()) / delta**2)
    _write_table(os.path.join(out, "moments.csv"),
                 ["quantity", "delta", "i", "j", "k", "l", "value", "reference", "abs_err"],
                 rows)
    ok = True
    ok &= cfg.record("fourth_moment", worst4 < 1e-10, f"max entry error {worst4:.3e} (tol 1e-10)")
    ok &= cfg.record("second_moment", worst2 < 1e-10, f"max scaled error {worst2:.3e} (tol 1e-10)")
    ok &= cfg.record("third_moment", worst3 < 1e-12, f"max scaled entry {worst3:.3e} (tol 1e-12)")
    _write_json(os.path.join(out, "moments.json"), {
        "study": "moments", "quad": list(cfg.quad),
        "fourth_moment_max_err": worst4, "second_moment_max_scaled_err": worst2,
        "third_moment_max_scaled": worst3,
        "checks": [list(c) for c in cfg.checks],
    })


def _run_kdelta(cfg: StudyConfig) -> None:
    out = _outdir(cfg)
    n = np.asarray(cfg.normal, dtype=float)
    nrm = np.linalg.norm(n)
    if nrm == 0:
        raise ConfigError("normal must be nonzero")
    n = n / nrm
    rule = build_half_ball_rule(*cfg.quad)
    closed = half_ball_moment_tensor(n)
    deltas = cfg.deltas or [1.0, 0.1, 0.01]
    rows = []
    scaled = []
    worst = 0.0
    for delta in deltas:
        kd = delta * half_ball_third_moment_numeric(rule, delta, n)
        scaled.append(kd)
        for idx in np.ndindex(3, 3, 3):
            err = abs(kd[idx] - closed[idx])
            worst = max(worst, err)
            rows.append([_fmt(delta), *idx, _fmt(kd[idx]), _fmt(closed[idx]), _fmt(err)])
    spread = max(float(np.abs(a - b).max()) for a in scaled for b in scaled)
    _write_table(os.path.join(out, "kdelta.csv"),
                 ["delta", "i", "j", "k", "numeric_scaled", "closed_form", "abs_err"],
                 rows)
    ok = cfg.record("closed_form", worst < 1e-9,
                    f"max |scaled numeric - closed| {worst:.3e} (tol 1e-9)")
    ok &= cfg.record("delta_independence", spread < 1e-11,
                     f"max spread across horizons {spread:.3e} (tol 1e-11)")
    _write_json(os.path.join(out, "kdelta.json"), {
        "study": "kdelta", "normal": [float(v) for v in n], "deltas": deltas,
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


def _run_blowup(cfg: StudyConfig) -> None:
    name, field, material = _field_material(cfg, "patch_jump_zero_traction")
    if not isinstance(material, TwoPhaseMaterial):
        raise ConfigError("blowup study needs a two-phase material")
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


def _limit_tolerance(target: np.ndarray) -> float:
    return max(5e-3, 0.01 * float(np.linalg.norm(target)))


def _run_natural(cfg: StudyConfig) -> None:
    name, field, material = _field_material(cfg, "patch_jump_zero_traction")
    deltas = _deltas(cfg, analysis.geometric_deltas(0.1, 1e-3, 5))
    x0 = material.interface.point
    report = analysis.natural_limit_check(material, field, x0, deltas,
                                          radial_order=cfg.quad[0],
                                          angular_order=cfg.quad[1],
                                          threads=cfg.threads)
    report.params["field"] = name
    target = natural_condition_limit(material, field, x0)
    err = float(np.linalg.norm(report.limit_estimate - target))
    tol = _limit_tolerance(target)
    cfg.record("natural_limit", err <= tol,
               f"|limit - formula| = {err:.3e} (tol {tol:.3e}); "
               f"limit {np.array2string(report.limit_estimate, precision=6)}")
    _report_outputs(cfg, report)


def _run_star(cfg: StudyConfig) -> None:
    name, field, material = _field_material(cfg, "gradient_jump")
    deltas = _deltas(cfg, analysis.geometric_deltas(0.1, 1e-3, 5))
    x0 = material.interface.point
    report = analysis.star_limit_check(material, field, x0, deltas,
                                       radial_order=cfg.quad[0],
                                       angular_order=cfg.quad[1],
                                       threads=cfg.threads)
    report.params["field"] = name
    target = (45.0 / 32.0) * traction_jump(material, field, x0)
    err = float(np.linalg.norm(report.limit_estimate - target))
    tol = _limit_tolerance(target)
    cfg.record("star_limit", err <= tol,
               f"|limit - 45/32 traction jump| = {err:.3e} (tol {tol:.3e}); "
               f"limit {np.array2string(report.limit_estimate, precision=6)}")
    _report_outputs(cfg, report)


_SOLVE_TOLS = {"constant": ("abs", 1e-10), "linear": ("abs", 1e-8),
               "patch_jump_zero_traction": ("h", 5.0)}


def _run_solve(cfg: StudyConfig) -> None:
    out = _outdir(cfg)
    name, field, material = _field_material(cfg, "patch_jump_zero_traction")
    iface = material.interface if isinstance(material, TwoPhaseMaterial) else None
    try:
        grid = solver.build_grid((np.asarray(cfg.box[0]), np.asarray(cfg.box[1])),
                                 cfg.h, cfg.ratio, iface)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    opr = solver.assemble(grid, material)
    body = None
    if cfg.b is not None:
        const = np.asarray(cfg.b, dtype=float)
        body = lambda p: np.broadcast_to(const, p.shape).copy()
    result = solver.solve_equilibrium(opr, body, lambda p: field.value(p))

    free = grid.tags != solver.NodeTag.CONSTRAINT
    rows = []
    for pt, u, tag in zip(grid.points, result.u, grid.tags):
        rows.append([*map(_fmt, pt), *map(_fmt, u), solver.NodeTag(tag).name.lower()])
    _write_table(os.path.join(out, "solution.csv"),
                 ["x", "y", "z", "ux", "uy", "uz", "tag"], rows)

    res_scale = max(abs(opr.matrix).sum(axis=1).max(), 1.0)
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
    _write_json(os.path.join(out, "solve_report.json"), {
        "study": "solve", "field": name, "h": cfg.h, "ratio": cfg.ratio,
        "n_nodes": int(grid.n_nodes), "n_free": int(free.sum()),
        "residuals": result.residuals, "rcond": result.rcond,
        "recovery_error": recovery, "timings": result.timings,
        "checks": [list(c) for c in cfg.checks],
    })


_RUNNERS = {
    "moments": _run_moments,
    "kdelta": _run_kdelta,
    "converge": _run_converge,
    "blowup": _run_blowup,
    "natural": _run_natural,
    "star": _run_star,
    "solve": _run_solve,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peridyn",
        description="Nonlocal-operator studies: moment identities, interface "
                    "limits, convergence rates, and equilibrium solves.")
    sub = parser.add_subparsers(dest="study", required=True)
    for study in STUDIES:
        p = sub.add_parser(study)
        p.add_argument("--config", help="JSON study configuration file")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--delta-series", help="comma-separated decreasing horizons")
        p.add_argument("--delta-min", type=float,
                       help="smallest horizon of a geometric series from 0.1")
        p.add_argument("--quad", help="quadrature orders R,A")
        p.add_argument("--material", help="two-phase:l+,m+,l-,m-")
        p.add_argument("--field", help=f"one of {', '.join(MANUFACTURED_NAMES)}")
        p.add_argument("--normal", help="unit normal x,y,z")
        p.add_argument("--p", type=float, help="exponent of the discrete norm")
        p.add_argument("--threads", type=int,
                       help="worker threads (default: PERIDYN_THREADS or 1)")
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = _load_config(ns)
        _RUNNERS[ns.study](cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError) as e:
        print(f"error: numerical refusal ({type(e).__name__}): {e}",
              file=sys.stderr)
        return 2
    if all(ok for _, ok, _ in cfg.checks):
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
