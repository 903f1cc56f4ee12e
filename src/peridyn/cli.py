"""Command-line front end: studies with embedded pass/fail checks.

``peridyn <study> [flags]`` runs one study, writes a CSV (plot-ready
records) and a JSON report into the output directory, prints one PASS/FAIL
line per embedded check, and exits 0 only if every check passed (1 if a
check failed, 2 on configuration errors, runs that would need more than the
physical memory, and numerical refusals such as an overflowing horizon or a
singular solve).
Outputs are deterministic: identical configuration produces byte-identical
CSV regardless of thread count.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

from . import analysis, solver
from .fields import INTERFACE_Z, MANUFACTURED_NAMES, TwoPhaseMaterial, make_manufactured
from .operators import (EVALUATION_BYTES_PER_NODE, half_ball_moment_tensor,
                        natural_condition_limit)
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
    "b": _numbers(3),
    "sample_count": _scalar(int),
}


def _load_config(ns: argparse.Namespace) -> StudyConfig:
    """Every setting of the run, resolved once: flag over file over the
    study's default over StudyConfig's.  A study that reads horizons takes
    ``deltas``, else geomspace(0.1, ``delta_min``, 5), else its default."""
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

    data.update((key, getattr(ns, key)) for key in _SETTINGS
                if getattr(ns, key, None) is not None)
    cfg = StudyConfig(study=ns.study)
    for key, value in data.items():
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
    if cfg.sample_count < 1:
        raise ConfigError(f"sample_count must be >= 1, got {cfg.sample_count}")
    defaults = _STUDIES[ns.study].defaults
    reads_horizons = "deltas" in defaults
    if reads_horizons and cfg.deltas is None and cfg.delta_min is not None:
        if not 0 < cfg.delta_min < 0.1:
            raise ConfigError(f"delta_min must be in (0, 0.1), got {cfg.delta_min}")
        cfg.deltas = analysis.geometric_deltas(0.1, cfg.delta_min, 5)
    for key, value in defaults.items():
        if getattr(cfg, key) is None:
            setattr(cfg, key, value)
    if reads_horizons:
        cfg.deltas = analysis.as_delta_series(cfg.deltas)
    return cfg


@dataclass(frozen=True)
class Study:
    """A study's runner, its defaults where they differ from StudyConfig's
    (None there), and its memory need: ``bytes_per_node`` for each of max(n,
    ``batch``) nodes of its n-node rule, in each of ``threads`` workers if
    it has a ``batch``.  A study with a default field is run on its field
    and material; an ``interface`` study needs two phases and runs on the
    rule split along the interface."""
    run: Callable
    defaults: dict = dataclass_field(default_factory=dict)
    bytes_per_node: float = 0.0
    batch: int = 0
    interface: bool = False


def _field_material(cfg: StudyConfig, study: Study):
    """The field and material of the study's manufactured case, on the
    moduli of ``cfg.material`` if it is set."""
    try:
        field, material = make_manufactured(cfg.field)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if cfg.material is not None:
        iface = (material.interface if isinstance(material, TwoPhaseMaterial)
                 else INTERFACE_Z)
        try:
            material = TwoPhaseMaterial(*cfg.material, iface)
        except ValueError as e:
            raise ConfigError(f"material: {e}") from e
    if study.interface and not isinstance(material, TwoPhaseMaterial):
        raise ConfigError(f"{cfg.study} study needs a two-phase material")
    return field, material


# The memory gate: a run is refused before it allocates when its estimated
# peak, from its configuration alone, exceeds the machine's physical memory.
# A point operator holds about ``operators.EVALUATION_BYTES_PER_NODE`` per
# field point, and each worker evaluates a batch of up to max(n,
# ``analysis.BATCH_FIELD_POINTS``) field points on an n-node rule; a solve
# holds about ``solver.SOLVE_BYTES_PER_NODE`` per lattice node.  The moments
# and kdelta studies hold their rule and a few n-sized temporaries: their
# peak bytes per rule node, the rule included, are 48.5-50.3 for moments
# and 72.4-73.7 for kdelta by tracemalloc, on rules of 128,000 to 576,000
# nodes.  The converge study also holds its sample grid and, per sample point
# and horizon, the values and the report's records: 1,667-1,725 bytes by
# tracemalloc, on grids of 512 to 64,000 points at 3 and 5 horizons.
MOMENTS_BYTES_PER_NODE = 8 * 7
KDELTA_BYTES_PER_NODE = 8 * 10
CONVERGE_BYTES_PER_SAMPLE = 1800


def _physical_memory() -> int:
    """The machine's physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _approx(n, unit: int = 1) -> str:
    """``n / unit`` to three significant digits; an integer ``n`` whose
    quotient overflows a float is divided exactly."""
    try:
        return f"{n / unit:.3g}"
    except OverflowError:
        from decimal import Decimal  # not loaded by the common path
        return f"{Decimal(n) / unit:.3g}"


def _check_memory(need, what: str) -> None:
    """Refuse a run whose estimated peak of ``need`` bytes exceeds the
    physical memory; ``what`` opens the message and says what needs it."""
    memory = _physical_memory()
    if need > memory:
        raise ConfigError(
            f"{what} about {_approx(need, 2**30)} GiB, more than the "
            f"{memory / 2**30:.3g} GiB of physical memory")


def _check_quad(cfg: StudyConfig, study: Study) -> None:
    """Refuse a ``quad`` whose rule would need more than the physical memory
    at the study's need (see :class:`Study`); ``solve`` builds no rule."""
    if not study.bytes_per_node:
        return
    n = ball_rule_size(*cfg.quad, split=study.interface)
    workers = cfg.threads if study.batch else 1
    _check_memory(max(n, study.batch) * study.bytes_per_node * workers,
                  f"quad {cfg.quad[0]},{cfg.quad[1]} gives a {n}-node rule "
                  f"whose evaluations need")


# ---------------------------------------------------------------------------
# study runners
# ---------------------------------------------------------------------------


def _run_moments(cfg: StudyConfig) -> None:
    rule = build_ball_rule(*cfg.quad)
    rows = []
    # np.maximum keeps a NaN error, so it fails its check
    worst4 = 0.0
    # the horizon column of this table is written in its short form
    fm = fourth_moment(rule)  # scale-free: one tensor serves both horizons
    for delta in (1.0, 0.5):
        for idx in np.ndindex(3, 3, 3, 3):
            i, j, k, l = idx
            ref = 2.0 * ((i == j) * (k == l) + (i == k) * (j == l) + (i == l) * (j == k))
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
    analysis.write_table(os.path.join(cfg.out, "moments.csv"),
                         ["quantity", "delta", "i", "j", "k", "l", "value",
                          "reference", "abs_err"],
                         rows)
    cfg.record("fourth_moment", worst4 < 1e-10, f"max entry error {worst4:.3e} (tol 1e-10)")
    cfg.record("second_moment", worst2 < 1e-10, f"max scaled error {worst2:.3e} (tol 1e-10)")
    cfg.record("third_moment", worst3 < 1e-12, f"max scaled entry {worst3:.3e} (tol 1e-12)")
    analysis.write_json(os.path.join(cfg.out, "moments.json"), {
        "study": "moments", "quad": list(cfg.quad),
        "fourth_moment_max_err": worst4, "second_moment_max_scaled_err": worst2,
        "third_moment_max_scaled": worst3,
        "checks": [list(c) for c in cfg.checks],
    })


def _run_kdelta(cfg: StudyConfig) -> None:
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
    rule = build_half_ball_rule(n, *cfg.quad)
    closed = half_ball_moment_tensor(n)
    rows = []
    scaled = []
    worst = 0.0
    for delta in cfg.deltas:
        kd = delta * half_ball_third_moment_numeric(rule, delta)
        scaled.append(kd)
        for idx in np.ndindex(3, 3, 3):
            err = abs(kd[idx] - closed[idx])
            worst = np.maximum(worst, err)
            rows.append([delta, *idx, kd[idx], closed[idx], err])
    spread = float(np.ptp(scaled, axis=0).max())
    analysis.write_table(os.path.join(cfg.out, "kdelta.csv"),
                         ["delta", "i", "j", "k", "numeric_scaled",
                          "closed_form", "abs_err"],
                         rows)
    cfg.record("closed_form", worst < 1e-9,
               f"max |scaled numeric - closed| {worst:.3e} (tol 1e-9)")
    cfg.record("delta_independence", spread < 1e-11,
               f"max spread across horizons {spread:.3e} (tol 1e-11)")
    analysis.write_json(os.path.join(cfg.out, "kdelta.json"), {
        "study": "kdelta", "normal": [float(v) for v in n],
        "deltas": [float(d) for d in cfg.deltas],
        "quad": list(cfg.quad), "max_err": worst, "delta_spread": spread,
        "checks": [list(c) for c in cfg.checks],
    })


def _report_outputs(cfg: StudyConfig, report: analysis.ConvergenceReport) -> None:
    report.write_csv(os.path.join(cfg.out, f"{cfg.study}.csv"))
    report.params["checks"] = [list(c) for c in cfg.checks]
    report.write_json(os.path.join(cfg.out, f"{cfg.study}.json"))


def _run_converge(cfg: StudyConfig, field, material) -> None:
    points = cfg.sample_count ** 3  # an integer: no count overflows
    _check_memory(points * len(cfg.deltas) * CONVERGE_BYTES_PER_SAMPLE,
                  f"sample_count {cfg.sample_count} gives {_approx(points)} sample "
                  f"points whose values at {len(cfg.deltas)} horizons need")
    iface = material.interface if isinstance(material, TwoPhaseMaterial) else None
    collar = 2.0 * float(cfg.deltas.max())
    pts = analysis.default_sample_grid(cfg.sample_count, 0.45, iface, collar)
    if len(pts) == 0:
        raise ConfigError(f"the interface collar of {collar:g} (twice the largest "
                          f"horizon) excludes every sample point")
    report = analysis.converge_to_navier(
        material, field, cfg.deltas, pts, p=cfg.p, radial_order=cfg.quad[0],
        angular_order=cfg.quad[1], threads=cfg.threads)
    report.params["field"] = cfg.field
    monotone = bool(np.all(np.diff(report.norms) < 0))
    if report.exact:
        cfg.record("exact", True, "errors below 1e-12 at every horizon (exact regime)")
    else:
        cfg.record("monotone", monotone, f"norms {['%.3e' % v for v in report.norms]}")
        cfg.record("rate", report.slope is not None and report.slope >= 0.9,
                   f"fitted slope {report.slope:.3f} (need >= 0.9)")
    _report_outputs(cfg, report)


def _run_blowup(cfg: StudyConfig, field, material) -> None:
    report = analysis.interface_blowup(
        material, field, material.interface.point, cfg.deltas,
        radial_order=cfg.quad[0], angular_order=cfg.quad[1], threads=cfg.threads)
    report.params["field"] = cfg.field
    # the operator grows as 1/delta exactly when delta times it has a
    # nonzero limit
    if np.any(natural_condition_limit(material, field, material.interface.point) != 0.0):
        ok = report.slope is not None and abs(report.slope + 1.0) <= 0.05
        cfg.record("blowup_rate", ok,
                   f"fitted slope {report.slope} (need -1 +- 0.05)")
    else:
        ok = report.exact or (report.slope is not None and report.slope >= -0.05)
        cfg.record("bounded", ok, f"fitted slope {report.slope} (need >= -0.05)")
    _report_outputs(cfg, report)


def _run_limit(cfg: StudyConfig, field, material) -> None:
    """The natural or star limit study, checked against the target it
    reports.  Its analysis function is looked up per run, so a wrapped or
    patched one is called."""
    study = getattr(analysis, f"{cfg.study}_limit_check")
    label = {"natural": "formula", "star": "45/32 traction jump"}[cfg.study]
    report = study(material, field, material.interface.point, cfg.deltas,
                   radial_order=cfg.quad[0], angular_order=cfg.quad[1],
                   threads=cfg.threads)
    report.params["field"] = cfg.field
    target = np.asarray(report.params["target"])
    err = float(np.linalg.norm(report.limit_estimate - target))
    tol = max(5e-3, 0.01 * float(np.linalg.norm(target)))
    cfg.record(f"{cfg.study}_limit", err <= tol,
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


def _run_solve(cfg: StudyConfig, field, material) -> None:
    lo, hi = (np.asarray(c, dtype=float) for c in cfg.box)
    # anything else is for build_grid to refuse
    if cfg.h > 0 and np.all(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)):
        nodes = float(np.prod(np.rint((hi - lo) / cfg.h) + 1.0))
        _check_memory(nodes * solver.SOLVE_BYTES_PER_NODE,
                      f"box and h give a lattice of {nodes:.3g} nodes, which needs")
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
    analysis.write_table(os.path.join(cfg.out, "solution.csv"),
                         ["x", "y", "z", "ux", "uy", "uz", "tag"], rows)

    res_scale = _residual_scale(opr)
    worst_res = max(v["max"] for v in result.residuals.values())
    cfg.record("residual", worst_res <= 1e-10 * res_scale,
               f"max residual {worst_res:.3e} (tol {1e-10 * res_scale:.3e})")
    recovery = None
    if cfg.b is None:
        exact = field.value(grid.points)
        recovery = float(np.linalg.norm(result.u[free] - exact[free], axis=1).max())
        kind = _SOLVE_TOLS.get(cfg.field)
        if kind is not None:
            tol = kind[1] if kind[0] == "abs" else kind[1] * cfg.h
            cfg.record("recovery", recovery <= tol,
                       f"max nodal error {recovery:.3e} (tol {tol:.3e})")
        else:
            cfg.record("recovery_info", True,
                       f"max nodal error {recovery:.3e} (no tolerance for field {cfg.field!r})")
    analysis.write_json(os.path.join(cfg.out, "solve_report.json"), {
        "study": "solve", "field": cfg.field, "h": cfg.h, "ratio": cfg.ratio,
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


_SERIES = {"bytes_per_node": EVALUATION_BYTES_PER_NODE,
           "batch": analysis.BATCH_FIELD_POINTS}
_AT_INTERFACE = {"interface": True, **_SERIES}
# geomspace(0.1, 1e-3, 5), written out: computing it on import would add
# about 0.25 MiB to the peak RSS of every process that imports the CLI
_INTERFACE_DELTAS = (0.1, 0.03162277660168379, 0.01, 0.0031622776601683794, 0.001)

_STUDIES = {
    "moments": Study(_run_moments, bytes_per_node=MOMENTS_BYTES_PER_NODE),
    "kdelta": Study(_run_kdelta, {"deltas": (1.0, 0.1, 0.01)},
                    bytes_per_node=KDELTA_BYTES_PER_NODE),
    "converge": Study(_run_converge, {"field": "trig_smooth",
                                      "deltas": analysis.DEFAULT_DELTAS}, **_SERIES),
    "blowup": Study(_run_blowup, {"field": "patch_jump_zero_traction",
                                  "deltas": _INTERFACE_DELTAS}, **_AT_INTERFACE),
    "natural": Study(_run_limit, {"field": "patch_jump_zero_traction",
                                  "deltas": _INTERFACE_DELTAS}, **_AT_INTERFACE),
    "star": Study(_run_limit, {"field": "gradient_jump",
                               "deltas": _INTERFACE_DELTAS}, **_AT_INTERFACE),
    "solve": Study(_run_solve, {"field": "patch_jump_zero_traction"}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every study: the study, and flags that may come before
    or after it.  Built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="peridyn",
        description="Nonlocal-operator studies: moment identities, interface "
                    "limits, convergence rates, and equilibrium solves.")
    parser.add_argument("study", choices=_STUDIES)
    parser.add_argument("--config", help="JSON study configuration file")
    parser.add_argument("--out", help="output directory (default: current)")
    parser.add_argument("--delta-series", dest="deltas",
                        help="comma-separated decreasing horizons")
    parser.add_argument("--delta-min",
                        help="smallest horizon of a geometric series from 0.1")
    parser.add_argument("--quad", help="quadrature orders R,A")
    parser.add_argument("--material", help="two-phase:l+,m+,l-,m-")
    parser.add_argument("--field", help=f"one of {', '.join(MANUFACTURED_NAMES)}")
    parser.add_argument("--normal", help="unit normal x,y,z")
    parser.add_argument("--p", help="exponent of the discrete norm")
    parser.add_argument("--threads", help="worker threads (default: 1)")
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = _load_config(ns)
        study = _STUDIES[ns.study]
        # field and material errors come before the memory gate
        case = _field_material(cfg, study) if "field" in study.defaults else ()
        _check_quad(cfg, study)
        os.makedirs(cfg.out, exist_ok=True)
        study.run(cfg, *case)
    # LinAlgError is a ValueError, so the numerical refusals come first
    except (OverflowError, FloatingPointError, np.linalg.LinAlgError) as e:
        print(f"error: numerical refusal ({type(e).__name__}): {e}",
              file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if all(ok for _, ok, _ in cfg.checks):
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
