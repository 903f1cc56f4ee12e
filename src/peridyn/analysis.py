"""Study runners that turn point evaluations into theorem-level checks.

Every study takes one path: :func:`_series` evaluates its operator over the
horizon x point grid, with one quadrature rule for the whole study, in
batches of sample points (one operator call per batch, see
:data:`BATCH_FIELD_POINTS`) and in a fixed horizon-major order whatever the
thread count, and :func:`_report` fits the log-log rate and builds the
:class:`ConvergenceReport`.  The local limits the convergence studies
subtract are evaluated once per side over all sample points.  Interface
studies split the rule along the material interface, so integrands smooth
per phase are integrated to machine precision (see
:func:`peridyn.quadrature.build_split_ball_rule`), and the limit studies add
a Richardson limit estimate.  Reports serialize to CSV (records) and JSON
(everything) with round-trip-exact floats; every JSON report records the
versions that produced it.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .fields import (
    Material,
    PiecewiseField,
    SideTag,
    TwoPhaseMaterial,
    navier,
    traction_jump,
)
from .operators import (
    Horizon,
    OperatorConfig,
    _makes_nested_pass,
    corrected_operator,
    natural_condition_limit,
    nested_pass_points,
    state_operator,
)
from .quadrature import (DEFAULT_ANGULAR_ORDER, DEFAULT_RADIAL_ORDER,
                         build_ball_rule, build_split_ball_rule)

DEFAULT_DELTAS = (0.1, 0.05, 0.025, 0.0125, 0.00625)

EXACT_SERIES_FLOOR = 1e-12

CSV_HEADER = ["delta", "point_id", "vx", "vy", "vz", "err_p"]


def _fmt(v: float) -> str:
    # 17 significant digits: lossless float64 round trip
    return f"{v:.16e}"


def write_table(path, header, rows) -> None:
    """Write an RFC 4180 CSV; float cells get the lossless format, other
    cells are written as they are."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([_fmt(v) if isinstance(v, float) else v for v in row]
                    for row in rows)


_PROVENANCE = {"peridyn": __version__, "numpy": np.__version__,
               "scipy": scipy.__version__}


def write_json(path, payload) -> None:
    """Write a JSON report with sorted keys and a final newline; the report
    gains a ``provenance`` entry naming the versions that produced it."""
    # one write of the whole text, where json.dump makes one per chunk
    with open(path, "w") as f:
        f.write(json.dumps({**payload, "provenance": _PROVENANCE}, indent=1,
                           sort_keys=True))
        f.write("\n")


def as_delta_series(deltas) -> np.ndarray:
    deltas = np.asarray(list(deltas), dtype=float)
    if deltas.ndim != 1 or len(deltas) == 0:
        raise ValueError("delta series must be a non-empty sequence")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("horizons must be finite")
    if np.any(deltas <= 0):
        raise ValueError("horizons must be positive")
    if np.any(np.diff(deltas) >= 0):
        raise ValueError("delta series must be strictly decreasing")
    return deltas


def geometric_deltas(largest: float, smallest: float, count: int) -> np.ndarray:
    if count < 2 or not 0 < smallest < largest:
        raise ValueError("need largest > smallest > 0 and count >= 2")
    return np.geomspace(largest, smallest, count)


def fit_rate(deltas, errors) -> float:
    """Least-squares slope of log(error) against log(delta).

    Series that are exact to tolerance (every error below 1e-12) are flagged
    by returning NaN instead of fitting noise.
    """
    deltas = np.asarray(deltas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.all(errors < EXACT_SERIES_FLOOR):
        return math.nan
    usable = errors > 0
    if usable.sum() < 3:
        raise ValueError("rate fit needs at least 3 positive (delta, error) pairs")
    slope, _ = np.polyfit(np.log(deltas[usable]), np.log(errors[usable]), 1)
    return float(slope)


def richardson_limit(deltas, values) -> np.ndarray:
    """Limit estimate from the two finest horizons under a first-order
    remainder model v(delta) = L + C delta."""
    deltas = np.asarray(deltas, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(deltas) < 2:
        return values[-1]
    d1, d2 = deltas[-2], deltas[-1]
    return (d1 * values[-1] - d2 * values[-2]) / (d1 - d2)


@dataclass
class ConvergenceReport:
    """Horizon series of per-point vectors and errors with fitted rate."""

    study: str
    params: dict
    deltas: list
    values: np.ndarray  # (n_delta, n_points, 3)
    errors: np.ndarray  # (n_delta, n_points)
    norms: list  # per-delta aggregate discrete L^p of the errors
    slope: Optional[float]  # None for a series exact to tolerance
    limit_estimate: Optional[np.ndarray] = None
    extra: dict = dataclass_field(default_factory=dict)

    @property
    def exact(self) -> bool:
        return self.slope is None

    @property
    def point_ids(self) -> range:
        return range(self.values.shape[1])

    def records(self):
        for i, d in enumerate(self.deltas):
            for j in self.point_ids:
                yield {
                    "delta": float(d),
                    "point_id": j,
                    "value": [float(v) for v in self.values[i, j]],
                    "err": float(self.errors[i, j]),
                }

    def write_json(self, path) -> None:
        write_json(path, {
            "study": self.study,
            "params": self.params,
            "deltas": [float(d) for d in self.deltas],
            "records": list(self.records()),
            "norms": [float(v) for v in self.norms],
            "slope": None if self.slope is None else float(self.slope),
            "exact": self.exact,
            "limit_estimate": (None if self.limit_estimate is None
                               else [float(v) for v in self.limit_estimate]),
            "extra": self.extra,
        })

    def write_csv(self, path) -> None:
        write_table(path, CSV_HEADER,
                    ([r["delta"], r["point_id"], *r["value"], r["err"]]
                     for r in self.records()))


def default_sample_grid(count: int = 5, half_width: float = 0.45,
                        interface=None, exclusion: float = 0.0) -> np.ndarray:
    """Cubic lattice of sample points, optionally excluding an interface collar."""
    axis = np.linspace(-half_width, half_width, count)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    if interface is not None and exclusion > 0:
        pts = pts[np.abs(interface.signed_distance(pts)) >= exclusion]
    return pts


def _discrete_norm(errors: np.ndarray, p: float) -> float:
    errors = np.asarray(errors, dtype=float)
    if math.isinf(p):
        return float(np.max(errors))
    return float(np.mean(errors**p) ** (1.0 / p))


# Field points of one operator evaluation in a series: each task hands the
# operator max(1, BATCH_FIELD_POINTS // n) sample points of one horizon on an
# n-node rule, so the rule's constants, the material and the field are read
# once per batch and each sum is one matrix product over it.  It is a
# constant and not a setting: the batches fix the summation order, so
# results are reproducible bit for bit.  It is small because a batch's
# arrays scale with it: on the 768-node rule of the trig convergence study
# (64 points, 5 points per batch; a shared 2-core x86 machine, three 6 s
# runs each) a round took 0.10-0.14 s at 4096 against 0.26-0.30 s point by
# point, at a peak RSS of 35.47-35.52 MiB against 35.20-35.38 MiB, while a
# whole horizon per batch (49,152 field points) took 0.09-0.12 s but peaked
# at 43.15-43.22 MiB, 22% more.
BATCH_FIELD_POINTS = 4096


def _series(corrected: bool, material: Material, field: PiecewiseField, deltas,
            pts, radial_order: int, angular_order: int, threads: int,
            split_normal=None):
    """The state operator, or the corrected operator if ``corrected``, over
    the horizon x point grid as (n_delta, n_points, 3) values, and the report
    params of the run: the rule, the threads, and the field points of one
    nested pass on this rule and field, 0 if no evaluation made one.

    One rule serves every horizon.  Each task evaluates one batch of
    consecutive sample points at one horizon (see
    :data:`BATCH_FIELD_POINTS`); the tasks run horizon-major, and with
    ``threads <= 1`` on the caller's thread.  The batches do not depend on
    the thread count, so neither do the values."""
    operator = corrected_operator if corrected else state_operator
    if split_normal is not None:
        rule = build_split_ball_rule(split_normal, radial_order, angular_order)
    else:
        rule = build_ball_rule(radial_order, angular_order)
    cfgs = [OperatorConfig(Horizon(float(d)), rule) for d in deltas]
    size = max(1, BATCH_FIELD_POINTS // len(rule))
    tasks = [(i, slice(a, a + size)) for i in range(len(cfgs))
             for a in range(0, len(pts), size)]

    def task(t):
        return operator(cfgs[t[0]], material, field, pts[t[1]])

    if threads <= 1:
        flat = [task(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            flat = list(pool.map(task, tasks))
    values = np.empty((len(cfgs), len(pts), 3))
    for (i, rows), v in zip(tasks, flat):
        values[i, rows] = v
    passes = any(_makes_nested_pass(cfgs[i], material, pts[rows], corrected)
                 for i, rows in tasks)
    params = {"radial_order": rule.radial_order,
              "angular_order": rule.angular_order, "nodes": len(rule),
              "nested_points": nested_pass_points(len(rule), field) if passes else 0,
              "threads": threads}
    return values, params


def _report(study: str, params: dict, deltas, values, errors, norms,
            slope: Optional[float] = None, **kw) -> ConvergenceReport:
    """The study's report; the rate is fitted unless given, and a NaN rate
    (a series exact to tolerance, or no fit) is recorded as no slope."""
    if slope is None:
        slope = fit_rate(deltas, norms)
    return ConvergenceReport(
        study=study, params=params, deltas=list(deltas), values=values,
        errors=errors, norms=norms,
        slope=None if math.isnan(slope) else slope, **kw)


def _navier_refs(material: Material, field: PiecewiseField, pts) -> np.ndarray:
    """The local limit at each point, on the point's own side."""
    if not isinstance(material, TwoPhaseMaterial):
        return navier(material, field, pts)
    plus = material.interface.signed_distance(pts) >= 0
    return np.where(plus[:, None], navier(material, field, pts, SideTag.PLUS),
                    navier(material, field, pts, SideTag.MINUS))


def converge_to_navier(material: Material, field: PiecewiseField, deltas,
                       sample_points, p: float = 2.0,
                       radial_order: int = DEFAULT_RADIAL_ORDER,
                       angular_order: int = DEFAULT_ANGULAR_ORDER,
                       threads: int = 1) -> ConvergenceReport:
    """Discrete L^p distance between the nonlocal operator and its local
    limit over a sample grid, per horizon, with fitted rate."""
    deltas = as_delta_series(deltas)
    pts = np.asarray(sample_points, dtype=float).reshape(-1, 3)
    if isinstance(material, TwoPhaseMaterial):
        dist = np.abs(material.interface.signed_distance(pts))
        if np.any(dist < 2.0 * deltas.max()):
            raise ValueError("sample points must stay at least two largest "
                             "horizons away from the interface")
    raw, params = _series(False, material, field, deltas, pts,
                          radial_order, angular_order, threads)
    values = raw - _navier_refs(material, field, pts)
    errors = np.linalg.norm(values, axis=-1)
    norms = [_discrete_norm(e, p) for e in errors]
    return _report("converge", {"p": p, **params}, deltas, values, errors,
                   norms)


def _interface_study(study: str, corrected: bool, material: Material,
                     field: PiecewiseField, x, deltas, radial_order: int,
                     angular_order: int, threads: int,
                     target=None) -> ConvergenceReport:
    """A horizon series of the state operator, or the corrected operator if
    ``corrected``, at one interface point, on the rule split along the
    interface.  With a ``target`` the values are horizon-scaled, the errors
    are distances to it, and a Richardson limit estimate is added."""
    x = np.asarray(x, dtype=float)
    if not isinstance(material, TwoPhaseMaterial):
        raise TypeError("interface studies require a two-phase material")
    if abs(material.interface.signed_distance(x)) > 1e-12:
        raise ValueError("study point is not on the material interface")
    deltas = as_delta_series(deltas)
    values, params = _series(corrected, material, field, deltas, x[None],
                             radial_order, angular_order, threads,
                             split_normal=material.interface.normal)
    if target is None:
        errors = np.linalg.norm(values, axis=-1)
        return _report(study, params, deltas, values, errors,
                       [float(e[0]) for e in errors])
    values = deltas[:, None, None] * values
    errors = np.linalg.norm(values - target, axis=-1)
    return _report(study, {"target": [float(t) for t in target], **params},
                   deltas, values, errors, [float(e[0]) for e in errors],
                   limit_estimate=richardson_limit(deltas, values[:, 0, :]))


def interface_blowup(material: Material, field: PiecewiseField, x, deltas,
                     radial_order: int = DEFAULT_RADIAL_ORDER,
                     angular_order: int = DEFAULT_ANGULAR_ORDER,
                     threads: int = 1) -> ConvergenceReport:
    """Norm of the state operator at an interface point per horizon; the
    fitted log-log slope is -1 when the material jumps (no local limit)."""
    return _interface_study("blowup", False, material, field, x,
                            deltas, radial_order, angular_order, threads)


def natural_limit_check(material: Material, field: PiecewiseField, x, deltas,
                        radial_order: int = DEFAULT_RADIAL_ORDER,
                        angular_order: int = DEFAULT_ANGULAR_ORDER,
                        threads: int = 1) -> ConvergenceReport:
    """Horizon-scaled state operator at an interface point against the
    closed-form local limit of the unmodified operator."""
    target = natural_condition_limit(material, field, x)
    return _interface_study("natural", False, material, field, x,
                            deltas, radial_order, angular_order, threads,
                            target)


def star_limit_check(material: Material, field: PiecewiseField, x, deltas,
                     radial_order: int = DEFAULT_RADIAL_ORDER,
                     angular_order: int = DEFAULT_ANGULAR_ORDER,
                     threads: int = 1) -> ConvergenceReport:
    """Horizon-scaled corrected operator at an interface point against
    45/32 times the traction jump."""
    target = (45.0 / 32.0) * traction_jump(material, field, x)
    return _interface_study("star", True, material, field, x,
                            deltas, radial_order, angular_order, threads,
                            target)


def star_converges_offinterface(material: Material, field: PiecewiseField,
                                deltas, sample_points, p: float = 2.0,
                                radial_order: int = DEFAULT_RADIAL_ORDER,
                                angular_order: int = DEFAULT_ANGULAR_ORDER,
                                threads: int = 1) -> ConvergenceReport:
    """Corrected operator against the per-side local limit.

    Per horizon, the discrete L^p error is aggregated over the sample points
    at distance larger than that horizon from the interface (where the
    correction indicator is off); for points inside the slab the scaled sup
    of the corrected operator is recorded instead (boundedness check).
    """
    deltas = as_delta_series(deltas)
    pts = np.asarray(sample_points, dtype=float).reshape(-1, 3)
    star, params = _series(True, material, field, deltas, pts,
                           radial_order, angular_order, threads)
    values = star - _navier_refs(material, field, pts)
    errors = np.linalg.norm(values, axis=-1)
    sd = np.zeros(len(pts))
    if isinstance(material, TwoPhaseMaterial):
        sd = material.interface.signed_distance(pts)

    norms = []
    collar_sup = []
    for i, d in enumerate(deltas):
        off = np.abs(sd) >= d
        norms.append(_discrete_norm(errors[i, off], p) if off.any() else math.nan)
        collar_sup.append(
            float(d * np.max(np.linalg.norm(star[i, ~off], axis=-1)))
            if not off.all() else 0.0)
    try:
        slope = fit_rate(deltas, norms)
    except ValueError:
        slope = math.nan
    return _report("star_offinterface", {"p": p, **params}, deltas, values,
                   errors, norms, slope=slope,
                   extra={"collar_scaled_sup": collar_sup,
                          "off_counts": [int(np.sum(np.abs(sd) >= d))
                                         for d in deltas]})
