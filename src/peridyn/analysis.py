"""Study runners that turn point evaluations into theorem-level checks.

Each study produces a :class:`ConvergenceReport`: a horizon series with
per-point records, a fitted log-log rate, and (for the interface limit
studies) a Richardson limit estimate under a first-order remainder model.
Reports serialize to CSV (records) and JSON (everything) with
round-trip-exact floating point formatting.

Studies that evaluate at interface points build the quadrature rule split
along the material interface, so integrands that are smooth per phase are
integrated to machine precision; see
:func:`peridyn.quadrature.build_split_ball_rule`.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Sequence

import numpy as np

from .fields import (
    Material,
    PiecewiseField,
    SideTag,
    TwoPhaseMaterial,
    navier,
    traction_jump,
)
from .operators import (
    OperatorConfig,
    corrected_operator,
    make_config,
    natural_condition_limit,
    state_operator,
)
from .quadrature import DEFAULT_ANGULAR_ORDER, DEFAULT_RADIAL_ORDER

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


def write_json(path, payload) -> None:
    """Write a JSON report with sorted keys and a final newline."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
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
    point_ids: list
    values: np.ndarray  # (n_delta, n_points, 3)
    errors: np.ndarray  # (n_delta, n_points)
    norms: list  # per-delta aggregate discrete L^p of the errors
    slope: Optional[float]
    exact: bool = False
    limit_estimate: Optional[np.ndarray] = None
    extra: dict = dataclass_field(default_factory=dict)

    def records(self):
        for i, d in enumerate(self.deltas):
            for j, pid in enumerate(self.point_ids):
                yield {
                    "delta": float(d),
                    "point_id": int(pid),
                    "value": [float(v) for v in self.values[i, j]],
                    "err": float(self.errors[i, j]),
                }

    def to_json_dict(self) -> dict:
        return {
            "study": self.study,
            "params": self.params,
            "deltas": [float(d) for d in self.deltas],
            "records": list(self.records()),
            "norms": [float(v) for v in self.norms],
            "slope": None if self.slope is None or math.isnan(self.slope) else float(self.slope),
            "exact": bool(self.exact),
            "limit_estimate": (None if self.limit_estimate is None
                               else [float(v) for v in self.limit_estimate]),
            "extra": self.extra,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConvergenceReport":
        deltas = d["deltas"]
        ids = sorted({r["point_id"] for r in d["records"]})
        idx = {pid: j for j, pid in enumerate(ids)}
        values = np.zeros((len(deltas), len(ids), 3))
        errors = np.zeros((len(deltas), len(ids)))
        didx = {float(dd): i for i, dd in enumerate(deltas)}
        for r in d["records"]:
            i, j = didx[float(r["delta"])], idx[r["point_id"]]
            values[i, j] = r["value"]
            errors[i, j] = r["err"]
        limit = d.get("limit_estimate")
        return cls(
            study=d["study"], params=d.get("params", {}), deltas=list(deltas),
            point_ids=ids, values=values, errors=errors,
            norms=list(d.get("norms", [])),
            slope=d.get("slope"), exact=bool(d.get("exact", False)),
            limit_estimate=None if limit is None else np.asarray(limit, dtype=float),
            extra=d.get("extra", {}),
        )

    def write_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def read_json(cls, path) -> "ConvergenceReport":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))

    def write_csv(self, path) -> None:
        write_table(path, CSV_HEADER,
                    ([r["delta"], r["point_id"], *r["value"], r["err"]]
                     for r in self.records()))

    @staticmethod
    def read_csv_records(path):
        out = []
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            for row in reader:
                out.append({
                    "delta": float(row["delta"]),
                    "point_id": int(row["point_id"]),
                    "value": [float(row["vx"]), float(row["vy"]), float(row["vz"])],
                    "err": float(row["err_p"]),
                })
        return out


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


def _run_grid(task, n_delta: int, n_points: int, threads: int):
    """Evaluate task(i_delta, i_point) over the full grid, deterministically."""
    pairs = [(i, j) for i in range(n_delta) for j in range(n_points)]
    if threads <= 1:
        return [task(i, j) for i, j in pairs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda ij: task(*ij), pairs))


def _configs(deltas, radial_order, angular_order, split_normal=None):
    return [make_config(float(d), radial_order, angular_order,
                        split_normal=split_normal)
            for d in deltas]


def _quad_params(cfgs: Sequence[OperatorConfig]) -> dict:
    r = cfgs[0].rule
    return {"radial_order": r.radial_order, "angular_order": r.angular_order,
            "nodes": len(r)}


def _navier_refs(material: Material, field: PiecewiseField, pts) -> np.ndarray:
    """The local limit at each point, on the point's own side."""
    sides = [SideTag.PLUS] * len(pts)
    if isinstance(material, TwoPhaseMaterial):
        sides = [SideTag.PLUS if s >= 0 else SideTag.MINUS
                 for s in material.interface.signed_distance(pts)]
    return np.array([navier(material, field, x, side)
                     for x, side in zip(pts, sides)])


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
    cfgs = _configs(deltas, radial_order, angular_order)
    refs = _navier_refs(material, field, pts)

    def task(i, j):
        return state_operator(cfgs[i], material, field, pts[j]) - refs[j]

    flat = _run_grid(task, len(deltas), len(pts), threads)
    values = np.asarray(flat).reshape(len(deltas), len(pts), 3)
    errors = np.linalg.norm(values, axis=-1)
    norms = [_discrete_norm(errors[i], p) for i in range(len(deltas))]
    slope = fit_rate(deltas, norms)
    return ConvergenceReport(
        study="converge", params={"p": p, **_quad_params(cfgs)},
        deltas=list(deltas), point_ids=list(range(len(pts))),
        values=values, errors=errors, norms=norms,
        slope=None if math.isnan(slope) else slope,
        exact=math.isnan(slope),
    )


def _require_on_interface(material: Material, x) -> TwoPhaseMaterial:
    if not isinstance(material, TwoPhaseMaterial):
        raise TypeError("interface studies require a two-phase material")
    if abs(material.interface.signed_distance(x)) > 1e-12:
        raise ValueError("study point is not on the material interface")
    return material


def interface_blowup(material: Material, field: PiecewiseField, x, deltas,
                     radial_order: int = DEFAULT_RADIAL_ORDER,
                     angular_order: int = DEFAULT_ANGULAR_ORDER,
                     threads: int = 1) -> ConvergenceReport:
    """Norm of the state operator at an interface point per horizon; the
    fitted log-log slope is -1 when the material jumps (no local limit)."""
    x = np.asarray(x, dtype=float)
    material = _require_on_interface(material, x)
    deltas = as_delta_series(deltas)
    cfgs = _configs(deltas, radial_order, angular_order,
                    split_normal=material.interface.normal)

    def task(i, _):
        return state_operator(cfgs[i], material, field, x)

    values = np.asarray(_run_grid(task, len(deltas), 1, threads)).reshape(len(deltas), 1, 3)
    errors = np.linalg.norm(values, axis=-1)
    norms = [float(e[0]) for e in errors]
    slope = fit_rate(deltas, norms)
    return ConvergenceReport(
        study="blowup", params=_quad_params(cfgs),
        deltas=list(deltas), point_ids=[0], values=values, errors=errors,
        norms=norms, slope=None if math.isnan(slope) else slope,
        exact=math.isnan(slope),
    )


def _scaled_limit_study(study, operator, target, material, field, x, deltas,
                        radial_order, angular_order, threads) -> ConvergenceReport:
    x = np.asarray(x, dtype=float)
    material = _require_on_interface(material, x)
    deltas = as_delta_series(deltas)
    cfgs = _configs(deltas, radial_order, angular_order,
                    split_normal=material.interface.normal)

    def task(i, _):
        return deltas[i] * operator(cfgs[i], material, field, x)

    values = np.asarray(_run_grid(task, len(deltas), 1, threads)).reshape(len(deltas), 1, 3)
    errors = np.linalg.norm(values - target, axis=-1)
    norms = [float(e[0]) for e in errors]
    slope = fit_rate(deltas, norms)
    return ConvergenceReport(
        study=study,
        params={"target": [float(t) for t in target], **_quad_params(cfgs)},
        deltas=list(deltas), point_ids=[0], values=values, errors=errors,
        norms=norms, slope=None if math.isnan(slope) else slope,
        exact=math.isnan(slope),
        limit_estimate=richardson_limit(deltas, values[:, 0, :]),
    )


def natural_limit_check(material: Material, field: PiecewiseField, x, deltas,
                        radial_order: int = DEFAULT_RADIAL_ORDER,
                        angular_order: int = DEFAULT_ANGULAR_ORDER,
                        threads: int = 1) -> ConvergenceReport:
    """Horizon-scaled state operator at an interface point against the
    closed-form local limit of the unmodified operator."""
    target = natural_condition_limit(material, field, x)
    return _scaled_limit_study("natural", state_operator, target, material,
                               field, x, deltas, radial_order, angular_order,
                               threads)


def star_limit_check(material: Material, field: PiecewiseField, x, deltas,
                     radial_order: int = DEFAULT_RADIAL_ORDER,
                     angular_order: int = DEFAULT_ANGULAR_ORDER,
                     threads: int = 1) -> ConvergenceReport:
    """Horizon-scaled corrected operator at an interface point against
    45/32 times the traction jump."""
    target = (45.0 / 32.0) * traction_jump(material, field, x)
    return _scaled_limit_study("star", corrected_operator, target, material,
                               field, x, deltas, radial_order, angular_order,
                               threads)


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
    cfgs = _configs(deltas, radial_order, angular_order)
    refs = _navier_refs(material, field, pts)
    sd = np.zeros(len(pts))
    if isinstance(material, TwoPhaseMaterial):
        sd = material.interface.signed_distance(pts)

    def task(i, j):
        return corrected_operator(cfgs[i], material, field, pts[j])

    flat = _run_grid(task, len(deltas), len(pts), threads)
    star = np.asarray(flat).reshape(len(deltas), len(pts), 3)
    values = star - refs[None, :, :]
    errors = np.linalg.norm(values, axis=-1)

    norms = []
    collar_sup = []
    for i, d in enumerate(deltas):
        off = np.abs(sd) >= d
        norms.append(_discrete_norm(errors[i, off], p) if off.any() else math.nan)
        inside = ~off
        collar_sup.append(
            float(d * np.max(np.linalg.norm(star[i, inside], axis=-1)))
            if inside.any() else 0.0)
    try:
        slope = fit_rate(deltas, norms)
    except ValueError:
        slope = math.nan
    return ConvergenceReport(
        study="star_offinterface", params={"p": p, **_quad_params(cfgs)},
        deltas=list(deltas), point_ids=list(range(len(pts))),
        values=values, errors=errors, norms=norms,
        slope=None if math.isnan(slope) else slope,
        exact=math.isnan(slope),
        extra={"collar_scaled_sup": collar_sup,
               "off_counts": [int(np.sum(np.abs(sd) >= d)) for d in deltas]},
    )
