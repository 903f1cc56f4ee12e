"""Tests of the benchmark itself: its hand-derived references, its count of
the known failing operation, its tracing wrappers and its refusal to run
without the program's sources.

    python -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import tracing
import workloads
from peridyn import analysis, fields, make_config, operators, state_operator
from peridyn.fields import (
    PiecewiseField,
    PlanarInterface,
    TwoPhaseMaterial,
    linear_field,
    make_manufactured,
    navier,
    traction_jump,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
POINTS = np.array([[0.1, -0.2, 0.3], [-0.45, 0.45, 0.0], [0.7, 0.05, -0.33]])
IFACE = PlanarInterface(np.zeros(3), oracles.E3)


def _navier_by_differences(x, h=1e-4):
    """grad(lam div u) + div(mu (grad u + grad u^T)) by central differences
    of the trig configuration's closed forms."""
    def u(p):
        return np.array([np.sin(p[1]), np.sin(p[2]), np.sin(p[0])])

    def lam(p):
        return 3.0 + 0.5 * np.sin(p[0])

    def mu(p):
        return 2.0 + 0.5 * np.sin(p[0])

    e = np.eye(3) * h

    def grad_u(p):  # G[i, j] = d u_i / d x_j
        return np.stack([(u(p + e[j]) - u(p - e[j])) / (2 * h) for j in range(3)], axis=1)

    def stress(p):
        g = grad_u(p)
        return lam(p) * np.trace(g) * np.eye(3) + mu(p) * (g + g.T)

    return sum((stress(x + e[j])[:, j] - stress(x - e[j])[:, j]) / (2 * h) for j in range(3))


class TestOracles:
    def test_trig_navier_matches_finite_differences(self):
        hand = oracles.navier_smooth_material_trig(POINTS)
        for x, ref in zip(POINTS, hand):
            assert np.allclose(ref, _navier_by_differences(x), atol=1e-6)

    def test_trig_navier_matches_program_closed_form(self):
        field, material = make_manufactured("smooth_material_trig")
        hand = oracles.navier_smooth_material_trig(POINTS)
        for x, ref in zip(POINTS, hand):
            assert np.allclose(ref, navier(material, field, x), atol=1e-13)

    @pytest.mark.parametrize("moduli", [(3.0, 1.0, 5.0, 2.0), (1.5, 4.0, 6.0, 2.5)])
    @pytest.mark.parametrize("slopes", [(1.0, 1.0), (2.0, 1.0), (-0.5, 3.0)])
    def test_star_limit_matches_traction_jump(self, moduli, slopes):
        field = PiecewiseField(linear_field(np.zeros(3), oracles.axial_grad(slopes[0])),
                               linear_field(np.zeros(3), oracles.axial_grad(slopes[1])),
                               IFACE)
        material = TwoPhaseMaterial(*moduli, IFACE)
        got = oracles.star_limit(moduli, oracles.axial_grad(slopes[0]),
                                 oracles.axial_grad(slopes[1]))
        want = 45.0 / 32.0 * traction_jump(material, field, np.zeros(3))
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_zero_traction_slopes_cancel_the_jump(self):
        for seed in range(5):
            moduli = workloads.seeded_moduli(seed)
            slopes = oracles.zero_traction_slopes(moduli)
            jump = oracles.star_limit(moduli, oracles.axial_grad(slopes[0]),
                                      oracles.axial_grad(slopes[1]))
            assert np.abs(jump).max() < 1e-13

    def test_kinked_field_is_the_piecewise_ramp(self):
        slopes = (0.75, 1.0)
        field = PiecewiseField(linear_field(np.zeros(3), oracles.axial_grad(slopes[0])),
                               linear_field(np.zeros(3), oracles.axial_grad(slopes[1])),
                               IFACE)
        pts = np.array([[0.1, 0.2, 0.3], [0.0, 0.0, -0.4], [0.5, -0.5, 0.0]])
        assert np.array_equal(oracles.kinked_axial_field(pts, slopes), field.value(pts))

    def test_loglog_slope_of_a_power(self):
        deltas = np.array([0.1, 0.05, 0.025])
        assert oracles.loglog_slope(deltas, 3.0 * deltas**2) == pytest.approx(2.0)


def test_seeded_moduli_are_deterministic_and_admissible():
    for seed in range(50):
        lp, mp, lm, mm = workloads.seeded_moduli(seed)
        assert (lp, mp, lm, mm) == workloads.seeded_moduli(seed)
        assert lp != mp and lm != mm
        assert lp + 2 * mp != lm + 2 * mm
        assert min(lp, mp, lm, mm) >= 1.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in tracing.PER_LAYER]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(u, b) for _, u, b in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class TestTracing:
    @staticmethod
    def _bindings():
        out = {}
        for module in tracing._namespaces():
            for attr, value in vars(module).items():
                if callable(value):
                    out[(module.__name__, attr)] = value
        for name in tracing.FIELD_METHODS:
            out[("PiecewiseField", name)] = vars(fields.PiecewiseField)[name]
        return out

    def test_wrappers_restore_the_originals(self):
        before = self._bindings()
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            assert analysis.corrected_operator.__wrapped__ is before[
                ("peridyn.analysis", "corrected_operator")]
            assert operators.state_operator is not before[
                ("peridyn.operators", "state_operator")]
        after = self._bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)
        assert not hasattr(operators.corrected_operator, "__wrapped__")

    def test_wrappers_restore_after_an_exception(self):
        before = self._bindings()
        with pytest.raises(RuntimeError):
            with tracing.installed(tracing.Tracer()):
                raise RuntimeError("inside the traced block")
        assert all(self._bindings()[k] is before[k] for k in before)

    def test_counts_of_one_evaluation(self):
        field, material = make_manufactured("smooth_material_trig")  # lambda != mu
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            config = operators.make_config(0.1, 2, 2)
            operators.state_operator(config, material, field, np.zeros(3))
        m = tracer.metrics()
        n = len(config.rule)
        assert m["quadrature.rules"] == 1
        assert m["operators.evals"] == 1  # the nested bond/dilatation calls are inside it
        # bond part: the nodes and the center; dilatation: n inner points per node
        assert m["fields.points"] == n + 1 + n * n
        assert m["operators.self_s"] > 0 and m["fields.eval_s"] > 0
        assert all(s[3] is not None for s in tracer.spans)

    def test_untraced_calls_reach_the_program_directly(self):
        assert state_operator is operators.state_operator
        assert make_config is operators.make_config
        assert not hasattr(fields.PiecewiseField.value, "__wrapped__")


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_known_failing_operation_counts_once():
    """One interface_limit round: the kinked-field star study fails, the
    gradient-jump study passes its checks."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "interface_limit",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 1)
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice_solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
