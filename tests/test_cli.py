import argparse
import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import peridyn
from lattice_matrix import MatrixOperator, reference_matrix
from peridyn import analysis, cli, solver
from peridyn.cli import _load_config, build_parser, main

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs")
# PYTHONPATH for a subprocess that imports this checkout's peridyn
_SRC_PATH = os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(peridyn.__file__)), os.environ.get("PYTHONPATH")]))

FAST = ["--quad", "4,6"]
FAST_DELTAS = ["--delta-series", "0.04,0.02,0.01"]


def load_schema(name):
    with open(os.path.join(DOCS, name)) as f:
        return json.load(f)


def validate(path, schema_name):
    with open(path) as f:
        payload = json.load(f)
    jsonschema.validate(payload, load_schema(schema_name))


class TestExitCodes:
    def test_moments_ok(self, tmp_path):
        assert main(["moments", "--out", str(tmp_path)]) == 0
        validate(tmp_path / "moments.json", "oracle_study_schema.json")

    def test_kdelta_ok(self, tmp_path):
        assert main(["kdelta", "--out", str(tmp_path), "--normal", "0.6,0,0.8"]) == 0
        validate(tmp_path / "kdelta.json", "oracle_study_schema.json")

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"study": "moments", "bogus": 1}')
        assert main(["moments", "--config", str(cfg)]) == 2

    def test_bad_material_spec(self, tmp_path):
        assert main(["blowup", "--out", str(tmp_path),
                     "--material", "cubic:1,2,3"]) == 2

    def test_bad_field_name(self, tmp_path):
        assert main(["blowup", "--out", str(tmp_path), "--field", "nope"]) == 2

    def test_mismatched_config_study(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"study": "moments"}')
        assert main(["kdelta", "--config", str(cfg)]) == 2

    def test_zero_normal_rejected(self, tmp_path):
        assert main(["kdelta", "--out", str(tmp_path), "--normal", "0,0,0"]) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("normal,message", [
        ("0,0,nan", "normal must be finite"),
        ("inf,0,1", "normal must be finite"),
        ("0,-inf,0", "normal must be finite"),
        ("1e200,0,0", "normal is too long: its length overflows"),
    ])
    def test_non_finite_normal_rejected(self, normal, message, tmp_path, capsys):
        rc = main(["kdelta", "--quad", "2,2", "--normal", normal,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.filterwarnings("error")
    def test_subnormal_normal_accepted(self, tmp_path):
        # its plain length underflows to 0; scaled first, it is e1
        assert main(["kdelta", "--quad", "2,2", "--normal", "1e-320,0,0",
                     "--out", str(tmp_path / "tiny")]) == 0
        assert main(["kdelta", "--quad", "2,2", "--normal", "1,0,0",
                     "--out", str(tmp_path / "unit")]) == 0
        assert ((tmp_path / "tiny" / "kdelta.csv").read_bytes()
                == (tmp_path / "unit" / "kdelta.csv").read_bytes())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("moduli", ["nan,1,2,1", "inf,1,2,1",
                                        "3,nan,2,1", "3,1,2,-inf"])
    def test_non_finite_moduli_rejected(self, moduli, tmp_path, capsys):
        # a NaN mu passes the positivity check, and lambda has no other check
        rc = main(["natural", "--quad", "2,2", "--material", f"two-phase:{moduli}",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: lambda and mu must be finite\n")

    def test_bad_delta_series(self, tmp_path):
        assert main(["blowup", "--out", str(tmp_path),
                     "--delta-series", "0.01,0.02"]) == 2

    def test_missing_config_file(self):
        assert main(["moments", "--config", "/nonexistent/x.json"]) == 2

    def test_zero_norm_exponent_rejected(self, tmp_path, capsys):
        rc = main(["converge", "--quad", "2,2", "--p", "0",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: p must be > 0, got 0.0\n"

    def test_non_finite_horizon_rejected(self, tmp_path, capsys):
        rc = main(["star", "--quad", "2,2", "--delta-series", "inf,0.1,0.01",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: horizons must be finite\n"

    def test_overflowing_horizon_is_a_numerical_refusal(self, tmp_path, capsys):
        rc = main(["star", "--quad", "2,2",
                   "--delta-series", "1e300,1e-300,1e-310",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical refusal (OverflowError): ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("series", ["1e-100,1e-120,1e-140",
                                        "1e-50,1e-51,1e-52"])
    def test_underflowing_horizon_is_a_numerical_refusal(self, series,
                                                         tmp_path, capsys):
        # 9/|B_delta|^2 divides by zero, or overflows to inf, below about 4e-52
        rc = main(["star", "--quad", "2,2", "--delta-series", series,
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical refusal (FloatingPointError): ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("series,message", [
        ("0", "horizons must be positive"),
        ("nan", "horizons must be finite"),
        ("-1", "horizons must be positive"),
        ("0.01,0.1,1", "delta series must be strictly decreasing"),
    ], ids=["zero", "nan", "negative", "increasing"])
    def test_kdelta_bad_horizons(self, series, message, tmp_path, capsys):
        rc = main(["kdelta", "--quad", "2,2", f"--delta-series={series}",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("study,check,patched", [
        ("kdelta", "closed_form", "half_ball_third_moment_numeric"),
        ("moments", "fourth_moment", "fourth_moment"),
        ("moments", "second_moment", "second_moment"),
    ])
    def test_nan_error_fails_its_check(self, study, check, patched, tmp_path,
                                       capsys, monkeypatch):
        # one NaN entry among finite ones: a plain max() drops it and passes
        original = getattr(cli, patched)

        def poisoned(*args):
            out = np.array(original(*args))
            out.flat[1] = np.nan
            return out

        monkeypatch.setattr(cli, patched, poisoned)
        rc = main([study, *FAST, "--out", str(tmp_path)])
        assert rc == 1
        assert f"FAIL {study}/{check}: " in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["star", "--field", "trig_smooth", "--delta-series", "0.1,0.05,0.025"],
        ["natural", "--field", "smooth_material_trig"],
        ["blowup", "--field", "trig_smooth"],
    ], ids=lambda argv: argv[0])
    def test_interface_study_needs_two_phase(self, argv, tmp_path, capsys):
        rc = main([*argv, "--quad", "2,2", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: {argv[0]} study needs a two-phase material\n"

    def test_singular_solve_is_a_numerical_refusal(self, tmp_path, capsys,
                                                   monkeypatch):
        assemble = solver.assemble

        def singular(grid, material):
            matrix = reference_matrix(assemble(grid, material)).tolil()
            free = np.flatnonzero(grid.tags != solver.NodeTag.CONSTRAINT)
            matrix[3 * free[0]] = 0.0
            return MatrixOperator(grid, matrix.tocsr())

        monkeypatch.setattr(solver, "assemble", singular)
        rc = main(["solve", "--field", "linear", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical refusal (LinAlgError): "
                              "collocation matrix is singular")
        assert err.count("\n") == 1

    def test_solve_beyond_memory_refused_before_allocation(self, tmp_path, capsys,
                                                           monkeypatch):
        # 1601^3 nodes: refused from box and h alone, before build_grid
        def allocate(*args):
            raise AssertionError("build_grid called")

        monkeypatch.setattr(solver, "build_grid", allocate)
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"study": "solve", "h": 0.0625,
                                   "box": [[-50, -50, -50], [50, 50, 50]]}))
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: box and h give a lattice of 4.1e+09 nodes")
        assert err.endswith("of physical memory\n") and err.count("\n") == 1

    @pytest.mark.parametrize("h", ["0", "-0.0625", "NaN", "Infinity"])
    def test_solve_bad_spacing_one_error_line(self, h, tmp_path):
        # refused before any arithmetic on h, so numpy prints no warning
        cfg = tmp_path / "solve.json"
        cfg.write_text('{"study": "solve", "h": %s}' % h)
        run = subprocess.run(
            [sys.executable, "-m", "peridyn.cli", "solve", "--config", str(cfg),
             "--out", str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": _SRC_PATH})
        assert run.returncode == 2
        assert run.stderr.startswith("error: grid spacing h must be positive and finite")
        assert run.stderr.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("box", ["[[NaN, 0, 0], [1, 1, 1]]",
                                     "[[0, 0, 0], [1, Infinity, 1]]",
                                     "[[-Infinity, 0, 0], [1, 1, 1]]"])
    def test_solve_non_finite_corner_one_error_line(self, box, tmp_path, capsys):
        # passed by the memory preflight to build_grid, which refuses it
        # before casting the node counts, so numpy prints no warning
        cfg = tmp_path / "solve.json"
        cfg.write_text('{"study": "solve", "box": %s}' % box)
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: box corners must be finite\n")

    @pytest.mark.parametrize("argv,nodes", [
        # about 29 GiB on this split rule and 34 GiB on this ball rule, at 288
        # bytes a node
        (["star", "--quad", "300,300", "--field", "quadratic",
          "--material", "two-phase:3,1,5,2"], 108_000_000),
        (["converge", "--quad", "400,400"], 128_000_000),
    ])
    def test_quad_beyond_budget_refused_before_the_rule(self, argv, nodes, tmp_path,
                                                        capsys, monkeypatch):
        # the memory is fixed so that the refusal does not depend on the host
        def build(*args):
            raise AssertionError("rule built")

        monkeypatch.setattr(analysis, "build_ball_rule", build)
        monkeypatch.setattr(analysis, "build_split_ball_rule", build)
        monkeypatch.setattr(cli, "_physical_memory", lambda: 16 * 2**30)
        rc = main([*argv, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: quad {argv[2]} gives a {nodes}-node rule "
                              "whose evaluations need about ")
        assert err.endswith("more than the 16 GiB of physical memory\n")
        assert err.count("\n") == 1

    @staticmethod
    def _reaches_the_rule(argv, memory, monkeypatch):
        """Whether ``main(argv)`` passes the memory gate, with the physical
        memory fixed at ``memory`` bytes and one thread: a run that passes
        it stops where the rule is built."""
        class RuleBuilt(Exception):
            pass

        def build(*args):
            raise RuleBuilt

        monkeypatch.delenv("PERIDYN_THREADS", raising=False)
        for module, name in ((analysis, "build_ball_rule"),
                             (analysis, "build_split_ball_rule"),
                             (cli, "build_ball_rule"), (cli, "build_half_ball_rule")):
            monkeypatch.setattr(module, name, build)
        monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
        try:
            main(argv)
        except RuleBuilt:
            return True
        return False

    def test_quad_budget_admits_12_16_on_the_split_rule(self, tmp_path, monkeypatch):
        # 12,288 nodes of 288 bytes: 3.4 MiB
        assert self._reaches_the_rule(["star", "--quad", "12,16", "--out", str(tmp_path)],
                                      2**30, monkeypatch)

    def test_quad_budget_admits_16_16_on_an_affine_field(self, tmp_path, capsys,
                                                         monkeypatch):
        # star's default field is affine on each side; the 16,384-node rule
        # is one batch, and its 288 bytes a node fit a memory of exactly that
        argv = ["star", "--quad", "16,16", "--out", str(tmp_path)]
        assert self._reaches_the_rule(argv, 16384 * 288, monkeypatch)
        assert not self._reaches_the_rule(argv, 16384 * 288 - 1, monkeypatch)
        assert capsys.readouterr().err.startswith(
            "error: quad 16,16 gives a 16384-node rule whose evaluations need")

    @pytest.mark.parametrize("study,gib", [("moments", "22.5"), ("kdelta", "32.2")])
    def test_rule_study_beyond_memory_refused_before_the_rule(
            self, study, gib, tmp_path, capsys, monkeypatch):
        # the 432M-node rule of 600,600 at 56 (moments) or 80 (kdelta) bytes
        # a node; each study builds its rule in one thread, so --threads
        # does not scale the need
        argv = [study, "--quad", "600,600", "--threads", "4", "--out", str(tmp_path)]
        assert not self._reaches_the_rule(argv, 16 * 2**30, monkeypatch)
        assert capsys.readouterr() == ("", (
            f"error: quad 600,600 gives a 432000000-node rule whose evaluations "
            f"need about {gib} GiB, more than the 16 GiB of physical memory\n"))
        need = 432_000_000 * getattr(cli, f"{study.upper()}_BYTES_PER_NODE")
        assert self._reaches_the_rule(argv, need, monkeypatch)
        assert not self._reaches_the_rule(argv, need - 1, monkeypatch)

    def test_affine_rule_beyond_memory_refused_before_the_rule(self, tmp_path, capsys,
                                                              monkeypatch):
        # star's default field is kinked: the 64.8M-node rule's evaluation
        # needs about 17 GiB; the memory is fixed so that the refusal does not
        # depend on the host
        def build(*args):
            raise AssertionError("rule built")

        monkeypatch.setattr(analysis, "build_split_ball_rule", build)
        monkeypatch.setattr(cli, "_physical_memory", lambda: 16 * 2**30)
        rc = main(["star", "--quad", "180,300", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: quad 180,300 gives a 64800000-node rule whose "
                              "evaluations need about 17.4 GiB, more than the 16 GiB")
        assert err.endswith("of physical memory\n") and err.count("\n") == 1

    def test_quad_memory_bound_is_the_batch(self, tmp_path, monkeypatch):
        # a 288-node rule: each thread's batch holds up to
        # analysis.BATCH_FIELD_POINTS = 4096 field points of 288 bytes
        assert (analysis.BATCH_FIELD_POINTS, cli.EVALUATION_BYTES_PER_NODE) == (4096, 288)
        argv = ["converge", "--quad", "4,6", "--threads", "3", "--out", str(tmp_path)]
        need = 4096 * 288 * 3
        assert self._reaches_the_rule(argv, need, monkeypatch)
        assert not self._reaches_the_rule(argv, need - 1, monkeypatch)

    def test_internal_type_error_propagates(self, tmp_path, monkeypatch):
        # every bad input that could raise a TypeError is refused as a
        # ConfigError first, so a TypeError is a bug and not exit code 2
        def broken(cfg):
            raise TypeError("internal")

        monkeypatch.setitem(cli._RUNNERS, "moments", broken)
        with pytest.raises(TypeError, match="internal"):
            main(["moments", "--out", str(tmp_path)])

    def test_failing_check_exits_one(self, tmp_path):
        # the order-(1, 1) rule is too coarse for the fourth moment, so that
        # check fails and the run exits 1
        rc = main(["moments", "--quad", "1,1", "--out", str(tmp_path)])
        assert rc == 1


# every flag, and the string each sets in the parsed namespace
ALL_FLAGS = {"config": ("--config", "c.json"), "out": ("--out", "o"),
             "deltas": ("--delta-series", "0.1,0.05"), "delta_min": ("--delta-min", "1e-3"),
             "quad": ("--quad", "4,6"), "material": ("--material", "two-phase:3,1,5,2"),
             "field": ("--field", "linear"), "normal": ("--normal", "0,0,1"),
             "p": ("--p", "inf"), "threads": ("--threads", "2")}


class TestParser:
    """One parser serves every study, and main builds it once per process."""

    @pytest.mark.parametrize("study", cli._RUNNERS)
    def test_every_flag_parses_for_every_study(self, study):
        flags = [text for flag in ALL_FLAGS.values() for text in flag]
        want = {"study": study, **{key: value for key, (_, value) in ALL_FLAGS.items()}}
        assert vars(build_parser().parse_args([study, *flags])) == want
        # flags may also come before the study
        assert vars(build_parser().parse_args([*flags, study])) == want

    def test_unknown_study_exits_2(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["nope"])
        assert stop.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_built_once_per_process(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser.cache_clear()
        try:
            argv = ["kdelta", "--quad", "2,2", "--out", str(tmp_path)]
            assert main(argv) == 0
            assert built == ["peridyn"]
            assert main(argv) == 0
            assert built == ["peridyn"]
        finally:
            build_parser.cache_clear()


class TestConfigTable:
    """Config-file values and flags go through the same converters."""

    @pytest.mark.parametrize("payload,key", [
        ({"quad": 8}, "quad"),
        ({"box": 1}, "box"),
        ({"material": [1, 2]}, "material"),
        ({"threads": "two"}, "threads"),
        ({"normal": [0, 0, "z"]}, "normal"),
    ], ids=["quad", "box", "material", "threads", "normal"])
    def test_bad_value_names_its_key(self, payload, key, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(payload))
        rc = main(["moments", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: expected ")
        assert err.count("\n") == 1

    def test_bad_flag_names_its_key(self, tmp_path, capsys):
        rc = main(["moments", "--quad", "4", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: quad: expected 2 numbers")

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2]")
        assert main(["moments", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            "error: config file must hold a JSON object\n"

    @pytest.mark.parametrize("quad", ["4,6", [4, 6]], ids=["text", "list"])
    def test_file_value_matches_flag(self, quad, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"quad": quad}))
        assert main(["moments", "--config", str(cfg),
                     "--out", str(tmp_path / "file")]) == 0
        assert main(["moments", "--quad", "4,6",
                     "--out", str(tmp_path / "flag")]) == 0
        for name in ("moments.csv", "moments.json"):
            assert (tmp_path / "file" / name).read_bytes() == \
                (tmp_path / "flag" / name).read_bytes()

    def test_precedence(self, tmp_path, monkeypatch):
        # flag > file > PERIDYN_THREADS > default
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"threads": 4, "quad": [4, 6]}))

        def load(*argv):
            return _load_config(build_parser().parse_args(["converge", *argv]))

        monkeypatch.delenv("PERIDYN_THREADS", raising=False)
        assert load().threads == 1
        monkeypatch.setenv("PERIDYN_THREADS", "3")
        assert load().threads == 3
        loaded = load("--config", str(cfg))
        assert (loaded.threads, loaded.quad) == (4, (4, 6))
        loaded = load("--config", str(cfg), "--threads", "5", "--quad", "2,2")
        assert (loaded.threads, loaded.quad) == (5, (2, 2))


class TestStudyOutputs:
    def test_star_gradient_jump(self, tmp_path):
        rc = main(["star", "--out", str(tmp_path), *FAST, *FAST_DELTAS])
        assert rc == 0
        validate(tmp_path / "star.json", "report_schema.json")
        with open(tmp_path / "star.json") as f:
            rep = json.load(f)
        assert np.allclose(rep["limit_estimate"], [0.0, 0.0, -135.0 / 32.0],
                           atol=0.05)

    def test_star_kinked_patch_lam_ne_mu_passes(self, tmp_path):
        # a gradient kink with lambda != mu on both sides, at the defaults:
        # the scaled corrected operator meets 45/32 times the traction jump
        rc = main(["star", "--field", "patch_jump_zero_traction",
                   "--material", "two-phase:3,1,5,2", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "star.json") as f:
            rep = json.load(f)
        assert np.allclose(rep["limit_estimate"], [0.0, 0.0, 45.0 / 32.0],
                           rtol=0, atol=1e-10)

    def test_natural_patch(self, tmp_path):
        rc = main(["natural", "--out", str(tmp_path), *FAST, *FAST_DELTAS])
        assert rc == 0
        validate(tmp_path / "natural.json", "report_schema.json")

    def test_blowup_patch(self, tmp_path):
        rc = main(["blowup", "--out", str(tmp_path), *FAST, *FAST_DELTAS])
        assert rc == 0
        validate(tmp_path / "blowup.json", "report_schema.json")

    def test_blowup_bounded_branch(self, tmp_path):
        # smooth field over a fictitious equal-phase interface: no blow-up,
        # the embedded check asserts boundedness instead of the -1 rate
        rc = main(["blowup", "--out", str(tmp_path), "--field", "trig_smooth",
                   "--material", "two-phase:1,1,1,1", *FAST, *FAST_DELTAS])
        assert rc == 0

    def test_converge_trig(self, tmp_path):
        rc = main(["converge", "--out", str(tmp_path), *FAST,
                   "--delta-series", "0.1,0.05,0.025"])
        assert rc == 0
        validate(tmp_path / "converge.json", "report_schema.json")
        header = (tmp_path / "converge.csv").read_text().splitlines()[0]
        assert header == "delta,point_id,vx,vy,vz,err_p"

    def test_solve_linear(self, tmp_path):
        rc = main(["solve", "--out", str(tmp_path), "--field", "linear"])
        assert rc == 0
        validate(tmp_path / "solve_report.json", "solve_report_schema.json")
        header = (tmp_path / "solution.csv").read_text().splitlines()[0]
        assert header == "x,y,z,ux,uy,uz,tag"

    def test_solve_report_timings(self, tmp_path):
        rc = main(["solve", "--out", str(tmp_path), "--field", "constant"])
        assert rc == 0
        with open(tmp_path / "solve_report.json") as f:
            payload = json.load(f)
        schema = load_schema("solve_report_schema.json")
        jsonschema.validate(payload, schema)
        assert set(payload["timings"]) == {"assemble_s", "extract_s", "solve_s",
                                           "residual_s"}
        payload["timings"]["factor_solve_s"] = 0.0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, schema)
        del payload["timings"]["factor_solve_s"], payload["timings"]["assemble_s"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, schema)

    def test_solve_report_times_the_residual_check(self, tmp_path):
        rc = main(["solve", "--out", str(tmp_path), "--field", "constant"])
        assert rc == 0
        with open(tmp_path / "solve_report.json") as f:
            payload = json.load(f)
        schema = load_schema("solve_report_schema.json")
        timings = payload["timings"]
        assert timings["residual_s"] > 0.0
        for bad in ({k: v for k, v in timings.items() if k != "residual_s"},
                    {**timings, "residual_check_s": timings["residual_s"]}):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**payload, "timings": bad}, schema)

    def test_solve_report_fft_shapes(self, tmp_path):
        # the default box's lattice has 17 nodes an axis (17 is not a fast
        # length) and its free window 11
        rc = main(["solve", "--out", str(tmp_path), "--field", "constant"])
        assert rc == 0
        with open(tmp_path / "solve_report.json") as f:
            payload = json.load(f)
        schema = load_schema("solve_report_schema.json")
        jsonschema.validate(payload, schema)
        assert payload["fft_shape"] == [18, 18, 18]
        assert payload["free_fft_shape"] == [12, 12, 12]
        for key in ("fft_shape", "free_fft_shape"):
            missing = {k: v for k, v in payload.items() if k != key}
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(missing, schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**payload, "window_shape": [11, 11, 11]}, schema)

    @pytest.mark.parametrize("argv,report,schema", [
        (["moments"], "moments.json", "oracle_study_schema.json"),
        (["kdelta"], "kdelta.json", "oracle_study_schema.json"),
        (["blowup", *FAST_DELTAS], "blowup.json", "report_schema.json"),
        (["solve", "--field", "constant"], "solve_report.json",
         "solve_report_schema.json"),
    ], ids=["moments", "kdelta", "blowup", "solve"])
    def test_report_without_provenance_fails_validation(self, argv, report,
                                                        schema, tmp_path):
        main([*argv, *FAST, "--out", str(tmp_path)])
        with open(tmp_path / report) as f:
            payload = json.load(f)
        schema = load_schema(schema)
        jsonschema.validate(payload, schema)
        assert set(payload["provenance"]) == {"peridyn", "numpy", "scipy"}
        del payload["provenance"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, schema)

    def test_solve_config_file(self, tmp_path):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({
            "study": "solve", "field": "constant", "h": 0.125, "ratio": 2.0,
            "box": [[-0.5, -0.5, -0.5], [0.5, 0.5, 0.5]],
        }))
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"study": "kdelta", "normal": [1.0, 0.0, 0.0]}))
        rc = main(["kdelta", "--config", str(cfg), "--out", str(tmp_path),
                   "--normal", "0,0,1"])
        assert rc == 0
        with open(tmp_path / "kdelta.json") as f:
            assert json.load(f)["normal"] == [0.0, 0.0, 1.0]


class TestDeterminism:
    @pytest.mark.parametrize("argv,csvs", [
        (["moments"], ["moments.csv"]),
        (["kdelta"], ["kdelta.csv"]),
        (["converge", *FAST, "--delta-series", "0.05,0.025,0.0125"], ["converge.csv"]),
        (["blowup", *FAST, *FAST_DELTAS], ["blowup.csv"]),
        (["natural", *FAST, *FAST_DELTAS], ["natural.csv"]),
        (["star", *FAST, *FAST_DELTAS], ["star.csv"]),
        (["solve", "--field", "linear"], ["solution.csv"]),
    ])
    def test_byte_identical_across_thread_counts(self, argv, csvs, tmp_path):
        outs = []
        for threads, sub in (("1", "a"), ("8", "b")):
            out = tmp_path / sub
            main([*argv, "--out", str(out), "--threads", threads])
            outs.append([(out / c).read_bytes() for c in csvs])
        assert outs[0] == outs[1]

    def test_converge_batches_byte_identical_across_thread_counts(self, tmp_path):
        # 27 sample points on the 288-node rule take two batches per horizon,
        # on the declared split pass of the trig material (lambda != mu)
        assert analysis.BATCH_FIELD_POINTS // 288 < 27
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sample_count": 3}))
        outs = []
        for threads, sub in (("1", "a"), ("8", "b")):
            out = tmp_path / sub
            assert main(["converge", "--config", str(cfg), "--field",
                         "smooth_material_trig", *FAST, "--out", str(out),
                         "--threads", threads]) == 0
            outs.append((out / "converge.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_solve_report_is_reproducible(self, tmp_path):
        # everything but the wall times: residuals, GMRES iterations and
        # residual history
        reports = []
        for sub in ("a", "b"):
            assert main(["solve", "--out", str(tmp_path / sub)]) == 0
            with open(tmp_path / sub / "solve_report.json") as f:
                payload = json.load(f)
            del payload["timings"]
            reports.append(payload)
        assert reports[0]["iterations"] > 0
        assert reports[0] == reports[1]

    def test_env_thread_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERIDYN_THREADS", "3")
        ns = build_parser().parse_args(["kdelta", "--out", str(tmp_path)])
        assert _load_config(ns).threads == 3
        assert main(["kdelta", "--out", str(tmp_path)]) == 0


_LAZY_SOLVER_SCRIPT = """
import sys
import numpy as np
import peridyn, peridyn.cli, peridyn.solver as S
from peridyn.fields import make_manufactured

loaded = sorted(m for m in sys.modules if m.startswith("scipy.sparse"))
assert not loaded, loaded
field, material = make_manufactured("linear")
grid = S.build_grid((np.full(3, -0.75), np.full(3, 0.75)), 0.125, 2.0)
result = S.solve_equilibrium(S.assemble(grid, material), None, field.value)
free = grid.tags != S.NodeTag.CONSTRAINT
err = np.abs(result.u[free] - field.value(grid.points[free])).max()
assert result.iterations > 0 and err < 1e-8, (result.iterations, err)
assert "scipy.sparse.linalg" in sys.modules
print("ok")
"""


def test_import_leaves_the_solver_unloaded():
    # importing the package, the CLI or the solver loads no scipy.sparse
    # module; the first solve loads scipy.sparse.linalg and converges
    run = subprocess.run([sys.executable, "-c", _LAZY_SOLVER_SCRIPT],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": _SRC_PATH})
    assert (run.returncode, run.stdout, run.stderr) == (0, "ok\n", "")
