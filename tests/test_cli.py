import argparse
import dataclasses
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
        assert capsys.readouterr() == ("", "error: material: lambda and mu must be finite\n")

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
        ("", "delta series must be a non-empty sequence"),
    ], ids=["zero", "nan", "negative", "increasing", "empty"])
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

    @pytest.mark.parametrize("b,shown", [([1, 2], "[1, 2]"), ([], "[]"),
                                         ("1,2,3,4", "['1', '2', '3', '4']")],
                             ids=["two", "none", "four"])
    def test_solve_body_force_needs_3_numbers(self, b, shown, tmp_path, capsys,
                                              monkeypatch):
        # refused with the config, before the lattice is built
        def build(*args):
            raise AssertionError("build_grid called")

        monkeypatch.setattr(solver, "build_grid", build)
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"study": "solve", "b": b}))
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: b: expected 3 numbers, got {shown}\n")

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
        # about 32 GiB on this split rule and 38 GiB on this ball rule, at 320
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
        # 12,288 nodes of 320 bytes: 3.8 MiB
        assert self._reaches_the_rule(["star", "--quad", "12,16", "--out", str(tmp_path)],
                                      2**30, monkeypatch)

    def test_quad_budget_admits_16_16_on_an_affine_field(self, tmp_path, capsys,
                                                         monkeypatch):
        # star's default field is affine on each side; the 16,384-node rule
        # is one batch, and its 320 bytes a node fit a memory of exactly that
        argv = ["star", "--quad", "16,16", "--out", str(tmp_path)]
        assert self._reaches_the_rule(argv, 16384 * 320, monkeypatch)
        assert not self._reaches_the_rule(argv, 16384 * 320 - 1, monkeypatch)
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
        # needs about 19 GiB; the memory is fixed so that the refusal does not
        # depend on the host
        def build(*args):
            raise AssertionError("rule built")

        monkeypatch.setattr(analysis, "build_split_ball_rule", build)
        monkeypatch.setattr(cli, "_physical_memory", lambda: 16 * 2**30)
        rc = main(["star", "--quad", "180,300", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: quad 180,300 gives a 64800000-node rule whose "
                              "evaluations need about 19.3 GiB, more than the 16 GiB")
        assert err.endswith("of physical memory\n") and err.count("\n") == 1

    def test_quad_memory_bound_is_the_batch(self, tmp_path, monkeypatch):
        # a 288-node rule: each thread's batch holds up to
        # analysis.BATCH_FIELD_POINTS = 4096 field points of 320 bytes
        assert (analysis.BATCH_FIELD_POINTS, cli.EVALUATION_BYTES_PER_NODE) == (4096, 320)
        argv = ["converge", "--quad", "4,6", "--threads", "3", "--out", str(tmp_path)]
        need = 4096 * 320 * 3
        assert self._reaches_the_rule(argv, need, monkeypatch)
        assert not self._reaches_the_rule(argv, need - 1, monkeypatch)

    @staticmethod
    def _reaches_the_grid(count, memory, tmp_path, monkeypatch):
        """Whether converge at ``sample_count`` ``count`` passes the memory
        gate, with the physical memory fixed at ``memory`` bytes: a run that
        passes it stops where the sample grid is built."""
        class GridBuilt(Exception):
            pass

        def build(*args):
            raise GridBuilt

        monkeypatch.setattr(analysis, "default_sample_grid", build)
        monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sample_count": count}))
        try:
            main(["converge", "--config", str(cfg), "--out", str(tmp_path)])
        except GridBuilt:
            return True
        return False

    def test_sample_grid_beyond_memory_refused_before_the_grid(self, tmp_path, capsys,
                                                               monkeypatch):
        # 3000^3 points at the 5 default horizons, at 1800 bytes each
        assert not self._reaches_the_grid(3000, 16 * 2**30, tmp_path, monkeypatch)
        assert capsys.readouterr() == ("", (
            "error: sample_count 3000 gives 2.7e+10 sample points whose values at 5 "
            "horizons need about 2.26e+05 GiB, more than the 16 GiB of physical "
            "memory\n"))

    def test_sample_grid_beyond_float_range_refused(self, tmp_path, capsys,
                                                    monkeypatch):
        # a count whose cube overflows a float is sized in integers, so the
        # gate refuses it and names sample_count
        count = 10**103
        assert not self._reaches_the_grid(count, 16 * 2**30, tmp_path, monkeypatch)
        assert capsys.readouterr() == ("", (
            f"error: sample_count {count} gives 1.00e+309 sample points whose "
            "values at 5 horizons need about 8.38e+303 GiB, more than the 16 GiB "
            "of physical memory\n"))
        cfg = tmp_path / "c.json"
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_sample_grid_memory_bound(self, tmp_path, monkeypatch):
        # 1000 points at 5 horizons need more than the rule's batch, 4096 x 320
        need = 1000 * 5 * cli.CONVERGE_BYTES_PER_SAMPLE
        assert need > 4096 * 320
        assert self._reaches_the_grid(10, need, tmp_path, monkeypatch)
        assert not self._reaches_the_grid(10, need - 1, tmp_path, monkeypatch)

    def test_internal_type_error_propagates(self, tmp_path, monkeypatch):
        # every bad input that could raise a TypeError is refused as a
        # ConfigError first, so a TypeError is a bug and not exit code 2
        def broken(cfg):
            raise TypeError("internal")

        monkeypatch.setitem(cli._STUDIES, "moments",
                            dataclasses.replace(cli._STUDIES["moments"], run=broken))
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

    @pytest.mark.parametrize("study", cli._STUDIES)
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

    @pytest.mark.parametrize("payload,message", [
        ({"quad": 8}, "quad: expected "),
        ({"box": 1}, "box: expected "),
        ({"material": [1, 2]}, "material: expected "),
        ({"threads": "two"}, "threads: expected "),
        ({"normal": [0, 0, "z"]}, "normal: expected "),
        # values that convert, refused by the material they build
        ({"material": "two-phase:1,0,1,1"}, "material: shear moduli must be positive\n"),
        ({"material": "two-phase:1,nan,1,1"}, "material: lambda and mu must be finite\n"),
        # values that convert, refused by the checks that follow
        ({"threads": 0}, "threads must be >= 1\n"),
        ({"quad": [8, 0]}, "quadrature orders must be >= 1\n"),
    ], ids=["quad", "box", "material", "threads", "normal", "material_zero_shear",
            "material_nan", "threads_zero", "quad_zero"])
    def test_bad_value_names_its_key(self, payload, message, tmp_path, capsys):
        # every value is converted as the config loads, and natural builds
        # the material
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(payload))
        rc = main(["natural", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
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

    def test_precedence(self, tmp_path):
        # flag > file > default
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"threads": 4, "quad": [4, 6]}))

        def load(*argv):
            return _load_config(build_parser().parse_args(["converge", *argv]))

        assert load().threads == 1
        loaded = load("--config", str(cfg))
        assert (loaded.threads, loaded.quad) == (4, (4, 6))
        loaded = load("--config", str(cfg), "--threads", "5", "--quad", "2,2")
        assert (loaded.threads, loaded.quad) == (5, (2, 2))


HORIZON_STUDIES = ["kdelta", "converge", "blowup", "natural", "star"]


def load(*argv):
    return _load_config(build_parser().parse_args(list(argv)))


class TestStudyTable:
    """Each study's defaults and the horizons of every study that reads
    them are resolved in one place."""

    @pytest.mark.parametrize("study,field,deltas", [
        ("moments", None, None),
        ("kdelta", None, (1.0, 0.1, 0.01)),
        ("converge", "trig_smooth", analysis.DEFAULT_DELTAS),
        ("blowup", "patch_jump_zero_traction", np.geomspace(0.1, 1e-3, 5)),
        ("natural", "patch_jump_zero_traction", np.geomspace(0.1, 1e-3, 5)),
        ("star", "gradient_jump", np.geomspace(0.1, 1e-3, 5)),
        ("solve", "patch_jump_zero_traction", None),
    ])
    def test_defaults(self, study, field, deltas):
        cfg = load(study)
        assert cfg.field == field
        if deltas is None:
            assert cfg.deltas is None
        else:
            assert cfg.deltas.tolist() == list(deltas)

    def test_file_over_study_default(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"field": "linear", "deltas": [0.2, 0.1]}))
        loaded = load("converge", "--config", str(cfg))
        assert (loaded.field, loaded.deltas.tolist()) == ("linear", [0.2, 0.1])
        loaded = load("converge", "--config", str(cfg), "--field", "quadratic")
        assert loaded.field == "quadratic"

    @pytest.mark.parametrize("study", HORIZON_STUDIES)
    @pytest.mark.parametrize("smallest", [1e-3, 0.02])
    def test_delta_min_gives_a_geometric_series(self, study, smallest, tmp_path):
        want = np.geomspace(0.1, smallest, 5).tolist()
        assert load(study, "--delta-min", str(smallest)).deltas.tolist() == want
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"delta_min": smallest}))
        assert load(study, "--config", str(cfg)).deltas.tolist() == want

    def test_kdelta_reports_the_delta_min_series(self, tmp_path):
        assert main(["kdelta", "--quad", "2,2", "--delta-min", "1e-3",
                     "--out", str(tmp_path)]) in (0, 1)
        with open(tmp_path / "kdelta.json") as f:
            assert json.load(f)["deltas"] == np.geomspace(0.1, 1e-3, 5).tolist()

    @pytest.mark.parametrize("study", HORIZON_STUDIES)
    def test_delta_series_over_delta_min(self, study, tmp_path):
        # the series wins, so the delta_min it overrides is not checked
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"delta_min": 0.5}))
        for argv in (["--delta-min", "0.5"], ["--config", str(cfg)]):
            loaded = load(study, *argv, "--delta-series", "0.2,0.1")
            assert loaded.deltas.tolist() == [0.2, 0.1]

    @pytest.mark.parametrize("study", HORIZON_STUDIES)
    @pytest.mark.parametrize("smallest", ["0.5", "0.1", "0", "-1e-3", "nan"])
    def test_delta_min_out_of_range_refused(self, study, smallest, tmp_path, capsys):
        rc = main([study, "--quad", "2,2", f"--delta-min={smallest}",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"error: delta_min must be in (0, 0.1), got {float(smallest)}\n")

    @pytest.mark.parametrize("study", ["moments", "solve"])
    def test_unread_horizons_ignored(self, study):
        # a study that reads no horizons accepts the flags and ignores them
        loaded = load(study, "--delta-min", "0.5", "--delta-series=")
        assert (loaded.delta_min, loaded.deltas) == (0.5, ())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("count", [0, -1])
    def test_empty_sample_grid_refused(self, count, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sample_count": count}))
        rc = main(["converge", "--config", str(cfg), *FAST, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"error: sample_count must be >= 1, got {count}\n")

    @pytest.mark.filterwarnings("error")
    def test_collar_excluding_every_sample_refused(self, tmp_path, capsys):
        # the collar of 2 x 0.3 about z = 0 holds the whole grid |z| <= 0.45
        rc = main(["converge", "--material", "two-phase:1,1,1,1",
                   "--delta-series", "0.3,0.2,0.1", *FAST, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "error: the interface collar of 0.6 (twice the largest horizon) "
                "excludes every sample point\n")

    @pytest.mark.parametrize("argv,message", [
        (["converge", "--field", "nope"], "unknown manufactured configuration 'nope'"),
        (["solve", "--field", "nope"], "unknown manufactured configuration 'nope'"),
        (["star", "--field", "trig_smooth"], "star study needs a two-phase material"),
        pytest.param(["blowup", "--material", "two-phase:nan,1,1,1"],
                     "material: lambda and mu must be finite",
                     id="argv3-lambda and mu must be finite"),
    ])
    def test_field_and_material_before_the_memory_gate(self, argv, message,
                                                        tmp_path, capsys, monkeypatch):
        # every quad and lattice would be refused by a memory of one byte
        monkeypatch.setattr(cli, "_physical_memory", lambda: 1)
        rc = main([*argv, "--quad", "2,2", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


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

    def test_blowup_annihilated_field_is_exact(self, tmp_path, capsys):
        # the constant field on two phases: delta times the operator has a
        # zero limit, and the norms are the nested pass's rounding, which
        # grows as 1/delta^2, above the fixed 1e-12 floor but below 1e-12 of
        # the term scale
        rc = main(["blowup", "--out", str(tmp_path), "--field", "constant",
                   "--material", "two-phase:3,1,5,2"])
        assert rc == 0
        with open(tmp_path / "blowup.json") as f:
            report = json.load(f)
        assert (report["exact"], report["slope"]) == (True, None)
        assert max(report["norms"]) > analysis.EXACT_SERIES_FLOOR
        assert "PASS blowup/bounded" in capsys.readouterr().out

    def test_blowup_gradient_jump_rate(self, tmp_path, capsys):
        rc = main(["blowup", "--out", str(tmp_path), "--field", "gradient_jump",
                   "--material", "two-phase:3,1,5,2"])
        assert rc == 0
        with open(tmp_path / "blowup.json") as f:
            assert abs(json.load(f)["slope"] + 1.0) <= 1e-12
        assert "PASS blowup/blowup_rate" in capsys.readouterr().out

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

    def test_solve_with_a_body_force(self, tmp_path, capsys):
        # a valid b on the default patch: the residual check measures the
        # interior rows against b and the extended rows against 0, and
        # without the manufactured solution no recovery is checked.  The
        # default box's free nodes all lie on the extended interface, so
        # the box is widened to give interior rows
        box = [[-0.75] * 3, [0.75] * 3]
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"study": "solve", "b": [0, 0, 1], "box": box}))
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS solve/residual" in out and "recovery" not in out
        with open(tmp_path / "solve_report.json") as f:
            payload = json.load(f)
        assert payload["recovery_error"] is None
        assert [name for name, _, _ in payload["checks"]] == ["residual"]
        loaded = load("solve", "--config", str(cfg))
        _, material = cli._field_material(loaded, cli._STUDIES["solve"])
        grid = solver.build_grid(np.asarray(box), loaded.h, loaded.ratio, material.interface)
        opr = solver.assemble(grid, material)
        rows = (tmp_path / "solution.csv").read_text().splitlines()[1:]
        u = np.array([[float(v) for v in row.split(",")[3:6]] for row in rows])
        r = opr.action(u)
        tol = 1e-10 * cli._residual_scale(opr)
        interior = grid.tags == solver.NodeTag.INTERIOR
        extended = grid.tags == solver.NodeTag.EXTENDED_INTERFACE
        assert interior.any() and extended.any()
        assert np.abs(r[interior] - [0.0, 0.0, 1.0]).max() <= tol
        assert np.abs(r[extended]).max() <= tol

    def test_converge_exact_regime(self, tmp_path, capsys):
        # the constant field: every error is below the exact floor, so the
        # study records the exact check and fits no slope
        rc = main(["converge", "--field", "constant", "--out", str(tmp_path), *FAST])
        assert rc == 0
        assert "PASS converge/exact" in capsys.readouterr().out
        with open(tmp_path / "converge.json") as f:
            report = json.load(f)
        assert (report["slope"], report["exact"]) == (None, True)

    def test_star_on_one_horizon(self, tmp_path):
        # one horizon: the limit estimate is its one scaled value
        rc = main(["star", "--delta-series", "0.1", "--out", str(tmp_path), *FAST])
        assert rc == 0
        with open(tmp_path / "star.json") as f:
            report = json.load(f)
        [record] = report["records"]
        assert report["limit_estimate"] == record["value"]

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

    # one thread's studies in turn: star on the kinked patch with lambda !=
    # mu (a nested pass on both closed forms), converge on the trig material
    # (one closed form, in batches), blowup on gradient_jump (lambda = mu:
    # no nested pass)
    IN_TURN = [
        ("star", ["--field", "patch_jump_zero_traction", "--material", "two-phase:3,1,5,2",
                  *FAST, *FAST_DELTAS]),
        ("converge", ["--field", "smooth_material_trig", *FAST,
                      "--delta-series", "0.05,0.025,0.0125"]),
        ("blowup", ["--field", "gradient_jump", *FAST, *FAST_DELTAS]),
    ]

    @staticmethod
    def _bits(out, study):
        """The study's CSV bytes and its report's nested_points."""
        with open(out / f"{study}.json") as f:
            nested_points = json.load(f)["params"]["nested_points"]
        return (out / f"{study}.csv").read_bytes(), nested_points

    def test_studies_in_turn_give_the_bits_of_a_fresh_process(self, tmp_path):
        # the thread's rule and workspace outlive each study; no study may
        # read what an earlier one left there, with one thread or with two.
        # The list runs twice, so the second star reuses the rule and the
        # workspace of the blowup before it
        fresh = []
        for study, argv in self.IN_TURN:
            out = tmp_path / "fresh" / study
            subprocess.run([sys.executable, "-m", "peridyn.cli", study, *argv,
                            "--threads", "1", "--out", str(out)],
                           check=True, capture_output=True,
                           env={**os.environ, "PYTHONPATH": _SRC_PATH})
            fresh.append(self._bits(out, study))
        assert [nested > 0 for _, nested in fresh] == [True, True, False]
        for threads in ("1", "2"):
            for (study, argv), want in zip(self.IN_TURN * 2, fresh * 2):
                out = tmp_path / threads / study
                assert main([study, *argv, "--threads", threads, "--out", str(out)]) == 0
                assert self._bits(out, study) == want

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


_SPARSE_FREE_SOLVE_SCRIPT = """
import sys
import numpy as np
import peridyn, peridyn.cli, peridyn.solver as S
from peridyn.fields import make_manufactured

def sparse():
    return sorted(m for m in sys.modules if m.startswith("scipy.sparse"))

assert not sparse(), sparse()
field, material = make_manufactured("linear")
grid = S.build_grid((np.full(3, -0.75), np.full(3, 0.75)), 0.125, 2.0)
result = S.solve_equilibrium(S.assemble(grid, material), None, field.value)
free = grid.tags != S.NodeTag.CONSTRAINT
err = np.abs(result.u[free] - field.value(grid.points[free])).max()
assert result.iterations > 0 and err < 1e-8, (result.iterations, err)
assert not sparse(), sparse()
print("ok")
"""


def test_import_leaves_the_solver_unloaded():
    # importing the package, the CLI or the solver loads no scipy.sparse
    # module, and neither does a solve, which converges
    run = subprocess.run([sys.executable, "-c", _SPARSE_FREE_SOLVE_SCRIPT],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": _SRC_PATH})
    assert (run.returncode, run.stdout, run.stderr) == (0, "ok\n", "")
