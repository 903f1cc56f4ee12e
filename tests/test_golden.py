"""Golden CSV check: reruns small CLI studies and compares their CSV bytes
with the committed outputs under ``tests/golden/``.

The golden files pin the operators' numerics to the last bit.  A change that
alters any digit on purpose regenerates them with the same commands and
records the change in CHANGES.md.
"""

import json
import os

import pytest

from peridyn.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

MATERIAL = ["--material", "two-phase:3,1,5,2"]
SERIES = ["--quad", "4,6", "--delta-series", "0.1,0.01,0.001"]

RUNS = [
    ("star_patch_jump_zero_traction.csv", "star.csv",
     ["star", "--field", "patch_jump_zero_traction", *MATERIAL, *SERIES]),
    ("star_gradient_jump.csv", "star.csv",
     ["star", "--field", "gradient_jump", *MATERIAL, *SERIES]),
    ("natural_gradient_jump.csv", "natural.csv",
     ["natural", "--field", "gradient_jump", *MATERIAL, *SERIES]),
    ("blowup_gradient_jump.csv", "blowup.csv",
     ["blowup", "--field", "gradient_jump", *MATERIAL, *SERIES]),
    ("converge_smooth_material_trig.csv", "converge.csv",
     ["converge", "--field", "smooth_material_trig", "--quad", "4,6"]),
    ("moments_quad_4_6.csv", "moments.csv", ["moments", "--quad", "4,6"]),
    ("kdelta_oblique_normal.csv", "kdelta.csv",
     ["kdelta", "--quad", "4,6", "--normal", "0.6,0,0.8"]),
    # the solve's JSON report also holds wall times, so only the CSV is pinned
    ("solve_linear.csv", "solution.csv", ["solve", "--field", "linear"]),
    # lambda != mu and an interface: reaches every assembled term
    ("solve_gradient_jump.csv", "solution.csv",
     ["solve", "--field", "gradient_jump", *MATERIAL]),
]


# GMRES iterations of the two solves: a change in the Krylov loop that moves
# the solutions by rounding alone keeps these
SOLVE_ITERATIONS = {"solve_linear.csv": 19, "solve_gradient_jump.csv": 16}


@pytest.mark.parametrize("golden,csv,argv", RUNS, ids=[r[0][:-4] for r in RUNS])
def test_csv_matches_golden(golden, csv, argv, tmp_path):
    # sample_count has no flag; the converge run reads it from a config file
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"study": argv[0], "sample_count": 2}))
    out = tmp_path / "out"
    # every run passes its own checks, the kinked patch star run on 3,1,5,2
    # included
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, golden), "rb") as f:
        assert (out / csv).read_bytes() == f.read()
    if golden in SOLVE_ITERATIONS:
        with open(out / "solve_report.json") as f:
            assert json.load(f)["iterations"] == SOLVE_ITERATIONS[golden]
