"""The lazy package and the CLI load only the layers that a caller uses."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import groupcut

SRC = os.path.dirname(os.path.dirname(os.path.abspath(groupcut.__file__)))

# The public names of the eagerly importing package, by defining module.
PUBLIC = {
    "rational": ["Rat", "RatMatrix", "nullspace", "rank", "rat_parse", "rat_str", "rref"],
    "pwl": [
        "PwlPeriodic", "SlopeReport", "affine_combine", "compose_pwl", "eval_pwl", "limit",
        "make_pwl", "precompose_scale", "pwl_from_values", "slope_report", "sup_norm_distance",
    ],
    "complex2d": [
        "AdditivityReport", "DeltaFace", "FaceCountCheck", "additivity_report", "delta_pi",
        "delta_pi_limit", "delta_vertices", "enumerate_faces", "face_count_check",
    ],
    "minimality": [
        "MinimalityVerdict", "MinimalityWitness", "minimality_grid_oracle", "minimality_test",
        "verify_witness", "with_f_breakpoint",
    ],
    "extremality": [
        "ExtremalityVerdict", "PerturbationBasis", "PerturbationCertificate",
        "epsilon_ratio_test", "extremality_test", "facetness_test", "interpolate_perturbation",
        "perturbation_space_basis", "restriction_additive_pairs",
    ],
    "finite": [
        "FiniteExtremalityVerdict", "FiniteGroupFn", "finite_extremality_test",
        "finite_minimality_test", "finite_perturbation_basis", "interpolate_to_infinite_group",
        "restrict_to_finite_group",
    ],
    "compendium": [
        "PsiParams", "SequentialMerge", "construct", "generate_eps", "gmic", "list_registry",
        "multiplicative_homomorphism", "negation", "projected_sequential_merge", "psi_n",
        "psi_stages", "sequential_merge", "two_slope_fill_in",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]

# Runs the CLI as ``python -m groupcut.cli`` does, then writes the names of
# the loaded groupcut submodules to stderr as one JSON line.
CLI_PROBE = """\
import json, runpy, sys
try:
    runpy.run_module("groupcut.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write(json.dumps(sorted(m for m in sys.modules if m.startswith("groupcut."))))
"""


def run_python(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=120)


def loaded_by_cli(*argv, cwd=None):
    proc = run_python("-c", CLI_PROBE, *argv, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, set(json.loads(proc.stderr.splitlines()[-1]))


class TestImportSurface:
    def test_import_groupcut_loads_no_submodule(self):
        proc = run_python(
            "-c",
            "import sys, groupcut; print(sorted(m for m in sys.modules if m.startswith('groupcut.')))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "argv", [("list",), ("construct", "gmic", "--f", "4/5")], ids=["list", "construct"]
    )
    def test_registry_commands_skip_the_decision_layers(self, argv):
        stdout, loaded = loaded_by_cli(*argv)
        assert stdout
        unwanted = {f"groupcut.{m}" for m in ("solver", "extremality", "finite", "svg")}
        assert not loaded & unwanted

    def test_minimality_of_a_function_skips_the_other_tests(self, tmp_path):
        path = tmp_path / "gmic.json"
        path.write_text(run_python("-m", "groupcut.cli", "construct", "gmic", "--f", "4/5").stdout)
        stdout, loaded = loaded_by_cli("test", "minimality", str(path))
        assert json.loads(stdout)["status"] == "Minimal"
        unwanted = {f"groupcut.{m}" for m in ("solver", "extremality", "finite", "svg", "compendium")}
        assert not loaded & unwanted

    def test_each_command_loads_the_layer_it_runs(self, tmp_path):
        path = tmp_path / "gmic.json"
        path.write_text(run_python("-m", "groupcut.cli", "construct", "gmic", "--f", "4/5").stdout)
        _, loaded = loaded_by_cli("plot", "function", str(path))
        assert "groupcut.svg" in loaded and "groupcut.solver" not in loaded
        _, loaded = loaded_by_cli("restrict", str(path), "--q", "5")
        assert "groupcut.finite" in loaded
        assert not loaded & {"groupcut.extremality", "groupcut.solver"}


class TestPublicNames:
    def test_all_lists_the_public_names(self):
        assert sorted(groupcut.__all__) == sorted(name for _, name in NAMES)

    @pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
    def test_name_is_the_defining_modules_object(self, module, name):
        defining = importlib.import_module(f"groupcut.{module}")
        assert getattr(groupcut, name) is getattr(defining, name)
        assert name in dir(groupcut)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from groupcut import *", namespace)
        for module, name in NAMES:
            assert namespace[name] is getattr(importlib.import_module(f"groupcut.{module}"), name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            groupcut.no_such_name
        assert not hasattr(groupcut, "Fraction")

    def test_submodules_are_attributes(self):
        for module in ("cli", "serialize", "solver", "svg", *PUBLIC):
            assert getattr(groupcut, module) is importlib.import_module(f"groupcut.{module}")

    def test_version(self):
        assert groupcut.__version__ == "0.1.0"
