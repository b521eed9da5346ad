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

# Runs the CLI as ``python -m groupcut.cli`` does, then writes to stderr, as
# one JSON line, the modules in sys.modules that were not there at interpreter
# start, in the order their imports began.  (sys.modules itself holds a module
# from when its import ends, so a module comes after everything it imports.)
# A finder first on sys.meta_path sees each import begin, before the module's
# source compiles.
CLI_PROBE = """\
import sys
at_start = set(sys.modules)
began = []

class Recorder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        began.append(name)

sys.meta_path.insert(0, Recorder)
import json, runpy
try:
    runpy.run_module("groupcut.cli", run_name="__main__", alter_sys=True)
finally:
    loaded = [m for m in dict.fromkeys(began) if m in sys.modules and m not in at_start]
    sys.stderr.write(json.dumps(loaded))
"""

# The package and the CLI itself; every other groupcut module is a layer.
CLI_ITSELF = ("groupcut", "groupcut.cli")


def run_python(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=120)


def modules_loaded_by_cli(*argv, cwd=None):
    """The command's stdout, and the modules it loaded after interpreter start in load order."""
    proc = run_python("-c", CLI_PROBE, *argv, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def loaded_by_cli(*argv, cwd=None):
    """The command's stdout, and the set of groupcut submodules it loaded."""
    stdout, modules = modules_loaded_by_cli(*argv, cwd=cwd)
    return stdout, {m for m in modules if m.startswith("groupcut.")}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """gmic(4/5), its restriction to q = 5 and the gmic/psi_1 midpoint, as paths."""
    tmp = tmp_path_factory.mktemp("cli")
    paths = {name: str(tmp / f"{name}.json") for name in ("gmic", "psi1", "finite", "mid")}
    for argv in (
        ("construct", "gmic", "--f", "4/5", "-o", paths["gmic"]),
        ("construct", "psi_n", "--f", "4/5", "--n", "1", "-o", paths["psi1"]),
        ("restrict", paths["gmic"], "--q", "5", "-o", paths["finite"]),
        ("apply", "combine", paths["gmic"], "--a", "1/2", "--b", "1/2", "--other", paths["psi1"],
         "-o", paths["mid"]),
    ):
        proc = run_python("-m", "groupcut.cli", *argv)
        assert proc.returncode == 0, proc.stderr
    return paths


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

    @pytest.mark.parametrize(
        "argv, unwanted",
        [
            (("list",), ("serialize", "complex2d", "minimality")),
            (("construct", "gmic", "--f", "4/5"), ("complex2d", "minimality")),
            (("apply", "combine", "{gmic}", "--a", "1/2", "--b", "1/2", "--other", "{psi1}"),
             ("complex2d", "minimality")),
            (("restrict", "{mid}", "--q", "10", "--m", "3"), ("minimality", "complex2d")),
            (("interpolate", "{finite}"), ("minimality", "complex2d")),
        ],
        ids=["list", "construct", "apply-combine", "restrict", "interpolate"],
    )
    def test_commands_without_face_code_never_compile_the_complex(self, files, argv, unwanted):
        stdout, loaded = loaded_by_cli(*(a.format(**files) for a in argv))
        assert stdout
        assert not loaded & {f"groupcut.{m}" for m in unwanted}

    @pytest.mark.parametrize(
        "argv",
        [("test", "minimality", "{mid}"), ("test", "extremality", "{mid}"),
         ("plot", "diagram", "{mid}")],
        ids=["test-minimality", "test-extremality", "plot-diagram"],
    )
    def test_face_commands_compile_the_complex_first(self, files, argv):
        # The largest module, compiled before any other layer, holds the
        # process's peak RSS down.
        stdout, modules = modules_loaded_by_cli(*(a.format(**files) for a in argv))
        assert stdout
        layers = [m for m in modules if m.startswith("groupcut.") and m not in CLI_ITSELF]
        assert layers[0] == "groupcut.complex2d"

    @pytest.mark.parametrize(
        "argv",
        [
            ("list",),
            ("construct", "gmic", "--f", "4/5"),
            ("apply", "combine", "{gmic}", "--a", "1/2", "--b", "1/2", "--other", "{psi1}"),
            ("restrict", "{mid}", "--q", "10", "--m", "3"),
            ("interpolate", "{finite}"),
            ("test", "minimality", "{mid}"),
            ("test", "extremality", "{mid}"),
            ("plot", "function", "{mid}"),
            ("plot", "diagram", "{mid}"),
        ],
        ids=["list", "construct", "apply-combine", "restrict", "interpolate", "test-minimality",
             "test-extremality", "plot-function", "plot-diagram"],
    )
    def test_no_command_loads_dataclasses_or_inspect(self, files, argv):
        # The records are plain classes: importing dataclasses, and the
        # inspect module it loads, would cost every process about 6 ms.
        stdout, modules = modules_loaded_by_cli(*(a.format(**files) for a in argv))
        assert stdout
        assert not {"dataclasses", "inspect"} & set(modules)

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
