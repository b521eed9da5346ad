"""Exact rational toolkit for periodic piecewise linear cut functions.

The package loads lazily (PEP 562): ``import groupcut`` imports no
submodule, and each public name imports its defining module on first
access.  A CLI command or a library caller thus loads only the layers it
uses.
"""

from importlib import import_module

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("Rat", "RatMatrix", "nullspace", "rank", "rat_parse", "rat_str", "rref"),
        "rational",
    ),
    **dict.fromkeys(
        (
            "PwlPeriodic",
            "SlopeReport",
            "affine_combine",
            "compose_pwl",
            "eval_pwl",
            "limit",
            "make_pwl",
            "precompose_scale",
            "pwl_from_values",
            "slope_report",
            "sup_norm_distance",
        ),
        "pwl",
    ),
    **dict.fromkeys(
        (
            "AdditivityReport",
            "DeltaFace",
            "FaceCountCheck",
            "additivity_report",
            "delta_pi",
            "delta_pi_limit",
            "delta_vertices",
            "enumerate_faces",
            "face_count_check",
        ),
        "complex2d",
    ),
    **dict.fromkeys(
        (
            "MinimalityVerdict",
            "MinimalityWitness",
            "minimality_grid_oracle",
            "minimality_test",
            "verify_witness",
            "with_f_breakpoint",
        ),
        "minimality",
    ),
    **dict.fromkeys(
        (
            "ExtremalityVerdict",
            "PerturbationBasis",
            "PerturbationCertificate",
            "epsilon_ratio_test",
            "extremality_test",
            "facetness_test",
            "interpolate_perturbation",
            "perturbation_space_basis",
            "restriction_additive_pairs",
        ),
        "extremality",
    ),
    **dict.fromkeys(
        (
            "FiniteExtremalityVerdict",
            "FiniteGroupFn",
            "finite_extremality_test",
            "finite_minimality_test",
            "finite_perturbation_basis",
            "interpolate_to_infinite_group",
            "restrict_to_finite_group",
        ),
        "finite",
    ),
    **dict.fromkeys(
        (
            "PsiParams",
            "SequentialMerge",
            "construct",
            "generate_eps",
            "gmic",
            "list_registry",
            "multiplicative_homomorphism",
            "negation",
            "projected_sequential_merge",
            "psi_n",
            "psi_stages",
            "sequential_merge",
            "two_slope_fill_in",
        ),
        "compendium",
    ),
}

_SUBMODULES = frozenset(
    ("cli", "compendium", "complex2d", "extremality", "finite", "minimality",
     "pwl", "rational", "serialize", "solver", "svg")
)

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is not None:
        # Not cached in the package: each access reads the submodule's
        # current binding, which is the one that tools patching a
        # submodule's namespace (such as a tracer) replace.
        return getattr(import_module(f".{module}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
