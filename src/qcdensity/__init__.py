"""Counting almost-primes whose prime factors are constrained to residue
classes or to prescribed Kronecker-symbol signs, with exact small-scale
verification of the character-sum identities behind the density results.

The package exports its public names lazily (PEP 562): ``import qcdensity``
imports no submodule, and so not numpy; a name's home submodule is imported
on first access, and the name is then bound here like any other global.
"""

import importlib

__version__ = "0.1.0"

# home submodule -> the public names exported from it
_EXPORTS = {
    "arith": (
        "InconsistentSystem", "SquarefreeKernel", "crt_combine", "euler_phi",
        "kronecker", "prime_divisors", "squarefree_kernel",
    ),
    "sieve": (
        "FactoredInteger", "SpfTable", "build_spf_table", "factorize",
        "load_spf_cache", "prime_count", "prime_count_in_class", "save_spf_cache",
    ),
    "characters": (
        "CharacterGroup", "build_character_group", "evaluate", "orthogonality_sum",
    ),
    "almostprime": (
        "CountMode", "OrderedTupleSums", "ResidueConstraint", "count_almost_primes",
        "count_almost_primes_positional", "distinct_permutation_count",
        "ordered_tuple_count", "ordered_tuple_count_via_characters",
        "recursion_residual", "trend_ratios", "tuple_sums",
    ),
    "quadratic": (
        "QuadraticForm", "count_roots_bruteforce", "count_roots_formula",
        "has_max_root_count",
    ),
    "residues": (
        "ResidueClassSet", "class_count", "kronecker_period",
        "residue_classes_constructive", "residue_classes_direct", "sign_vectors",
    ),
    "density": (
        "DensityRow", "SignConstraint", "class_constrained_asymptotic",
        "count_sign_constrained", "density_table", "empirical_sign_density",
        "landau_asymptotic", "rows_to_csv", "rows_to_json",
    ),
    "verify": ("CheckResult", "format_report", "run_suite"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        # a bare import qcdensity still gives qcdensity.sieve and the like
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
