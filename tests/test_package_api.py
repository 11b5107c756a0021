"""The package's public names, exported lazily, and the CLI's one-thread
OpenBLAS default, each checked in a fresh interpreter where import order
matters."""

import importlib
import os
import subprocess
import sys

import pytest

import qcdensity

# the public names, by the submodule each is exported from
EXPORTED = {
    "arith": [
        "InconsistentSystem", "SquarefreeKernel", "crt_combine", "euler_phi",
        "kronecker", "prime_divisors", "squarefree_kernel",
    ],
    "sieve": [
        "FactoredInteger", "SpfTable", "build_spf_table", "factorize",
        "load_spf_cache", "prime_count", "prime_count_in_class", "save_spf_cache",
    ],
    "characters": [
        "CharacterGroup", "build_character_group", "evaluate", "orthogonality_sum",
    ],
    "almostprime": [
        "CountMode", "OrderedTupleSums", "ResidueConstraint", "count_almost_primes",
        "count_almost_primes_positional", "distinct_permutation_count",
        "ordered_tuple_count", "ordered_tuple_count_via_characters",
        "recursion_residual", "trend_ratios", "tuple_sums",
    ],
    "quadratic": [
        "QuadraticForm", "count_roots_bruteforce", "count_roots_formula",
        "has_max_root_count",
    ],
    "residues": [
        "ResidueClassSet", "class_count", "kronecker_period",
        "residue_classes_constructive", "residue_classes_direct", "sign_vectors",
    ],
    "density": [
        "DensityRow", "SignConstraint", "class_constrained_asymptotic",
        "count_sign_constrained", "density_table", "empirical_sign_density",
        "landau_asymptotic", "rows_to_csv", "rows_to_json",
    ],
    "verify": ["CheckResult", "format_report", "run_suite"],
}

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(qcdensity.__file__))


def run_python(code, **env_extra):
    """Run code in a fresh interpreter that imports the package under test,
    with no OPENBLAS_NUM_THREADS unless env_extra sets it: a test that imports
    qcdensity.cli in process has set it in this one."""
    env = os.environ.copy()
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")])
    )
    env.update(env_extra)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_all_is_the_sorted_public_names():
    names = [name for names in EXPORTED.values() for name in names]
    assert len(names) == 52
    assert qcdensity.__all__ == sorted(names)


def test_each_name_is_its_submodule_object():
    for module, names in EXPORTED.items():
        home = importlib.import_module(f"qcdensity.{module}")
        for name in names:
            assert getattr(qcdensity, name) is getattr(home, name), name
            # bound on first access, so later ones skip __getattr__
            assert vars(qcdensity)[name] is getattr(home, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qcdensity import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == qcdensity.__all__


def test_dir_lists_every_public_name():
    assert set(qcdensity.__all__) <= set(dir(qcdensity))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcdensity.no_such_name
    assert not hasattr(qcdensity, "no_such_name")


def test_import_loads_no_submodule_and_no_numpy():
    loaded = run_python(
        "import sys, qcdensity\n"
        "print('numpy' in sys.modules)\n"
        "print(sorted(m for m in sys.modules if m.startswith('qcdensity.')))"
    )
    assert loaded == ["False", "[]"]


def test_a_submodule_imports_by_from_import():
    found = run_python(
        "import sys\n"
        "from qcdensity import characters\n"
        "print(characters is sys.modules['qcdensity.characters'])\n"
        "import qcdensity\n"
        "print(qcdensity.sieve is sys.modules['qcdensity.sieve'])"
    )
    assert found == ["True", "True"]


def test_the_cli_defaults_openblas_to_one_thread():
    value = run_python(
        "import os, qcdensity.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
    )
    assert value == ["1"]


def test_a_preset_openblas_thread_count_wins():
    value = run_python(
        "import os, qcdensity.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])",
        OPENBLAS_NUM_THREADS="3",
    )
    assert value == ["3"]


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task"
)
def test_the_cli_process_runs_one_thread():
    # numpy is loaded by the time cli's imports are done
    tasks = run_python(
        "import os, sys, qcdensity.cli\n"
        "assert 'numpy' in sys.modules\n"
        "print(len(os.listdir('/proc/self/task')))"
    )
    assert tasks == ["1"]
