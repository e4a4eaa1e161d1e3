"""What each process imports: the package namespace loads names lazily, and
a command loads only the modules it runs.  What is loaded is checked in a
fresh interpreter, so the modules this test session has loaded hide none."""

import os
import subprocess
import sys

import pytest

import matchdecomp

from conftest import REFERENCE_PATH

# the modules `validate` does not run
NOT_VALIDATE = ("da", "stability", "correspondence", "association", "matchings", "generator")

PUBLIC_NAMES = """
    AxiomReport AxiomViolationError CapExceededError Caps ChoiceFunction
    CorrespondenceReport CountInvarianceReport DEFAULT_CAPS DaStage DaTrace
    DecompositionMismatchError DeferredAcceptanceError FirmRationalityError
    GenParams IdleStretch LinearOrder ManyToOneMarket ManyToOneMatching
    MarketDocument MarketError MarketValidationError OneToOneMarket
    OneToOneMatching StabilityReport build_associated_market canonicalize
    caps_from_env check_classical_stable check_consistency check_copy_stable
    check_count_invariance check_lad check_path_independence check_stable
    check_substitutability copies_propose decompose decompose_market dump_market
    enumerate_classical_stable enumerate_copy_stable enumerate_stable load_market
    market_schema merge_matching parse_market random_market render_axiom_report
    render_stability_report replay_witness serialize_market split_matching
    trace_json_lines verify_correspondence verify_decomposition workers_propose
""".split()


def run_python(code, *flags):
    """Run ``code`` in a fresh interpreter that finds this package first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(matchdecomp.__file__))
    result = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def run_command(argv, check, *flags):
    """Run ``main(argv)`` quietly in a fresh interpreter, then ``check``, which
    sees ``loaded``: the names of the package's submodules in sys.modules."""
    run_python(
        "import contextlib, io, sys\n"
        "from matchdecomp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "loaded = {m[len('matchdecomp.'):] for m in sys.modules if m.startswith('matchdecomp.')}\n"
        + check,
        *flags,
    )


def test_importing_the_package_loads_no_submodule():
    run_python(
        "import sys\n"
        "import matchdecomp\n"
        "assert matchdecomp.__version__ == '0.1.0'\n"
        "loaded = [m for m in sys.modules if m.startswith('matchdecomp.')]\n"
        "assert not loaded, loaded\n"
    )


def test_validate_leaves_the_copy_level_modules_unloaded():
    run_command(
        ["validate", REFERENCE_PATH],
        f"assert not loaded & set({NOT_VALIDATE!r}), sorted(loaded)\n",
    )


def test_solve_loads_deferred_acceptance_only():
    run_command(
        ["solve", REFERENCE_PATH],
        "assert 'da' in loaded, sorted(loaded)\n"
        "assert not loaded & {'correspondence', 'generator'}, sorted(loaded)\n",
    )


def test_validate_leaves_importlib_resources_unimported():
    # -S: no .pth file in site-packages can preload it
    run_command(
        ["validate", REFERENCE_PATH],
        "assert 'importlib.resources' not in sys.modules\n",
        "-S",
    )


def test_every_public_name_is_its_home_modules_object():
    run_python(
        "import importlib\n"
        "import matchdecomp\n"
        "for home, names in matchdecomp._EXPORTS.items():\n"
        "    module = importlib.import_module('matchdecomp.' + home)\n"
        "    for name in names:\n"
        "        value = getattr(module, name)\n"
        "        assert getattr(matchdecomp, name) is value, name\n"
        "        assert value.__module__ == module.__name__, name\n"
        "        assert vars(matchdecomp)[name] is value, name\n"
    )


def test_star_import_binds_every_public_name():
    run_python(
        "import matchdecomp\n"
        "namespace = {}\n"
        "exec('from matchdecomp import *', namespace)\n"
        "missing = set(matchdecomp.__all__) - set(namespace)\n"
        "assert not missing, missing\n"
    )


def test_the_public_names_are_listed_once_and_shown_by_dir():
    listed = [name for names in matchdecomp._EXPORTS.values() for name in names]
    assert sorted(listed) == sorted(matchdecomp.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(PUBLIC_NAMES)) == len(PUBLIC_NAMES) == 56
    assert set(dir(matchdecomp)) >= set(matchdecomp.__all__) | {"__version__"}


def test_an_unknown_name_is_refused():
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from matchdecomp import nope  # noqa: F401
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        matchdecomp.nope
