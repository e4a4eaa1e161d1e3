"""Many-to-one matching markets with path-independent choice functions.

The package decomposes each firm's choice function into a family of linear
orders, builds the associated one-to-one market of single-hire firm
copies, and provides stability checking, deferred-acceptance solvers, and
exhaustive verification of the correspondence between the stable sets of
the two market forms.

``import matchdecomp`` loads no submodule.  Each public name is imported
from its home module on first access (PEP 562) and then kept here, so a
command or script pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it exports
_EXPORTS = {
    "association": (
        "OneToOneMarket", "build_associated_market", "merge_matching", "split_matching",
    ),
    "caps": ("DEFAULT_CAPS", "Caps", "caps_from_env"),
    "choices": (
        "AxiomReport", "ChoiceFunction", "LinearOrder", "canonicalize",
        "check_consistency", "check_lad", "check_path_independence",
        "check_substitutability", "replay_witness",
    ),
    "correspondence": (
        "CorrespondenceReport", "CountInvarianceReport", "check_count_invariance",
        "verify_correspondence",
    ),
    "da": (
        "DaStage", "DaTrace", "IdleStretch", "copies_propose", "trace_json_lines",
        "workers_propose",
    ),
    "decomposition": ("decompose", "decompose_market", "verify_decomposition"),
    "errors": (
        "AxiomViolationError", "CapExceededError", "DecompositionMismatchError",
        "DeferredAcceptanceError", "FirmRationalityError", "MarketError",
        "MarketValidationError",
    ),
    "generator": ("GenParams", "random_market"),
    "io": (
        "MarketDocument", "dump_market", "load_market", "market_schema",
        "parse_market", "render_axiom_report", "serialize_market",
    ),
    "markets": ("ManyToOneMarket",),
    "matchings": ("ManyToOneMatching", "OneToOneMatching"),
    "stability": (
        "StabilityReport", "check_classical_stable", "check_copy_stable",
        "check_stable", "enumerate_classical_stable", "enumerate_copy_stable",
        "enumerate_stable", "render_stability_report",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
