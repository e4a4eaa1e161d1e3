"""Many-to-one matching markets with path-independent choice functions.

The package decomposes each firm's choice function into a family of linear
orders, builds the associated one-to-one market of single-hire firm
copies, and provides stability checking, deferred-acceptance solvers, and
exhaustive verification of the correspondence between the stable sets of
the two market forms.
"""

from .association import (
    OneToOneMarket,
    build_associated_market,
    merge_matching,
    split_matching,
)
from .caps import DEFAULT_CAPS, Caps, caps_from_env
from .choices import (
    AxiomReport,
    ChoiceFunction,
    LinearOrder,
    canonicalize,
    check_consistency,
    check_lad,
    check_path_independence,
    check_substitutability,
    replay_witness,
)
from .correspondence import (
    CorrespondenceReport,
    CountInvarianceReport,
    check_count_invariance,
    verify_correspondence,
)
from .da import (
    DaStage,
    DaTrace,
    IdleStretch,
    copies_propose,
    trace_json_lines,
    workers_propose,
)
from .decomposition import (
    decompose,
    decompose_market,
    verify_decomposition,
)
from .errors import (
    AxiomViolationError,
    CapExceededError,
    DecompositionMismatchError,
    DeferredAcceptanceError,
    FirmRationalityError,
    MarketError,
    MarketValidationError,
)
from .generator import GenParams, random_market
from .io import (
    MarketDocument,
    dump_market,
    load_market,
    market_schema,
    parse_market,
    render_axiom_report,
    serialize_market,
)
from .markets import ManyToOneMarket
from .matchings import ManyToOneMatching, OneToOneMatching
from .stability import (
    StabilityReport,
    check_classical_stable,
    check_copy_stable,
    check_stable,
    enumerate_classical_stable,
    enumerate_copy_stable,
    enumerate_stable,
    render_stability_report,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "AxiomViolationError",
    "CapExceededError",
    "Caps",
    "ChoiceFunction",
    "CorrespondenceReport",
    "CountInvarianceReport",
    "DaStage",
    "DaTrace",
    "DecompositionMismatchError",
    "DeferredAcceptanceError",
    "FirmRationalityError",
    "GenParams",
    "IdleStretch",
    "LinearOrder",
    "ManyToOneMarket",
    "ManyToOneMatching",
    "MarketDocument",
    "MarketError",
    "MarketValidationError",
    "OneToOneMarket",
    "OneToOneMatching",
    "StabilityReport",
    "DEFAULT_CAPS",
    "build_associated_market",
    "canonicalize",
    "caps_from_env",
    "check_classical_stable",
    "check_consistency",
    "check_copy_stable",
    "check_count_invariance",
    "check_lad",
    "check_path_independence",
    "check_stable",
    "check_substitutability",
    "copies_propose",
    "decompose",
    "decompose_market",
    "dump_market",
    "enumerate_classical_stable",
    "enumerate_copy_stable",
    "enumerate_stable",
    "load_market",
    "market_schema",
    "merge_matching",
    "parse_market",
    "random_market",
    "render_axiom_report",
    "render_stability_report",
    "replay_witness",
    "serialize_market",
    "split_matching",
    "trace_json_lines",
    "verify_correspondence",
    "verify_decomposition",
    "workers_propose",
]
