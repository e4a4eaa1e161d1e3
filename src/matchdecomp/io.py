"""Market files and JSON rendering of reports.

The on-disk format is JSON, structurally validated against the schema
shipped in ``data/market.schema.json`` and then semantically validated
while building the market.  The structural check is one plain-Python pass
that accepts exactly the documents the schema accepts; ``jsonschema`` is
imported only when that pass rejects a document, to name the first
violation the way ``jsonschema.validate`` does.

Subsets are written as lists of worker labels in worker order; orders as
lists of labels best first; tables as ``[menu, chosen]`` pairs covering
every menu exactly once, in ascending menu order.  Each label is resolved
with one dict lookup: a subset's mask is the sum of its labels' bits, and a
repeated label shows as a mask with fewer set bits than labels.  An optional
``copy_indexing`` section pins the copy numbering of a firm's
decomposition.  :func:`parse_market` matches it here, once per load: it
walks the firm's decomposition and rejects an indexing that repeats an
order or that is not exactly the walk's set of orders.

Parsing and serializing are inverse: ``parse_market(serialize_market(doc))``
reproduces the document field for field, including each choice function's
representation kind.

Every indented document the package writes, market files and command
reports alike, comes from :func:`render_json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain

from .bitsets import labels_of
from .caps import DEFAULT_CAPS, Caps
from .choices import (
    ORDERS,
    SUBSET_RANKING,
    TABLE,
    AxiomReport,
    ChoiceFunction,
    LinearOrder,
)
from .decomposition import decompose
from .errors import DecompositionMismatchError, MarketValidationError
from .markets import ManyToOneMarket

_MASK_KEYS = frozenset(
    ["menu", "submenu", "first", "second", "smaller", "larger", "expected", "actual"]
)

# the keys market.schema.json requires and allows at each level
_TOP_REQUIRED = frozenset(["workers", "firms", "worker_prefs"])
_TOP_ALLOWED = _TOP_REQUIRED | {"copy_indexing"}
_FIRM_KEYS = frozenset(["id", "choice"])
_CHOICE_KEYS = frozenset(["kind", "payload"])
# the structural pass compares a list's set of types (or lengths) with these;
# built once, as a set display per call costs more than a short list's check
_STR = frozenset([str])
_LIST = frozenset([list])
_PAIR = frozenset([2])

# json's own C string encoder, the one its pure-Python encoder calls per leaf
_encode = json.encoder.encode_basestring_ascii
# read only for None, True and False themselves: 1 == True, so 1 would
# find "true" here
_CONSTANTS = {None: "null", True: "true", False: "false"}


def market_schema() -> dict:
    with resources.files("matchdecomp.data").joinpath("market.schema.json").open() as fh:
        return json.load(fh)


@dataclass(frozen=True)
class MarketDocument:
    """A parsed market file: the market plus any explicit copy indexing."""

    market: ManyToOneMarket
    copy_indexing: dict[int, tuple[LinearOrder, ...]] = field(default_factory=dict)


def _order_from_labels(labels, index: dict[str, int], context: str) -> LinearOrder:
    try:
        ranking = tuple(map(index.__getitem__, labels))
    except KeyError as exc:
        label = exc.args[0]
        raise MarketValidationError(f"unknown worker {label!r} in {context}") from None
    try:
        return LinearOrder(ranking)
    except MarketValidationError:
        # indices of known labels fail the order's checks only by repeating
        raise MarketValidationError(f"repeated worker in {context}") from None


def _mask_from_labels(labels, bits: dict[str, int], context: str) -> int:
    """The mask of ``labels``, where ``bits`` maps each label to its bit.

    A repeated label carries into a higher bit, so the sum has fewer set
    bits than there are labels exactly when some label repeats.
    """
    try:
        mask = sum(map(bits.__getitem__, labels))
    except KeyError as exc:
        label = exc.args[0]
        raise MarketValidationError(f"unknown worker {label!r} in {context}") from None
    if mask.bit_count() != len(labels):
        raise MarketValidationError(f"repeated worker in {context}")
    return mask


def _parse_choice(spec: dict, widx: dict[str, int], firm: str) -> ChoiceFunction:
    kind = spec["kind"]
    payload = spec["payload"]
    k = len(widx)
    if kind == ORDERS:
        orders = [
            _order_from_labels(entry, widx, f"orders of {firm}") for entry in payload
        ]
        return ChoiceFunction.from_orders(orders, k)
    wbits = {label: 1 << i for label, i in widx.items()}
    if kind == SUBSET_RANKING:
        masks = [
            _mask_from_labels(entry, wbits, f"subset ranking of {firm}")
            for entry in payload
        ]
        try:
            return ChoiceFunction.from_subset_ranking(masks, k)
        except MarketValidationError:
            # masks of nonempty known labels fail the ranking's checks only
            # by repeating
            raise MarketValidationError(
                f"subset ranking of {firm} lists a subset twice"
            ) from None
    entries: dict[int, int] = {}
    menu_context = f"table menu of {firm}"
    value_context = f"table value of {firm}"
    for menu_labels, chosen_labels in payload:
        menu = _mask_from_labels(menu_labels, wbits, menu_context)
        chosen = _mask_from_labels(chosen_labels, wbits, value_context)
        if menu in entries:
            raise MarketValidationError(f"table of {firm} lists a menu twice")
        entries[menu] = chosen
    if len(entries) != 1 << k:
        raise MarketValidationError(
            f"table of {firm} covers {len(entries)} of {1 << k} menus"
        )
    table = tuple(entries[m] for m in range(1 << k))
    try:
        return ChoiceFunction.from_table(table, k)
    except MarketValidationError:
        # a complete table of known labels fails its checks only by
        # choosing outside a menu
        menu, chosen = next((m, c) for m, c in enumerate(table) if c & ~m)
        workers = tuple(widx)
        raise MarketValidationError(
            f"table of {firm} chooses {labels_of(chosen, workers)} from menu "
            f"{labels_of(menu, workers)}"
        ) from None


def _labels(value) -> bool:
    return type(value) is list and set(map(type, value)) <= _STR


def _label_lists(value) -> bool:
    """Whether ``value`` is a list of lists of strings."""
    return (
        type(value) is list
        and set(map(type, value)) <= _LIST
        and set(map(type, chain.from_iterable(value))) <= _STR
    )


def _payload_well_formed(kind: str, payload: list) -> bool:
    if kind == TABLE:
        return (
            set(map(type, payload)) <= _LIST
            and set(map(len, payload)) <= _PAIR
            and _label_lists(list(chain.from_iterable(payload)))
        )
    if kind == SUBSET_RANKING:
        return _label_lists(payload) and all(payload)
    return _label_lists(payload)


def _firm_well_formed(firm) -> bool:
    if type(firm) is not dict or firm.keys() != _FIRM_KEYS:
        return False
    if type(firm["id"]) is not str or not firm["id"]:
        return False
    choice = firm["choice"]
    if type(choice) is not dict or choice.keys() != _CHOICE_KEYS:
        return False
    kind, payload = choice["kind"], choice["payload"]
    return (
        kind in (TABLE, SUBSET_RANKING, ORDERS)
        and type(payload) is list
        and _payload_well_formed(kind, payload)
    )


def _well_formed(data) -> bool:
    """Whether ``market.schema.json`` accepts ``data``.

    Exact on deserialized JSON.  Python values JSON cannot produce, such as
    tuples or ``str`` subclasses, may be refused here though the schema
    accepts them; a False is only a cue to ask the schema.
    """
    if type(data) is not dict or not _TOP_REQUIRED <= data.keys() <= _TOP_ALLOWED:
        return False
    workers, firms, prefs = data["workers"], data["firms"], data["worker_prefs"]
    if not (
        _labels(workers)
        and workers
        and all(workers)
        and len(set(workers)) == len(workers)
    ):
        return False
    if type(firms) is not list or not all(_firm_well_formed(firm) for firm in firms):
        return False
    if type(prefs) is not dict or not all(_labels(p) for p in prefs.values()):
        return False
    indexing = data.get("copy_indexing", {})
    return type(indexing) is dict and all(
        _label_lists(orders) and orders for orders in indexing.values()
    )


def _raise_schema_error(data) -> None:
    """Raise the first violation ``jsonschema.validate`` would report, if any."""
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match

    try:
        error = best_match(Draft202012Validator(market_schema()).iter_errors(data))
    except RecursionError:  # repr of a value nested near the recursion limit
        raise MarketValidationError(
            "market file rejected by schema: a value nests too deeply to report"
        ) from None
    if error is not None:
        raise MarketValidationError(f"market file rejected by schema: {error.message}")


def parse_market(data: dict, caps: Caps = DEFAULT_CAPS) -> MarketDocument:
    """Validate a deserialized market file and build the market."""
    if not _well_formed(data):
        _raise_schema_error(data)

    workers = tuple(data["workers"])
    widx = {label: i for i, label in enumerate(workers)}
    firm_labels = []
    cfs = []
    for entry in data["firms"]:
        firm_labels.append(entry["id"])
        cfs.append(_parse_choice(entry["choice"], widx, entry["id"]))
    if len(set(firm_labels)) != len(firm_labels):
        raise MarketValidationError("duplicate firm ids")
    fidx = {label: i for i, label in enumerate(firm_labels)}

    prefs_in = data["worker_prefs"]
    unknown = set(prefs_in) - set(workers)
    if unknown:
        raise MarketValidationError(f"worker_prefs for unknown workers {sorted(unknown)}")
    missing = set(workers) - set(prefs_in)
    if missing:
        raise MarketValidationError(f"worker_prefs missing for {sorted(missing)}")
    firm_of = fidx.__getitem__
    worker_prefs = []
    for label in workers:
        try:
            worker_prefs.append(tuple(map(firm_of, prefs_in[label])))
        except KeyError as exc:
            firm = exc.args[0]
            raise MarketValidationError(
                f"unknown firm {firm!r} in preferences of {label}"
            ) from None

    market = ManyToOneMarket(workers, tuple(firm_labels), tuple(cfs), tuple(worker_prefs))

    copy_indexing: dict[int, tuple[LinearOrder, ...]] = {}
    for firm, orders_in in data.get("copy_indexing", {}).items():
        if firm not in fidx:
            raise MarketValidationError(f"copy_indexing for unknown firm {firm!r}")
        f = fidx[firm]
        explicit = tuple(
            _order_from_labels(entry, widx, f"copy_indexing of {firm}")
            for entry in orders_in
        )
        # the walk raises first when the firm is not path independent
        walked = decompose(market.choice_functions[f], caps)
        # rankings hash in C, where a LinearOrder hashes through its dataclass
        given = {order.ranking for order in explicit}
        if len(given) != len(explicit):
            raise MarketValidationError(f"copy_indexing of {firm} repeats an order")
        if given != {order.ranking for order in walked}:
            raise DecompositionMismatchError(
                f"copy_indexing of {firm} is not the decomposition order set"
            )
        copy_indexing[f] = explicit
    return MarketDocument(market, copy_indexing)


def read_json(path: str):
    """Load a JSON file; bytes that are not UTF-8, or nesting too deep for
    the decoder, are invalid input like any other malformed file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise MarketValidationError(f"{path} is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise MarketValidationError(f"{path} nests JSON too deeply to read") from None


def load_market(path: str, caps: Caps = DEFAULT_CAPS) -> MarketDocument:
    data = read_json(path)
    if not isinstance(data, dict):
        raise MarketValidationError("market file must hold a JSON object")
    return parse_market(data, caps)


def serialize_market(
    market: ManyToOneMarket,
    copy_indexing: dict[int, tuple[LinearOrder, ...]] | None = None,
) -> dict:
    """Inverse of :func:`parse_market`, preserving representation kinds."""
    workers = market.workers
    firms = []
    for label, cf in zip(market.firms, market.choice_functions):
        if cf.kind == TABLE:
            payload = [
                [labels_of(menu, workers), labels_of(chosen, workers)]
                for menu, chosen in enumerate(cf.table)
            ]
        elif cf.kind == SUBSET_RANKING:
            payload = [labels_of(mask, workers) for mask in cf.ranking]
        else:
            payload = [[workers[w] for w in o.ranking] for o in cf.orders]
        firms.append({"id": label, "choice": {"kind": cf.kind, "payload": payload}})
    data = {
        "workers": list(workers),
        "firms": firms,
        "worker_prefs": {
            label: [market.firms[f] for f in prefs]
            for label, prefs in zip(workers, market.worker_prefs)
        },
    }
    if copy_indexing:
        data["copy_indexing"] = {
            market.firms[f]: [[workers[w] for w in o.ranking] for o in orders]
            for f, orders in sorted(copy_indexing.items())
        }
    return data


def dump_market(doc: MarketDocument) -> str:
    return render_json(serialize_market(doc.market, doc.copy_indexing)) + "\n"


def render_json(data) -> str:
    """Exactly what ``json.dumps`` gives for ``data`` with an indent of 2
    and sorted keys, but faster.

    With an indent, ``json`` falls back to its pure-Python encoder.
    Here each string goes through ``json``'s C encoder, a list of strings is
    one join, and only the nesting is walked in Python; each level is one
    f-string, which copies its body once where ``+`` would copy it per
    operand.  A dict key that is not a ``str`` raises ``TypeError`` where
    ``json`` would convert it.
    """
    return _render(data, "\n")


def _render(value, newline: str) -> str:
    # None first: it fills most of a large matching's ``by_copy``
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, str):
        return _encode(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        separator = "," + inner
        try:
            body = separator.join(map(_encode, value))
        except TypeError:  # some item is not a string
            body = separator.join([_render(item, inner) for item in value])
        return f"[{inner}{body}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        body = ("," + inner).join(
            [
                f"{_encode(key)}: {_render(item, inner)}"
                for key, item in sorted(value.items())
            ]
        )
        return f"{{{inner}{body}{newline}}}"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


def render_axiom_report(report: AxiomReport, workers: tuple[str, ...]) -> dict:
    out: dict = {"axiom": report.axiom, "passed": report.passed}
    if report.witness is not None:
        out["witness"] = {
            key: labels_of(value, workers) if key in _MASK_KEYS else workers[value]
            for key, value in report.witness.items()
        }
    return out
