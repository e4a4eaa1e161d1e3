"""Market files: schema, parsing, serialization, report rendering."""

import json
import os
import random
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import matchdecomp
from matchdecomp import (
    ChoiceFunction,
    DecompositionMismatchError,
    GenParams,
    LinearOrder,
    ManyToOneMarket,
    MarketDocument,
    MarketValidationError,
    canonicalize,
    check_consistency,
    check_stable,
    check_substitutability,
    decompose_market,
    dump_market,
    load_market,
    market_schema,
    parse_market,
    random_market,
    render_axiom_report,
    render_stability_report,
    serialize_market,
)
from matchdecomp.bitsets import mask_of
from matchdecomp.cli import main
from matchdecomp.io import _mask_from_labels, _well_formed, render_json

from conftest import REFERENCE_PATH, TABLE_CONS_FAIL, m1, with_first_firm


def reference_data():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class TestSchema:
    def test_schema_knows_all_three_kinds(self):
        schema = market_schema()
        blob = json.dumps(schema)
        for kind in ("table", "subset_ranking", "orders"):
            assert kind in blob

    def test_schema_passes_the_metaschema(self):
        Draft202012Validator.check_schema(market_schema())

    def test_reference_file_is_schema_valid(self):
        jsonschema.validate(reference_data(), market_schema())


class TestParse:
    def test_reference_round_trips_field_for_field(self, reference_doc):
        data = serialize_market(reference_doc.market, reference_doc.copy_indexing)
        again = parse_market(data)
        assert again.market == reference_doc.market
        assert again.copy_indexing == reference_doc.copy_indexing
        # the fixture's choice functions keep their subset-ranking form
        assert all(cf.kind == "subset_ranking" for cf in again.market.choice_functions)

    def test_table_kind_round_trips(self):
        cf = ChoiceFunction.from_table((0, 1, 2, 2), 2)
        market = ManyToOneMarket(("v", "w"), ("A",), (cf,), ((0,), (0,)))
        again = parse_market(serialize_market(market))
        assert again.market == market
        assert again.market.choice_functions[0].kind == "table"
        # tables shaped like the wide-menus benchmark's: a generated market
        # with its first firm written out over all 2^k menus
        for seed, k in ((1, 8), (2, 9), (3, 10)):
            market = random_market(
                GenParams(workers=k, firms=2, max_orders=2, density=1.0, seed=seed)
            )
            table = canonicalize(market.choice_functions[0])
            doc = MarketDocument(with_first_firm(market, table))
            again = parse_market(json.loads(dump_market(doc)))
            assert again.market.choice_functions[0].table == table.table
            assert again.market == doc.market

    def test_orders_kind_round_trips(self):
        cf = ChoiceFunction.from_orders((LinearOrder((1, 0)), LinearOrder((0,))), 2)
        market = ManyToOneMarket(("v", "w"), ("A",), (cf,), ((0,), ()))
        again = parse_market(serialize_market(market))
        assert again.market == market

    def test_dump_is_stable_and_newline_terminated(self, reference_doc):
        text = dump_market(reference_doc)
        assert text.endswith("\n")
        assert text == dump_market(reference_doc)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("workers"),
            lambda d: d["workers"].append("w1"),  # duplicate label
            lambda d: d["worker_prefs"].pop("w1"),
            lambda d: d["worker_prefs"].update(ghost=["f1"]),
            lambda d: d["worker_prefs"]["w1"].append("nosuch"),
            lambda d: d["firms"].append(d["firms"][0]),  # duplicate id
            lambda d: d["firms"][0]["choice"].update(kind="nonsense"),
            lambda d: d.update(extra=1),
            lambda d: d["firms"][0].update(id=""),
            lambda d: d["workers"].__setitem__(0, 3),
            lambda d: d["firms"][0]["choice"].update(payload={}),
            lambda d: d["firms"][0]["choice"]["payload"].append([]),
            lambda d: d["copy_indexing"].update(f1=[]),
            lambda d: d["worker_prefs"].update(w1="f1"),
        ],
    )
    def test_malformed_documents_rejected(self, mutate):
        # a schema rejection reads exactly as jsonschema.validate words it
        data = reference_data()
        mutate(data)
        with pytest.raises(MarketValidationError) as caught:
            parse_market(data)
        try:
            jsonschema.validate(data, market_schema())
        except jsonschema.ValidationError as exc:
            assert str(caught.value) == "market file rejected by schema: " + exc.message
        else:
            assert not str(caught.value).startswith("market file rejected by schema")

    def test_partial_tables_rejected(self):
        data = {
            "workers": ["v", "w"],
            "firms": [
                {"id": "A", "choice": {"kind": "table", "payload": [[[], []]]}}
            ],
            "worker_prefs": {"v": ["A"], "w": []},
        }
        with pytest.raises(MarketValidationError):
            parse_market(data)

    def test_copy_indexing_must_be_the_exact_order_set(self):
        data = reference_data()
        data["copy_indexing"]["f1"][0] = ["w4", "w3", "w2", "w1"]
        with pytest.raises(DecompositionMismatchError):
            parse_market(data)

    def test_load_rejects_non_object_files(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(MarketValidationError):
            load_market(str(path))


def loop_mask_from_labels(labels, index: dict[str, int], context: str) -> int:
    """The label-by-label loop the dict-lookup parse replaced; its oracle."""
    out = []
    for label in labels:
        if label not in index:
            raise MarketValidationError(f"unknown worker {label!r} in {context}")
        out.append(index[label])
    if len(set(out)) != len(out):
        raise MarketValidationError(f"repeated worker in {context}")
    return mask_of(out)


def _outcome(resolve, labels, table: dict[str, int]):
    try:
        return "mask", resolve(labels, table, "ctx")
    except MarketValidationError as exc:
        return "error", str(exc)


# two workers and one table firm; the full table is C(S) = S
_FULL_TABLE = [
    [[], []],
    [["w1"], ["w1"]],
    [["w2"], ["w2"]],
    [["w1", "w2"], ["w1", "w2"]],
]


def _one_firm_document(payload, kind: str = "table") -> dict:
    return {
        "workers": ["w1", "w2"],
        "firms": [{"id": "A", "choice": {"kind": kind, "payload": payload}}],
        "worker_prefs": {"w1": ["A"], "w2": []},
    }


def _with_pairs(pairs: dict) -> list:
    """The full table with the pairs at the given positions replaced."""
    payload = json.loads(json.dumps(_FULL_TABLE))
    for index, pair in pairs.items():
        payload[index] = pair
    return payload


def _reference_with(mutate) -> dict:
    data = reference_data()
    mutate(data)
    return data


class TestLabelLookup:
    def test_masks_and_errors_match_the_label_loop(self):
        class Label(str):
            pass

        workers = [f"w{i}" for i in range(6)]
        index = {w: i for i, w in enumerate(workers)}
        bits = {w: 1 << i for i, w in enumerate(workers)}
        pool = workers + ["zz", "", "W1"] + [Label(w) for w in ("w0", "w3", "zz")]
        rng = random.Random(15)
        seen = set()
        for _ in range(20_000):
            labels = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
            expected = _outcome(loop_mask_from_labels, labels, index)
            assert _outcome(_mask_from_labels, labels, bits) == expected, labels
            seen.add("mask" if expected[0] == "mask" else expected[1].split()[0])
        assert seen == {"mask", "unknown", "repeated"}

    @pytest.mark.parametrize(
        "data, message",
        [
            # an unknown label is found before an earlier repeat counts
            (
                _one_firm_document(_with_pairs({3: [["w1", "w1", "zz"], []]})),
                "unknown worker 'zz' in table menu of A",
            ),
            # the first bad pair in file order wins
            (
                _one_firm_document(
                    _with_pairs({1: [["w1"], ["w1", "w1"]], 3: [["yy"], []]})
                ),
                "repeated worker in table value of A",
            ),
            # within a pair, the menu is read before the value
            (
                _one_firm_document(_with_pairs({2: [["w2", "w2"], ["zz"]]})),
                "repeated worker in table menu of A",
            ),
            (
                _one_firm_document(_with_pairs({0: [["w2", "w1"], ["w1"]]})),
                "table of A lists a menu twice",
            ),
            (_one_firm_document(_FULL_TABLE[1:]), "table of A covers 3 of 4 menus"),
            (
                _one_firm_document([["w2"], ["w1", "zz"]], "orders"),
                "unknown worker 'zz' in orders of A",
            ),
            (
                _reference_with(
                    lambda d: d["firms"][0]["choice"]["payload"][0].append("zz")
                ),
                "unknown worker 'zz' in subset ranking of f1",
            ),
            (
                _reference_with(
                    lambda d: d["firms"][0]["choice"]["payload"][0].append("w1")
                ),
                "repeated worker in subset ranking of f1",
            ),
            (
                _reference_with(lambda d: d["copy_indexing"]["f2"][0].insert(1, "zz")),
                "unknown worker 'zz' in copy_indexing of f2",
            ),
            (
                _reference_with(lambda d: d["copy_indexing"]["f2"][0].append("w3")),
                "repeated worker in copy_indexing of f2",
            ),
            (
                _reference_with(lambda d: d["worker_prefs"]["w3"].append("f9")),
                "unknown firm 'f9' in preferences of w3",
            ),
        ],
        ids=[
            "unknown-after-repeat",
            "first-pair-wins",
            "menu-before-value",
            "menu-twice",
            "coverage",
            "orders-unknown",
            "ranking-unknown",
            "ranking-repeat",
            "indexing-unknown",
            "indexing-repeat",
            "prefs-unknown",
        ],
    )
    def test_parse_errors_read_exactly(self, data, message):
        with pytest.raises(MarketValidationError) as caught:
            parse_market(data)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda d: d["firms"][0]["choice"]["payload"].append(["w2", "w1"]),
                "subset ranking of f1 lists a subset twice",
            ),
            (
                lambda d: d["firms"][1]["choice"].update(
                    kind="orders", payload=[["w1"], ["w2", "w2"]]
                ),
                "repeated worker in orders of f2",
            ),
        ],
        ids=["ranking-subset-twice", "orders-repeat"],
    )
    def test_repeats_the_constructors_catch_name_the_firm(
        self, capsys, tmp_path, mutate, message
    ):
        # the library constructors name masks and indices; the file reader
        # names the firm and speaks in labels, and the CLI exits 1
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_reference_with(mutate)), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert (out, json.loads(err)) == ("", {"error": message})

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda d: d["worker_prefs"]["w1"].append("f2"),
                "duplicate firm in preferences of w1",
            ),
            (
                lambda d: d["copy_indexing"].update(nope=[["w1"]]),
                "copy_indexing for unknown firm 'nope'",
            ),
        ],
        ids=["prefs-firm-twice", "indexing-unknown-firm"],
    )
    def test_refusals_after_the_labels_resolve_exit_1(
        self, capsys, tmp_path, mutate, message
    ):
        # the market constructor refuses a worker who lists a firm twice,
        # and the copy indexing must name a firm of the file
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_reference_with(mutate)), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", json.dumps({"error": message}) + "\n")


# a mutation picks one node of the document: a dict value, a list item or,
# for "add", any container including the root
_KEYS = ["workers", "firms", "worker_prefs", "copy_indexing", "id", "choice",
         "kind", "payload", "w1", "f1", "x", ""]


def _nodes(doc):
    """(parent, key, value) for every value below the root."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        if type(node) is dict:
            items = node.items()
        elif type(node) is list:
            items = enumerate(node)
        else:
            continue
        for key, child in items:
            out.append((node, key, child))
            stack.append(child)
    return out


def _copy(value):
    return json.loads(json.dumps(value))


_POOL = [
    "", "w1", "zz", 0, 2.5, True, None, [], {}, ["w1"], [""], ["w1", "w2"],
    [[]], [["w1"], []], "table", "orders", "subset_ranking",
    {"id": "f9", "choice": {"kind": "orders", "payload": []}},
]


def _value(rng, nodes):
    if nodes and rng.random() < 0.3:
        return _copy(rng.choice(nodes)[2])  # a piece of the document itself
    return _copy(rng.choice(_POOL))


def _mutate(rng, doc):
    op = rng.choice(["replace", "drop", "add", "wrap", "duplicate"])
    nodes = _nodes(doc)
    if op == "add" or not nodes:
        target = rng.choice([doc] + [v for _, _, v in nodes if type(v) in (dict, list)])
        if type(target) is dict:
            target[rng.choice(_KEYS)] = _value(rng, nodes)
        else:
            target.insert(rng.randint(0, len(target)), _value(rng, nodes))
        return
    parent, key, child = rng.choice(nodes)
    if op == "replace":
        parent[key] = _value(rng, nodes)
    elif op == "drop":
        del parent[key]
    elif op == "wrap":
        parent[key] = [child] if rng.random() < 0.7 else {rng.choice(_KEYS): child}
    elif type(parent) is list:
        parent.insert(rng.randint(0, len(parent)), _copy(child))
    else:
        parent[rng.choice(_KEYS)] = _copy(child)


def _seed_documents():
    """The reference file plus small generated markets of all three kinds."""
    docs = [reference_data()]
    for seed in range(6):
        rng = random.Random(seed)
        market = random_market(
            GenParams(workers=2, firms=2, max_orders=2, density=0.8, seed=seed)
        )
        indexing = dict(enumerate(decompose_market(market).per_firm))
        docs.append(serialize_market(market, indexing))
        cfs = (
            ChoiceFunction.from_table(canonicalize(market.choice_functions[0]).table, 2),
            ChoiceFunction.from_subset_ranking(rng.sample(range(1, 4), 2), 2),
        )
        mixed = ManyToOneMarket(market.workers, market.firms, cfs, market.worker_prefs)
        docs.append(serialize_market(mixed))
    return docs


class TestWellFormed:
    def test_agrees_with_the_schema_on_mutated_documents(self):
        # iter_errors yielding nothing is exactly best_match(...) being None,
        # the test parse_market falls back to; next() stops at the first error
        validator = Draft202012Validator(market_schema())
        seeds = _seed_documents()
        rng = random.Random(2024)
        accepted = 0
        for i in range(50_000):
            doc = _copy(seeds[i % len(seeds)])
            for _ in range(rng.randint(1, 2)):
                _mutate(rng, doc)
            doc = _copy(doc)
            valid = next(validator.iter_errors(doc), None) is None
            assert _well_formed(doc) == valid, json.dumps(doc)
            accepted += valid
        assert 0 < accepted < 50_000

    def test_python_values_json_cannot_hold_go_to_the_schema(self):
        # jsonschema counts a str subclass as a string but a tuple not as
        # an array; the plain pass refuses both and leaves the verdict to
        # the schema
        data = reference_data()
        data["workers"] = tuple(data["workers"])
        assert not _well_formed(data)
        with pytest.raises(MarketValidationError, match="rejected by schema"):
            parse_market(data)

        class Label(str):
            pass

        data = reference_data()
        data["workers"] = [Label(w) for w in data["workers"]]
        assert not _well_formed(data)
        assert parse_market(data).market.workers == tuple(reference_data()["workers"])

    def test_loading_a_valid_market_leaves_jsonschema_unimported(self):
        code = (
            "import sys\n"
            "from matchdecomp.cli import main\n"
            f"assert main(['validate', {REFERENCE_PATH!r}]) == 0\n"
            "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(matchdecomp.__file__))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr


class TestRendering:
    def test_axiom_witness_uses_labels(self):
        cf = ChoiceFunction.from_table(TABLE_CONS_FAIL, 2)
        rendered = render_axiom_report(check_consistency(cf), ("v", "w"))
        assert rendered == {
            "axiom": "consistency",
            "passed": False,
            "witness": {"menu": ["v", "w"], "submenu": ["v"]},
        }

    def test_substitutability_witness_mixes_masks_and_workers(self):
        cf = ChoiceFunction.from_table((0, 0, 2, 1), 2)
        rendered = render_axiom_report(check_substitutability(cf), ("v", "w"))
        assert rendered["witness"] == {"menu": ["v", "w"], "worker": "v", "removed": "w"}

    def test_passing_reports_render_without_witness(self):
        cf = ChoiceFunction.from_orders((LinearOrder((0,)),), 1)
        rendered = render_axiom_report(check_consistency(cf), ("v",))
        assert rendered == {"axiom": "consistency", "passed": True}

    def test_stability_report_rendering(self, reference_market):
        report = check_stable(reference_market, m1(reference_market, {}))
        rendered = render_stability_report(
            report, reference_market.workers, reference_market.firms
        )
        assert rendered == {
            "stable": False,
            "case": "pair-block",
            "witness": {"worker": "w1", "firm": "f1"},
        }

    def test_document_defaults_to_no_indexing(self, reference_market):
        doc = MarketDocument(reference_market)
        assert doc.copy_indexing == {}
        assert "copy_indexing" not in serialize_market(doc.market)


def oracle_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
    ),
    max_leaves=40,
)

# labels that exercise every escape: quotes, backslashes, control
# characters, non-ASCII, an astral character, a lone surrogate, and text
# that looks like the renderer's own separators
_AWKWARD_LABELS = ['"', "\\", "\n", "\x00", "\u00e9", "\U0001f600", "\ud800", ", ", "]", ": "]


class TestRenderJson:
    @settings(max_examples=300)
    @given(_JSON_TREES)
    def test_equals_json_dumps(self, data):
        assert render_json(data) == oracle_json(data)

    @pytest.mark.parametrize(
        "data",
        [
            [],
            {},
            [[]],
            {"a": {}},
            (),
            ["a", 1],
            [None, "a"],
            ["a", ["b"], ("c", "d")],
            [True, False, 0, 1, -1, 2**70, 1.5, float("inf"), float("nan")],
            {"b": 1, "a": [None], "c": {"e": [], "d": "x"}},
        ],
    )
    def test_fixed_trees(self, data):
        assert render_json(data) == oracle_json(data)

    @pytest.mark.parametrize("label", _AWKWARD_LABELS)
    def test_awkward_label(self, label):
        for data in (label, [label], [label, label], {label: [label]}, [[label], None]):
            assert render_json(data) == oracle_json(data)

    def test_awkward_labels_together(self):
        data = {label: list(_AWKWARD_LABELS) for label in _AWKWARD_LABELS}
        assert render_json(data) == oracle_json(data)

    @pytest.mark.parametrize("data", [{1: "a"}, {None: 1}, [{"a": 1, 2: "b"}]])
    def test_non_string_key_raises(self, data):
        with pytest.raises(TypeError):
            render_json(data)

    @pytest.mark.parametrize("which", ["reference", "table"])
    def test_market_file_equals_json_dumps(self, which):
        if which == "reference":
            doc = load_market(REFERENCE_PATH)
        else:
            market = random_market(GenParams(workers=5, firms=2, max_orders=2, seed=3))
            doc = MarketDocument(
                with_first_firm(market, canonicalize(market.choice_functions[0]))
            )
        data = serialize_market(doc.market, doc.copy_indexing)
        assert dump_market(doc) == oracle_json(data) + "\n"
