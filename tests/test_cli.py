"""The command-line surface, driven through main()."""

import json
import sys
from collections import Counter
from functools import cached_property

import pytest

from matchdecomp import (
    ChoiceFunction,
    GenParams,
    MarketDocument,
    build_associated_market,
    canonicalize,
    choices,
    cli,
    correspondence,
    decompose_market,
    decomposition,
    dump_market,
    enumerate_stable,
    load_market,
    random_market,
    serialize_market,
    stability,
    workers_propose,
)
from matchdecomp.cli import main
from matchdecomp.stability import PAIR_BLOCK, StabilityReport

from conftest import (
    GOLDEN_ORDERS_F1,
    GOLDEN_ORDERS_F2,
    LAM_FIRM,
    LAM_WORKER,
    MU_FIRM,
    REFERENCE_PATH,
    TABLE_BOTH_FAIL,
    TABLE_SUBST_FAIL,
    full_scan_classical_stable,
    full_scan_copy_stable,
    full_scan_stable,
    with_first_firm,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out: str) -> dict:
    # trace lines may precede the final report; the report is the last
    # pretty-printed object, which starts at the last unindented "{"
    start = out.rindex("\n{") + 1 if "\n{" in out else 0
    return json.loads(out[start:])


def write_market(path, market) -> str:
    path.write_text(dump_market(MarketDocument(market)))
    return str(path)


def full_scan_output(path: str, concept: str) -> str:
    """What ``enumerate`` prints, with the set taken from a full-scan oracle.

    The copy market is built as the CLI builds it, through
    ``decompose_market`` and the file's copy indexing.
    """
    doc = load_market(path)
    if concept == "stable":
        rendered = [m.render(doc.market) for m in full_scan_stable(doc.market)]
    else:
        assoc = build_associated_market(
            doc.market, decompose_market(doc.market, doc.copy_indexing)
        )
        scan = full_scan_copy_stable if concept == "copy-stable" else full_scan_classical_stable
        rendered = [m.render(assoc) for m in scan(assoc)]
    report = {"concept": concept, "count": len(rendered), "matchings": rendered}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.fixture()
def bad_axiom_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "workers": ["v", "w"],
                "firms": [
                    {
                        "id": "A",
                        "choice": {
                            "kind": "table",
                            "payload": [
                                [[], []],
                                [["v"], []],
                                [["w"], ["w"]],
                                [["v", "w"], ["v"]],
                            ],
                        },
                    }
                ],
                "worker_prefs": {"v": ["A"], "w": ["A"]},
            }
        )
    )
    assert TABLE_BOTH_FAIL == (0, 0, 2, 1)  # the file above, as masks
    return str(path)


class TestValidate:
    def test_reference_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", REFERENCE_PATH)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        for firm in report["firms"]:
            assert firm["path_independence"]["passed"]
            assert firm["law_of_aggregate_demand"]["passed"]

    def test_axiom_failure_exits_2_with_witness(self, capsys, bad_axiom_file):
        code, out, _ = run_cli(capsys, "validate", bad_axiom_file)
        assert code == 2
        report = json.loads(out)
        assert report["ok"] is False
        assert report["firms"][0]["path_independence"]["witness"]

    def test_malformed_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "error" in json.loads(err)

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "nowhere.json"))
        assert code == 1
        assert "error" in json.loads(err)

    @pytest.mark.parametrize(
        "content", [b'{"workers": ["\xff"]}', b"[" * 100_000], ids=["not utf-8", "too deep"]
    )
    def test_unreadable_market_exits_1(self, capsys, tmp_path, content):
        path = tmp_path / "market.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert out == ""
        assert_input_error(code, err)


class TestDecompose:
    def test_explicit_indexing_is_verbatim(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", REFERENCE_PATH)
        assert code == 0
        report = json.loads(out)
        by_id = {f["id"]: f for f in report["firms"]}
        assert by_id["f1"]["indexing"] == "explicit"
        assert by_id["f1"]["orders"] == GOLDEN_ORDERS_F1
        assert by_id["f2"]["orders"] == GOLDEN_ORDERS_F2

    def test_without_indexing_same_sets_lexicographic(self, capsys, tmp_path):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
        del data["copy_indexing"]
        path = tmp_path / "noindex.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0
        report = json.loads(out)
        by_id = {f["id"]: f for f in report["firms"]}
        assert by_id["f2"]["indexing"] == "lexicographic"
        assert sorted(by_id["f1"]["orders"]) == sorted(GOLDEN_ORDERS_F1)
        assert sorted(by_id["f2"]["orders"]) == sorted(GOLDEN_ORDERS_F2)
        assert by_id["f2"]["orders"] == sorted(by_id["f2"]["orders"])


class TestSolve:
    def test_copies_with_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", REFERENCE_PATH, "--proposing", "copies", "--trace"
        )
        assert code == 0
        lines = out.strip().splitlines()
        stages = [json.loads(line) for line in lines if line.startswith('{"')]
        assert [s["stage"] for s in stages] == [1, 2]
        final = last_json(out)
        assert final["stages"] == 2
        held = {c: w for c, w in final["matching"]["by_copy"].items() if w}
        assert held == LAM_FIRM

    def test_firms_is_a_synonym_for_copies(self, capsys):
        code, out, _ = run_cli(capsys, "solve", REFERENCE_PATH, "--proposing", "firms")
        assert code == 0
        assert last_json(out)["proposing"] == "copies"

    def test_workers_proposing(self, capsys):
        code, out, _ = run_cli(capsys, "solve", REFERENCE_PATH, "--proposing", "workers")
        assert code == 0
        final = last_json(out)
        held = {c: w for c, w in final["matching"]["by_copy"].items() if w}
        assert held == LAM_WORKER

    def test_workers_trace_prints_every_stage_of_an_idle_stretch(self, capsys, tmp_path):
        # most of this market's stages reject every offer and are kept as
        # idle stretches; the count and the trace still cover each stage
        path = tmp_path / "m.json"
        code, _, _ = run_cli(
            capsys, "gen", "--workers", "6", "--firms", "3", "--max-orders", "3",
            "--density", "0.8", "--seed", "6", "--out", str(path),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "solve", str(path), "--proposing", "workers", "--trace"
        )
        assert code == 0
        numbers = [json.loads(line)["stage"] for line in out.splitlines() if line.startswith('{"')]
        assert numbers == list(range(1, last_json(out)["stages"] + 1))
        _, trace = workers_propose(build_associated_market(load_market(str(path)).market))
        assert len(trace.records) == 10 and len(numbers) == 97

    def test_no_release_abort_is_a_clean_exit_3(self, capsys, tmp_path):
        # this generated market ends copy-envious when copies never let a
        # hire go; the post-assertion failure must come out as a JSON
        # error with the verification exit code, not a traceback
        path = tmp_path / "m.json"
        code, out, _ = run_cli(
            capsys, "gen", "--workers", "4", "--firms", "2", "--max-orders", "2",
            "--density", "0.8", "--seed", "12", "--out", str(path),
        )
        assert code == 0
        code, out, err = run_cli(
            capsys, "solve", str(path), "--proposing", "workers", "--no-release"
        )
        assert code == 3
        assert json.loads(err)["error"] == (
            "deferred acceptance produced an unstable matching: "
            "copy-envy witness {'copy': 'f2.6', 'envied_copy': 'f2.4'}"
        )
        code, out, _ = run_cli(capsys, "solve", str(path), "--proposing", "workers")
        assert code == 0

    def test_other_runtime_errors_are_not_verification_failures(self, capsys, monkeypatch):
        # an earlier call in the process must not pin the handler's callees
        assert run_cli(capsys, "solve", REFERENCE_PATH)[0] == 0

        def broken(*args, **kwargs):
            raise RuntimeError("a bug, not an unstable outcome")

        monkeypatch.setattr(cli, "copies_propose", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["solve", REFERENCE_PATH])


class TestEnumerate:
    @pytest.mark.parametrize(
        "concept,count",
        [("stable", 4), ("copy-stable", 4), ("stable-star", 4), ("classical", 1)],
    )
    def test_counts(self, capsys, concept, count):
        code, out, _ = run_cli(
            capsys, "enumerate", REFERENCE_PATH, "--concept", concept
        )
        assert code == 0
        report = json.loads(out)
        assert report["count"] == count

    def test_stable_star_is_reported_as_copy_stable(self, capsys):
        _, out, _ = run_cli(
            capsys, "enumerate", REFERENCE_PATH, "--concept", "stable-star"
        )
        assert json.loads(out)["concept"] == "copy-stable"

    def test_unpruned_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", REFERENCE_PATH, "--concept", "copy-stable"
        )
        assert code == 0
        assert out == full_scan_output(REFERENCE_PATH, "copy-stable")

    @pytest.mark.parametrize("concept", ["stable", "copy-stable", "classical"])
    @pytest.mark.parametrize("which", ["reference", "not-substitutable", "dense"])
    def test_unpruned_output_is_identical(self, capsys, tmp_path, concept, which):
        # the second market's first firm is a table that is not
        # substitutable: the firm level keeps its every option, and the
        # copy level exits 2 before any search; the dense k=4 market has
        # three stable and three copy-stable matchings over ten copies
        path = REFERENCE_PATH
        if which == "not-substitutable":
            market = random_market(GenParams(workers=3, firms=2, max_orders=2, seed=4))
            table = choices.ChoiceFunction.from_table(TABLE_SUBST_FAIL, 3)
            path = write_market(tmp_path / "m.json", with_first_firm(market, table))
        elif which == "dense":
            market = random_market(
                GenParams(workers=4, firms=3, max_orders=3, density=1.0, seed=46)
            )
            path = write_market(tmp_path / "dense.json", market)
        code, out, err = run_cli(capsys, "enumerate", path, "--concept", concept)
        if which == "not-substitutable" and concept != "stable":
            assert (code, out) == (2, "")
            assert "error" in json.loads(err)
        else:
            assert (code, out, err) == (0, full_scan_output(path, concept), "")

    def test_candidate_cap_bounds_the_pruned_product(
        self, capsys, monkeypatch, tmp_path, sparse_market
    ):
        # 4 search nodes over the one firm each worker accepts, each
        # charging that firm and staying unmatched: 8 placements tried
        path = write_market(tmp_path / "sparse.json", sparse_market)
        monkeypatch.setenv("MATCHDECOMP_MAX_CANDIDATES", "8")
        code, out, _ = run_cli(capsys, "enumerate", path, "--concept", "stable")
        assert code == 0
        assert json.loads(out)["count"] == 1
        monkeypatch.setenv("MATCHDECOMP_MAX_CANDIDATES", "7")
        code, out, err = run_cli(capsys, "enumerate", path, "--concept", "stable")
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "8 placements tried exceed enumeration cap 7; the search "
            "stopped there, so 8 is a lower bound on the placements it needs"
        }

    def test_stable_set_contents(self, capsys):
        _, out, _ = run_cli(capsys, "enumerate", REFERENCE_PATH, "--concept", "stable")
        report = json.loads(out)
        hires = [
            {f: sorted(ws) for f, ws in m["by_firm"].items() if ws}
            for m in report["matchings"]
        ]
        assert hires[0] == MU_FIRM


class TestVerify:
    def test_reference_verifies(self, capsys):
        code, out, _ = run_cli(capsys, "verify", REFERENCE_PATH)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["correspondence"]["stable_count"] == 4
        assert len(report["correspondence"]["pairs"]) == 4
        assert report["count_invariance"]["verdict"] == "pass"
        assert report["count_invariance"]["copies_filled_per_matching"] == [[2, 2]] * 4

    def test_a_broken_correspondence_exits_3(self, capsys, monkeypatch):
        # the copy-stable set loses one matching: its stable partner's split
        # image is then missing, and the two counts differ
        enumerate_copy_stable = correspondence.enumerate_copy_stable
        monkeypatch.setattr(
            correspondence,
            "enumerate_copy_stable",
            lambda *args, **kwargs: enumerate_copy_stable(*args, **kwargs)[1:],
        )
        code, out, err = run_cli(capsys, "verify", REFERENCE_PATH)
        assert (code, err) == (3, "")
        report = json.loads(out)
        assert report["ok"] is False
        assert report["correspondence"]["passed"] is False
        assert report["correspondence"]["problems"] == [
            "split image (0, 3, 6, 9) is not copy-stable",
            "4 stable vs 3 copy-stable matchings",
        ]
        assert report["correspondence"]["copy_stable_count"] == 3


def assert_input_error(code, err):
    assert code == 1
    report = json.loads(err)
    assert list(report) == ["error"]
    assert isinstance(report["error"], str)


class TestCheck:
    @pytest.mark.parametrize(
        "matching",
        [{"f9": ["w1"]}, {"f1": ["w9"]}, [["w1", "w2"]], {"f1": "w1"}, {"f1": [1]}],
        ids=["unknown firm", "unknown worker", "list", "string", "number"],
    )
    def test_malformed_matching_exits_1(self, capsys, tmp_path, matching):
        path = tmp_path / "matching.json"
        path.write_text(json.dumps(matching))
        code, out, err = run_cli(capsys, "check", REFERENCE_PATH, str(path))
        assert out == ""
        assert_input_error(code, err)

    @pytest.mark.parametrize(
        "content", [b'{"f1": ["\xff"]}', b"[" * 100_000], ids=["not utf-8", "too deep"]
    )
    def test_unreadable_matching_exits_1(self, capsys, tmp_path, content):
        path = tmp_path / "matching.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "check", REFERENCE_PATH, str(path))
        assert out == ""
        assert_input_error(code, err)

    def test_stable_matching_accepted(self, capsys, tmp_path):
        path = tmp_path / "matching.json"
        path.write_text(json.dumps(MU_FIRM))
        code, out, _ = run_cli(capsys, "check", REFERENCE_PATH, str(path))
        assert code == 0
        assert json.loads(out) == {"stable": True}

    def test_blocked_matching_exits_3(self, capsys, tmp_path):
        path = tmp_path / "matching.json"
        path.write_text(json.dumps({"f1": ["w1", "w4"]}))
        code, out, _ = run_cli(capsys, "check", REFERENCE_PATH, str(path))
        assert code == 3
        report = json.loads(out)
        assert report["stable"] is False
        assert report["case"] == "firm-block"


class TestPathIndependenceRequirement:
    # decompose, solve, the copy-level enumerations and verify build the
    # copy market and need path independence; validate reports it; the
    # firm-level enumeration and check use the choice functions directly
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["validate"], 2),
            (["decompose"], 2),
            (["solve"], 2),
            (["solve", "--proposing", "workers"], 2),
            (["enumerate", "--concept", "copy-stable"], 2),
            (["enumerate", "--concept", "classical"], 2),
            (["verify"], 2),
            (["enumerate", "--concept", "stable"], 0),
        ],
    )
    def test_exit_codes(self, capsys, bad_axiom_file, argv, expected):
        code, _, _ = run_cli(capsys, argv[0], bad_axiom_file, *argv[1:])
        assert code == expected

    def test_check_finds_a_firm_block_without_it(self, capsys, tmp_path, bad_axiom_file):
        path = tmp_path / "matching.json"
        path.write_text(json.dumps({"A": ["v"]}))
        code, out, _ = run_cli(capsys, "check", bad_axiom_file, str(path))
        assert code == 3
        assert json.loads(out)["case"] == "firm-block"


    @pytest.mark.parametrize(
        "argv",
        [["validate"], ["check"], ["enumerate", "--concept", "stable"]],
        ids=["validate", "check", "enumerate stable"],
    )
    def test_copy_indexing_of_a_failing_firm_exits_2(
        self, capsys, tmp_path, bad_axiom_file, argv
    ):
        # a copy_indexing entry is matched against its firm's decomposition
        # on every load, which needs path independence
        with open(bad_axiom_file, encoding="utf-8") as fh:
            data = json.load(fh)
        data["copy_indexing"] = {"A": [["v"]]}
        market = tmp_path / "indexed.json"
        market.write_text(json.dumps(data))
        matching = tmp_path / "matching.json"
        matching.write_text("{}")
        extra = [str(matching)] if argv[0] == "check" else argv[1:]
        code, out, err = run_cli(capsys, argv[0], str(market), *extra)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "decomposition requires a path-independent choice function"
        }


class TestOncePerFirm:
    """Each copy-level command walks, verifies and axiom-checks each firm
    exactly once, whether the file pins its copy indexing or not."""

    COUNTED = (
        (decomposition, "decompose"),
        (decomposition, "verify_decomposition"),
        (choices, "check_path_independence"),
    )

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = {name: [] for _, name in self.COUNTED}
        for home, name in self.COUNTED:
            original = getattr(home, name)

            def counting(cf, *args, _name=name, _original=original, **kwargs):
                calls[_name].append(cf)
                return _original(cf, *args, **kwargs)

            for module in list(sys.modules.values()):
                if module is not None and module.__name__.startswith("matchdecomp"):
                    if getattr(module, name, None) is original:
                        monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.fixture(params=["indexed", "unindexed"])
    def market_path(self, request, capsys, tmp_path):
        if request.param == "indexed":
            return REFERENCE_PATH
        path = tmp_path / "m.json"
        code, _, _ = run_cli(
            capsys, "gen", "--workers", "4", "--firms", "3", "--max-orders", "2",
            "--seed", "5", "--out", str(path),
        )
        assert code == 0
        return str(path)

    @staticmethod
    def per_firm(calls, name):
        return sorted(Counter(map(id, calls[name])).values())

    @pytest.fixture()
    def passes(self, monkeypatch):
        """Each choice function whose cover-pair pass runs, once per run."""
        evaluated = []
        original = ChoiceFunction._cover_pair_failures.func

        def counting(cf):
            evaluated.append(cf)
            return original(cf)

        kept = cached_property(counting)
        kept.__set_name__(ChoiceFunction, "_cover_pair_failures")
        monkeypatch.setattr(ChoiceFunction, "_cover_pair_failures", kept)
        return evaluated

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose"],
            ["solve"],
            ["enumerate", "--concept", "copy-stable"],
            ["enumerate", "--concept", "classical"],
            ["verify"],
        ],
        ids=["decompose", "solve", "copy-stable", "classical", "verify"],
    )
    def test_copy_level_commands(self, capsys, calls, market_path, argv):
        with open(market_path, encoding="utf-8") as fh:
            n_firms = len(json.load(fh)["firms"])
        code, _, _ = run_cli(capsys, argv[0], market_path, *argv[1:])
        assert code == 0
        for name in calls:
            assert self.per_firm(calls, name) == [1] * n_firms, name

    @pytest.mark.parametrize("command", ["validate", "check"])
    def test_firm_level_commands_verify_nothing(
        self, capsys, tmp_path, calls, market_path, command
    ):
        matching = tmp_path / "matching.json"
        matching.write_text("{}")
        argv = [command, market_path] + ([str(matching)] if command == "check" else [])
        code, _, _ = run_cli(capsys, *argv)
        assert code in (0, 3)  # check may find the empty matching blocked
        assert calls["verify_decomposition"] == []

    def test_validate_scans_each_indexed_firm_once(self, capsys, passes):
        # the reference firms are subset rankings with a copy indexing:
        # loading decomposes them, and the report reuses that verdict
        code, _, _ = run_cli(capsys, "validate", REFERENCE_PATH)
        assert code == 0
        assert len(passes) == 2

    @pytest.mark.parametrize("argv", [["verify"], ["enumerate", "--concept", "stable"]])
    @pytest.mark.parametrize("which", ["reference", "table"])
    def test_substitutability_is_scanned_once_per_firm(
        self, capsys, tmp_path, passes, argv, which
    ):
        # the firm-level cut reads the pass that path independence keeps;
        # an orders firm is substitutable without a scan
        if which == "reference":
            path, expected = REFERENCE_PATH, [1, 1]
        else:
            market = random_market(GenParams(workers=4, firms=2, max_orders=2, seed=3))
            table = canonicalize(market.choice_functions[0])
            path, expected = write_market(tmp_path / "m.json", with_first_firm(market, table)), [1]
        code, _, _ = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == 0
        assert self.per_firm({"passes": passes}, "passes") == expected


def _unknown_worker(tmp_path, monkeypatch, bad_axiom_file):
    path = tmp_path / "matching.json"
    path.write_text(json.dumps({"f1": ["w9"]}))
    return ["check", REFERENCE_PATH, str(path)]


def _no_path_independence(tmp_path, monkeypatch, bad_axiom_file):
    return ["solve", bad_axiom_file]


def _failed_classical_closing_check(tmp_path, monkeypatch, bad_axiom_file):
    monkeypatch.setattr(
        stability,
        "check_classical_stable",
        lambda assoc, matching: StabilityReport(
            False, PAIR_BLOCK, {"copy": 1, "worker": 0}
        ),
    )
    return ["enumerate", REFERENCE_PATH, "--concept", "classical"]


def _worker_cap(tmp_path, monkeypatch, bad_axiom_file):
    monkeypatch.setenv("MATCHDECOMP_MAX_WORKERS", "2")
    return ["validate", REFERENCE_PATH]


class TestErrorExitCodes:
    @pytest.mark.parametrize(
        "setup, code, error",
        [
            (_unknown_worker, 1, "unknown worker 'w9'"),
            (
                _no_path_independence,
                2,
                "decomposition requires a path-independent choice function",
            ),
            (
                _failed_classical_closing_check,
                3,
                "break-marriage produced an unstable matching: pair-block "
                "witness {'copy': 'f1.2', 'worker': 'w1'}",
            ),
            (
                _worker_cap,
                4,
                "worker universe of 4 exceeds subset-enumeration cap 2",
            ),
        ],
        ids=["invalid input", "axiom", "closing check", "cap"],
    )
    def test_each_error_kind_has_its_exit_code(
        self, capsys, tmp_path, monkeypatch, bad_axiom_file, setup, code, error
    ):
        argv = setup(tmp_path, monkeypatch, bad_axiom_file)
        assert run_cli(capsys, *argv) == (code, "", json.dumps({"error": error}) + "\n")


class TestGen:
    def test_gen_writes_a_loadable_market(self, capsys, tmp_path):
        out_path = tmp_path / "market.json"
        code, _, _ = run_cli(
            capsys, "gen", "--workers", "3", "--firms", "2", "--seed", "7",
            "--out", str(out_path),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "validate", str(out_path))
        assert code == 0

    def test_gen_to_stdout_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "gen", "--workers", "3", "--firms", "2", "--seed", "1")
        _, second, _ = run_cli(capsys, "gen", "--workers", "3", "--firms", "2", "--seed", "1")
        assert first == second
        json.loads(first)

    def test_jmax_spelling_is_accepted(self, capsys):
        _, a, _ = run_cli(
            capsys, "gen", "--workers", "3", "--firms", "1", "--jmax", "2", "--seed", "4"
        )
        _, b, _ = run_cli(
            capsys, "gen", "--workers", "3", "--firms", "1", "--max-orders", "2", "--seed", "4"
        )
        assert a == b


# every subcommand that prints a report; a check argv names its matching
_REPORT_COMMANDS = [
    ["validate"],
    ["decompose"],
    ["solve", "--proposing", "copies"],
    ["solve", "--proposing", "copies", "--trace"],
    ["solve", "--proposing", "workers"],
    ["solve", "--proposing", "workers", "--trace"],
    ["enumerate", "--concept", "stable"],
    ["enumerate", "--concept", "copy-stable"],
    ["enumerate", "--concept", "stable-star"],
    ["enumerate", "--concept", "classical"],
    ["verify"],
    ["check", "stable"],
    ["check", "empty"],
]
_REPORT_IDS = [" ".join(argv) for argv in _REPORT_COMMANDS]
# the CI market of more than 1,000 copies
_LARGE = GenParams(workers=9, firms=3, max_orders=3, density=0.8, seed=1)
_LARGE_ARGV = [
    "--workers", "9", "--firms", "3", "--max-orders", "3", "--density", "0.8", "--seed", "1"
]


def oracle_json(data) -> str:
    """The canonical form every indented document must take."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def canonical_markets(tmp_path_factory):
    root = tmp_path_factory.mktemp("canonical")
    small = random_market(GenParams(workers=4, firms=2, max_orders=2, seed=3))
    table = with_first_firm(small, canonicalize(small.choice_functions[0]))
    return {
        "reference": REFERENCE_PATH,
        "large": write_market(root / "large.json", random_market(_LARGE)),
        "table": write_market(root / "table.json", table),
    }


def report_argv(argv, market_path, tmp_path) -> list[str]:
    """``argv`` on ``market_path``, with a check's matching file written:
    the first stable matching, or the empty one."""
    if argv[0] != "check":
        return [argv[0], market_path, *argv[1:]]
    market = load_market(market_path).market
    if argv[1] == "stable":
        matching = enumerate_stable(market)[0].render(market)["by_firm"]
    else:
        matching = {}
    path = tmp_path / f"{argv[1]}.json"
    path.write_text(json.dumps(matching))
    return ["check", market_path, str(path)]


def report_code(argv) -> int:
    return 3 if argv == ["check", "empty"] else 0


class TestCanonicalOutput:
    """Every indented document is ``json.dumps(indent=2, sort_keys=True)``
    of itself, byte for byte; README's "Output format" spells this out."""

    @pytest.mark.parametrize("argv", _REPORT_COMMANDS, ids=_REPORT_IDS)
    @pytest.mark.parametrize("market", ["reference", "large", "table"])
    def test_report_is_canonical(self, capsys, tmp_path, canonical_markets, market, argv):
        full_argv = report_argv(argv, canonical_markets[market], tmp_path)
        code, out, _ = run_cli(capsys, *full_argv)
        assert code == report_code(argv)
        # trace lines are compact, so no "{" but the report's ends a line
        start = out.index("{\n")
        assert (start > 0) == ("--trace" in argv)
        document = out[start:]
        assert document == oracle_json(json.loads(document))

    def test_gen_is_canonical(self, capsys):
        code, out, _ = run_cli(capsys, "gen", *_LARGE_ARGV)
        assert code == 0
        assert out == oracle_json(serialize_market(random_market(_LARGE)))

    def test_no_command_uses_the_pure_python_encoder(
        self, capsys, tmp_path, monkeypatch
    ):
        # json.dumps with indent builds its encoder here; compact dumps do not
        def python_encoder(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was used")

        runs = [
            (report_argv(argv, REFERENCE_PATH, tmp_path), report_code(argv))
            for argv in _REPORT_COMMANDS
        ]
        runs.append((["gen", *_LARGE_ARGV], 0))
        monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
        for argv, expected in runs:
            code, _, _ = run_cli(capsys, *argv)
            assert code == expected, argv


class TestCaps:
    def test_cap_override_via_environment(self, capsys, monkeypatch):
        # caps are read on every call, not once per process
        assert run_cli(capsys, "validate", REFERENCE_PATH)[0] == 0
        monkeypatch.setenv("MATCHDECOMP_MAX_WORKERS", "2")
        code, _, err = run_cli(capsys, "validate", REFERENCE_PATH)
        assert code == 4
        assert "error" in json.loads(err)
        monkeypatch.delenv("MATCHDECOMP_MAX_WORKERS")
        assert run_cli(capsys, "validate", REFERENCE_PATH)[0] == 0

    @pytest.mark.parametrize("value", ["x", "0"])
    def test_bad_cap_value_is_invalid_input(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MATCHDECOMP_MAX_WORKERS", value)
        code, out, err = run_cli(capsys, "validate", REFERENCE_PATH)
        assert out == ""
        assert_input_error(code, err)

    @pytest.mark.parametrize(
        "gen, argv",
        [
            (["--workers", "6", "--firms", "3", "--max-orders", "3", "--density",
              "0.8"], ["verify"]),
            (["--workers", "16", "--firms", "4", "--max-orders", "1", "--density",
              "0.5"], ["enumerate", "--concept", "stable"]),
        ],
    )
    def test_candidate_cap_counts_work_not_the_product(self, capsys, tmp_path, gen, argv):
        # the products of the options, 4,551,750,000 for the first market's
        # copy-stable search and 29,491,200 for the second, are far past the
        # default cap; the searches try 113 and 141 placements
        path = str(tmp_path / "m.json")
        assert run_cli(capsys, "gen", *gen, "--seed", "2", "--out", path)[0] == 0
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert (code, err) == (0, "")
        assert json.loads(out)

    @pytest.mark.parametrize("workers, max_orders", [("8", "3"), ("10", "2")])
    def test_classical_set_at_scale(
        self, capsys, monkeypatch, tmp_path, workers, max_orders
    ):
        # a leaf search over settled pairs tried 1,131,955 placements on the
        # k=8 market and ran for over a minute on the k=10 one; Gale-Shapley
        # and break-marriage make 36 and 37 proposals
        path = str(tmp_path / "m.json")
        gen = ["--workers", workers, "--firms", "3", "--max-orders", max_orders]
        assert run_cli(capsys, "gen", *gen, "--density", "0.8", "--seed", "2",
                       "--out", path)[0] == 0
        monkeypatch.setenv("MATCHDECOMP_MAX_CANDIDATES", "10000")
        code, out, err = run_cli(capsys, "enumerate", path, "--concept", "classical")
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] == 1

    def test_a_stopped_search_reports_a_lower_bound(self, capsys, monkeypatch):
        # each node of the reference search charges 3 placements
        monkeypatch.setenv("MATCHDECOMP_MAX_CANDIDATES", "20")
        code, out, err = run_cli(
            capsys, "enumerate", REFERENCE_PATH, "--concept", "copy-stable"
        )
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "21 placements tried exceed enumeration cap 20; the search "
            "stopped there, so 21 is a lower bound on the placements it needs"
        }

    def test_reference_copy_stable_search_tries_33_placements(
        self, capsys, monkeypatch
    ):
        # a work guard: the cap passes at the measured count, not one below
        argv = ["enumerate", REFERENCE_PATH, "--concept", "copy-stable"]
        monkeypatch.setenv("MATCHDECOMP_MAX_CANDIDATES", "33")
        code, out, _ = run_cli(capsys, *argv)
        assert (code, json.loads(out)["count"]) == (0, 4)
        monkeypatch.setenv("MATCHDECOMP_MAX_CANDIDATES", "32")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (4, "")
        assert json.loads(err)["error"].startswith("33 placements tried exceed")

    @pytest.mark.parametrize(
        "argv", [["enumerate", "--concept", "copy-stable"], ["verify"]]
    )
    def test_copy_stable_search_over_490_copies(self, capsys, monkeypatch, tmp_path, argv):
        # a work guard: branching each worker over the copies it lists tried
        # millions of placements on this k=8 market; over firms it tries 87
        path = str(tmp_path / "m.json")
        gen = ["--workers", "8", "--firms", "3", "--max-orders", "3", "--density", "0.8"]
        assert run_cli(capsys, "gen", *gen, "--seed", "1", "--out", path)[0] == 0
        monkeypatch.setenv("MATCHDECOMP_MAX_CANDIDATES", "1000")
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert (code, err) == (0, "")
        assert json.loads(out)


class TestParserReuse:
    """Repeated main() calls in one process share one parser, not state."""

    def test_the_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        for argv in (["validate", REFERENCE_PATH], ["solve", REFERENCE_PATH]) * 2:
            assert run_cli(capsys, *argv)[0] == 0
        assert built == [1]

    def test_build_parser_returns_a_fresh_parser(self):
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert cli._parser() is cli._parser()
        assert first is not cli._parser()
        first.set_defaults(func=None)
        assert second.parse_args(["validate", REFERENCE_PATH]).func is not None

    @pytest.mark.parametrize(
        "argv,flag,name,keyword",
        [
            (["solve", "--proposing", "copies"], "--no-reauthorize",
             "copies_propose", "reauthorize"),
            (["solve", "--proposing", "workers"], "--no-release",
             "workers_propose", "release"),
        ],
    )
    def test_a_flag_does_not_outlive_its_call(
        self, capsys, monkeypatch, argv, flag, name, keyword
    ):
        seen = []
        original = getattr(cli, name)

        def recording(*args, **kwargs):
            seen.append(kwargs[keyword])
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, recording)
        argv = [argv[0], REFERENCE_PATH, *argv[1:]]
        run_cli(capsys, *argv, flag)
        assert run_cli(capsys, *argv)[0] == 0
        assert seen == [False, True]

    @pytest.mark.parametrize(
        "bad,message",
        [
            (["solve", REFERENCE_PATH, "--bogus"], "unrecognized arguments: --bogus"),
            (["solve", REFERENCE_PATH, "--proposing", "nobody"], "invalid choice"),
            (["gen", "--workers", "x", "--firms", "1"], "invalid int value"),
            ([], "the following arguments are required"),
        ],
    )
    def test_a_usage_error_leaves_the_next_call_intact(self, capsys, bad, message):
        argv = ["solve", REFERENCE_PATH, "--proposing", "workers", "--trace"]
        before = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as caught:
            main(bad)
        assert caught.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: matchdecomp") and message in err
        assert run_cli(capsys, *argv) == before

    def test_help_leaves_the_next_call_intact(self, capsys):
        argv = ["enumerate", REFERENCE_PATH, "--concept", "classical"]
        before = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as caught:
            main(["enumerate", "--help"])
        assert caught.value.code == 0
        assert capsys.readouterr().out.startswith("usage: matchdecomp enumerate")
        assert run_cli(capsys, *argv) == before
