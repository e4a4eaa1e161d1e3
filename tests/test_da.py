"""Deferred acceptance in both directions, with full trace checks."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdecomp import (
    ChoiceFunction,
    DaStage,
    DaTrace,
    DeferredAcceptanceError,
    GenParams,
    IdleStretch,
    LinearOrder,
    ManyToOneMarket,
    OneToOneMatching,
    build_associated_market,
    check_copy_stable,
    check_stable,
    copies_propose,
    merge_matching,
    random_market,
    trace_json_lines,
    workers_propose,
)
from matchdecomp.bitsets import bit, iter_indices
from matchdecomp.stability import require_stable

from conftest import (
    LAM_FIRM,
    LAM_WORKER,
    MU_FIRM,
    MU_WORKER,
    copy_sets,
    family_association,
    firm_sets,
)


def stage_by_stage_workers_propose(assoc, *, release=True):
    """Test oracle: worker-proposing DA that runs and records every stage.

    The library takes each run of stages in which every offer is rejected
    in one step; this loop plays them one at a time, building a
    :class:`DaStage` for each.
    """
    k = len(assoc.source.workers)
    n_copies = len(assoc.copies)
    crank = assoc.copy_rank
    cempty = assoc.copy_empty_rank
    firm_of = assoc.firm_of_copy
    orders = assoc.copies
    prefs = assoc.worker_prefs

    held_by_worker = [None] * k
    held_by_copy = [None] * n_copies
    held = [0] * len(assoc.source.firms)
    next_pos = [0] * k
    pool = list(range(k))
    stages = []

    while True:
        number = len(stages) + 1
        if number > n_copies * k + 2:
            raise DeferredAcceptanceError("deferred acceptance failed to terminate")
        screen = held[:]
        offers = {}
        for w in pool:
            pos = next_pos[w]
            if pos >= len(prefs[w]):
                continue
            target = prefs[w][pos]
            next_pos[w] = pos + 1
            offers.setdefault(target, []).append(w)

        valid_offers = {}
        rejections = {}
        rejected = []
        hiring = set()
        for c in sorted(offers):
            candidates = offers[c]
            row = crank[c]
            f = firm_of[c]
            top = orders[c].best_in(screen[f])
            valid = [w for w in candidates if top is None or row[w] < row[top]]
            valid_offers[c] = tuple(valid)

            previous = held_by_copy[c]
            best_rank = cempty[c] if previous is None else row[previous]
            chosen = None
            for w in valid:
                if row[w] < best_rank:
                    best_rank = row[w]
                    chosen = w
            if chosen is None:
                rejected_here = candidates
            else:
                rejected_here = [w for w in candidates if w != chosen]
                if previous is not None:
                    rejected_here = sorted(rejected_here + [previous])
                    held_by_worker[previous] = None
                    held[f] ^= bit(previous)
                held_by_copy[c] = chosen
                held_by_worker[chosen] = c
                held[f] |= bit(chosen)
                hiring.add(f)
            if rejected_here:
                rejections[c] = tuple(rejected_here)
                rejected.extend(rejected_here)

        if release:
            envious = sorted(
                (held_by_worker[w], w)
                for f in hiring
                for w in iter_indices(held[f])
                if orders[held_by_worker[w]].best_in(held[f]) != w
            )
            for c, dropped in envious:
                held_by_copy[c] = None
                held_by_worker[dropped] = None
                held[firm_of[c]] ^= bit(dropped)
                rejections[c] = tuple(sorted(rejections.get(c, ()) + (dropped,)))
                rejected.append(dropped)

        stages.append(
            DaStage(
                number,
                {c: tuple(ws) for c, ws in offers.items()},
                rejections,
                tuple(held_by_worker),
                n_copies,
                valid_offers=valid_offers,
            )
        )
        if not rejected:
            break
        pool = sorted(set(rejected))

    result = stages[-1].matching
    require_stable(check_copy_stable(assoc, result), assoc, "deferred acceptance")
    return result, DaTrace("workers", tuple(stages))


def offers_by_label(assoc, stage, receiver_labels, proposer_labels):
    return {
        receiver_labels[r]: [proposer_labels[p] for p in ps]
        for r, ps in stage.offers.items()
    }


class TestCopiesPropose:
    def test_reference_run(self, reference_assoc):
        workers = reference_assoc.source.workers
        labels = reference_assoc.copy_labels
        final, trace = copies_propose(reference_assoc)

        assert copy_sets(reference_assoc, final) == LAM_FIRM
        assert len(trace.stages) == 2
        first, second = trace.stages

        assert offers_by_label(reference_assoc, first, workers, labels) == {
            "w1": ["f1.1", "f1.2", "f1.3"],
            "w2": ["f1.4", "f1.5", "f1.6"],
            "w3": ["f2.1", "f2.2", "f2.3"],
            "w4": ["f2.4", "f2.5", "f2.6"],
        }
        assert {
            workers[w]: [labels[c] for c in cs] for w, cs in first.rejections.items()
        } == {
            "w1": ["f1.2", "f1.3"],
            "w2": ["f1.5", "f1.6"],
            "w3": ["f2.2", "f2.3"],
            "w4": ["f2.5", "f2.6"],
        }
        assert all(first.authorized.values())
        assert len(first.authorized) == 12

        # every rejected copy would now have to displace a sibling's better
        # hire, so nobody is allowed to offer again and the run ends
        assert second.offers == {}
        assert second.rejections == {}
        assert set(second.authorized) == {
            labels.index(x)
            for x in ("f1.2", "f1.3", "f1.5", "f1.6", "f2.2", "f2.3", "f2.5", "f2.6")
        }
        assert not any(second.authorized.values())

    def test_strict_pool_reading_agrees_on_the_reference(self, reference_assoc):
        default, _ = copies_propose(reference_assoc)
        strict, _ = copies_propose(reference_assoc, reauthorize=False)
        assert default == strict

    def test_reentry_rescues_a_market_the_strict_pool_strands(self):
        # f2's third copy gets blocked by a sibling hire that is displaced
        # in the same stage; dropping the copy for good leaves a blocking
        # pair behind, re-checking next stage places it
        market = random_market(
            GenParams(workers=4, firms=2, max_orders=3, density=0.8, seed=107)
        )
        assoc = family_association(market)
        final, _ = copies_propose(assoc)
        assert check_copy_stable(assoc, final).stable
        with pytest.raises(RuntimeError, match="unstable") as caught:
            copies_propose(assoc, reauthorize=False)
        assert isinstance(caught.value, DeferredAcceptanceError)

    def test_merged_final_is_indexing_invariant(self, reference_assoc_lex, reference_market):
        final, _ = copies_propose(reference_assoc_lex)
        assert firm_sets(reference_market, merge_matching(reference_assoc_lex, final)) == MU_FIRM

    def test_single_pair_market(self):
        cf = ChoiceFunction.from_orders((LinearOrder((0,)),), 1)
        market = ManyToOneMarket(("w",), ("A",), (cf,), ((0,),))
        assoc = family_association(market)
        final, trace = copies_propose(assoc)
        assert final.by_worker == (0,)
        assert len(trace.stages) == 1


class TestWorkersPropose:
    def test_reference_run(self, reference_assoc):
        workers = reference_assoc.source.workers
        labels = reference_assoc.copy_labels
        final, trace = workers_propose(reference_assoc)

        assert copy_sets(reference_assoc, final) == LAM_WORKER
        assert len(trace.stages) == 2
        first, second = trace.stages

        assert offers_by_label(reference_assoc, first, labels, workers) == {
            "f1.1": ["w3", "w4"],
            "f2.1": ["w1", "w2"],
        }
        # nobody holds anything yet, so all offers are valid; each top copy
        # keeps its order's favourite and rejects the other worker
        assert first.valid_offers == first.offers
        assert {
            labels[c]: [workers[w] for w in ws] for c, ws in first.rejections.items()
        } == {"f1.1": ["w4"], "f2.1": ["w1"]}

        assert offers_by_label(reference_assoc, second, labels, workers) == {
            "f1.2": ["w4"],
            "f2.2": ["w1"],
        }
        assert second.rejections == {}

    def test_merged_final_is_indexing_invariant(self, reference_assoc_lex, reference_market):
        final, _ = workers_propose(reference_assoc_lex)
        assert firm_sets(reference_market, merge_matching(reference_assoc_lex, final)) == MU_WORKER

    def test_no_release_reading_agrees_on_the_reference(self, reference_assoc):
        default, _ = workers_propose(reference_assoc)
        strict, _ = workers_propose(reference_assoc, release=False)
        assert default == strict

    def test_release_rescues_a_market_the_one_way_screen_misses(self):
        # the screen only guards the receiving copy's own ranking, so f1.1
        # may take a worker its sibling f1.2 ranks above f1.2's own hire;
        # keeping that hire put ends copy-envious, releasing it lets the
        # run finish on the market's unique copy-stable matching
        market = random_market(
            GenParams(workers=4, firms=2, max_orders=4, density=0.9, seed=406)
        )
        assoc = family_association(market)
        final, _ = workers_propose(assoc)
        assert check_copy_stable(assoc, final).stable
        with pytest.raises(RuntimeError, match="unstable") as caught:
            workers_propose(assoc, release=False)
        assert isinstance(caught.value, DeferredAcceptanceError)

    def test_an_unranked_offer_stays_valid_while_no_held_worker_is_ranked(self):
        # f1.1 ranks w1, w4, w3 only; nothing is held in stage 1, so w2's
        # offer passes the screen and is then rejected, not screened out
        market = random_market(
            GenParams(workers=4, firms=2, max_orders=3, density=0.8, seed=1)
        )
        assoc = build_associated_market(market)
        _, trace = workers_propose(assoc)
        labels, workers = assoc.copy_labels, market.workers
        f11 = labels.index("f1.1")
        assert [workers[w] for w in assoc.copies[f11].ranking] == ["w1", "w4", "w3"]
        first = trace.stages[0]
        assert [workers[w] for w in first.valid_offers[f11]] == ["w2", "w4"]
        assert [workers[w] for w in first.rejections[f11]] == ["w2"]

    def test_worker_with_empty_list_stays_single(self):
        cf = ChoiceFunction.from_orders((LinearOrder((0, 1)),), 2)
        market = ManyToOneMarket(("v", "w"), ("A",), (cf,), ((0,), ()))
        assoc = family_association(market)
        final, _ = workers_propose(assoc)
        assert final.by_worker == (0, None)


def _oracle_families():
    rng = random.Random(2021)
    for _ in range(40):
        yield GenParams(
            workers=rng.randint(2, 9),
            firms=rng.randint(1, 4),
            max_orders=rng.randint(1, 3),
            density=rng.choice((0.3, 0.5, 0.8, 1.0)),
            seed=rng.randrange(10**6),
        )
    yield GenParams(workers=9, firms=3, max_orders=3, density=0.8, seed=1)


def _outcome(run, assoc, release):
    try:
        final, trace = run(assoc, release=release)
    except DeferredAcceptanceError as exc:
        return str(exc)
    return final.by_worker, trace.stage_count, trace_json_lines(assoc, trace)


@pytest.mark.parametrize("release", [True, False])
@pytest.mark.parametrize(
    "params",
    list(_oracle_families()),
    ids=lambda p: f"k{p.workers}-f{p.firms}-o{p.max_orders}-d{p.density}-s{p.seed}",
)
def test_workers_propose_matches_the_stage_by_stage_oracle(params, release):
    assoc = build_associated_market(random_market(params))
    assert _outcome(workers_propose, assoc, release) == _outcome(
        stage_by_stage_workers_propose, assoc, release
    )


class TestIdleStretches:
    """Runs of all-rejected stages are kept whole and expanded on read."""

    @pytest.fixture()
    def assoc(self):
        # every firm has one copy that ranks v alone; v lists A, w lists
        # A, B, C and x lists B, A, so after stage 1 only v is ever hired
        cf = ChoiceFunction.from_orders((LinearOrder((0,)),), 3)
        market = ManyToOneMarket(
            ("v", "w", "x"), ("A", "B", "C"), (cf, cf, cf), ((0,), (0, 1, 2), (1, 0))
        )
        return family_association(market)

    def test_a_stretch_ends_when_every_pool_worker_runs_out(self, assoc):
        final, trace = workers_propose(assoc)
        first, stretch, last = trace.records
        assert isinstance(first, DaStage) and first.number == 1
        assert stretch == IdleStretch(2, 2, (1, 2), (1, 1), (0, None, None), assoc)
        assert last.number == 4 and last.offers == {} and last.rejections == {}
        assert final is last.matching
        assert final.by_worker == (0, None, None)
        assert trace.stage_count == len(trace.stages) == 4
        # x runs out after stage 2 and w after stage 3; the run then ends
        # on the stage without offers
        assert [s.offers for s in trace.stages[1:]] == [
            {1: (1,), 0: (2,)},
            {2: (1,)},
            {},
        ]
        assert trace.stages == stage_by_stage_workers_propose(assoc)[1].stages

    def test_an_idle_offer_to_a_pickless_copy_passes_the_screen(self, assoc):
        # B.1 and C.1 hold nothing, so w's offers pass their screens and
        # are rejected only because neither copy ranks w; A.1 holds v, so
        # x's offer fails the screen
        _, trace = workers_propose(assoc)
        second, third = trace.stages[1:3]
        assert second.valid_offers == {0: (), 1: (1,)}
        assert second.rejections == {0: (2,), 1: (1,)}
        assert third.valid_offers == {2: (1,)}
        assert third.rejections == {2: (1,)}
        assert second.by_worker == third.by_worker == (0, None, None)

    def test_an_untraced_run_expands_no_stage(self):
        market = random_market(
            GenParams(workers=9, firms=3, max_orders=3, density=0.8, seed=1)
        )
        assoc = build_associated_market(market)
        _, trace = workers_propose(assoc)
        assert "stages" not in vars(trace)
        assert len(trace.records) < 100 < trace.stage_count
        assert trace.stage_count == len(trace.stages)
        assert [s.number for s in trace.stages] == list(range(1, trace.stage_count + 1))


class TestTraces:
    def test_json_lines_parse_and_are_deterministic(self, reference_assoc):
        _, trace_a = copies_propose(reference_assoc)
        _, trace_b = copies_propose(reference_assoc)
        lines_a = trace_json_lines(reference_assoc, trace_a)
        lines_b = trace_json_lines(reference_assoc, trace_b)
        assert lines_a == lines_b
        records = [json.loads(line) for line in lines_a]
        assert [r["stage"] for r in records] == [1, 2]
        assert records[0]["proposing"] == "copies"
        assert records[0]["offers"]["w1"] == ["f1.1", "f1.2", "f1.3"]
        assert "authorized" in records[0] and "valid_offers" not in records[0]

    def test_worker_side_lines_carry_valid_offers(self, reference_assoc):
        _, trace = workers_propose(reference_assoc)
        record = json.loads(trace_json_lines(reference_assoc, trace)[0])
        assert record["proposing"] == "workers"
        assert record["valid_offers"]["f1.1"] == ["w3", "w4"]
        assert "authorized" not in record

    def test_stage_matchings_snapshot_progress(self, reference_assoc):
        _, trace = workers_propose(reference_assoc)
        held_after_first = trace.stages[0].matching.render(reference_assoc)["by_copy"]
        assert held_after_first["f1.1"] == "w3"
        assert held_after_first["f2.1"] == "w2"
        assert held_after_first["f1.2"] is None


class TestSnapshotsOnRead:
    """A stage's matching is built when it is read, not on every stage."""

    @pytest.fixture()
    def built(self, monkeypatch):
        built = []
        validate = OneToOneMatching.__post_init__

        def counting(matching):
            built.append(matching)
            validate(matching)

        monkeypatch.setattr(OneToOneMatching, "__post_init__", counting)
        return built

    def test_an_untraced_run_builds_only_its_result(self, built):
        market = random_market(
            GenParams(workers=9, firms=3, max_orders=3, density=0.8, seed=1)
        )
        assoc = build_associated_market(market)
        built.clear()
        final, trace = workers_propose(assoc)
        assert len(trace.stages) > 2000
        assert len(built) <= 2
        assert final in built  # validated, as every snapshot was before
        assert final is trace.stages[-1].matching
        assert final.by_worker == trace.stages[-1].by_worker

    @pytest.mark.parametrize("direction", [copies_propose, workers_propose])
    def test_trace_lines_build_each_snapshot_once(self, built, reference_assoc, direction):
        _, trace = direction(reference_assoc)
        built.clear()
        first = trace_json_lines(reference_assoc, trace)
        assert len(built) == len(trace.stages) - 1  # the last is the result
        assert trace_json_lines(reference_assoc, trace) == first
        assert len(built) == len(trace.stages) - 1
        for stage, line in zip(trace.stages, first):
            assert stage.matching.by_worker == stage.by_worker
            assert json.loads(line)["matching"] == stage.matching.render(reference_assoc)


@pytest.mark.parametrize("direction", [copies_propose, workers_propose])
@pytest.mark.parametrize("max_orders,density", [(3, 0.8), (4, 0.9)])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_outputs_are_always_copy_stable(direction, max_orders, density, seed):
    market = random_market(
        GenParams(workers=4, firms=2, max_orders=max_orders, density=density, seed=seed)
    )
    assoc = family_association(market)
    final, trace = direction(assoc)
    assert check_copy_stable(assoc, final).stable
    assert trace.stages[-1].rejections == {}


@pytest.mark.parametrize("direction", [copies_propose, workers_propose])
@pytest.mark.parametrize("seed", [1, 2, 5, 6])
def test_large_market_results_merge_to_stable_matchings(direction, seed):
    # 1,089 to 2,934 copies, far past the enumerators' reach: the merged
    # result is judged by the polynomial many-to-one checker instead
    market = random_market(
        GenParams(workers=9, firms=3, max_orders=3, density=0.8, seed=seed)
    )
    assoc = build_associated_market(market)
    assert len(assoc.copies) > 1000
    final, _ = direction(assoc)
    assert check_stable(market, merge_matching(assoc, final)).stable
