"""Deferred acceptance on the associated one-to-one market, both directions.

Running textbook deferred acceptance on the copies would not do: copies of
one firm act as rivals, and the result can leave one copy holding a worker
a sibling copy ranks higher, which no copy-stable matching allows.  Both
variants here therefore coordinate siblings.

Copies propose (:func:`copies_propose`).  Each stage, every copy rejected
in the previous stage may offer to the best worker in its order that has
not rejected it yet, but only when *authorized*: no sibling copy may
currently hold a different worker that the proposer's own order ranks above
the target.  An unauthorized copy stays empty for the stage and re-checks
in the next one, since the sibling hire that blocked it can itself be
displaced later.  ``reauthorize=False`` switches to the stricter reading
where an unauthorized copy leaves the game for good; that variant can
strand a copy whose blocker evaporates in the very stage it left, and then
the closing stability assertion fails.  Workers keep the best of their held
copy and incoming offers, rejecting the rest.  The run stops after the
first stage without any rejection.

Workers propose (:func:`workers_propose`).  Each stage, every previously
rejected worker offers to the best copy in its lifted list that has not
rejected it yet.  A copy first discards invalid offers, i.e. workers
ranked below somebody a sibling copy held at the start of the stage, then
keeps the best of its held worker and the remaining offers.  Invalid
offers count as rejections.  The screen looks one way only, so a stage
can still end with a copy holding a worker it ranks below a sibling's
fresh arrival; each such copy then releases its worker back into the
pool, recorded as one more rejection by the releasing copy.
``release=False`` switches to the stricter reading where a copy never
lets go for a sibling's sake; that variant can carry exactly this envy
into the final matching, and then the closing stability assertion fails.
The run stops after the first stage without any rejection.

Both runs return the final matching plus a stage-by-stage trace, assert
that the result is copy-stable, and are insensitive to the order agents
are visited within a stage: offer, screening and acceptance decisions
read the previous stage's state, and the release pass reads the stage's
end state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .association import OneToOneMarket
from .errors import DeferredAcceptanceError
from .io import render_stability_report
from .matchings import OneToOneMatching
from .stability import check_copy_stable

COPIES = "copies"
WORKERS = "workers"


@dataclass(frozen=True)
class DaStage:
    """One stage: who offered to whom, what was screened, who was rejected.

    Keys are dense indices of the receiving side (workers when copies
    propose, copies when workers propose); values are sorted proposer
    indices.  ``authorized`` appears only when copies propose and covers the
    copies that were due to act; ``valid_offers`` only when workers propose.
    ``matching`` is the tentative assignment at the end of the stage.
    """

    number: int
    offers: dict[int, tuple[int, ...]]
    rejections: dict[int, tuple[int, ...]]
    matching: OneToOneMatching
    authorized: dict[int, bool] | None = None
    valid_offers: dict[int, tuple[int, ...]] | None = None


@dataclass(frozen=True)
class DaTrace:
    proposing: str
    stages: tuple[DaStage, ...]

    @property
    def final(self) -> OneToOneMatching:
        return self.stages[-1].matching


def _assert_copy_stable(assoc: OneToOneMarket, matching: OneToOneMatching) -> None:
    report = check_copy_stable(assoc, matching)
    if not report.stable:
        witness = render_stability_report(
            report, assoc.source.workers, copy_labels=assoc.copy_labels
        )["witness"]
        raise DeferredAcceptanceError(
            f"deferred acceptance produced an unstable matching: "
            f"{report.case} witness {witness}"
        )


def copies_propose(
    assoc: OneToOneMarket, *, reauthorize: bool = True
) -> tuple[OneToOneMatching, DaTrace]:
    """Copy-proposing deferred acceptance with sibling authorization."""
    k = len(assoc.source.workers)
    n_copies = len(assoc.copies)
    wrank = assoc.worker_rank
    wempty = assoc.worker_empty_rank
    crank = assoc.copy_rank
    groups = assoc.copies_by_firm
    firm_of = assoc.firm_of_copy
    orders = [copy.order.ranking for copy in assoc.copies]

    held_by_worker: list[int | None] = [None] * k
    held_by_copy: list[int | None] = [None] * n_copies
    next_pos = [0] * n_copies
    pool = list(range(n_copies))
    stages: list[DaStage] = []

    while True:
        number = len(stages) + 1
        if number > n_copies * k + 2:
            raise DeferredAcceptanceError("deferred acceptance failed to terminate")
        offers: dict[int, list[int]] = {}
        authorized: dict[int, bool] = {}
        pending: list[int] = []
        for c in sorted(pool):
            pos = next_pos[c]
            if pos >= len(orders[c]):
                continue  # exhausted its list; stays empty and exits
            target = orders[c][pos]
            row = crank[c]
            ok = True
            for sibling in groups[firm_of[c]]:
                held = held_by_copy[sibling]
                if held is not None and held != target and row[held] < row[target]:
                    ok = False
                    break
            authorized[c] = ok
            if not ok:
                if reauthorize:
                    pending.append(c)
                continue
            next_pos[c] = pos + 1
            offers.setdefault(target, []).append(c)

        rejections: dict[int, tuple[int, ...]] = {}
        rejected: list[int] = []
        for w in sorted(offers):
            candidates = offers[w]
            row = wrank[w]
            best = held_by_worker[w]
            best_rank = wempty[w] if best is None else row[best]
            chosen = None
            for c in candidates:
                if row[c] < best_rank:
                    best_rank = row[c]
                    chosen = c
            if chosen is None:
                rejected_here = sorted(candidates)
            else:
                rejected_here = sorted(c for c in candidates if c != chosen)
                previous = held_by_worker[w]
                if previous is not None:
                    rejected_here = sorted(rejected_here + [previous])
                    held_by_copy[previous] = None
                held_by_worker[w] = chosen
                held_by_copy[chosen] = w
            if rejected_here:
                rejections[w] = tuple(rejected_here)
                rejected.extend(rejected_here)

        snapshot = OneToOneMatching(tuple(held_by_worker), n_copies)
        stages.append(
            DaStage(
                number,
                {w: tuple(sorted(cs)) for w, cs in offers.items()},
                rejections,
                snapshot,
                authorized=authorized,
            )
        )
        if not rejected:
            break
        pool = sorted(set(rejected) | set(pending))

    result = stages[-1].matching
    _assert_copy_stable(assoc, result)
    return result, DaTrace(COPIES, tuple(stages))


def workers_propose(
    assoc: OneToOneMarket, *, release: bool = True
) -> tuple[OneToOneMatching, DaTrace]:
    """Worker-proposing deferred acceptance with sibling screening."""
    k = len(assoc.source.workers)
    n_copies = len(assoc.copies)
    wrank = assoc.worker_rank
    crank = assoc.copy_rank
    cempty = assoc.copy_empty_rank
    groups = assoc.copies_by_firm
    firm_of = assoc.firm_of_copy
    prefs = assoc.worker_prefs

    held_by_worker: list[int | None] = [None] * k
    held_by_copy: list[int | None] = [None] * n_copies
    next_pos = [0] * k
    pool = list(range(k))
    stages: list[DaStage] = []

    while True:
        number = len(stages) + 1
        if number > n_copies * k + 2:
            raise DeferredAcceptanceError("deferred acceptance failed to terminate")
        held_at_start = list(held_by_copy)
        offers: dict[int, list[int]] = {}
        for w in sorted(pool):
            pos = next_pos[w]
            if pos >= len(prefs[w]):
                continue  # exhausted its list; stays unmatched and exits
            target = prefs[w][pos]
            next_pos[w] = pos + 1
            offers.setdefault(target, []).append(w)

        valid_offers: dict[int, tuple[int, ...]] = {}
        rejections: dict[int, tuple[int, ...]] = {}
        rejected: list[int] = []
        for c in sorted(offers):
            candidates = offers[c]
            row = crank[c]
            sibling_best = cempty[c] + 2
            for sibling in groups[firm_of[c]]:
                held = held_at_start[sibling]
                if held is not None and row[held] < sibling_best:
                    sibling_best = row[held]
            valid = [w for w in candidates if row[w] <= sibling_best]
            valid_offers[c] = tuple(sorted(valid))

            best = held_by_copy[c]
            best_rank = cempty[c] if best is None else row[best]
            chosen = None
            for w in valid:
                if row[w] < best_rank:
                    best_rank = row[w]
                    chosen = w
            if chosen is None:
                rejected_here = sorted(candidates)
            else:
                rejected_here = sorted(w for w in candidates if w != chosen)
                previous = held_by_copy[c]
                if previous is not None:
                    rejected_here = sorted(rejected_here + [previous])
                    held_by_worker[previous] = None
                held_by_copy[c] = chosen
                held_by_worker[chosen] = c
            if rejected_here:
                rejections[c] = tuple(rejected_here)
                rejected.extend(rejected_here)

        if release:
            for group in groups:
                envious = []
                for c in group:
                    mine = held_by_copy[c]
                    if mine is None:
                        continue
                    row = crank[c]
                    for sibling in group:
                        other = held_by_copy[sibling]
                        if (
                            sibling != c
                            and other is not None
                            and row[other] < row[mine]
                        ):
                            envious.append(c)
                            break
                for c in envious:
                    dropped = held_by_copy[c]
                    held_by_copy[c] = None
                    held_by_worker[dropped] = None
                    rejections[c] = tuple(sorted(rejections.get(c, ()) + (dropped,)))
                    rejected.append(dropped)

        snapshot = OneToOneMatching(tuple(held_by_worker), n_copies)
        stages.append(
            DaStage(
                number,
                {c: tuple(sorted(ws)) for c, ws in offers.items()},
                rejections,
                snapshot,
                valid_offers=valid_offers,
            )
        )
        if not rejected:
            break
        pool = sorted(set(rejected))

    result = stages[-1].matching
    _assert_copy_stable(assoc, result)
    return result, DaTrace(WORKERS, tuple(stages))


def trace_json_lines(assoc: OneToOneMarket, trace: DaTrace) -> list[str]:
    """One compact JSON object per stage, with labels, bit-stable across runs."""
    workers = assoc.source.workers
    copies = assoc.copy_labels
    if trace.proposing == COPIES:
        receiver, proposer = workers, copies
    else:
        receiver, proposer = copies, workers
    lines = []
    for stage in trace.stages:
        record = {
            "stage": stage.number,
            "proposing": trace.proposing,
            "offers": {
                receiver[r]: [proposer[p] for p in ps]
                for r, ps in stage.offers.items()
            },
            "rejections": {
                receiver[r]: [proposer[p] for p in ps]
                for r, ps in stage.rejections.items()
            },
            "matching": stage.matching.render(assoc),
        }
        if stage.authorized is not None:
            record["authorized"] = {copies[c]: ok for c, ok in stage.authorized.items()}
        if stage.valid_offers is not None:
            record["valid_offers"] = {
                copies[c]: [workers[w] for w in ws]
                for c, ws in stage.valid_offers.items()
            }
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return lines
