"""Deferred acceptance on the associated one-to-one market, both directions.

Running textbook deferred acceptance on the copies would not do: copies of
one firm act as rivals, and the result can leave one copy holding a worker
a sibling copy ranks higher, which no copy-stable matching allows.  Both
variants coordinate siblings by the rule ``split_matching`` uses: a copy's
*pick* is the best worker, by its own order, among those its firm holds,
read from one held-worker bitmask per firm, kept in step with each hire,
replacement and release.  A stage costs one O(k) pick per acting copy
and, for the release, per worker held by a firm that hired in the stage,
however many copies a firm has.

Copies propose (:func:`copies_propose`).  Each stage, every copy rejected
in the previous stage may offer to the best worker in its order that has
not rejected it yet, but only when *authorized*: the target is its pick
from the held workers plus the target.  An unauthorized copy stays empty
for the stage and re-checks in the next one, since the sibling hire that
blocked it can itself be displaced later.  ``reauthorize=False`` switches
to the stricter reading where an unauthorized copy leaves the game for
good; that variant can strand a copy whose blocker evaporates in the very
stage it left, and then the closing stability assertion fails.  Workers
keep the best of their held copy and incoming offers, rejecting the rest.
The run stops after the first stage without any rejection.

Workers propose (:func:`workers_propose`).  Each stage, every previously
rejected worker offers to the best copy in its lifted list that has not
rejected it yet.  A copy first discards invalid offers: an offer is valid
when the copy ranks the worker above its pick from the workers held at
the start of the stage, or has no pick there (then even a worker it does
not rank stays valid).  It keeps the best of its held worker and the
valid offers; invalid offers count as rejections.  A stage can still end
with a copy holding a worker that is not its pick; each such copy, in
ascending order, releases its worker back into the pool, recorded as one
more rejection by the releasing copy.  ``release=False`` switches to the
stricter reading where a copy never lets go for a sibling's sake; that
variant can carry exactly this envy into the final matching, and then the
closing stability assertion fails.  The run stops after the first stage
without any rejection.

On markets with many copies most worker-proposing stages hire nobody:
every offer is rejected, nothing is held or released, and each offering
worker moves one copy down its list.  Before each stage the run looks
ahead under the unchanged held masks, in lockstep over the pool, to the
first offer a copy would accept or to the first stage without offers,
and takes the all-rejected stages before it in one step, recorded as
one :class:`IdleStretch`.  The look-ahead costs one rank comparison per
offer it passes and one O(k) pick per copy it reaches, which the stage
that follows reuses; a stage that hires pays about one extra comparison.

Both runs return the final matching plus a trace, assert that the
result is copy-stable, and are insensitive to the order agents are
visited within a stage: offer, screening and acceptance decisions read
the previous stage's state, and the release pass reads the stage's end
state.  The trace expands its records into one :class:`DaStage` per
stage only when its ``stages`` are first read.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

from .association import OneToOneMarket
from .bitsets import bit, iter_indices
from .errors import DeferredAcceptanceError
from .matchings import OneToOneMatching
from .stability import check_copy_stable, require_stable

COPIES = "copies"
WORKERS = "workers"


@dataclass(frozen=True)
class DaStage:
    """One stage: who offered to whom, what was screened, who was rejected.

    Keys are dense indices of the receiving side (workers when copies
    propose, copies when workers propose); values are sorted proposer
    indices.  ``authorized`` appears only when copies propose and covers the
    copies that were due to act; ``valid_offers`` only when workers propose.
    ``by_worker`` is the tentative assignment at the end of the stage, each
    worker's copy or None.  ``matching`` is the same assignment as a
    validated :class:`OneToOneMatching`, built when it is first read, so a
    run whose trace is not printed builds only its final matching.
    """

    number: int
    offers: dict[int, tuple[int, ...]]
    rejections: dict[int, tuple[int, ...]]
    by_worker: tuple[int | None, ...]
    copy_count: int
    authorized: dict[int, bool] | None = None
    valid_offers: dict[int, tuple[int, ...]] | None = None

    @cached_property
    def matching(self) -> OneToOneMatching:
        return OneToOneMatching(self.by_worker, self.copy_count)


@dataclass(frozen=True)
class IdleStretch:
    """Consecutive worker-proposing stages in which every offer was rejected.

    Nothing is hired, held or released across such stages, so each moves
    every offering worker one place down its lifted list.  The stretch
    keeps only where it starts: ``pool`` are the workers due to offer at
    stage ``first``, ascending, ``start`` their list positions there, and
    ``by_worker`` the assignment that holds throughout.  :meth:`expand`
    rebuilds the ``length`` :class:`DaStage` records the stretch stands
    for; a worker that runs out of list inside it drops out, as it does
    in any stage.
    """

    first: int
    length: int
    pool: tuple[int, ...]
    start: tuple[int, ...]
    by_worker: tuple[int | None, ...]
    assoc: OneToOneMarket = field(repr=False)

    def expand(self) -> Iterator[DaStage]:
        assoc = self.assoc
        prefs = assoc.worker_prefs
        cempty = assoc.copy_empty_rank
        held = [0] * len(assoc.source.firms)
        for w, c in enumerate(self.by_worker):
            if c is not None:
                held[assoc.firm_of_copy[c]] |= bit(w)
        bars = _Bars(assoc, held)
        for step in range(self.length):
            offers: dict[int, list[int]] = {}
            for w, pos in zip(self.pool, self.start):
                if pos + step < len(prefs[w]):
                    offers.setdefault(prefs[w][pos + step], []).append(w)
            offered = {c: tuple(ws) for c, ws in offers.items()}
            # an offer clears the screen only while the copy has no pick,
            # and is then still rejected, since the copy does not rank it
            yield DaStage(
                self.first + step,
                offered,
                {c: offered[c] for c in sorted(offered)},
                self.by_worker,
                len(assoc.copies),
                valid_offers={
                    c: offered[c] if bars[c] == cempty[c] else ()
                    for c in sorted(offered)
                },
            )


@dataclass(frozen=True)
class DaTrace:
    """A run's stage records, in stage order.

    Copies proposing, every record is a :class:`DaStage`.  Workers
    proposing, each run of stages in which every offer was rejected is
    one :class:`IdleStretch`.  ``stages`` expands the records into one
    :class:`DaStage` per stage when it is first read.
    """

    proposing: str
    records: tuple[DaStage | IdleStretch, ...]

    @property
    def stage_count(self) -> int:
        return sum(
            record.length if isinstance(record, IdleStretch) else 1
            for record in self.records
        )

    @cached_property
    def stages(self) -> tuple[DaStage, ...]:
        stages: list[DaStage] = []
        for record in self.records:
            if isinstance(record, IdleStretch):
                stages.extend(record.expand())
            else:
                stages.append(record)
        return tuple(stages)


def copies_propose(
    assoc: OneToOneMarket, *, reauthorize: bool = True
) -> tuple[OneToOneMatching, DaTrace]:
    """Copy-proposing deferred acceptance with sibling authorization."""
    k = len(assoc.source.workers)
    n_copies = len(assoc.copies)
    wrank = assoc.worker_rank
    wempty = assoc.worker_empty_rank
    firm_of = assoc.firm_of_copy
    orders = assoc.copies

    held_by_worker: list[int | None] = [None] * k
    held = [0] * len(assoc.source.firms)  # each firm's held workers
    next_pos = [0] * n_copies
    pool = list(range(n_copies))
    stages: list[DaStage] = []

    while True:
        number = len(stages) + 1
        if number > n_copies * k + 2:
            raise DeferredAcceptanceError("deferred acceptance failed to terminate")
        # proposers visit in ascending order, so every offer list is sorted
        offers: dict[int, list[int]] = {}
        authorized: dict[int, bool] = {}
        pending: list[int] = []
        for c in pool:
            pos = next_pos[c]
            order = orders[c]
            if pos >= len(order.ranking):
                continue  # exhausted its list; stays empty and exits
            target = order.ranking[pos]
            ok = order.best_in(held[firm_of[c]] | bit(target)) == target
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
            previous = held_by_worker[w]
            best_rank = wempty[w] if previous is None else row[previous]
            chosen = None
            for c in candidates:
                if row[c] < best_rank:
                    best_rank = row[c]
                    chosen = c
            if chosen is None:
                rejected_here = candidates
            else:
                rejected_here = [c for c in candidates if c != chosen]
                if previous is not None:
                    rejected_here = sorted(rejected_here + [previous])
                    held[firm_of[previous]] ^= bit(w)
                held[firm_of[chosen]] |= bit(w)
                held_by_worker[w] = chosen
            if rejected_here:
                rejections[w] = tuple(rejected_here)
                rejected.extend(rejected_here)

        stages.append(
            DaStage(
                number,
                {w: tuple(cs) for w, cs in offers.items()},
                rejections,
                tuple(held_by_worker),
                n_copies,
                authorized=authorized,
            )
        )
        if not rejected:
            break
        pool = sorted(set(rejected) | set(pending))

    result = stages[-1].matching
    require_stable(check_copy_stable(assoc, result), assoc, "deferred acceptance")
    return result, DaTrace(COPIES, tuple(stages))


def workers_propose(
    assoc: OneToOneMarket, *, release: bool = True
) -> tuple[OneToOneMatching, DaTrace]:
    """Worker-proposing deferred acceptance with sibling screening."""
    k = len(assoc.source.workers)
    n_copies = len(assoc.copies)
    crank = assoc.copy_rank
    cempty = assoc.copy_empty_rank
    firm_of = assoc.firm_of_copy
    orders = assoc.copies
    prefs = assoc.worker_prefs

    held_by_worker: list[int | None] = [None] * k
    held_by_copy: list[int | None] = [None] * n_copies
    held = [0] * len(assoc.source.firms)  # each firm's held workers
    next_pos = [0] * k
    pool = list(range(k))
    records: list[DaStage | IdleStretch] = []
    number = 1

    while True:
        # screening reads the masks as the stage began
        bars = _Bars(assoc, held[:])
        idle, active = _idle_stages(pool, next_pos, prefs, crank, bars)
        if idle:
            records.append(
                IdleStretch(
                    number,
                    idle,
                    tuple(pool),
                    tuple(next_pos[w] for w in pool),
                    tuple(held_by_worker),
                    assoc,
                )
            )
            number += idle
            pool = active
            for w in pool:
                next_pos[w] += idle
        if number > n_copies * k + 2:
            raise DeferredAcceptanceError("deferred acceptance failed to terminate")
        # proposers visit in ascending order, so every offer list is sorted
        offers: dict[int, list[int]] = {}
        for w in pool:
            pos = next_pos[w]
            if pos >= len(prefs[w]):
                continue  # exhausted its list; stays unmatched and exits
            target = prefs[w][pos]
            next_pos[w] = pos + 1
            offers.setdefault(target, []).append(w)

        valid_offers: dict[int, tuple[int, ...]] = {}
        rejections: dict[int, tuple[int, ...]] = {}
        rejected: list[int] = []
        hiring: set[int] = set()
        for c in sorted(offers):
            candidates = offers[c]
            row = crank[c]
            f = firm_of[c]
            bar = bars[c]
            if bar == cempty[c]:
                valid = candidates  # no pick: every offer passes the screen
            else:
                valid = [w for w in candidates if row[w] < bar]
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
            # Only a firm that hired this stage can hold an envious copy.
            # The previous release left every firm envy-free, and since
            # then any other firm can only have lost workers.  Removing a
            # worker never creates envy: a copy's own worker stays its
            # pick from a smaller set.
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

        records.append(
            DaStage(
                number,
                {c: tuple(ws) for c, ws in offers.items()},
                rejections,
                tuple(held_by_worker),
                n_copies,
                valid_offers=valid_offers,
            )
        )
        number += 1
        if not rejected:
            break
        pool = sorted(set(rejected))

    result = records[-1].matching
    require_stable(check_copy_stable(assoc, result), assoc, "deferred acceptance")
    return result, DaTrace(WORKERS, tuple(records))


class _Bars(dict):
    """Each copy's acceptance bar under fixed held masks, found on first use.

    A copy takes a worker it ranks below its bar: the rank of its pick
    from its firm's held workers, or its empty rank when it has no pick.
    Only a ranked worker clears the empty rank, but while a copy has no
    pick every offer passes its screen.
    """

    def __init__(self, assoc: OneToOneMarket, held: list[int]):
        super().__init__()
        self.assoc = assoc
        self.held = held

    def __missing__(self, c: int) -> int:
        assoc = self.assoc
        top = assoc.copies[c].best_in(self.held[assoc.firm_of_copy[c]])
        bar = assoc.copy_empty_rank[c] if top is None else assoc.copy_rank[c][top]
        self[c] = bar
        return bar


def _idle_stages(
    pool: list[int],
    next_pos: list[int],
    prefs: tuple[tuple[int, ...], ...],
    crank: tuple[tuple[int, ...], ...],
    bars: _Bars,
) -> tuple[int, list[int]]:
    """Count the coming stages in which every offer would be rejected.

    While nothing is hired, nothing is held or released either, so each
    such stage moves every offering worker one place down its lifted list
    under the same bars.  The walk takes those stages in lockstep and
    stops at the first offer that clears its copy's bar, or at the first
    stage without offers, which is then the run's closing stage.  Returns
    the count and the pool as it enters the stage that stopped the walk.
    """
    active = pool
    steps = 0
    while True:
        offering = []
        for w in active:
            pos = next_pos[w] + steps
            lifted = prefs[w]
            if pos < len(lifted):
                c = lifted[pos]
                if crank[c][w] < bars[c]:
                    return steps, active
                offering.append(w)
        if not offering:
            return steps, active
        active = offering
        steps += 1


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
