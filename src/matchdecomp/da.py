"""Deferred acceptance on the associated one-to-one market, both directions.

Running textbook deferred acceptance on the copies would not do: copies of
one firm act as rivals, and the result can leave one copy holding a worker
a sibling copy ranks higher, which no copy-stable matching allows.  Both
variants coordinate siblings by the rule ``split_matching`` uses: a copy's
*pick* is the best worker, by its own order, among those its firm holds,
read from one held-worker bitmask per firm, kept in step with each hire,
replacement and release.  Every sibling decision is one mask test
against the copy market's ``copy_above`` table, the rule's one home: a
stage costs one test per acting copy and, for the release, one per
worker held by a firm that hired in the stage, however many copies a
firm has and however long their orders.

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
one :class:`IdleStretch`.  The look-ahead costs one mask test per offer
it passes; a stage that hires pays about one extra test.

Both runs return the final matching plus a trace, assert that the
result is copy-stable, and are insensitive to the order agents are
visited within a stage: offer, screening and acceptance decisions read
the previous stage's state, and the release pass reads the stage's end
state.  The trace expands its records into one :class:`DaStage` per
stage only when its ``stages`` are first read.

:func:`trace_json_lines` renders each stage from a label template built
once per call, so a stage costs its own offers, rejections and held
workers, plus copying the all-``null`` ``by_copy`` body, not a pass
over every copy's label.
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

# json's own C string encoder: json.dumps of a str, as the trace lines need
_encode = json.encoder.encode_basestring_ascii


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
        firm_of = assoc.firm_of_copy
        held = [0] * len(assoc.source.firms)
        for w, c in enumerate(self.by_worker):
            if c is not None:
                held[firm_of[c]] |= bit(w)
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
                    c: () if held[firm_of[c]] & assoc.copies[c].mask else offered[c]
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
    above = assoc.copy_above

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
            ok = not held[firm_of[c]] & above[c][target]
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
    above = assoc.copy_above
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
        start = held[:]
        idle, active = _idle_stages(pool, next_pos, prefs, above, firm_of, start)
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
        hired = set()  # the firms that hired this stage
        for c in sorted(offers):
            candidates = offers[c]
            row = above[c]
            f = firm_of[c]
            screen = start[f]
            if not screen & orders[c].mask:
                valid = candidates  # no pick: every offer passes the screen
            else:
                # an offering worker is held by no one, so it joins the menu
                valid = [w for w in candidates if not (screen | 1 << w) & row[w]]
            valid_offers[c] = tuple(valid)

            previous = chosen = held_by_copy[c]
            for w in valid:
                # w beats the best so far: ranked at all when there is
                # none, else ranked above it
                if row[w] != -1 if chosen is None else row[chosen] >> w & 1:
                    chosen = w
            if chosen == previous:
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
                hired.add(f)
            if rejected_here:
                rejections[c] = tuple(rejected_here)
                rejected.extend(rejected_here)

        if release:
            # The previous release left every firm envy-free, and since
            # then a firm has lost workers and gained this stage's hires.
            # Removing a worker never creates envy: a copy's own worker
            # stays its pick from a smaller set.  So only a firm that
            # hired can hold a worker that is not its copy's pick.
            envious = []
            for f in hired:
                for w in iter_indices(held[f]):
                    c = held_by_worker[w]
                    if held[f] & above[c][w]:
                        envious.append((c, w))
            envious.sort()
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


def _idle_stages(
    pool: list[int],
    next_pos: list[int],
    prefs: tuple[tuple[int, ...], ...],
    above: tuple[tuple[int, ...], ...],
    firm_of: tuple[int, ...],
    held: list[int],
) -> tuple[int, list[int]]:
    """Count the coming stages in which every offer would be rejected.

    While nothing is hired, nothing is held or released either, so each
    such stage moves every offering worker one place down its lifted list
    under the same held masks.  A copy accepts an offer exactly when it
    picks the offering worker from its firm's held workers plus that
    worker.  The walk takes those stages in lockstep and stops at the
    first offer a copy would accept, or at the first stage without
    offers, which is then the run's closing stage.  Returns the count and
    the pool as it enters the stage that stopped the walk.
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
                if not (held[firm_of[c]] | 1 << w) & above[c][w]:
                    return steps, active
                offering.append(w)
        if not offering:
            return steps, active
        active = offering
        steps += 1


def trace_json_lines(assoc: OneToOneMarket, trace: DaTrace) -> list[str]:
    """One compact JSON object per stage, with labels, bit-stable across runs.

    Each line is ``json.dumps(record, sort_keys=True, separators=(",",
    ":"))`` of the stage's record, written from a template built once per
    call: every label JSON-encoded once, each agent's slot in sorted-label
    order, and an all-``null`` ``by_copy`` body with the offset of each
    copy's ``null``.  A stage then splices its at most k held workers into
    that body and sorts only its own offers, rejections and screening
    results by slot, so beyond copying the body it costs O(its own work
    + k log k), not a pass over every copy.  Every stage's matching is
    still read, so each snapshot is validated as it is printed.
    """
    workers = assoc.source.workers
    labels = assoc.copy_labels
    worker_json = list(map(_encode, workers))
    copy_json = list(map(_encode, labels))
    worker_order = sorted(range(len(workers)), key=workers.__getitem__)
    copy_order = sorted(range(len(labels)), key=labels.__getitem__)
    worker_slot = _slots(worker_order)
    copy_slot = _slots(copy_order)
    body = ",".join(copy_json[c] + ":null" for c in copy_order)
    null_at = []  # where each slot's null starts in body
    end = 0
    for c in copy_order:
        end += len(copy_json[c]) + 1
        null_at.append(end)
        end += len("null,")
    # each worker's held copy, or null, after its key
    held_json = dict(enumerate(copy_json))
    held_json[None] = "null"
    worker_keys = [(w, worker_json[w] + ":") for w in worker_order]
    # each copy's authorized member, indexed by the verdict
    verdicts = ([j + ":false" for j in copy_json], [j + ":true" for j in copy_json])

    if trace.proposing == COPIES:
        receiver, receiver_slot, proposer = worker_json, worker_slot, copy_json
    else:
        receiver, receiver_slot, proposer = copy_json, copy_slot, worker_json
    proposing = _encode(trace.proposing)

    lines = []
    for stage in trace.stages:
        by_worker = stage.matching.by_worker
        by_copy = []
        cut = 0
        for slot, w in sorted(
            (copy_slot[c], w) for w, c in enumerate(by_worker) if c is not None
        ):
            at = null_at[slot]
            by_copy += (body[cut:at], worker_json[w])
            cut = at + len("null")
        by_copy.append(body[cut:])
        line = ["{"]
        if stage.authorized is not None:
            authorized = stage.authorized
            line += (
                '"authorized":{',
                ",".join(
                    [
                        verdicts[authorized[c]][c]
                        for c in sorted(authorized, key=copy_slot.__getitem__)
                    ]
                ),
                "},",
            )
        line += (
            '"matching":{"by_copy":{',
            *by_copy,
            '},"by_worker":{',
            ",".join([key + held_json[by_worker[w]] for w, key in worker_keys]),
            '}},"offers":{',
            _listing(stage.offers, receiver, receiver_slot, proposer),
            f'}},"proposing":{proposing},"rejections":{{',
            _listing(stage.rejections, receiver, receiver_slot, proposer),
            f'}},"stage":{stage.number}',
        )
        if stage.valid_offers is not None:
            line += (
                ',"valid_offers":{',
                _listing(stage.valid_offers, copy_json, copy_slot, worker_json),
                "}",
            )
        line.append("}")
        lines.append("".join(line))
    return lines


def _slots(order: list[int]) -> list[int]:
    """``slots[i]``: the position of index ``i`` in ``order``."""
    slots = [0] * len(order)
    for slot, i in enumerate(order):
        slots[i] = slot
    return slots


def _listing(
    lists: dict[int, tuple[int, ...]],
    key_json: list[str],
    key_slot: list[int],
    value_json: list[str],
) -> str:
    """The members of a JSON object of label lists, keys in label order."""
    return ",".join(
        [
            key_json[r] + ":[" + ",".join([value_json[p] for p in lists[r]]) + "]"
            for r in sorted(lists, key=key_slot.__getitem__)
        ]
    )
