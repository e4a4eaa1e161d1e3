"""Stability checkers and exhaustive stable-set oracles.

Three notions live here:

* ``stable``: the many-to-one notion.  A matching fails through a worker
  matched to an unacceptable firm, a firm that would not choose its own
  assigned set, or a worker-firm pair where the firm would pick the worker
  into its current set and the worker prefers that firm.
* ``copy_stable``: the notion fit for the associated one-to-one market.
  Besides individual rationality on both sides it forbids a copy envying a
  sibling copy's worker, and a copy-worker pair blocks only when the worker
  beats what *every* sibling copy holds, per the blocking copy's order --
  except that a sibling holding that very worker offers no protection, since
  the worker can simply move within the firm.  Plain pairwise blocking is
  deliberately not forbidden: with several
  copies of one firm it fires spuriously, and the exhaustive counterexample
  tests show the classical notion misses almost all matchings that the
  many-to-one market considers stable.
* ``classical_stable``: the textbook one-to-one notion, kept for exactly
  those comparisons.  It is copy stability with each copy as its own
  shield group (the copies whose holdings a copy's pick is taken from):
  one checker decides both, keyed by the group.

Checkers return the first violation in a fixed scan order (cases in the
order listed in each docstring; agents by ascending index; pairs
lexicographic), so witnesses are deterministic.  Enumerators return
results sorted by the worker-side assignment tuple.  The stable and
copy-stable enumerators place workers depth first in index order, cut
branches that no completion can make stable, and filter every complete
assignment with the matching checker.  The cuts: a worker is offered only
partners that individual rationality allows; at the firm level a
substitutable firm takes a worker only while it would keep everyone it
then holds, and a worker goes no lower than the first substitutable firm
on its list that would take it from every menu the firm can still hold;
and on the copy market no copy may envy a settled sibling's
worker, and a copy-worker pair that blocks is cut once its verdict is
final.  Such a pair blocks when the worker prefers the copy to its
partner and no copy of the firm holds a worker the copy ranks higher.
Only a worker that can still land on the firm could shield the pair, so
the verdict is final once the worker and every such worker are placed.
The classical set needs no search: the copy market is then a textbook
one-to-one market, whose stable set is listed from the worker-optimal
Gale-Shapley matching by break-marriage.
The candidate cap charges each placement a search node considers, cut or
not, and each Gale-Shapley or break-marriage proposal, and stops the run
once the count passes it.  The full scans of every candidate assignment
that these enumerators replaced live on in the test suite as their
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .association import OneToOneMarket
from .bitsets import bit
from .caps import DEFAULT_CAPS, Caps, require_candidates
from .choices import ORDERS
from .errors import CapExceededError, DeferredAcceptanceError, MarketValidationError
from .markets import ManyToOneMarket
from .matchings import ManyToOneMatching, OneToOneMatching

WORKER_BLOCK = "worker-block"
FIRM_BLOCK = "firm-block"
COPY_ENVY = "copy-envy"
PAIR_BLOCK = "pair-block"


@dataclass(frozen=True)
class StabilityReport:
    """Verdict plus, on failure, the violated case and its first witness."""

    stable: bool
    case: str | None = None
    witness: dict[str, int] | None = None

    def __bool__(self) -> bool:
        return self.stable


def check_stable(market: ManyToOneMarket, matching: ManyToOneMatching) -> StabilityReport:
    """Many-to-one stability.

    Scan order: worker blocks by worker index, firm blocks by firm index,
    then worker-firm pairs lexicographically by (worker, firm).
    """
    if len(matching.by_worker) != len(market.workers):
        raise MarketValidationError("matching covers a different worker count")
    if matching.firm_count != len(market.firms):
        raise MarketValidationError("matching covers a different firm count")
    ranks = market.firm_rank
    for w, f in enumerate(matching.by_worker):
        if f is not None and f not in ranks[w]:
            return StabilityReport(False, WORKER_BLOCK, {"worker": w})
    masks = matching.firm_masks
    for f, cf in enumerate(market.choice_functions):
        if cf.choose(masks[f]) != masks[f]:
            return StabilityReport(False, FIRM_BLOCK, {"firm": f})
    for w in range(len(market.workers)):
        current = matching.by_worker[w]
        rank = ranks[w]
        current_rank = len(market.worker_prefs[w]) if current is None else rank[current]
        for f in range(len(market.firms)):
            if f == current:
                continue
            f_rank = rank.get(f)
            if f_rank is None or f_rank >= current_rank:
                continue
            if market.choice_functions[f].choose(masks[f] | bit(w)) >> w & 1:
                return StabilityReport(False, PAIR_BLOCK, {"worker": w, "firm": f})
    return StabilityReport(True)


def enumerate_stable(
    market: ManyToOneMarket, caps: Caps = DEFAULT_CAPS
) -> list[ManyToOneMatching]:
    """Every stable matching, by a depth-first search over workers.

    Each worker is offered only the firms it finds acceptable, and a
    substitutable firm takes a worker only while it would keep everyone
    it then holds: a set such a firm would not keep has no superset it
    keeps.  A worker ``w`` also goes no lower than the first substitutable
    firm ``f`` on its list that chooses ``w`` from ``w`` beside everyone
    ``f`` holds or may still get, the workers placed later that list
    ``f``.  Every completion leaves ``f`` a subset of that menu, from
    which a substitutable ``f`` still chooses ``w``, so ``(w, f)`` would
    block it: the branches below ``f``, staying unmatched among them, are
    cut.  A firm that fails substitutability, or is too large for the
    check, keeps every option and cuts no branch.  The candidate cap
    bounds the placements tried: a node charges its worker's options plus
    staying unmatched, cut or not.
    """
    k = len(market.workers)
    n = len(market.firms)
    cfs = market.choice_functions
    options = market.worker_prefs
    screened = [
        (cf.kind == ORDERS or cf.universe_size <= caps.max_workers)
        and cf._substitutable
        for cf in cfs
    ]
    movable = [w for w in range(k) if options[w]]
    # later[i][f]: the workers placed after depth i that list f
    later = [[0] * n]
    for w in reversed(movable[1:]):
        row = later[-1][:]
        for f in options[w]:
            row[f] |= bit(w)
        later.append(row)
    later.reverse()
    held = [0] * n
    assignment: list[int | None] = [None] * k
    found = []
    tried = 0

    def place(i: int) -> None:
        nonlocal tried
        if i == len(movable):
            candidate = ManyToOneMatching(tuple(assignment), n)
            if check_stable(market, candidate).stable:
                found.append(candidate)
            return
        w = movable[i]
        tried += 1 + len(options[w])
        if tried > caps.max_candidates:
            require_candidates(tried, caps)
        reach = later[i]
        listed = options[w]
        for j, f in enumerate(listed):
            if screened[f] and cfs[f].choose(held[f] | reach[f] | bit(w)) >> w & 1:
                listed = listed[: j + 1]
                break
        else:
            place(i + 1)
        for f in listed:
            grown = held[f] | bit(w)
            if screened[f] and cfs[f].choose(grown) != grown:
                continue
            held[f] = grown
            assignment[w] = f
            place(i + 1)
            held[f] = grown ^ bit(w)
        assignment[w] = None

    try:
        place(0)
    except RecursionError:
        # one frame per worker placed; the copy level never gets this deep,
        # as its decomposition caps the worker count first
        raise CapExceededError(
            f"search depth of {len(movable)} workers exceeds the interpreter's "
            "recursion limit"
        ) from None
    found.sort(key=lambda m: m.key)
    return found


def _check_one_to_one(
    assoc: OneToOneMarket, matching: OneToOneMatching, shield_of: tuple[int, ...]
) -> StabilityReport:
    """Copy stability with ``shield_of[c]``, not its firm, as copy ``c``'s group."""
    if len(matching.by_worker) != len(assoc.source.workers):
        raise MarketValidationError("matching covers a different worker count")
    if matching.copy_count != len(assoc.copies):
        raise MarketValidationError("matching covers a different copy count")
    wrank = assoc.worker_rank
    wempty = assoc.worker_empty_rank
    crank = assoc.copy_rank
    cempty = assoc.copy_empty_rank
    by_worker = matching.by_worker
    by_copy = matching.by_copy

    for w, c in enumerate(by_worker):
        if c is not None and wrank[w][c] > wempty[w]:
            return StabilityReport(False, WORKER_BLOCK, {"worker": w})
    for c, w in enumerate(by_copy):
        if w is not None and crank[c][w] > cempty[c]:
            return StabilityReport(False, FIRM_BLOCK, {"copy": c})
    held = [0] * (max(shield_of, default=-1) + 1)
    for w, c in enumerate(by_worker):
        if c is not None:
            held[shield_of[c]] |= bit(w)
    picks = [
        order.best_in(held[g]) if held[g] else None
        for order, g in zip(assoc.copy_orders, shield_of)
    ]
    for c, w in enumerate(by_copy):
        if w is None or picks[c] == w:
            continue
        row = crank[c]
        group = shield_of[c]
        for mate, envied in enumerate(by_copy):
            if shield_of[mate] == group and envied is not None and row[envied] < row[w]:
                return StabilityReport(
                    False, COPY_ENVY, {"copy": c, "envied_copy": mate}
                )
    current_rank = [
        wempty[w] if c is None else wrank[w][c] for w, c in enumerate(by_worker)
    ]
    for c, pick in enumerate(picks):
        row = crank[c]
        pick_rank = cempty[c] if pick is None else row[pick]
        for w, rank in enumerate(row):
            if rank <= pick_rank and wrank[w][c] < current_rank[w]:
                return StabilityReport(False, PAIR_BLOCK, {"copy": c, "worker": w})
    return StabilityReport(True)


def check_copy_stable(
    assoc: OneToOneMarket, matching: OneToOneMatching
) -> StabilityReport:
    """Stability adapted to firm copies.

    Cases, in scan order:

    1. worker-block: a worker matched to a copy missing from its lifted list;
    2. firm-block: a copy matched to a worker its order does not rank;
    3. copy-envy: a matched copy whose order strictly prefers a sibling
       copy's worker to its own;
    4. pair-block: a copy-worker pair where the worker prefers the copy to
       its current situation and the copy's order ranks the worker strictly
       above what every sibling copy (itself included) currently holds,
       the empty seat counting for unmatched siblings.  A sibling holding
       that very worker does not shield the match: the worker walking over
       to a copy it likes better is still a block, so a worker parked on a
       high-numbered copy while a lower-numbered seat sits empty fails here.

    Both sibling cases are decided from each copy's *pick*, its best worker
    by its own order among those its firm holds.  A copy envies exactly
    when the worker it holds is not its pick, and a pair (c, w) blocks
    exactly when w prefers c and c ranks w at or above its pick (any
    ranked w when there is no pick).  Siblings are scanned, by ascending
    index, only to name the envied copy, so the check costs O(copies·k).
    """
    return _check_one_to_one(assoc, matching, assoc.firm_of_copy)


def check_classical_stable(
    assoc: OneToOneMarket, matching: OneToOneMatching
) -> StabilityReport:
    """Textbook one-to-one stability on the associated market.

    This is copy stability with every copy as its own shield group.  The
    group of a matched copy holds only the copy's worker, which is its pick
    once the firm-block case has passed, so copy-envy never fires.  "c
    ranks w at or above its pick" differs from "strictly above the worker
    c holds" only at that worker, who sits on c and cannot prefer it.  The
    scan order is therefore the textbook one: worker rationality, copy
    rationality, then copy-worker pairs lexicographically by (copy, worker).
    """
    return _check_one_to_one(assoc, matching, tuple(range(len(assoc.copies))))


def _envy_cut(assoc: OneToOneMarket):
    """Cut ``w`` on ``c`` when ``c`` and a settled sibling envy each other's worker."""
    crank = assoc.copy_rank
    firm_of = assoc.firm_of_copy

    def cut(assignment: list[int | None], w: int, c: int | None) -> bool:
        if c is None:
            return False
        row = crank[c]
        mine = row[w]
        firm = firm_of[c]
        for other_w in range(w):
            other_c = assignment[other_w]
            if (
                other_c is not None
                and firm_of[other_c] == firm
                and (row[other_w] < mine or crank[other_c][w] < crank[other_c][other_w])
            ):
                return True
        return False

    return cut


def _settled_pair_cut(assoc: OneToOneMarket, options):
    """Cut a partial assignment once a pair whose verdict is final blocks.

    A copy ``c`` and a worker ``w`` it ranks block when ``w`` prefers ``c``
    to its partner and no copy of ``c``'s firm holds a worker ``c`` ranks
    above ``w``.  Only a worker that can land on the firm shields the
    pair, so its verdict is final once ``w`` and every such worker are
    placed: ``final[d]`` lists the pairs that settle when worker ``d`` is
    placed.
    """
    k = len(options)
    wrank = assoc.worker_rank
    wempty = assoc.worker_empty_rank
    crank = assoc.copy_rank
    firm_of = assoc.firm_of_copy
    reach = [{firm_of[c] for c in opts if c is not None} for opts in options]
    final = [[] for _ in range(k)]
    for w, opts in enumerate(options):
        for c in opts:
            if c is None:
                continue
            row = crank[c]
            firm = firm_of[c]
            shielders = tuple(
                v for v in range(k) if row[v] < row[w] and firm in reach[v]
            )
            final[max((w, *shielders))].append((w, wrank[w][c], firm, shielders))

    def cut(assignment: list[int | None], d: int) -> bool:
        for w, rank_c, firm, shielders in final[d]:
            current = assignment[w]
            if rank_c >= (wempty[w] if current is None else wrank[w][current]):
                continue
            if not any(
                assignment[v] is not None and firm_of[assignment[v]] == firm
                for v in shielders
            ):
                return True
        return False

    return cut


def _mutual_lists(assoc: OneToOneMarket) -> list[tuple[int, ...]]:
    """Each worker's lifted copies that rank it, in the worker's order."""
    crank = assoc.copy_rank
    cempty = assoc.copy_empty_rank
    return [
        tuple(c for c in lifted if crank[c][w] < cempty[c])
        for w, lifted in enumerate(assoc.worker_prefs)
    ]


def enumerate_copy_stable(
    assoc: OneToOneMarket, caps: Caps = DEFAULT_CAPS
) -> list[OneToOneMatching]:
    """Every copy-stable matching of the associated market.

    The copy-level search; the cap charges each node its worker's options.
    """
    k = len(assoc.source.workers)
    n_copies = len(assoc.copies)
    options = [(None, *mutual) for mutual in _mutual_lists(assoc)]
    envy = _envy_cut(assoc)
    settled = _settled_pair_cut(assoc, options)

    found = []
    assignment: list[int | None] = [None] * k
    tried = 0

    def place(w: int, used: int) -> None:
        nonlocal tried
        if w == k:
            candidate = OneToOneMatching(tuple(assignment), n_copies)
            if check_copy_stable(assoc, candidate).stable:
                found.append(candidate)
            return
        tried += len(options[w])
        if tried > caps.max_candidates:
            require_candidates(tried, caps)
        for c in options[w]:
            if c is not None and used >> c & 1:
                continue
            if envy(assignment, w, c):
                continue
            assignment[w] = c
            if settled(assignment, w):
                continue
            place(w + 1, used if c is None else used | 1 << c)
        assignment[w] = None

    place(0, 0)
    found.sort(key=lambda m: m.key)
    return found


def enumerate_classical_stable(
    assoc: OneToOneMarket, caps: Caps = DEFAULT_CAPS
) -> list[OneToOneMatching]:
    """Every classically stable matching of the associated market.

    Classically the copy market is a textbook one-to-one market with
    incomplete lists, so its stable set is listed from the worker-optimal
    Gale-Shapley matching by McVitie & Wilson's break-marriage, with the
    duplicate rule of Gusfield & Irving (1989).  Breaking worker ``i``
    frees its copy, which now takes only a worker it ranks above ``i``,
    and lets ``i`` and each worker it displaces propose further down
    their lists.  The break succeeds when that copy is filled again.  It
    fails when a worker runs off its list or a proposal reaches a copy
    that was unmatched, since every stable matching matches the same
    agents, and it is abandoned when it displaces a worker of lower index
    than ``i``.  A matching reached by breaking ``i`` breaks only workers
    ``j >= i``, so each stable matching is listed once.  Each proposal is
    charged to the candidate cap, and every matching listed must pass
    :func:`check_classical_stable`.
    """
    k = len(assoc.source.workers)
    n_copies = len(assoc.copies)
    crank = assoc.copy_rank
    lists = _mutual_lists(assoc)
    tried = 0

    def charge() -> None:
        nonlocal tried
        tried += 1
        if tried > caps.max_candidates:
            require_candidates(tried, caps)

    # pos[w] indexes w's partner in lists[w], or is len(lists[w]) when w
    # ran off its list unmatched
    pos = [-1] * k
    holder: list[int | None] = [None] * n_copies
    for w in range(k):
        while w is not None:
            pos[w] += 1
            if pos[w] == len(lists[w]):
                break
            c = lists[w][pos[w]]
            charge()
            held = holder[c]
            if held is None or crank[c][w] < crank[c][held]:
                holder[c] = w
                w = held

    def break_marriage(pos, holder, i):
        pos, holder = list(pos), list(holder)
        vacant = lists[i][pos[i]]
        bar = crank[vacant][i]
        holder[vacant] = None
        w = i
        while True:
            pos[w] += 1
            if pos[w] == len(lists[w]):
                return None
            c = lists[w][pos[w]]
            charge()
            held = holder[c]
            if c == vacant:
                if crank[c][w] < bar:
                    holder[c] = w
                    return pos, holder
            elif held is None:
                return None
            elif crank[c][w] < crank[c][held]:
                if held < i:
                    return None
                holder[c] = w
                w = held

    found = []
    pending = [(pos, holder, 0)]
    while pending:
        pos, holder, first = pending.pop()
        found.append(
            OneToOneMatching(
                tuple(row[p] if p < len(row) else None for row, p in zip(lists, pos)),
                n_copies,
            )
        )
        for i in range(first, k):
            if pos[i] < len(lists[i]):
                broken = break_marriage(pos, holder, i)
                if broken is not None:
                    pending.append((*broken, i))
    for matching in found:
        report = check_classical_stable(assoc, matching)
        if not report.stable:
            names = {"worker": assoc.source.workers, "copy": assoc.copy_labels}
            witness = {key: names[key][v] for key, v in report.witness.items()}
            raise DeferredAcceptanceError(
                f"break-marriage produced an unstable matching: {report.case} "
                f"witness {witness}"
            )
    found.sort(key=lambda m: m.key)
    return found
