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
copy-stable enumerators share one depth-first search on an explicit
stack.  It places each worker with an option, in index order, first
unmatched and then on its firms in its order.  A firm takes a worker
only while it may hold the set it then holds, and a worker goes no lower
than the first firm that must take it from every menu the firm can still
hold.  The firm-level search decides those two tests on the choice
functions and checks each complete placement.  The copy-stable search
decides them on the copies alone, so its verdicts stay independent of
the firm level, and checks each complete placement's split image.
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

from .association import OneToOneMarket, split_matching
from .bitsets import bit, iter_indices
from .caps import DEFAULT_CAPS, Caps, require_candidates
from .choices import known_substitutable
from .errors import DeferredAcceptanceError, MarketValidationError
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


def render_stability_report(
    report: StabilityReport,
    workers: tuple[str, ...],
    firms: tuple[str, ...] = (),
    copy_labels: tuple[str, ...] = (),
) -> dict:
    """The report as JSON-ready data, its witness named by labels."""
    out: dict = {"stable": report.stable}
    if report.case is not None:
        out["case"] = report.case
    if report.witness is not None:
        names = {"worker": workers, "firm": firms}
        out["witness"] = {
            key: names.get(key, copy_labels)[value]  # else "copy", "envied_copy"
            for key, value in report.witness.items()
        }
    return out


def require_stable(
    report: StabilityReport, assoc: OneToOneMarket, producer: str
) -> None:
    """Raise :class:`DeferredAcceptanceError`, naming ``producer`` and the
    witness by labels, unless the copy-market ``report`` is stable."""
    if not report.stable:
        witness = render_stability_report(
            report, assoc.source.workers, copy_labels=assoc.copy_labels
        )["witness"]
        raise DeferredAcceptanceError(
            f"{producer} produced an unstable matching: {report.case} "
            f"witness {witness}"
        )


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


def _placements(options, n: int, caps: Caps, must_take, may_hold):
    """Yield each placement the cuts leave, as a many-to-one matching.

    Worker ``w`` is placed on one of the firms ``options[w]`` or left
    unmatched, depth first over the workers with an option in index
    order, on an explicit stack.  A node tries staying unmatched first,
    then the firms in ``w``'s order; a firm ``f`` takes ``w`` only when
    ``may_hold(f, grown)`` allows the set it would then hold.  ``w`` goes
    no lower than the first ``f`` with ``must_take(f, w, menu)``, the menu
    being ``w`` beside everyone ``f`` holds or may still get, the workers
    placed later that list ``f``: the branches below ``f``, staying
    unmatched among them, are cut.  Each node charges the candidate cap
    with its worker's options plus staying unmatched, cut or not.
    """
    k = len(options)
    movable = [w for w, listed in enumerate(options) if listed]
    # later[i][f]: the workers of movable after position i that list f
    later = [[0] * n]
    for w in reversed(movable[1:]):
        row = later[-1][:]
        for f in options[w]:
            row[f] |= bit(w)
        later.append(row)
    later.reverse()
    depth = len(movable)
    tried = 0
    # each entry is a depth and every firm's held workers
    pending = [(0, (0,) * n)]
    while pending:
        i, held = pending.pop()
        if i == depth:
            by_worker: list[int | None] = [None] * k
            for f, mask in enumerate(held):
                for v in iter_indices(mask):
                    by_worker[v] = f
            yield ManyToOneMatching(tuple(by_worker), n)
            continue
        w = movable[i]
        listed = options[w]
        tried += 1 + len(listed)
        if tried > caps.max_candidates:
            require_candidates(tried, caps)
        own = 1 << w
        reach = later[i]
        stays = True
        for j, f in enumerate(listed):
            if must_take(f, w, held[f] | reach[f] | own):
                listed, stays = listed[: j + 1], False
                break
        # pushed in reverse, so popped in visit order
        for f in reversed(listed):
            grown = held[f] | own
            if may_hold(f, grown):
                pending.append((i + 1, (*held[:f], grown, *held[f + 1 :])))
        if stays:
            pending.append((i + 1, held))


def enumerate_stable(
    market: ManyToOneMarket, caps: Caps = DEFAULT_CAPS
) -> list[ManyToOneMatching]:
    """Every stable matching, by a depth-first placement search.

    Each worker with an acceptable firm, in index order, first stays
    unmatched and then tries the firms it finds acceptable, in its order.
    A substitutable firm takes a worker only while it would keep everyone
    it then holds: a set such a firm would not keep has no superset it
    keeps.  A worker ``w`` also goes no lower than the first substitutable
    firm ``f`` on its list that chooses ``w`` from ``w`` beside everyone
    ``f`` holds or may still get.  Every completion leaves ``f`` a subset
    of that menu, from which a substitutable ``f`` still chooses ``w``, so
    ``(w, f)`` would block it.  A firm that fails substitutability, or is
    too large for the check, keeps every option and cuts no branch.  Each
    complete placement must pass :func:`check_stable`.  The candidate cap
    bounds the placements tried: a node charges its worker's options plus
    staying unmatched, cut or not.
    """
    n = len(market.firms)
    # the choose of each firm the search may cut on, else None
    chooses = [
        cf.choose if known_substitutable(cf, caps) else None
        for cf in market.choice_functions
    ]

    def must_take(f: int, w: int, menu: int) -> bool:
        choose = chooses[f]
        return choose is not None and choose(menu) >> w & 1

    def may_hold(f: int, grown: int) -> bool:
        choose = chooses[f]
        return choose is None or choose(grown) == grown

    placements = _placements(market.worker_prefs, n, caps, must_take, may_hold)
    found = [m for m in placements if check_stable(market, m).stable]
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
    above = assoc.copy_above
    by_worker = matching.by_worker
    by_copy = matching.by_copy

    for w, c in enumerate(by_worker):
        if c is not None and wrank[w][c] > wempty[w]:
            return StabilityReport(False, WORKER_BLOCK, {"worker": w})
    for c, w in enumerate(by_copy):
        if w is not None and above[c][w] == -1:
            return StabilityReport(False, FIRM_BLOCK, {"copy": c})
    held = [0] * (max(shield_of, default=-1) + 1)
    for w, c in enumerate(by_worker):
        if c is not None:
            held[shield_of[c]] |= bit(w)
    for c, w in enumerate(by_copy):
        if w is None:
            continue
        group = shield_of[c]
        ahead = above[c][w]  # the workers c ranks above its own
        if not held[group] & ahead:
            continue
        for mate, envied in enumerate(by_copy):
            if shield_of[mate] == group and envied is not None and ahead >> envied & 1:
                return StabilityReport(
                    False, COPY_ENVY, {"copy": c, "envied_copy": mate}
                )
    current_rank = [
        wempty[w] if c is None else wrank[w][c] for w, c in enumerate(by_worker)
    ]
    for c, g in enumerate(shield_of):
        menu = held[g]
        # c picks w from menu | 1 << w; no worker is above itself, so
        # once an unranked w (-1) is ruled out the test reads menu alone
        for w, ahead in enumerate(above[c]):
            if not menu & ahead and ahead != -1 and wrank[w][c] < current_rank[w]:
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
    by its own order among those its firm holds, by one mask test against
    ``copy_above`` each.  A copy envies exactly when its firm holds a
    worker it ranks above its own, and a pair (c, w) blocks exactly when
    w prefers c and c picks w from w beside its firm's holdings.
    Siblings are scanned, by ascending index, only to name the envied
    copy, so the check costs O(copies·k).
    """
    return _check_one_to_one(assoc, matching, assoc.firm_of_copy)


def check_classical_stable(
    assoc: OneToOneMarket, matching: OneToOneMatching
) -> StabilityReport:
    """Textbook one-to-one stability on the associated market.

    This is copy stability with every copy as its own shield group.  The
    group of a matched copy holds only the copy's worker, which is its pick
    once the firm-block case has passed, so copy-envy never fires.  "c
    picks w from w beside its holdings" differs from "c ranks w strictly
    above the worker it holds" only at that worker, who sits on c and
    cannot prefer it.  The scan order is therefore the textbook one:
    worker rationality, copy rationality, then copy-worker pairs
    lexicographically by (copy, worker).
    """
    return _check_one_to_one(assoc, matching, tuple(range(len(assoc.copies))))


def _mutual_lists(assoc: OneToOneMarket) -> list[tuple[int, ...]]:
    """Each worker's lifted copies that rank it, in the worker's order."""
    above = assoc.copy_above
    return [
        tuple(c for c in lifted if above[c][w] != -1)
        for w, lifted in enumerate(assoc.worker_prefs)
    ]


def enumerate_copy_stable(
    assoc: OneToOneMarket, caps: Caps = DEFAULT_CAPS
) -> list[OneToOneMatching]:
    """Every copy-stable matching of the associated market.

    The placement search of :func:`enumerate_stable` places each worker
    on a firm or leaves it unmatched, in the same visit order; the copies
    then follow from copy stability alone, so the tests it searches with
    read the copies, never the choice functions.  A worker is offered, in
    its order, the firms with a copy that ranks it.  A firm takes a worker
    only while every worker it then holds is the pick of one of its
    copies: a copy holding another worker would envy a sibling, and a
    worker that no copy picks from a set is picked from no superset of
    it.  A worker ``w`` also goes no lower than the first firm ``f`` with
    a copy that picks ``w`` from ``w`` beside everyone ``f`` holds or may
    still get: that copy and ``w`` would pair-block every completion that
    puts ``w`` below ``f`` or leaves it unmatched.  A complete placement
    fixes the copy matching, its :func:`split_matching` image: each worker
    sits on the first copy of its firm whose pick it is, since an earlier
    such copy would pair-block, and every other copy stays empty.  The
    firm test above makes every held worker a pick, so the split never
    fails.  Each split image must pass :func:`check_copy_stable`.  The
    candidate cap bounds the placements tried: a node charges its worker's
    firms plus staying unmatched, cut or not.
    """
    source = assoc.source
    k = len(source.workers)
    n = len(source.firms)
    # guards[w][f]: copy_above[c][w] for each copy c of f that ranks w;
    # such a copy picks w from a menu holding w that misses its guard
    guards = [[set() for _ in range(n)] for _ in range(k)]
    for order, row, f in zip(assoc.copies, assoc.copy_above, assoc.firm_of_copy):
        for w in order.ranking:
            guards[w][f].add(row[w])

    def picked(f: int, w: int, menu: int) -> bool:
        return any(not menu & above for above in guards[w][f])

    options = [
        tuple(f for f in prefs if guards[w][f])
        for w, prefs in enumerate(source.worker_prefs)
    ]

    def may_hold(f: int, grown: int) -> bool:
        return all(picked(f, v, grown) for v in iter_indices(grown))

    placements = _placements(options, n, caps, picked, may_hold)
    images = (split_matching(assoc, placement) for placement in placements)
    found = [m for m in images if check_copy_stable(assoc, m).stable]
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
    above = assoc.copy_above
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
            if held is None or above[c][held] >> w & 1:
                holder[c] = w
                w = held

    def break_marriage(pos, holder, i):
        pos, holder = list(pos), list(holder)
        vacant = lists[i][pos[i]]
        bar = above[vacant][i]  # the workers vacant ranks above i
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
                if bar >> w & 1:
                    holder[c] = w
                    return pos, holder
            elif held is None:
                return None
            elif above[c][held] >> w & 1:
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
        require_stable(check_classical_stable(assoc, matching), assoc, "break-marriage")
    found.sort(key=lambda m: m.key)
    return found
