"""Choice functions over a finite worker universe, plus their axioms.

A firm's hiring behaviour is a map ``C`` from worker subsets to worker
subsets with ``C(S) <= S``.  Three interchangeable representations are
supported:

``table``
    An explicit value for every one of the ``2**k`` menus.
``subset_ranking``
    A strict ranking of some nonempty subsets; ``C(S)`` is the best ranked
    subset fully contained in ``S``, or the empty set when none is.
``orders``
    A family of linear orders; ``C(S)`` is the union of each order's best
    worker present in ``S``.

Any subset or worker a representation leaves out is unacceptable, i.e.
strictly worse than staying empty.

The axioms checked here:

* substitutability: ``w in C(W)`` implies ``w in C(W - {w'})``;
* consistency: ``C(W) <= W' <= W`` implies ``C(W') = C(W)``;
* path independence: ``C(W | W') = C(C(W) | W')`` which is equivalent to
  substitutability plus consistency;
* law of aggregate demand: ``W'' <= W'`` implies ``|C(W'')| <= |C(W')|``.

Substitutability and consistency are decided on cover pairs ``(S, S -
{w})`` alone: each is violated somewhere exactly when it is violated on
some cover pair.  One pass over the function's menu sets (bit ``m`` of
worker ``w``'s set is on when ``w`` is in ``C(m)``) decides both: each of
the k**2 worker pairs costs a few big-int operations on ``2**k``-bit
sets, and the pass keeps, for each axiom, the set of menus that break it
on a cover pair.  The lowest set bit of that set is the first menu a
cover-pair scan would fail on, which is the menu of the first witness of
the exhaustive definition, so only it is rescanned to find the witness.
The law of aggregate demand stays a per-menu cover-pair scan,
O(k * 2**k), that stops at its first failing menu: at small k most tables
that fail it fail early, and a kernel over every menu measured slower
there.  Path independence holds for every ``orders`` function by
construction and is decided through the other two axioms for the rest;
only a failing function gets the pairwise scan, which finds its witness.

A function keeps its menu sets, the cover-pair pass and its
path-independence verdict, none of which depends on caps: the
substitutability, consistency and path-independence checkers and
:func:`known_substitutable`, which the firm-level stable-set search asks,
all read the one pass.  Each public checker applies the ``2**k`` guard,
``require_universe``, on every call, before it reads anything.

The menu sets of a ``table`` or ``subset_ranking`` function are
transposed from its ``2**k`` table
(:func:`~matchdecomp.bitsets.member_sets`).  Those of an ``orders``
function come straight from its orders, in one sorted pass that sends
all menus down each order together
(:func:`~matchdecomp.bitsets.maxima_sets`), the same pass that checks a
decomposition.  So deciding its path independence, walking its
decomposition and checking a family against it build no table for an
``orders`` function, and neither do ``decompose`` and ``solve``.  The
law of aggregate demand is still decided on the table, which
:func:`check_lad` builds for every kind of function but an ``orders``
function of at most one order, which passes it by construction, so
``validate`` and ``verify`` build it for every other ``orders`` function.

Failed checks carry a replayable witness, keyed by menu masks and worker
indices.  Witnesses are deterministic: menus are scanned in ascending mask
order, workers in ascending index order, and intermediate menus through a
descending submask walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bitsets import (
    bit,
    iter_indices,
    iter_submasks,
    mask_of,
    maxima_sets,
    member_sets,
    menu_sets,
)
from .caps import DEFAULT_CAPS, Caps, require_universe
from .errors import MarketValidationError

TABLE = "table"
SUBSET_RANKING = "subset_ranking"
ORDERS = "orders"


@dataclass(frozen=True)
class LinearOrder:
    """A strict preference list of worker indices, best first.

    Workers not listed are unacceptable.  An empty ranking is legal and
    never selects anyone.
    """

    ranking: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.ranking)) != len(self.ranking):
            raise MarketValidationError(f"duplicate worker in order {self.ranking}")
        if self.ranking and min(self.ranking) < 0:
            raise MarketValidationError(f"negative worker index in {self.ranking}")

    @cached_property
    def mask(self) -> int:
        return mask_of(self.ranking)

    def best_in(self, mask: int) -> int | None:
        """First ranked worker whose bit is set in ``mask``, if any."""
        for w in self.ranking:
            if mask >> w & 1:
                return w
        return None


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check.

    ``witness`` is ``None`` on a pass.  On a failure it holds the first
    violation in scan order; masks and indices use the checked function's
    own universe, so the violation can be replayed against ``choose``.
    """

    axiom: str
    passed: bool
    witness: dict[str, int] | None = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class ChoiceFunction:
    """One firm's choice behaviour in one of the three representations.

    Use the ``from_*`` constructors; they validate the payload.  ``choose``
    evaluates the representation directly, so no exponential table is built
    unless :func:`canonicalize`, :func:`check_lad` or an axiom check of a
    ``table`` or ``subset_ranking`` function asks for one.
    """

    universe_size: int
    kind: str
    table: tuple[int, ...] | None = None
    ranking: tuple[int, ...] | None = None
    orders: tuple[LinearOrder, ...] | None = None

    @staticmethod
    def from_table(entries, universe_size: int) -> "ChoiceFunction":
        entries = tuple(entries)
        if universe_size < 0:
            raise MarketValidationError("universe size must be nonnegative")
        if len(entries) != 1 << universe_size:
            raise MarketValidationError(
                f"table needs {1 << universe_size} entries, got {len(entries)}"
            )
        for menu, chosen in enumerate(entries):
            if chosen & ~menu:
                raise MarketValidationError(
                    f"table chooses outside its menu: C({menu:#b}) = {chosen:#b}"
                )
        return ChoiceFunction(universe_size, TABLE, table=entries)

    @staticmethod
    def from_subset_ranking(masks, universe_size: int) -> "ChoiceFunction":
        masks = tuple(masks)
        full = (1 << universe_size) - 1
        seen = set()
        for m in masks:
            if m == 0:
                raise MarketValidationError("subset ranking may not list the empty set")
            if m & ~full:
                raise MarketValidationError(f"subset {m:#b} is outside the universe")
            if m in seen:
                raise MarketValidationError(f"duplicate subset {m:#b} in ranking")
            seen.add(m)
        return ChoiceFunction(universe_size, SUBSET_RANKING, ranking=masks)

    @staticmethod
    def from_orders(orders, universe_size: int) -> "ChoiceFunction":
        orders = tuple(orders)
        full = (1 << universe_size) - 1
        for o in orders:
            if o.mask & ~full:
                raise MarketValidationError(
                    f"order {o.ranking} mentions workers outside the universe"
                )
        return ChoiceFunction(universe_size, ORDERS, orders=orders)

    def choose(self, mask: int) -> int:
        """Evaluate the choice on a menu given as a bitmask."""
        if mask < 0 or mask >> self.universe_size:
            raise MarketValidationError(
                f"menu {mask:#b} is outside a {self.universe_size}-worker universe"
            )
        if self.kind == TABLE:
            return self.table[mask]
        if self.kind == SUBSET_RANKING:
            for entry in self.ranking:
                if entry & mask == entry:
                    return entry
            return 0
        chosen = 0
        for order in self.orders:
            best = order.best_in(mask)
            if best is not None:
                chosen |= 1 << best
        return chosen

    @cached_property
    def _full_table(self) -> tuple[int, ...]:
        # Callers guard the 2**k cost through require_universe.  An orders
        # function needs it only for canonicalize and, past one order, the
        # law of aggregate demand, so validate and verify build it.
        if self.kind == TABLE:
            return self.table
        choose = self.choose
        return tuple(choose(m) for m in range(1 << self.universe_size))

    @cached_property
    def _menu_sets(self) -> tuple[int, ...]:
        # bit m of item w is on when w is in C(m); callers guard the 2**k
        # cost.  An orders function reads its own orders, with no table.
        if self.kind == ORDERS:
            return maxima_sets((o.ranking for o in self.orders), self.universe_size)
        return member_sets(self._full_table, self.universe_size)

    # The pass and the verdict below are kept, so each function is scanned
    # at most once.  Callers guard the 2**k cost; neither depends on caps.

    @cached_property
    def _cover_pair_failures(self) -> tuple[int, int]:
        """The menus that fail substitutability, then consistency, on a
        cover pair ``(S, S - {v})``, as two menu sets."""
        k = self.universe_size
        chosen = self._menu_sets
        all_menus = (1 << (1 << k)) - 1
        substitutability = consistency = 0
        # complements are taken by xor with all_menus: a negative int is slower
        for v, has_v in enumerate(menu_sets(k)):
            shift = 1 << v  # from menu S - {v} up to menu S
            lacks_v = all_menus ^ has_v
            lost = 0  # on menus S holding v: some w in C(S) is not in C(S - {v})
            changed = 0  # on menus S holding v: C(S) differs from C(S - {v})
            for w, chosen_w in enumerate(chosen):
                kept = (chosen_w & lacks_v) << shift  # w in C(S - {v})
                if w != v:
                    lost |= chosen_w ^ (chosen_w & kept)
                changed |= chosen_w ^ kept
            substitutability |= has_v & lost
            consistency |= (has_v ^ chosen[v]) & changed  # v is on the menu, not chosen
        return substitutability, consistency

    @cached_property
    def _path_independence(self) -> AxiomReport:
        if self.kind == ORDERS or not any(self._cover_pair_failures):
            return AxiomReport("path-independence", True)
        return _pairwise_path_independence(self)


def known_substitutable(cf: ChoiceFunction, caps: Caps) -> bool:
    """Whether a search may cut on ``cf`` as substitutable under ``caps``.

    ``orders`` functions always qualify; any other is scanned once, and
    only when its universe fits ``caps.max_workers``, else it does not.
    """
    if cf.kind == ORDERS:
        return True
    fits = cf.universe_size <= caps.max_workers
    return fits and not cf._cover_pair_failures[0]


def canonicalize(cf: ChoiceFunction, caps: Caps = DEFAULT_CAPS) -> ChoiceFunction:
    """Return an equivalent explicit-table choice function."""
    require_universe(cf.universe_size, caps)
    if cf.kind == TABLE:
        return cf
    return ChoiceFunction.from_table(cf._full_table, cf.universe_size)


def check_substitutability(cf: ChoiceFunction, caps: Caps = DEFAULT_CAPS) -> AxiomReport:
    """Chosen workers stay chosen when someone else leaves the menu.

    Decided on cover pairs: removing ``v`` from ``S`` must keep every other
    worker of ``C(S)``.  The menus that break this come from the kept
    cover-pair pass, k**2 set expressions shared with
    :func:`check_consistency`, behind the ``2**k`` guard.  The lowest menu
    that breaks it is the menu of the first pairwise witness, so only that
    menu is rescanned pair by pair.
    """
    require_universe(cf.universe_size, caps)
    bad = cf._cover_pair_failures[0]
    if bad:
        menu = (bad & -bad).bit_length() - 1
        return _substitutability_witness(cf._full_table, menu)
    return AxiomReport("substitutability", True)


def _substitutability_witness(table, menu: int) -> AxiomReport:
    worker, removed = next(
        (w, removed)
        for w in iter_indices(table[menu])
        for removed in iter_indices(menu & ~bit(w))
        if not table[menu & ~bit(removed)] >> w & 1
    )
    return AxiomReport(
        "substitutability", False, {"menu": menu, "worker": worker, "removed": removed}
    )


def check_consistency(cf: ChoiceFunction, caps: Caps = DEFAULT_CAPS) -> AxiomReport:
    """Dropping unchosen workers from the menu never changes the choice.

    Decided on cover pairs: removing one unchosen worker ``v`` must keep
    the choice, and unchosen workers can be removed one at a time.  The
    menus that break this come from the kept cover-pair pass, shared with
    :func:`check_substitutability`, behind the ``2**k`` guard.  The lowest
    menu that breaks it is the menu of the first submenu witness, so only
    that menu's submenus are walked.
    """
    require_universe(cf.universe_size, caps)
    bad = cf._cover_pair_failures[1]
    if bad:
        menu = (bad & -bad).bit_length() - 1
        return _consistency_witness(cf._full_table, menu)
    return AxiomReport("consistency", True)


def _consistency_witness(table, menu: int) -> AxiomReport:
    chosen = table[menu]
    submenu = next(
        chosen | sub
        for sub in iter_submasks(menu & ~chosen)
        if table[chosen | sub] != chosen
    )
    return AxiomReport("consistency", False, {"menu": menu, "submenu": submenu})


def check_path_independence(cf: ChoiceFunction, caps: Caps = DEFAULT_CAPS) -> AxiomReport:
    """Check ``C(W | W') == C(C(W) | W')`` for every pair of menus.

    A union of maximizers is path independent (Aizerman and Malishevski),
    so an ``orders`` function passes without a scan.  Any other function
    is path independent exactly when it is substitutable and consistent,
    which it reads from the kept cover-pair pass.  Only when that fails
    does the pairwise scan run, quadratic in the number of menus, to find
    the first failing ``{first, second}`` pair as the witness.  The
    verdict is kept on ``cf``, so each choice function is checked at most
    once, but the ``2**k`` guard applies on every call, ``orders``
    functions included.
    """
    require_universe(cf.universe_size, caps)
    return cf._path_independence


def _pairwise_path_independence(cf: ChoiceFunction) -> AxiomReport:
    """Direct scan of every menu pair, first menu outermost, both ascending."""
    table = cf._full_table
    n = len(table)
    for first in range(n):
        first_chosen = table[first]
        if first_chosen == first:
            continue  # both sides of the test read C(first | second)
        for second in range(n):
            if table[first | second] != table[first_chosen | second]:
                return AxiomReport(
                    "path-independence", False, {"first": first, "second": second}
                )
    return AxiomReport("path-independence", True)


def check_lad(cf: ChoiceFunction, caps: Caps = DEFAULT_CAPS) -> AxiomReport:
    """Law of aggregate demand: larger menus never yield smaller hires.

    Decided on cover pairs: removing one worker must not raise the number
    hired, and every submenu is reached by removing workers one at a time.
    The first menu that fails is the larger menu of the first witness, so
    only that menu's submenus are walked.  An ``orders`` function of at
    most one order passes without the table: ``|C(S)|`` is 1 exactly when
    ``S`` holds a worker its order ranks and 0 otherwise, so it never
    falls as ``S`` grows.
    """
    require_universe(cf.universe_size, caps)
    if cf.kind == ORDERS and len(cf.orders) <= 1:
        return AxiomReport("law-of-aggregate-demand", True)
    hires: list[int] = []  # filled as the scan goes, so an early failure stays cheap
    for menu, chosen in enumerate(cf._full_table):
        hired = chosen.bit_count()
        hires.append(hired)
        rest = menu
        while rest:
            low = rest & -rest
            if hires[menu ^ low] > hired:
                return _lad_witness(hires, menu)
            rest ^= low
    return AxiomReport("law-of-aggregate-demand", True)


def _lad_witness(hires: list[int], larger: int) -> AxiomReport:
    smaller = next(sub for sub in iter_submasks(larger) if hires[sub] > hires[larger])
    return AxiomReport(
        "law-of-aggregate-demand", False, {"smaller": smaller, "larger": larger}
    )


def replay_witness(cf: ChoiceFunction, report: AxiomReport) -> bool:
    """Re-evaluate a failure witness; True when it still shows the violation."""
    if report.passed or report.witness is None:
        return False
    w = report.witness
    if report.axiom == "substitutability":
        menu, worker, removed = w["menu"], w["worker"], w["removed"]
        if removed == worker or not menu >> removed & 1:
            return False
        return bool(
            cf.choose(menu) >> worker & 1
            and not cf.choose(menu & ~bit(removed)) >> worker & 1
        )
    if report.axiom == "consistency":
        menu, submenu = w["menu"], w["submenu"]
        chosen = cf.choose(menu)
        nested = chosen & ~submenu == 0 and submenu & ~menu == 0
        return nested and cf.choose(submenu) != chosen
    if report.axiom == "path-independence":
        first, second = w["first"], w["second"]
        return cf.choose(first | second) != cf.choose(cf.choose(first) | second)
    if report.axiom == "law-of-aggregate-demand":
        smaller, larger = w["smaller"], w["larger"]
        if smaller & ~larger:
            return False
        return cf.choose(smaller).bit_count() > cf.choose(larger).bit_count()
    raise MarketValidationError(f"unknown axiom {report.axiom!r}")
