"""Worker sets as plain int bitmasks.

Bit ``i`` stands for the worker with dense index ``i``.  Masks keep subset
enumeration, unions, and equality checks cheap; labels only appear at the
I/O boundary.

A family of menus is an int too, one bit per menu over all ``2**k``
menus: bit ``m`` stands for the menu with mask ``m``.  :func:`menu_sets`
gives, for each worker, the menus it belongs to.  A choice function's
menu sets, the menus on which it chooses each worker, come from one of
two places: :func:`member_sets` transposes an explicit ``2**k`` table, and
:func:`graph_sets` reads a menu graph, the picks on each menu reached
from the full one, which is either the graph a decomposition walk
records or a family of rankings laid on one graph by
:func:`prefix_graph`.  Either way an axiom check or a family check can
then test every menu at once with a few big-int operations.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cache


def bit(index: int) -> int:
    return 1 << index


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` in descending order, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def labels_of(mask: int, labels: tuple[str, ...]) -> list[str]:
    """Render a mask as a list of labels in dense-index order."""
    return [labels[i] for i in iter_indices(mask)]


@cache
def menu_sets(k: int) -> tuple[int, ...]:
    """For each of ``k`` workers, the menus that contain it, as a menu set.

    Worker ``w`` is in the upper half of every block of ``2**(w + 1)``
    menus; the first block is copied by doubling, which stays linear in
    ``2**k`` where dividing out the repetition does not.
    """
    sets = []
    for w in range(k):
        menus = ((1 << (1 << w)) - 1) << (1 << w)
        width = 2 << w
        while width < 1 << k:
            menus |= menus << width
            width <<= 1
        sets.append(menus)
    return tuple(sets)


# _BIT_DIGITS[j] maps a byte to b"1" when its bit j is set, else to b"0"
_BIT_DIGITS = tuple((b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8))


def member_sets(entries: Sequence[int], k: int) -> tuple[int, ...]:
    """For each of ``k`` workers, the positions whose entry holds it.

    Bit ``m`` of the result's item ``w`` is set when bit ``w`` of
    ``entries[m]`` is.  The transposition runs in C: the entries are packed
    into a little-endian array, each byte lane (workers ``8 * b`` up) is
    one strided slice, and each worker's bit becomes an ASCII digit read
    by ``int``.
    """
    # C guarantees at least 8, 16 and 64 bits for these item codes
    packed = array("B" if k <= 8 else "H" if k <= 16 else "Q", entries)
    if sys.byteorder == "big":
        packed.byteswap()
    raw, size = packed.tobytes(), packed.itemsize
    # reversed, the bytes run from the last entry's most significant byte,
    # so each lane reads highest position first, as int() wants
    raw = raw[::-1]
    return tuple(
        [
            int(raw[size - 1 - (w >> 3) :: size].translate(_BIT_DIGITS[w & 7]), 2)
            for w in range(k)
        ]
    )


def prefix_graph(rankings: Iterable[tuple[int, ...]], k: int) -> dict[int, int]:
    """The menu graph of a family of rankings, for :func:`graph_sets`.

    Each ranking picks its next worker on the full menu minus the workers
    it ranks above, so its picks are one path down the graph.  A worker
    index ``k`` or above is on no menu and is passed over, as is a worker
    the ranking repeats.
    """
    graph: dict[int, int] = {}
    full = (1 << k) - 1
    for ranking in rankings:
        menu = full
        for w in ranking:
            low = 1 << w
            if menu & low:
                graph[menu] = graph.get(menu, 0) | low
                menu ^= low
    return graph


def graph_sets(graph: Mapping[int, int], k: int) -> tuple[int, ...]:
    """For each of ``k`` workers, the menus on which a path of ``graph`` picks it.

    ``graph[M]`` is the set of workers picked on menu ``M``, and picking
    ``w`` leads to menu ``M - {w}``.  A path through ``M`` that picks ``w``
    there picks it on every menu inside ``M`` that holds ``w``, so each
    edge adds ``inside(M) & has[w]``, where ``inside(M)`` is the menu set
    of the menus inside ``M``; the menus inside ``M - {w}`` are those
    that miss ``w``.  The walk starts at the full menu and visits each
    menu it reaches once.  A menu it cannot reach and a pick outside its
    menu add nothing.
    """
    has = menu_sets(k)
    picked = [0] * k
    full = (1 << k) - 1
    stack = [(full, (1 << (1 << k)) - 1)]
    seen = {full}
    while stack:
        menu, inside = stack.pop()
        chosen = graph.get(menu, 0) & menu
        while chosen:
            low = chosen & -chosen
            chosen ^= low
            w = low.bit_length() - 1
            present = inside & has[w]
            picked[w] |= present
            child = menu ^ low
            if child not in seen:
                seen.add(child)
                stack.append((child, inside ^ present))
    return tuple(picked)
