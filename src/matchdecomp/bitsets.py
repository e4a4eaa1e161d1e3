"""Worker sets as plain int bitmasks.

Bit ``i`` stands for the worker with dense index ``i``.  Masks keep subset
enumeration, unions, and equality checks cheap; labels only appear at the
I/O boundary.

A family of menus is an int too, one bit per menu over all ``2**k``
menus: bit ``m`` stands for the menu with mask ``m``.  :func:`menu_sets`
gives, for each worker, the menus it belongs to.  A choice function's
menu sets, the menus on which it chooses each worker, come from one of
two places: :func:`member_sets` transposes an explicit ``2**k`` table, and
:func:`maxima_sets` reads a family of rankings directly, the menus on
which each worker is some ranking's best.  Either way an axiom check or a
family check can then test every menu at once with a few big-int
operations.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence
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


def maxima_sets(rankings: Iterable[tuple[int, ...]], k: int) -> tuple[int, ...]:
    """For each of ``k`` workers, the menus on which some ranking's best is it.

    All ``2**k`` menus go down a ranking together as one menu set: at
    worker ``w`` the menus containing ``w`` stop, with ``w`` as their best,
    and the rest go on.  Rankings that share a prefix agree on every menu
    that misses it, so the rankings are taken in sorted order, which puts
    shared prefixes next to each other.  For each depth ``d`` the pass keeps
    the menus holding none of the previous ranking's first ``d`` workers,
    and starts each ranking after the prefix it shares with the previous
    one.  The result is a union over the rankings, so their order, repeats,
    empty rankings and rankings that are prefixes of others change nothing.
    A worker index ``k`` or above is on no menu and is passed over.
    """
    has = menu_sets(k)
    best = [0] * k
    # left[d]: the menus holding none of the previous ranking's first d workers
    left = [(1 << (1 << k)) - 1]
    previous: tuple[int, ...] = ()
    for ranking in sorted(rankings):
        shared = 0
        for a, b in zip(previous, ranking):
            if a != b:
                break
            shared += 1
        del left[shared + 1 :]
        menus = left[shared]
        for w in ranking[shared:]:
            if w < k:
                present = menus & has[w]
                best[w] |= present
                menus ^= present
            left.append(menus)
        previous = ranking
    return tuple(best)
