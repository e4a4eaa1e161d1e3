"""Worker sets as plain int bitmasks.

Bit ``i`` stands for the worker with dense index ``i``.  Masks keep subset
enumeration, unions, and equality checks cheap; labels only appear at the
I/O boundary.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


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
