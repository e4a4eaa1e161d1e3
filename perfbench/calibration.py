"""Machine-speed calibration for the benchmark's timings.

The benchmark shares a small virtual machine with other tenants, whose load
changes the speed of every Python instruction by up to 40% for tens of
seconds at a time.  Such a change moves all timings of a run together, so
the worker times this fixed pure-Python kernel next to the operations it
times and scales their wall times by ``REFERENCE_S`` over the kernel's
time (see ``Calibrator``).  The kernel mixes the kinds of work the
package does (bit masks over menus and method calls; building, probing and
sorting tuples, dicts and lists; walking a nested document as schema
validation does) but imports nothing from it, so no change to the package
can move it.  A calibrated time reads as the operation's seconds on a
machine that runs the kernel in ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Median wall time of ``kernel()`` on the 2-core x86-64 virtual machine
# (Python 3.11) the baseline was recorded on.
REFERENCE_S = 0.011
# A speed change mostly lasts seconds, so a kernel time serves the calls
# made within this long of it.
INTERVAL_S = 0.25

WORKERS = 10
ORDERS = tuple(
    tuple((i * 7 + j * 3) % WORKERS for j in range(WORKERS)) for i in range(3)
)
ENTRIES = 5000
DOCUMENT = {
    "workers": [f"w{i}" for i in range(12)],
    "firms": [
        {
            "id": f"f{j}",
            "kind": "orders",
            "orders": [[f"w{(i * j + k) % 12}" for i in range(12)] for k in range(3)],
            "meta": {"size": j, "notes": [1, 2, {"empty": None}]},
        }
        for j in range(8)
    ],
    "preferences": {f"w{i}": [f"f{j}" for j in range(8)] for i in range(12)},
}


class _Menu:
    __slots__ = ("bits",)

    def __init__(self, bits: int):
        self.bits = bits

    def best(self, order: tuple[int, ...]) -> int | None:
        for w in order:
            if self.bits >> w & 1:
                return w
        return None


def _choice_table() -> int:
    table = {}
    for bits in range(1 << WORKERS):
        menu = _Menu(bits)
        chosen = 0
        for order in ORDERS:
            best = menu.best(order)
            if best is not None:
                chosen |= 1 << best
        table[bits] = (chosen, [w for w in range(WORKERS) if chosen >> w & 1])
    pairs = 0
    for a in range(0, 1 << WORKERS, 5):
        chosen_a = table[a][0]
        for b in range(0, 1 << WORKERS, 97):
            union = table[a | b][0]
            if union & chosen_a == union & a:
                pairs += 1
    return pairs + sum(len(members) for _, members in table.values())


def _containers() -> int:
    rows = [((i * 2654435761) % 1000003, f"c{i}", (i, i * 2)) for i in range(ENTRIES)]
    index = {key: (label, pair[1]) for key, label, pair in rows[::2]}
    found = 0
    for key, label, pair in rows[1::2]:
        hit = index.get(key ^ 1)
        found += pair[0] if hit is None else len(hit[0])
    return found + sorted(index, key=lambda key: key & 0xFFFF)[0]


def _walk(node) -> int:
    if isinstance(node, dict):
        count = 1
        for key, value in node.items():
            if not isinstance(key, str):
                raise TypeError(key)
            count += _walk(value)
        return count
    if isinstance(node, list):
        return 1 + sum(_walk(value) for value in node)
    if isinstance(node, str):
        return 1 if node[:1].isalpha() else 2
    return 1


def kernel() -> int:
    """Fixed work of about 10 ms; the result only keeps it from being skipped."""
    return _choice_table() + _containers() + sum(_walk(DOCUMENT) for _ in range(12))


def kernel_time() -> float:
    gc.collect()  # as before each timed call, so earlier garbage costs nothing
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Calibrator:
    """``REFERENCE_S`` over the kernel's latest time.

    The kernel is timed again once its latest time is ``INTERVAL_S`` old.
    A call is scaled by the mean of the factors right before and right
    after it, so a call longer than ``INTERVAL_S`` gets the kernel's speed
    on both sides of it.
    """

    def __init__(self):
        self.value = 1.0
        self.measured_at = float("-inf")

    def __call__(self) -> float:
        if perf_counter() - self.measured_at > INTERVAL_S:
            self.value = REFERENCE_S / kernel_time()
            self.measured_at = perf_counter()
        return self.value
