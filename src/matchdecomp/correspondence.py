"""What moving matchings between the two market forms preserves.

The maps themselves, ``merge_matching`` and ``split_matching``, live in
:mod:`matchdecomp.association` beside the copy market they read.

``verify_correspondence`` checks, by exhaustive enumeration, that the two
translations are mutually inverse bijections between the copy-stable
matchings of the associated market and the stable matchings of the source
market.

``check_count_invariance`` is the rural-hospitals style diagnostic: when
every firm satisfies the law of aggregate demand, each firm fills the same
number of copies in every copy-stable matching, hires the same number of
workers in every stable matching, and each worker is either matched in all
stable matchings or in none.  Firms failing the premise make the report
informational rather than a failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .association import OneToOneMarket, merge_matching, split_matching
from .caps import DEFAULT_CAPS, Caps
from .choices import check_lad
from .errors import FirmRationalityError
from .matchings import ManyToOneMatching, OneToOneMatching
from .stability import enumerate_copy_stable, enumerate_stable


@dataclass(frozen=True)
class CorrespondenceReport:
    """Both stable sets plus the two translation images, with a verdict."""

    passed: bool
    stable: tuple[ManyToOneMatching, ...]
    copy_stable: tuple[OneToOneMatching, ...]
    merged: tuple[ManyToOneMatching, ...]  # merge image of copy_stable, aligned
    split: tuple[OneToOneMatching, ...]  # split image of stable, aligned
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.passed


def verify_correspondence(
    assoc: OneToOneMarket,
    caps: Caps = DEFAULT_CAPS,
    stable: list[ManyToOneMatching] | None = None,
    copy_stable: list[OneToOneMatching] | None = None,
) -> CorrespondenceReport:
    """Exhaustively confirm the stable sets are in merge/split bijection.

    Precomputed stable sets may be passed in to avoid re-enumeration; they
    must come from the same market pair.
    """
    if stable is None:
        stable = enumerate_stable(assoc.source, caps)
    if copy_stable is None:
        copy_stable = enumerate_copy_stable(assoc, caps)
    problems: list[str] = []
    stable_set = set(stable)
    copy_stable_set = set(copy_stable)

    merged = []
    for lam in copy_stable:
        image = merge_matching(assoc, lam)
        merged.append(image)
        if image not in stable_set:
            problems.append(f"merge image {image.by_worker} is not stable")
        elif split_matching(assoc, image) != lam:
            problems.append(f"split(merge) moved {lam.by_worker}")
    # split seats each worker on a copy of the firm that holds it, so
    # merging a split image always gives the matching back
    split = []
    for mu in stable:
        try:
            image = split_matching(assoc, mu)
        except FirmRationalityError as exc:
            problems.append(f"split failed on stable matching {mu.by_worker}: {exc}")
            continue
        split.append(image)
        if image not in copy_stable_set:
            problems.append(f"split image {image.by_worker} is not copy-stable")
    if len(stable) != len(copy_stable):
        problems.append(
            f"{len(stable)} stable vs {len(copy_stable)} copy-stable matchings"
        )
    if len(set(merged)) != len(merged):
        problems.append("merge is not injective on the copy-stable set")
    return CorrespondenceReport(
        not problems,
        tuple(stable),
        tuple(copy_stable),
        tuple(merged),
        tuple(split),
        tuple(problems),
    )


PASS = "pass"
FAIL = "fail"
PREMISE_UNMET = "premise-unmet"


@dataclass(frozen=True)
class CountInvarianceReport:
    """Fill counts across the stable sets, gated on aggregate demand law.

    ``copy_counts[m][f]``: copies of firm ``f`` filled in the m-th
    copy-stable matching.  ``firm_sizes[m][f]``: workers firm ``f`` hires in
    the m-th stable matching.  ``worker_matched[m][w]``: whether worker
    ``w`` is matched there.  ``verdict`` is ``premise-unmet`` when some firm
    fails the law of aggregate demand, in which case the counts are
    reported but not judged.
    """

    lad_by_firm: tuple[bool, ...]
    verdict: str
    copy_counts: tuple[tuple[int, ...], ...]
    firm_sizes: tuple[tuple[int, ...], ...]
    worker_matched: tuple[tuple[bool, ...], ...]

    @property
    def passed(self) -> bool:
        return self.verdict != FAIL

    def __bool__(self) -> bool:
        return self.passed


def check_count_invariance(
    assoc: OneToOneMarket,
    caps: Caps = DEFAULT_CAPS,
    stable: list[ManyToOneMatching] | None = None,
    copy_stable: list[OneToOneMatching] | None = None,
) -> CountInvarianceReport:
    """Compare fill counts across both stable sets, judged only under LAD.

    ``stable`` and ``copy_stable`` default to the exhaustive sets of
    ``assoc.source`` and ``assoc``; pass them to reuse sets already
    enumerated.  The verdict is ``fail`` when every firm satisfies the law
    of aggregate demand but some firm's copy fill count, some firm's hire
    count or some worker's matched status differs between two matchings,
    and ``premise-unmet`` when some firm fails that law.
    """
    source = assoc.source
    if stable is None:
        stable = enumerate_stable(source, caps)
    if copy_stable is None:
        copy_stable = enumerate_copy_stable(assoc, caps)
    lad = tuple(check_lad(cf, caps).passed for cf in source.choice_functions)

    firm_of = assoc.firm_of_copy
    n = len(source.firms)
    copy_counts = []
    for lam in copy_stable:
        counts = [0] * n
        for c in lam.by_worker:
            if c is not None:
                counts[firm_of[c]] += 1
        copy_counts.append(tuple(counts))
    firm_sizes = [
        tuple(mask.bit_count() for mask in mu.firm_masks) for mu in stable
    ]
    worker_matched = [
        tuple(f is not None for f in mu.by_worker) for mu in stable
    ]

    if not all(lad):
        verdict = PREMISE_UNMET
    else:
        invariant = (
            len(set(copy_counts)) <= 1
            and len(set(firm_sizes)) <= 1
            and len(set(worker_matched)) <= 1
        )
        verdict = PASS if invariant else FAIL
    return CountInvarianceReport(
        lad, verdict, tuple(copy_counts), tuple(firm_sizes), tuple(worker_matched)
    )
