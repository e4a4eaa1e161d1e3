"""Workload definitions and seeded input generation for the benchmark.

A workload is a list of markets plus, per market, the CLI operations run on
it.  Every workload also runs the bundled reference market through every
subcommand, so each per-command metric is measured on every workload and
the reference outputs can be compared with recorded digests.

Markets come from ``matchdecomp.generator`` with seeds drawn from
``random.Random("<workload>/<seed>")``.  A drawn market is kept only when a
size measure of the market itself (total copies, or the copy enumerators'
candidate bound, and on ``many-copies`` also the stage count of
workers-proposing deferred acceptance) falls in the workload's band, so
every seed gives a workload of about the same amount of work.  These
measures follow from outputs the CLI keeps byte-identical (the
decomposition and the DA stage count), so a change that keeps those
outputs does not change the markets chosen.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from matchdecomp import (
    GenParams,
    ManyToOneMarket,
    ManyToOneMatching,
    MarketDocument,
    build_associated_market,
    canonicalize,
    check_stable,
    copies_propose,
    decompose_market,
    dump_market,
    load_market,
    merge_matching,
    random_market,
    workers_propose,
)

REFERENCE = os.path.join("src", "matchdecomp", "data", "reference_market.json")

# Each command's metric and its argv after the market path.
VALIDATE = ("validate_s", ["validate"])
DECOMPOSE = ("decompose_s", ["decompose"])
SOLVE_COPIES = ("solve_copies_s", ["solve", "--proposing", "copies"])
SOLVE_COPIES_TRACE = ("solve_copies_s", ["solve", "--proposing", "copies", "--trace"])
SOLVE_WORKERS = ("solve_workers_s", ["solve", "--proposing", "workers"])
ENUM_STABLE = ("enumerate_stable_s", ["enumerate", "--concept", "stable"])
ENUM_COPY = ("enumerate_copy_stable_s", ["enumerate", "--concept", "copy-stable"])
ENUM_CLASSICAL = ("enumerate_classical_s", ["enumerate", "--concept", "classical"])
VERIFY = ("verify_s", ["verify"])
# "@stable" and "@unstable" stand for the market's two matching files.
CHECK_STABLE = ("check_s", ["check", "@stable"])
CHECK_PERTURBED = ("check_s", ["check", "@unstable"])

COMMAND_METRICS = (
    "validate_s",
    "decompose_s",
    "solve_copies_s",
    "solve_workers_s",
    "enumerate_stable_s",
    "enumerate_copy_stable_s",
    "enumerate_classical_s",
    "verify_s",
    "check_s",
)

SMALL_COMMANDS = (
    VALIDATE,
    SOLVE_COPIES,
    SOLVE_WORKERS,
    ENUM_STABLE,
    ENUM_COPY,
    ENUM_CLASSICAL,
    VERIFY,
    CHECK_STABLE,
    CHECK_PERTURBED,
)
REFERENCE_COMMANDS = (
    VALIDATE,
    DECOMPOSE,
    SOLVE_COPIES_TRACE,
    SOLVE_WORKERS,
    ENUM_STABLE,
    ENUM_COPY,
    ENUM_CLASSICAL,
    VERIFY,
    CHECK_STABLE,
    CHECK_PERTURBED,
)


@dataclass(frozen=True)
class Workload:
    """One market family: generator knobs, size band and commands.

    ``measure`` names the size measure the band applies to: ``copies`` is
    the total copy count of the associated market, ``candidates`` the
    candidate bound of the pruned copy enumerators.  ``stages``, when set,
    also bands the stage count of workers-proposing deferred acceptance.
    """

    name: str
    markets: int
    workers: int
    firms: tuple[int, ...]  # firm count of market i is firms[i % len(firms)]
    max_orders: int
    density: float
    measure: str
    band: tuple[int, int]
    commands: tuple
    tables: bool = False  # rewrite every other firm as an explicit table
    stages: tuple[int, int] | None = None
    reference_repeats: int = 1  # runs of each reference operation per pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide-menus",
            markets=2,
            workers=10,
            firms=(2,),
            max_orders=2,
            density=1.0,
            measure="copies",
            band=(300, 340),
            commands=(
                VALIDATE,
                DECOMPOSE,
                SOLVE_COPIES,
                SOLVE_WORKERS,
                ENUM_STABLE,
                CHECK_STABLE,
            ),
            tables=True,
            reference_repeats=5,
        ),
        Workload(
            "many-copies",
            markets=2,
            workers=9,
            firms=(3,),
            max_orders=3,
            density=0.8,
            measure="copies",
            band=(1500, 1700),
            stages=(1500, 2000),
            commands=(DECOMPOSE, SOLVE_COPIES_TRACE, SOLVE_WORKERS),
            reference_repeats=5,
        ),
        Workload(
            "small-exhaustive",
            markets=12,
            workers=5,
            firms=(2, 3),
            max_orders=2,
            density=0.8,
            measure="candidates",
            band=(3000, 5000),
            commands=SMALL_COMMANDS,
        ),
    )
}


def candidate_bound(assoc) -> int:
    """Candidates the pruned copy enumerators may scan: prod of (1 + options)."""
    crank = assoc.copy_rank
    cempty = assoc.copy_empty_rank
    bound = 1
    for w, lifted in enumerate(assoc.worker_prefs):
        bound *= 1 + sum(1 for c in lifted if crank[c][w] < cempty[c])
    return bound


def _with_tables(market: ManyToOneMarket) -> ManyToOneMarket:
    cfs = tuple(
        canonicalize(cf) if i % 2 == 0 else cf
        for i, cf in enumerate(market.choice_functions)
    )
    return ManyToOneMarket(market.workers, market.firms, cfs, market.worker_prefs)


def _market(wl: Workload, index: int, market_seed: int) -> ManyToOneMarket:
    params = GenParams(
        workers=wl.workers,
        firms=wl.firms[index % len(wl.firms)],
        max_orders=wl.max_orders,
        density=wl.density,
        seed=market_seed,
    )
    market = random_market(params)
    return _with_tables(market) if wl.tables else market


def copy_count(market: ManyToOneMarket) -> int:
    """Copies of the market: maximal pick sequences of each firm's choice."""
    total = 0
    for cf in market.choice_functions:
        table = canonicalize(cf).table
        leaves = [0] * len(table)  # by remaining-worker mask
        for remaining in range(len(table)):
            chosen = table[remaining]
            leaves[remaining] = 1 if not chosen else sum(
                leaves[remaining & ~(1 << w)] for w in range(cf.universe_size)
                if chosen >> w & 1
            )
        total += leaves[-1]
    return total


def _in(value: int, band: tuple[int, int]) -> bool:
    return band[0] <= value <= band[1]


def _size(wl: Workload, market: ManyToOneMarket):
    """The associated market and its size measure, or None when out of band."""
    if wl.measure == "copies" and not _in(copy_count(market), wl.band):
        return None  # counted without decomposing, which costs far more
    assoc = build_associated_market(market, decompose_market(market))
    size = len(assoc.copies) if wl.measure == "copies" else candidate_bound(assoc)
    if not _in(size, wl.band):
        return None
    if wl.stages is not None:
        _, trace = workers_propose(assoc)
        if not _in(len(trace.stages), wl.stages):
            return None
    return assoc, size


def _firm_sets(market, matching: ManyToOneMatching) -> dict[str, list[str]]:
    return {
        label: [market.workers[w] for w, f in enumerate(matching.by_worker) if f == i]
        for i, label in enumerate(market.firms)
    }


def perturb(market, matching: ManyToOneMatching) -> ManyToOneMatching:
    """First single-worker reassignment of ``matching`` that is unstable."""
    options = (None, *range(len(market.firms)))
    for w, current in enumerate(matching.by_worker):
        for f in options:
            if f == current:
                continue
            by_worker = list(matching.by_worker)
            by_worker[w] = f
            candidate = ManyToOneMatching(tuple(by_worker), matching.firm_count)
            if not check_stable(market, candidate).stable:
                return candidate
    raise ValueError("no single-worker change makes the matching unstable")


def _matching_files(doc: MarketDocument, assoc) -> tuple[str, str]:
    """The merged copies-proposing DA matching and a perturbed, unstable one."""
    matching, _ = copies_propose(assoc)
    merged = merge_matching(assoc, matching)
    stable = json.dumps(_firm_sets(doc.market, merged), sort_keys=True) + "\n"
    broken = perturb(doc.market, merged)
    unstable = json.dumps(_firm_sets(doc.market, broken), sort_keys=True) + "\n"
    return stable, unstable


def _ops(label, market_path, firms, commands, files, repeat=1) -> list[dict]:
    ops = []
    for metric, args in commands:
        argv = [args[0], market_path]
        rc = 0
        for arg in args[1:]:
            if arg.startswith("@"):
                rc = 3 if arg == "@unstable" else 0
                arg = files[arg[1:]]
            argv.append(arg)
        ops.append(
            {
                "market": label,
                "firms": firms,
                "metric": metric,
                "key": " ".join(args),
                "argv": argv,
                "rc": rc,
                "repeat": repeat,
            }
        )
    return ops


def select(wl: Workload, seed: int) -> list[tuple]:
    """Draw markets until ``wl.markets`` are in band: (seed, market, assoc, size)."""
    rng = random.Random(f"{wl.name}/{seed}")
    chosen = []
    while len(chosen) < wl.markets:
        market_seed = rng.randrange(2**31)
        market = _market(wl, len(chosen), market_seed)
        sized = _size(wl, market)
        if sized is not None:
            chosen.append((market_seed, market, *sized))
    return chosen


def _market_files(wl: Workload, chosen) -> dict[str, str]:
    """File name -> text for every generated market and matching file."""
    files = {}
    for i, (_, market, assoc, _) in enumerate(chosen):
        doc = MarketDocument(market)
        files[f"m{i:02d}.json"] = dump_market(doc)
        if CHECK_STABLE in wl.commands:
            stable, unstable = _matching_files(doc, assoc)
            files[f"m{i:02d}.stable.json"] = stable
            files[f"m{i:02d}.unstable.json"] = unstable
    return files


def _regenerated(wl: Workload, chosen) -> dict[str, str]:
    """Market files rebuilt from the chosen market seeds alone."""
    files = {}
    for i, (market_seed, *_rest) in enumerate(chosen):
        market = _market(wl, i, market_seed)
        files[f"m{i:02d}.json"] = dump_market(MarketDocument(market))
    return files


def _reference_files() -> dict[str, str]:
    doc = load_market(REFERENCE)
    assoc = build_associated_market(
        doc.market, decompose_market(doc.market, doc.copy_indexing)
    )
    stable, unstable = _matching_files(doc, assoc)
    return {"ref.stable.json": stable, "ref.unstable.json": unstable}


def _plan(wl: Workload, workdir: str, chosen) -> list[dict]:
    """Every operation of one pass, reference market first."""
    def files(label):
        return {
            kind: os.path.join(workdir, f"{label}.{kind}.json")
            for kind in ("stable", "unstable")
        }

    reference = load_market(REFERENCE).market
    ops = _ops(
        "ref",
        REFERENCE,
        len(reference.firms),
        REFERENCE_COMMANDS,
        files("ref"),
        wl.reference_repeats,
    )
    for i, (_, market, _, _) in enumerate(chosen):
        label = f"m{i:02d}"
        path = os.path.join(workdir, f"{label}.json")
        ops += _ops(label, path, len(market.firms), wl.commands, files(label))
    return ops


def write_inputs(wl: Workload, seed: int, workdir) -> tuple[list[dict], list[str]]:
    """Write every input file into ``workdir``: the operations and any problems.

    The problems name market files that differ when regenerated from their
    seeds, which would break the generator's determinism contract.
    """
    chosen = select(wl, seed)
    files = {**_market_files(wl, chosen), **_reference_files()}
    os.makedirs(workdir)
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    problems = [
        f"{name} is not byte-identical when regenerated from its seed"
        for name, text in _regenerated(wl, chosen).items()
        if text != files[name]
    ]
    return _plan(wl, str(workdir), chosen), problems
