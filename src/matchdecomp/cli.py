"""Command line interface.

Exit codes: 0 success, 1 unreadable or invalid input, 2 a required
choice-function axiom fails, 3 a verification fails (correspondence,
count invariance, a `check` that finds a blocker, or deferred acceptance
ending unstable under --no-reauthorize / --no-release), 4 a resource cap
is exceeded.  Path independence is required by `decompose`, `solve`,
`enumerate --concept copy-stable|classical` and `verify`, which exit 2
without it; `validate` reports it and exits 2 if a firm fails it, while
`enumerate --concept stable` and `check` work on the choice functions
directly and do not require it.  A `copy_indexing` entry is matched
against its firm's decomposition on every load, so a file that indexes
a firm without path independence exits 2 from every command, these
included.  Caps can be overridden through
MATCHDECOMP_MAX_WORKERS, MATCHDECOMP_MAX_ORDERS and
MATCHDECOMP_MAX_CANDIDATES.  All output is JSON and deterministic for
fixed input and flags; README's "Output format" gives its exact form.

:func:`main` can be called repeatedly in one process.  It builds its
argument parser on the first call and reuses it; caps are read from the
environment on every call.  Each command's handler imports the functions
it calls from their home modules when it runs, so a process loads only
the modules its commands use, and a caller that replaces one of them
patches its home module (``matchdecomp.da.copies_propose``), not this
one.  :func:`build_parser` still returns a fresh parser each time.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .caps import caps_from_env
from .errors import MarketError, MarketValidationError
from .io import load_market, render_json

_CONCEPTS = {
    "stable": "stable",
    "copy-stable": "copy-stable",
    "stable-star": "copy-stable",  # accepted synonym
    "classical": "classical",
}


def _emit(data: dict) -> None:
    print(render_json(data))


def _assoc_for(doc, caps):
    from .association import build_associated_market

    return build_associated_market(doc.market, caps=caps, explicit=doc.copy_indexing)


def _cmd_validate(args, caps) -> int:
    from .choices import check_lad, check_path_independence
    from .io import render_axiom_report

    doc = load_market(args.market, caps)
    market = doc.market
    firms = []
    ok = True
    for label, cf in zip(market.firms, market.choice_functions):
        pi = check_path_independence(cf, caps)
        lad = check_lad(cf, caps)
        ok = ok and pi.passed
        firms.append(
            {
                "id": label,
                "path_independence": render_axiom_report(pi, market.workers),
                "law_of_aggregate_demand": render_axiom_report(lad, market.workers),
            }
        )
    _emit({"ok": ok, "firms": firms})
    return 0 if ok else 2


def _cmd_decompose(args, caps) -> int:
    doc = load_market(args.market, caps)
    market = doc.market
    firms = []
    for label, orders in zip(market.firms, _assoc_for(doc, caps).per_firm):
        firms.append(
            {
                "id": label,
                "indexing": "explicit"
                if market.firm_index[label] in doc.copy_indexing
                else "lexicographic",
                "orders": [[market.workers[w] for w in o.ranking] for o in orders],
            }
        )
    _emit({"firms": firms})
    return 0


def _cmd_solve(args, caps) -> int:
    from .da import copies_propose, trace_json_lines, workers_propose

    doc = load_market(args.market, caps)
    assoc = _assoc_for(doc, caps)
    if args.proposing in ("copies", "firms"):
        matching, trace = copies_propose(assoc, reauthorize=args.reauthorize)
    else:
        matching, trace = workers_propose(assoc, release=args.release)
    if args.trace:
        for line in trace_json_lines(assoc, trace):
            print(line)
    _emit(
        {
            "proposing": trace.proposing,
            "stages": trace.stage_count,
            "matching": matching.render(assoc),
        }
    )
    return 0


def _cmd_enumerate(args, caps) -> int:
    from .stability import (
        enumerate_classical_stable,
        enumerate_copy_stable,
        enumerate_stable,
    )

    doc = load_market(args.market, caps)
    concept = _CONCEPTS[args.concept]
    if concept == "stable":
        found = enumerate_stable(doc.market, caps)
        rendered = [m.render(doc.market) for m in found]
    else:
        assoc = _assoc_for(doc, caps)
        if concept == "copy-stable":
            found = enumerate_copy_stable(assoc, caps)
        else:
            found = enumerate_classical_stable(assoc, caps)
        rendered = [m.render(assoc) for m in found]
    _emit({"concept": concept, "count": len(found), "matchings": rendered})
    return 0


def _cmd_verify(args, caps) -> int:
    from .correspondence import check_count_invariance, verify_correspondence

    doc = load_market(args.market, caps)
    assoc = _assoc_for(doc, caps)
    correspondence = verify_correspondence(assoc, caps)
    invariance = check_count_invariance(
        assoc,
        caps,
        stable=list(correspondence.stable),
        copy_stable=list(correspondence.copy_stable),
    )
    ok = correspondence.passed and invariance.passed
    _emit(
        {
            "ok": ok,
            "correspondence": {
                "passed": correspondence.passed,
                "stable_count": len(correspondence.stable),
                "copy_stable_count": len(correspondence.copy_stable),
                "problems": list(correspondence.problems),
                "pairs": [
                    {
                        "copy_stable": lam.render(assoc)["by_copy"],
                        "stable": image.render(doc.market)["by_firm"],
                    }
                    for lam, image in zip(
                        correspondence.copy_stable, correspondence.merged
                    )
                ],
            },
            "count_invariance": {
                "verdict": invariance.verdict,
                "law_of_aggregate_demand": {
                    label: held
                    for label, held in zip(doc.market.firms, invariance.lad_by_firm)
                },
                "copies_filled_per_matching": [
                    list(counts) for counts in invariance.copy_counts
                ],
                "hires_per_matching": [list(sizes) for sizes in invariance.firm_sizes],
            },
        }
    )
    return 0 if ok else 3


def _cmd_check(args, caps) -> int:
    from .io import read_json
    from .matchings import ManyToOneMatching
    from .stability import check_stable, render_stability_report

    doc = load_market(args.market, caps)
    data = read_json(args.matching)
    if not isinstance(data, dict) or not all(
        isinstance(workers, list) and all(isinstance(w, str) for w in workers)
        for workers in data.values()
    ):
        raise MarketValidationError(
            "matching file must hold an object mapping firm ids to lists of worker ids"
        )
    matching = ManyToOneMatching.from_firm_sets(doc.market, data)
    report = check_stable(doc.market, matching)
    _emit(render_stability_report(report, doc.market.workers, doc.market.firms))
    return 0 if report.stable else 3


def _cmd_gen(args, caps) -> int:
    from .generator import GenParams, random_market
    from .io import MarketDocument, dump_market

    del caps
    params = GenParams(
        workers=args.workers,
        firms=args.firms,
        max_orders=args.max_orders,
        density=args.density,
        seed=args.seed,
    )
    market = random_market(params)
    text = dump_market(MarketDocument(market))
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchdecomp",
        description="Decompose many-to-one matching markets into firm copies "
        "and analyze their stable matchings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check choice-function axioms per firm")
    p.add_argument("market")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("decompose", help="print each firm's linear orders")
    p.add_argument("market")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("solve", help="run deferred acceptance on the copies")
    p.add_argument("market")
    p.add_argument(
        "--proposing",
        choices=["copies", "firms", "workers"],
        default="copies",
        help="which side offers; 'firms' is a synonym for 'copies'",
    )
    p.add_argument(
        "--reauthorize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="let unauthorized copies re-check each stage; --no-reauthorize "
        "drops them for good, which can abort on an unstable end state",
    )
    p.add_argument(
        "--release",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="let a copy release its hire once a sibling lands somebody it "
        "ranks higher; --no-release keeps every hire put, which can abort "
        "on an unstable end state",
    )
    p.add_argument("--trace", action="store_true", help="print one JSON line per stage")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("enumerate", help="list all matchings stable under a concept")
    p.add_argument("market")
    p.add_argument(
        "--concept",
        choices=sorted(_CONCEPTS),
        default="stable",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "verify", help="check the stable-set correspondence and count invariance"
    )
    p.add_argument("market")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "check", help="check one many-to-one matching, given as {firm: [workers]} JSON"
    )
    p.add_argument("market")
    p.add_argument("matching")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="generate a random market file")
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--firms", type=int, required=True)
    p.add_argument("--max-orders", "--jmax", type=int, default=3, dest="max_orders")
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state on the parser, so one serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args, caps_from_env())
    except MarketError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return exc.exit_code
    except (json.JSONDecodeError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
