"""Output checks for the benchmark's operations, run outside the timed region.

Each check reads one operation's captured stdout and re-derives what it
must say with the library's own checkers: every solve result merges into a
stable matching, every enumerated matching passes its stability checker,
the perturbed ``check`` reproduces the library's verdict, and the merged
deferred-acceptance matchings are among the enumerated stable ones.
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property

from matchdecomp import (
    LinearOrder,
    ManyToOneMatching,
    MarketError,
    OneToOneMatching,
    build_associated_market,
    check_classical_stable,
    check_copy_stable,
    check_stable,
    decompose_market,
    load_market,
    merge_matching,
    render_stability_report,
    verify_decomposition,
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def final_json(text: str):
    """The indented JSON object a command prints last, after any trace lines."""
    start = text.index("{\n")
    return text[:start].splitlines(), json.loads(text[start:])


class MarketOutputs:
    """Checks for every operation run on one market file."""

    def __init__(self, path: str):
        self.doc = load_market(path)
        self.market = self.doc.market
        self.merged: list[ManyToOneMatching] = []
        self.stable: set[ManyToOneMatching] | None = None
        self.counts: dict[str, int] = {}

    @cached_property
    def assoc(self):
        decomposition = decompose_market(self.market, self.doc.copy_indexing)
        return build_associated_market(self.market, decomposition)

    def check(self, op: dict, text: str) -> str | None:
        """None when the output is right, else what is wrong with it."""
        return getattr(self, "_" + op["argv"][0])(op, text)

    def _validate(self, op, text):
        data = json.loads(text)
        if data["ok"] is not True or len(data["firms"]) != len(self.market.firms):
            return "validate did not pass every firm"
        return None

    def _decompose(self, op, text):
        widx = self.market.worker_index
        for cf, entry in zip(self.market.choice_functions, json.loads(text)["firms"]):
            orders = tuple(
                LinearOrder(tuple(widx[w] for w in order)) for order in entry["orders"]
            )
            if not verify_decomposition(cf, orders).passed:
                return f"orders of {entry['id']} do not recompose its choice function"
        return None

    def _solve(self, op, text):
        trace_lines, data = final_json(text)
        if "--trace" in op["argv"] and len(trace_lines) != data["stages"]:
            return f"{len(trace_lines)} trace lines for {data['stages']} stages"
        assignment = {
            c: w for w, c in data["matching"]["by_worker"].items() if c is not None
        }
        matching = OneToOneMatching.from_copy_assignments(self.assoc, assignment)
        merged = merge_matching(self.assoc, matching)
        if not check_stable(self.market, merged).stable:
            return "merged deferred-acceptance matching is not stable"
        self.merged.append(merged)
        return None

    def _enumerate(self, op, text):
        data = json.loads(text)
        concept, rendered = data["concept"], data["matchings"]
        if data["count"] != len(rendered):
            return "count differs from the matchings listed"
        self.counts[concept] = len(rendered)
        if concept == "stable":
            fidx = self.market.firm_index
            found = {
                ManyToOneMatching(
                    tuple(
                        None if r["by_worker"][w] is None else fidx[r["by_worker"][w]]
                        for w in self.market.workers
                    ),
                    len(self.market.firms),
                )
                for r in rendered
            }
            if not all(check_stable(self.market, m).stable for m in found):
                return "an enumerated matching is not stable"
            self.stable = found
            return None
        checker = {
            "copy-stable": check_copy_stable,
            "classical": check_classical_stable,
        }[concept]
        for r in rendered:
            assignment = {c: w for c, w in r["by_copy"].items() if w is not None}
            m = OneToOneMatching.from_copy_assignments(self.assoc, assignment)
            if not checker(self.assoc, m).stable:
                return f"an enumerated {concept} matching fails its checker"
        return None

    def _verify(self, op, text):
        data = json.loads(text)
        if data["ok"] is not True or not data["correspondence"]["passed"]:
            return "verify did not pass"
        return None

    def _check(self, op, text):
        with open(op["argv"][2], encoding="utf-8") as fh:
            matching = ManyToOneMatching.from_firm_sets(self.market, json.load(fh))
        report = check_stable(self.market, matching)
        market = self.market
        expected = render_stability_report(report, market.workers, market.firms)
        if json.loads(text) != expected:
            return f"check output differs from the library's {expected}"
        if report.stable != (op["rc"] == 0):
            return "check input is not the intended stable/unstable matching"
        return None

    def cross_check(self) -> str | None:
        """Agreement between the commands run on this market."""
        if self.stable is not None and any(m not in self.stable for m in self.merged):
            return "a merged deferred-acceptance matching is not in the stable set"
        stable, copy_stable = self.counts.get("stable"), self.counts.get("copy-stable")
        if None not in (stable, copy_stable) and stable != copy_stable:
            return f"{stable} stable vs {copy_stable} copy-stable matchings"
        return None


def check_outputs(ops: list[dict], texts: list[str], digests: dict) -> dict[int, str]:
    """Operation index -> problem, for every operation whose output is wrong."""
    problems: dict[int, str] = {}
    markets: dict[str, list[int]] = {}
    for i, op in enumerate(ops):
        markets.setdefault(op["market"], []).append(i)
    for label, indices in markets.items():
        try:
            outputs = MarketOutputs(ops[indices[0]]["argv"][1])
        except MarketError as exc:
            problems.update({i: f"market file rejected: {exc}" for i in indices})
            continue
        for i in indices:
            try:
                problem = outputs.check(ops[i], texts[i])
            except Exception as exc:  # whatever the output is, it is wrong
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem is None and label == "ref":
                if digest(texts[i]) != digests.get(ops[i]["key"]):
                    problem = f"stdout digest changed to {digest(texts[i])}"
            if problem is not None:
                problems[i] = problem
        problem = outputs.cross_check()
        if problem is not None:
            problems[indices[-1]] = problem
    return problems
