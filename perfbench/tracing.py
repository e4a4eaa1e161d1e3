"""Spans and work counters around the package's public functions.

Nothing inside ``matchdecomp`` is changed on disk.  ``Tracer.install``
rebinds each traced function, in every ``matchdecomp`` module that imported
it, to a wrapper that records a span (name, start, end, parent) and updates
counters computed from the call's inputs and return value.  Calls made
inside the per-candidate loops of the enumerators are left untraced, so
tracing does not multiply their cost.

A layer's self time is its spans' time minus the time of their child
spans.  Every metric here is a per-layer metric of the benchmark; its name
is ``<layer>.<what>``.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from time import perf_counter

import jsonschema

from workloads import candidate_bound


def _stages(counters, stages_key, trace):
    counters[stages_key] += len(trace.stages)
    for stage in trace.stages:
        counters["da.offers"] += sum(len(ps) for ps in stage.offers.values())
        counters["da.rejections"] += sum(len(ps) for ps in stage.rejections.values())


def _copy_candidates(args, kwargs):
    assoc = args[0]
    if kwargs.get("pruned", args[2] if len(args) > 2 else True):
        return candidate_bound(assoc)
    return (1 + len(assoc.copies)) ** len(assoc.source.workers)


def _count_load(c, args, kwargs, result):
    c["io.load_calls"] += 1
    c["io.market_bytes"] += os.path.getsize(args[0])


def _count_pi(c, args, kwargs, result):
    c["choices.path_independence_calls"] += 1
    c["choices.menu_pairs"] += 4 ** args[0].universe_size


def _count_lad(c, args, kwargs, result):
    c["choices.lad_calls"] += 1


def _count_decompose(c, args, kwargs, result):
    c["decomposition.orders"] += len(result)


def _count_verify_decomposition(c, args, kwargs, result):
    c["decomposition.verify_calls"] += 1
    c["decomposition.menu_order_evals"] += (1 << args[0].universe_size) * len(args[1])


def _count_build(c, args, kwargs, result):
    c["association.copies"] += len(result.copies)


def _count_copies_propose(c, args, kwargs, result):
    _stages(c, "da.copies_stages", result[1])


def _count_workers_propose(c, args, kwargs, result):
    _stages(c, "da.workers_stages", result[1])


def _count_enumerate_stable(c, args, kwargs, result):
    market = args[0]
    c["stability.stable_candidates"] += (len(market.firms) + 1) ** len(market.workers)
    c["stability.found"] += len(result)


def _count_enumerate_copies(c, args, kwargs, result):
    c["stability.copy_candidates"] += _copy_candidates(args, kwargs)
    c["stability.found"] += len(result)


def _count_correspondence(c, args, kwargs, result):
    c["correspondence.pairs"] += len(result.copy_stable)


# (defining module, function, span name, counter, modules to rebind in or
# None for every module that imported it)
TARGETS = (
    ("matchdecomp.io", "load_market", "io.load_market", _count_load, None),
    ("matchdecomp.choices", "check_path_independence", "choices.path_independence",
     _count_pi, None),
    ("matchdecomp.choices", "check_lad", "choices.lad", _count_lad, None),
    ("matchdecomp.decomposition", "decompose", "decomposition.decompose",
     _count_decompose, None),
    ("matchdecomp.decomposition", "decompose_market", "decomposition.decompose",
     None, None),
    ("matchdecomp.decomposition", "verify_decomposition", "decomposition.verify",
     _count_verify_decomposition, None),
    ("matchdecomp.association", "build_associated_market", "association.build",
     _count_build, None),
    ("matchdecomp.da", "copies_propose", "da.copies_propose", _count_copies_propose,
     None),
    ("matchdecomp.da", "workers_propose", "da.workers_propose",
     _count_workers_propose, None),
    ("matchdecomp.stability", "check_copy_stable", "da.closing_check", None,
     ("matchdecomp.da",)),
    ("matchdecomp.da", "trace_json_lines", "da.trace_lines", None, None),
    ("matchdecomp.stability", "enumerate_stable", "stability.enumerate_stable",
     _count_enumerate_stable, None),
    ("matchdecomp.stability", "enumerate_copy_stable",
     "stability.enumerate_copy_stable", _count_enumerate_copies, None),
    ("matchdecomp.stability", "enumerate_classical_stable",
     "stability.enumerate_classical", _count_enumerate_copies, None),
    ("matchdecomp.stability", "check_stable", "stability.check_stable", None,
     ("matchdecomp.cli",)),
    ("matchdecomp.correspondence", "verify_correspondence", "correspondence.verify",
     _count_correspondence, None),
    ("matchdecomp.correspondence", "check_count_invariance",
     "correspondence.count_invariance", None, None),
)

# Spans whose self time is reported, and the metric each one feeds.
SPAN_METRICS = {
    "cli.main": "cli.self_s",
    "io.load_market": "io.load_market_s",
    "io.schema_validate": "io.schema_validate_s",
    "choices.path_independence": "choices.path_independence_s",
    "choices.lad": "choices.lad_s",
    "decomposition.decompose": "decomposition.decompose_s",
    "decomposition.verify": "decomposition.verify_s",
    "association.build": "association.build_s",
    "da.copies_propose": "da.copies_propose_s",
    "da.workers_propose": "da.workers_propose_s",
    "da.closing_check": "da.closing_check_s",
    "da.trace_lines": "da.trace_lines_s",
    "stability.enumerate_stable": "stability.enumerate_stable_s",
    "stability.enumerate_copy_stable": "stability.enumerate_copy_stable_s",
    "stability.enumerate_classical": "stability.enumerate_classical_s",
    "stability.check_stable": "stability.check_stable_s",
    "correspondence.verify": "correspondence.verify_s",
    "correspondence.count_invariance": "correspondence.count_invariance_s",
    "matchings.render": "matchings.render_s",
}

COUNTERS = (
    "io.load_calls",
    "io.market_bytes",
    "choices.path_independence_calls",
    "choices.menu_pairs",
    "choices.lad_calls",
    "decomposition.orders",
    "decomposition.verify_calls",
    "decomposition.menu_order_evals",
    "association.copies",
    "da.copies_stages",
    "da.workers_stages",
    "da.offers",
    "da.rejections",
    "stability.stable_candidates",
    "stability.copy_candidates",
    "stability.found",
    "correspondence.pairs",
    "cli.stdout_bytes",
)


class Tracer:
    """Records spans while ``active``; passes calls straight through otherwise."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []  # parent index or -1
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every traced function; returns the traced ``cli.main``."""
        from matchdecomp import cli, matchings

        modules = [
            mod for name, mod in sys.modules.items()
            if name == "matchdecomp" or name.startswith("matchdecomp.")
        ]
        for home, attr, span, count, only in TARGETS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue  # gone from the package: its span stays empty
            wrapped = self.wrap(span, original, count)
            for mod in modules:
                if only is not None and mod.__name__ not in only:
                    continue
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
        jsonschema.validate = self.wrap("io.schema_validate", jsonschema.validate)
        for cls in (matchings.ManyToOneMatching, matchings.OneToOneMatching):
            cls.render = self.wrap("matchings.render", cls.render)
        return self.wrap("cli.main", cli.main)

    def self_times(self) -> Counter:
        """Self seconds per span name over every recorded span."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
