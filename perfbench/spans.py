"""In-memory span tracing of the sdcodes layers, from outside the package.

`install` wraps public functions at the module attributes through which
one layer calls the next (for example the `_min_weight_staged` name that
`circulant` imports from `wenum`).  Nothing under `src/` is edited: every
module-level binding of the original function object is replaced by a
wrapper that records a span.  Spans stay in memory until the job ends;
`layer_metrics` then folds them into the per-layer metrics.  Only the
calling process is traced; the jobs run every library call with one
thread, so all their work runs there.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List

# (module, attribute, span name, binding scope).  Scope "all" replaces the
# object wherever an sdcodes module binds it; a module name replaces only
# that module's binding, so `_min_weight_staged` is traced where the
# search calls it and not inside `wenum.min_weight`.
TARGETS = (
    ("sdcodes.gf2core", "rref_raw", "gf2core.rref_raw", "all"),
    ("sdcodes.codes", "LinearCode.from_int_rows", "codes.from_int_rows", "all"),
    ("sdcodes.wenum", "_histogram_words", "wenum.histogram_words", "all"),
    ("sdcodes.wenum", "weight_distribution", "wenum.weight_distribution", "all"),
    ("sdcodes.wenum", "shadow_distribution", "wenum.shadow_distribution", "all"),
    ("sdcodes.wenum", "min_weight", "wenum.min_weight", "all"),
    ("sdcodes.wenum", "_min_weight_staged", "wenum.min_weight_staged", "sdcodes.circulant"),
    ("sdcodes.wenum", "codewords_of_weight", "wenum.codewords_of_weight", "all"),
    ("sdcodes.circulant", "search_four_circulant", "circulant.search", "all"),
    ("sdcodes.circulant", "_search_range", "circulant.search_range", "all"),
    ("sdcodes.neighbors", "extremal_neighbor_survey", "neighbors.survey", "all"),
    ("sdcodes.neighbors", "_hyperplane_pair", "neighbors.hyperplane_pair", "all"),
    ("sdcodes.equivalence", "classify", "equivalence.classify", "all"),
    ("sdcodes.equivalence", "signature", "equivalence.signature", "all"),
    ("sdcodes.equivalence", "are_equivalent", "equivalence.are_equivalent", "all"),
    ("sdcodes.equivalence", "verify_certificate", "equivalence.verify_certificate", "all"),
    ("sdcodes.tables", "named_code", "tables.named_code", "all"),
)

ROOT_SPAN = "bench.job"


class Tracer:
    """Spans as [name, start, end, parent index, run id]; counts at the
    same boundaries.  One tracer records one job."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self._hooks: Dict[str, Callable] = {
            "circulant.search_range": self._count_search_range,
            "wenum.histogram_words": self._count_words,
            "equivalence.classify": self._count_survivors,
            "equivalence.are_equivalent": self._count_verdict,
        }

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock, run_id = self.spans, self.stack, time.perf_counter, self.run_id
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, run_id])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(args, out)
            return out

        return traced

    # -- counts taken at the traced boundaries

    def _count_search_range(self, args, out) -> None:
        self.counts["circulant.ra_rows"] += args[4] - args[3]
        self.counts["circulant.kept"] += len(out)

    def _count_words(self, args, out) -> None:
        self.counts["wenum.words_enumerated"] += 1 << len(args[0])

    def _count_survivors(self, args, out) -> None:
        self.counts["neighbors.survivors"] += len(args[0])

    def _count_verdict(self, args, out) -> None:
        self.counts["equivalence.positive"] += bool(out)


def install(tracer: Tracer) -> None:
    """Replace every targeted binding in the loaded sdcodes modules."""
    loaded = [m for name, m in sys.modules.items() if name == "sdcodes" or name.startswith("sdcodes.")]
    for module_name, attr, span_name, scope in TARGETS:
        owner = sys.modules[module_name]
        if attr.startswith("LinearCode."):
            cls = owner.LinearCode
            method = attr.split(".", 1)[1]
            original = cls.__dict__[method].__func__
            setattr(cls, method, classmethod(tracer.wrap(span_name, original)))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span_name, original)
        targets = loaded if scope == "all" else [sys.modules[scope]]
        for module in targets:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer calls, inclusive times, self times and ratios of one job.

    A span's self time is its duration minus its children's; a name's
    inclusive time skips spans nested inside a span of the same name, so
    recursion is not counted twice.  The self times of all layers add up
    to the root span exactly.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    incl: Counter = Counter()
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    for idx, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        own = dur - child_time[idx]
        calls[name] += 1
        self_by_name[name] += own
        self_by_layer[name.split(".", 1)[0]] += own
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] += dur
    root = [s for s in spans if s[0] == ROOT_SPAN]
    if len(root) != 1:
        raise RuntimeError(f"expected one root span, found {len(root)}")
    wall = root[0][2] - root[0][1]
    total_self = sum(self_by_layer.values())
    if abs(total_self - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(f"self times sum to {total_self} s, root span is {wall} s")
    c = tracer.counts
    candidates = calls["wenum.min_weight_staged"]
    built = 2 * calls["neighbors.hyperplane_pair"]
    return {
        "gf2core.rref_raw.calls": calls["gf2core.rref_raw"],
        "gf2core.rref_raw.s": incl["gf2core.rref_raw"],
        "gf2core.self_s": self_by_layer["gf2core"],
        "codes.from_int_rows.calls": calls["codes.from_int_rows"],
        "codes.from_int_rows.self_s": self_by_name["codes.from_int_rows"],
        "codes.self_s": self_by_layer["codes"],
        "wenum.weight_distribution.calls": calls["wenum.weight_distribution"],
        "wenum.weight_distribution.s": incl["wenum.weight_distribution"],
        "wenum.shadow_distribution.calls": calls["wenum.shadow_distribution"],
        "wenum.shadow_distribution.s": incl["wenum.shadow_distribution"],
        "wenum.words_enumerated": c["wenum.words_enumerated"],
        "wenum.words_per_s": _ratio(c["wenum.words_enumerated"], incl["wenum.histogram_words"]),
        "wenum.min_weight.calls": calls["wenum.min_weight"] + candidates,
        "wenum.min_weight.s": incl["wenum.min_weight"] + incl["wenum.min_weight_staged"],
        "wenum.codewords_of_weight.calls": calls["wenum.codewords_of_weight"],
        "wenum.codewords_of_weight.s": incl["wenum.codewords_of_weight"],
        "wenum.self_s": self_by_layer["wenum"],
        "circulant.search.s": incl["circulant.search"],
        "circulant.ra_rows": c["circulant.ra_rows"],
        "circulant.candidates": candidates,
        "circulant.pass_ratio": _ratio(c["circulant.kept"], candidates),
        "circulant.self_s": self_by_layer["circulant"],
        "neighbors.survey.s": incl["neighbors.survey"],
        "neighbors.functionals": calls["neighbors.hyperplane_pair"],
        "neighbors.built": built,
        "neighbors.survivor_ratio": _ratio(c["neighbors.survivors"], built),
        "neighbors.self_s": self_by_layer["neighbors"],
        "equivalence.classify.s": incl["equivalence.classify"],
        "equivalence.signature.calls": calls["equivalence.signature"],
        "equivalence.signature.s": incl["equivalence.signature"],
        "equivalence.are_equivalent.calls": calls["equivalence.are_equivalent"],
        "equivalence.are_equivalent.s": incl["equivalence.are_equivalent"],
        "equivalence.positive_ratio": _ratio(c["equivalence.positive"], calls["equivalence.are_equivalent"]),
        "equivalence.verify_certificate.calls": calls["equivalence.verify_certificate"],
        "equivalence.self_s": self_by_layer["equivalence"],
        "tables.named_code.calls": calls["tables.named_code"],
        "tables.named_code.s": incl["tables.named_code"],
        "tables.self_s": self_by_layer["tables"],
        "bench.self_s": self_by_layer["bench"],
        "trace.wall_s": wall,
        "trace.spans": len(spans),
    }
