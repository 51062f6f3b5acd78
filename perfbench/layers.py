"""Layer tracing from outside the program.

:class:`Tracer` replaces public functions of the ``unigraph`` modules with
wrappers that record a span per call (its item, layer, start, end and the
span that caused it) and counts at the same boundaries. A layer's self time
is its span minus the time its child spans cover. Counting-only wrappers
open no span, so their time stays in the caller's self time. Wrappers
record only while ``active`` is set, so building inputs and checking outputs,
which call some of the same functions, stay out of the figures.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute, metric name, counter(args, result) -> {count: value})
SPANS = [
    ("degseq", "parse_sequence", "degseq.parse_sequence_ms", None),
    ("degseq", "normalize", "degseq.normalize_ms", None),
    ("degseq", "realize", "degseq.realize_ms", None),
    ("_kernel", "normalize_runs", "kernel.normalize_runs_ms", None),
    ("_kernel", "eg_graphical", "kernel.eg_graphical_ms", None),
    ("_kernel", "decompose_runs", "kernel.decompose_runs_ms", None),
    (
        "decomp", "decompose", "decomp.decompose_ms",
        lambda a, out: {"decomp.components_built": len(out.components)},
    ),
    (
        "decomp", "compact", "decomp.compact_ms",
        lambda a, out: {"decomp.compact_entries": len(out.components)},
    ),
    ("decomp", "compose_all", "decomp.compose_all_ms", None),
    ("split", "determine_split", "split.determine_split_ms", None),
    (
        "unitype", "is_unigraph", "unitype.is_unigraph_ms",
        # components whose type was looked up: all of them, or up to the failure
        lambda a, out: {
            "unitype.heads": len(out[1].component_types) + (not out[1].is_unigraph)
        },
    ),
    ("params", "unigraph_params", "params.unigraph_params_ms", None),
    ("gen", "generate", "gen.generate_ms", None),
    ("gen", "compose_types", "gen.compose_types_ms", None),
    (
        "graphcore", "Graph.to_edge_list", "graphcore.to_edge_list_ms",
        lambda a, out: {"graphcore.edges": a[0].m},
    ),
]
COUNTS = [
    ("unitype", "match_split_type", lambda a: {"unitype.matcher_calls": 1}),
    ("unitype", "match_nonsplit_type", lambda a: {"unitype.matcher_calls": 1}),
    (
        "degseq", "compose_seq",
        lambda a: {
            "degseq.compose_seq_calls": 1,
            "degseq.compose_runs_touched": len(a[0].kpart.runs)
            + len(a[0].spart.runs)
            + len(a[1].runs),
        },
    ),
]
COUNT_NAMES = [
    "decomp.components_built", "decomp.compact_entries", "unitype.heads",
    "unitype.matcher_calls", "degseq.compose_seq_calls",
    "degseq.compose_runs_touched", "graphcore.edges",
]
MAX_SPANS = 200_000


class Tracer:
    def __init__(self, U):
        self.U = U
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.item = -1
        self.active = False
        self._stack: list[list[int]] = []  # [child ns, span id] per open span
        self._next_id = 0
        self._patched: list[tuple] = []

    def _span_wrapper(self, name, fn, counter):
        stack, totals, spans, counts = self._stack, self.self_ns, self.spans, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            stack.append([0, span_id])
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()[0]
                totals[name] += t1 - t0 - child
                if stack:
                    stack[-1][0] += t1 - t0
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent, self.item, name, t0, t1))
            if counter is not None:
                for key, value in counter(args, out).items():
                    counts[key] += value
            return out

        return wrapper

    def _count_wrapper(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                for key, value in counter(args).items():
                    counts[key] += value
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for mod, attr, name, counter in SPANS:
            self._patch(mod, attr, lambda fn: self._span_wrapper(name, fn, counter))
        for mod, attr, counter in COUNTS:
            self._patch(mod, attr, lambda fn: self._count_wrapper(fn, counter))

    def _patch(self, mod, attr, make) -> None:
        module = importlib.import_module(f"{self.U.__name__}.{mod}")
        if "." in attr:  # a method: patch the class attribute
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        # callers import names directly, so replace every reference
        for name, m in list(sys.modules.items()):
            if m is None or not (name == self.U.__name__ or name.startswith(self.U.__name__ + ".")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patched.append((m, key, original))
                    setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        out = {name: self.self_ns.get(name, 0) / 1e6 for _, _, name, _ in SPANS}
        out.update({name: self.counts.get(name, 0) for name in COUNT_NAMES})
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, item, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "item": item,
                         "layer": name, "start_ns": t0, "end_ns": t1}
                    )
                    + "\n"
                )
