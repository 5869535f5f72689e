"""Per-layer tracing by wrapping the package's public functions.

Each wrapped function is replaced at every module attribute that holds it
(for example ``cli.max_dilation``, ``experiments.delaunay`` and
``triangulation.incircle``), because callers look functions up there at call
time.  Span layers record (name, start, end, parent) in memory; the hot
predicates only count calls, since a span per predicate would cost more than
the predicate.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

# Layer name -> (module, attribute) pairs whose calls become spans of that layer.
SPAN_LAYERS = {
    "triangulation.delaunay": [("triangulation", "delaunay")],
    "triangulation.is_valid_delaunay": [("triangulation", "is_valid_delaunay")],
    "triangulation.stability_check": [("triangulation", "stability_check")],
    "triangulation.make_unique_delaunay": [("triangulation", "make_unique_delaunay")],
    "dilation.max_dilation": [("dilation", "max_dilation")],
    "dilation.shortest_path": [("dilation", "shortest_path")],
    "constructions.generate": [
        ("constructions", "generate_chew"),
        ("constructions", "generate_two_semicircle"),
        ("constructions", "generate_three_circle"),
    ],
    "experiments.sample": [("experiments", "sample")],
    "experiments.find_stable_radius": [("experiments", "find_stable_radius")],
    "experiments.plant": [("experiments", "plant")],
    "svg.render_svg": [("svg", "render_svg")],
    # Serialisers, parsers and the CLI's file reads and writes.
    "cli.io": [
        ("triangulation", "points_to_json"),
        ("triangulation", "triangulation_to_json"),
        ("triangulation", "points_from_json"),
        ("triangulation", "triangulation_from_json"),
        ("dilation", "report_to_json"),
        ("dilation", "pairs_to_csv"),
        ("experiments", "TrendResult.to_csv"),
        ("cli", "_read"),
        ("cli", "_write"),
    ],
}

# Counter name -> wrapped predicates.  "geom.exact" counts the
# arbitrary-precision fallbacks of both predicates.
COUNT_LAYERS = {
    "geom.orient2d": [("geom", "orient2d")],
    "geom.incircle": [("geom", "incircle")],
    "geom.exact": [("geom", "_orient2d_exact"), ("geom", "_incircle_exact")],
}

# Work measures attached to spans: layer -> function of the call's arguments.
SIZES = {
    "triangulation.delaunay": ("points", lambda ps, *a, **k: len(ps)),
    "dilation.max_dilation": ("pairs", lambda g, *a, **k: len(g.points) * (len(g.points) - 1) // 2),
}

class Tracer:
    """Spans and counters for one process; install() before the traced work."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def root(self, name: str):
        """A span opened by the benchmark itself, around one job."""
        spans, stack = self.spans, self._stack
        sid = len(spans)
        parent = stack[-1] if stack else -1
        spans.append((name, 0.0, 0.0, parent))
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[sid] = (name, start, end, parent)

    def span(self, name: str, fn):
        root, counts = self.root, self.counts
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if size is not None:
                counts[f"{name}.{size[0]}"] += size[1](*args, **kwargs)
            with root(name):
                return fn(*args, **kwargs)

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        import delaunay_dilation
        from delaunay_dilation import (cli, constructions, dilation, experiments, geom,
                                       svg, triangulation)

        modules = {m.__name__.rpartition(".")[2]: m for m in
                   (geom, triangulation, dilation, constructions, experiments, svg, cli)}
        holders_all = [*modules.values(), delaunay_dilation]
        for layers, make in ((SPAN_LAYERS, self.span), (COUNT_LAYERS, self.counter)):
            for layer, targets in layers.items():
                for module, attr in targets:
                    owner = modules[module]
                    if "." in attr:  # a method: patch the class attribute
                        cls_name, attr = attr.split(".")
                        owner = getattr(owner, cls_name)
                        holders = [owner]
                    else:
                        holders = [m for m in holders_all
                                   if getattr(m, attr, None) is getattr(owner, attr)]
                    wrapper = make(layer, getattr(owner, attr))
                    for holder in holders:
                        self._undo.append((holder, attr, getattr(holder, attr)))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()


def self_times(spans, first: int = 0) -> tuple[Counter, Counter, float]:
    """Self time and call count per span name, over spans[first:].

    Also the self time of delaunay spans nested in find_stable_radius, so
    the Delaunay builder's many small calls there show apart from its other calls.
    """
    own: Counter = Counter()
    calls: Counter = Counter()
    child = [0.0] * len(spans)
    for name, start, end, parent in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    under_search = 0.0
    for sid in range(first, len(spans)):
        name, start, end, parent = spans[sid]
        own[name] += end - start - child[sid]
        calls[name] += 1
        if name == "triangulation.delaunay" and _inside(spans, parent, "experiments.find_stable_radius"):
            under_search += end - start - child[sid]
    return own, calls, under_search


def _inside(spans, sid: int, name: str) -> bool:
    """Whether span sid or one of its ancestors is called name."""
    while sid >= 0:
        if spans[sid][0] == name:
            return True
        sid = spans[sid][3]
    return False
