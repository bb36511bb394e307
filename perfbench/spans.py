"""Per-layer spans and work counts for the traced run.

Everything is recorded from outside the program: the tracer replaces
cross-module entry points, at the names each importing module binds, with
wrappers that time the call and count it, and puts the originals back
afterwards.  Spans nest, so a layer's self time is its spans' time minus
the time of the spans they caused.  Hot helpers (``quad_cut_vertex``,
``arc_count`` and the like) are never wrapped.  A wrapped name that no
longer exists is listed in ``absent`` instead of raising.
"""
from __future__ import annotations

import importlib
from collections import Counter
from functools import cached_property
from time import perf_counter

LAYERS = ("triangulation", "boundary", "layered", "homology", "search",
          "normal", "geometry", "bundle", "curves")


def _enumerated(counts, vectors):
    counts["search.enumerations"] += 1
    counts["search.vectors"] += len(vectors)


def _searched(counts, res):
    counts["search.discs"] += len(res.discs)
    counts["search.inconclusive"] += bool(res.inconclusive)


def _certified(counts, res):
    counts["search.inconclusive"] += bool(res.inconclusive)


def _reconstructed_in_search(counts, surface):
    counts["search.reconstructs"] += 1


# (module, attribute, span, hook): the span is a layer, or a part of one
# such as "normal.reconstruct"; the hook adds work counts from the result.
SPANS = (
    # the names the benchmark itself calls
    ("coretorus", "parse_tri", "triangulation", None),
    ("coretorus", "family", "layered", None),
    ("coretorus", "first_homology", "homology", None),
    ("coretorus", "find_meridian_discs", "search", _searched),
    ("coretorus", "minimal_complexity_disc", "search", _certified),
    ("coretorus", "check_claims", "bundle", None),
    ("coretorus", "make_61_curve", "curves", None),
    ("coretorus", "push_off", "curves", None),
    ("coretorus", "face_bound_check", "curves", None),
    ("coretorus", "tet_bound_check", "curves", None),
    ("coretorus", "min_boundary_precore_length", "curves", None),
    ("coretorus.normal", "boundary_curves_from_counts", "normal.trace", None),
    ("coretorus.layered", "label_chain_class", "layered", None),
    # the names the program's modules bind from each other
    ("coretorus.search", "enumerate_admissible", "search", _enumerated),
    ("coretorus.search", "find_meridian_discs", "search", _searched),
    ("coretorus.search", "reconstruct", "normal.reconstruct", _reconstructed_in_search),
    ("coretorus.search", "first_homology", "homology", None),
    ("coretorus.search", "family", "layered", None),
    ("coretorus.layered", "first_homology", "homology", None),
    ("coretorus.layered", "parse_tri", "triangulation", None),
    ("coretorus.layered", "Triangulation", "triangulation", None),
    ("coretorus.curves", "manifold_h1", "homology", None),
    ("coretorus.curves", "GeometrizedSurface", "geometry", None),
    ("coretorus.bundle", "reconstruct", "normal.reconstruct", None),
)

# (module, attribute, counter, size): calls counted without a span; with a
# size function the counter adds that size of each result instead
COUNTS = (
    ("coretorus.search", "check_matching", "search.matching_checks", None),
    ("coretorus.homology", "smith_normal_form", "homology.snf_calls", None),
    ("coretorus.bundle", "BundleComplex", "bundle.cells", lambda obj: len(obj.cells)),
)

# derived data computed on first use: each cached property of these classes
# is a span of the class's layer
DERIVED = (
    ("coretorus.triangulation", "Triangulation", "triangulation"),
    ("coretorus.boundary", "BoundaryComplex", "boundary"),
)


class Tracer:
    def __init__(self):
        self.busy = Counter()      # span -> self seconds
        self.counts = Counter()    # counter -> total
        self.absent = []
        self._stack = []           # per open span: seconds of its children
        self._saved = []           # (owner, attribute, original)

    def take(self):
        """Busy times and counts since the last take, then reset both."""
        busy, counts = dict(self.busy), dict(self.counts)
        self.busy.clear()
        self.counts.clear()
        return busy, counts

    def exclude(self, seconds):
        """Charge time the benchmark spent inside the open span (reference
        samples) to no layer."""
        if self._stack:
            self._stack[-1] += seconds

    def install(self):
        for module, attr, span, hook in SPANS:
            self._replace(module, attr, lambda fn, s=span, h=hook: self._span(fn, s, h))
        for module, attr, counter, size in COUNTS:
            self._replace(module, attr, lambda fn, c=counter, z=size: self._count(fn, c, z))
        for module, cls_name, layer in DERIVED:
            cls = self._lookup(module, cls_name)
            if cls is None:
                continue
            for name, prop in list(vars(cls).items()):
                if isinstance(prop, cached_property):
                    wrapped = cached_property(self._span(prop.func, layer, None))
                    wrapped.__set_name__(cls, name)
                    self._saved.append((cls, name, prop))
                    setattr(cls, name, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _lookup(self, module, attr):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            owner = None
        if owner is None or not hasattr(owner, attr):
            name = f"{module}.{attr}"
            if name not in self.absent:
                self.absent.append(name)
            return None
        return getattr(owner, attr)

    def _replace(self, module, attr, make):
        original = self._lookup(module, attr)
        if original is None:
            return
        owner = importlib.import_module(module)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, fn, span, hook):
        busy, counts, stack = self.busy, self.counts, self._stack
        errors = span.split(".")[0] + ".errors"
        calls = span + ".calls"

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[errors] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                busy[span] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                counts[calls] += 1
            if hook is not None:
                hook(counts, result)
            return result
        return traced

    def _count(self, fn, counter, size):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[counter] += 1 if size is None else size(result)
            return result
        return counted
