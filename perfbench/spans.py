"""In-memory span recording for the traced benchmark run.

Spans are opened and closed only by the benchmark's own wrappers around
calls into minkval.  Each span has a name, a family tag, start, end, the
span that was open when it started, and the unit it belongs to.  Self
time (duration minus the time covered by child spans) is aggregated per
(name, family) when a span closes, so per-layer totals need no second
pass over the span list.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Span stack, span list and per-layer aggregates for one pass."""

    def __init__(self):
        self.spans = []
        self.unit = None
        self.self_s = defaultdict(float)   # (name, family) -> self seconds
        self.calls = defaultdict(int)      # (name, family) -> closed spans
        self.counts = defaultdict(int)     # free counters, e.g. geometry sizes
        self._stack = []
        self._next_id = 0
        self._returned = {}                # id(body) -> (body, {id(obj): obj})
        self._forced = {}                  # id(body) -> (body, set of properties)

    def begin(self, name, family=""):
        self._stack.append([self._next_id, name, family, perf_counter(), 0.0])
        self._next_id += 1

    def end(self):
        end = perf_counter()
        sid, name, family, start, child = self._stack.pop()
        dur = end - start
        self.self_s[name, family] += dur - child
        self.calls[name, family] += 1
        parent = None
        if self._stack:
            top = self._stack[-1]
            top[4] += dur
            parent = top[0]
        self.spans.append((sid, name, family, start, end, parent, self.unit))

    @contextlib.contextmanager
    def span(self, name, family=""):
        self.begin(name, family)
        try:
            yield
        finally:
            self.end()

    def count(self, key, amount=1):
        self.counts[key] += amount

    def note_factory_result(self, body, obj, family):
        """Count a factory call as a cache hit when it hands back an object
        an earlier call on the same body returned; strong references keep
        the ids from being reused within the pass."""
        _, seen = self._returned.setdefault(id(body), (body, {}))
        if id(obj) in seen:
            self.count(("hit", family))
        else:
            seen[id(obj)] = obj
            self.count(("miss", family))

    def force(self, body, needs):
        """Compute the lazy geometry an operator is about to use, each
        property in its own span and each at most once per body."""
        _, done = self._forced.setdefault(id(body), (body, set()))
        if not done:
            self.count("geometry.bodies")
        for prop in ("vertices",) + tuple(needs):
            if prop in done:
                continue
            done.add(prop)
            span, compute = _FORCE[prop]
            self.begin("geometry." + span)
            try:
                size = compute(body)
            finally:
                self.end()
            if size is not None:
                self.count("geometry." + prop, size)

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, name, family, start, end, parent, unit in self.spans:
                fh.write(json.dumps([sid, name, family, start, end, parent, unit]) + "\n")


class NullTracer:
    """Stand-in for untraced passes: every hook does nothing."""

    unit = None

    def span(self, name, family=""):
        return contextlib.nullcontext()

    def count(self, key, amount=1):
        pass

    def note_factory_result(self, body, obj, family):
        pass


def _vertices(P):
    P.dim
    return len(P.vertices)


def _facets(P):
    return len(P.facets)


def _surface(P):
    if P.dim == P.n - 1:
        P.surface_atom()


def _face_lattice(P):
    total = sum(len(fs) for fs in P.face_lattice().values())
    for j in range(1, P.dim):
        P.faces_through_origin(j)
    return total


def _triangulation(P):
    return len(P.triangulation())


# property -> (geometry span it is timed in, function that forces it and
# returns the size it adds to the geometry.<property> count, if any)
_FORCE = {
    "vertices": ("vertices", _vertices),
    "facets": ("facets", _facets),
    "surface": ("facets", _surface),
    "faces": ("face_lattice", _face_lattice),
    "simplices": ("triangulation", _triangulation),
}
