"""Tracing for the traced run: wraps the public functions of each `crepant`
module from outside, without editing the package.

Every wrapped call pushes a frame on one stack, so a function's self time
is its duration minus the time of the wrapped calls made inside it.  Calls
to the scalar kernel and the geometry classes (about 10^5 per pass) are
kept as counts plus aggregated time; every other wrapped call also records
a span (id, name, item, parent span, start, end) in memory.  Where a
function has a memo cache, the wrapper counts a hit when the key is already
cached before the call.
"""

from __future__ import annotations

import functools
import importlib
import sys
from math import gcd
from time import perf_counter


def _ee_hit(self, i, j):
    return (min(i, j), max(i, j)) in getattr(self, "_ee", ())


def _atom_hit(self, r, s):
    return (r, s) in getattr(self, "_atoms", ())


def _orb_hit(self, i, j):
    return (min(i, j), max(i, j)) in getattr(self, "_orb_products", ())


def _mul_conductor(self, other):
    c = self.conductor
    other_c = getattr(other, "conductor", 1)
    return c * other_c // gcd(c, other_c)


def _embed_conductor(self, conductor):
    return conductor


# (metric prefix, module, attribute path, record spans, hit test, conductor of
# the call).  Dunder pairs such as __mul__/__rmul__ share one metric.
TARGETS = (
    ("scalars.cycnum_new", "crepant.scalars", "CycNum.__init__", False, None, None),
    ("scalars.mul", "crepant.scalars", "CycNum.__mul__", False, None, _mul_conductor),
    ("scalars.mul", "crepant.scalars", "CycNum.__rmul__", False, None, _mul_conductor),
    ("scalars.add", "crepant.scalars", "CycNum.__add__", False, None, None),
    ("scalars.add", "crepant.scalars", "CycNum.__radd__", False, None, None),
    ("scalars.sub", "crepant.scalars", "CycNum.__sub__", False, None, None),
    ("scalars.sub", "crepant.scalars", "CycNum.__rsub__", False, None, None),
    ("scalars.inv", "crepant.scalars", "CycNum.inv", False, None, None),
    ("scalars.embed", "crepant.scalars", "CycNum.embed", False, None, _embed_conductor),
    ("scalars.key", "crepant.scalars", "CycNum.key", False, None, None),
    ("geometry.graded_mul", "crepant.geometry", "GradedClass.__mul__", False, None, None),
    ("geometry.graded_mul", "crepant.geometry", "GradedClass.__rmul__", False, None, None),
    ("geometry.graded_add", "crepant.geometry", "GradedClass.__add__", False, None, None),
    ("geometry.total_mul", "crepant.geometry", "TotalClass.__mul__", False, None, None),
    ("geometry.total_mul", "crepant.geometry", "TotalClass.__rmul__", False, None, None),
    ("cartan.cartan_matrix", "crepant.cartan", "cartan_matrix", False, None, None),
    ("cartan.intersection", "crepant.cartan", "intersection", False, None, None),
    ("orbifold.OrbifoldRing.mul", "crepant.orbifold", "OrbifoldRing.mul", True, None, None),
    ("resolution.ResolutionRing.mul", "crepant.resolution", "ResolutionRing.mul", True,
     None, None),
    ("resolution.ResolutionRing.ee_product", "crepant.resolution",
     "ResolutionRing.ee_product", False, _ee_hit, None),
    ("quantum.QuantumRing.mul", "crepant.quantum", "QuantumRing.mul", True, None, None),
    ("quantum.QuantumRing.ee_product", "crepant.quantum", "QuantumRing.ee_product", False,
     _ee_hit, None),
    ("quantum.QPoint.atom", "crepant.quantum", "QPoint.atom", False, _atom_hit, None),
    ("quantum.evaluate", "crepant.quantum", "evaluate", False, None, None),
    ("gw.gw_invariant", "crepant.gw", "gw_invariant", True, None, None),
    ("verify.HomChecker.new", "crepant.verify", "HomChecker.__init__", True, None, None),
    ("verify.HomChecker.check", "crepant.verify", "HomChecker.check", True, None, None),
    ("verify.HomChecker.orb_product", "crepant.verify", "HomChecker.orb_product", False,
     _orb_hit, None),
    ("verify.solve_a2_symmetric", "crepant.verify", "solve_a2_symmetric", True, None, None),
    ("verify.check_associativity", "crepant.verify", "check_associativity", True, None,
     None),
    ("verify.check_pairing_nondegenerate", "crepant.verify", "check_pairing_nondegenerate",
     True, None, None),
    ("verify.reconcile_6_2", "crepant.verify", "reconcile_6_2", True, None, None),
    ("mckay.character_table", "crepant.mckay", "character_table", True, None, None),
    ("mckay.mckay_graph", "crepant.mckay", "mckay_graph", True, None, None),
    ("mckay.resolution_graph", "crepant.mckay", "resolution_graph", True, None, None),
)


class Stat:
    __slots__ = ("calls", "hits", "self_s", "total_s", "by_conductor")

    def __init__(self):
        self.calls = 0
        self.hits = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.by_conductor = {}

    def to_json(self):
        return {"calls": self.calls, "hits": self.hits, "self_s": self.self_s,
                "total_s": self.total_s,
                "by_conductor": {str(c): v for c, v in sorted(self.by_conductor.items())}}


class Tracer:
    """Counts, self times and spans for one pass."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.item = None
        # frame: [time of wrapped calls inside it, id of the nearest span]
        self.stack = [[0.0, None]]
        self.next_id = 0
        self.missing = []

    def stat(self, name) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def _wrap(self, name, fn, spans, hit, conductor):
        stat = self.stat(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hit is not None and hit(*args, **kwargs):
                stat.hits += 1
            if conductor is not None:
                c = conductor(*args, **kwargs)
                stat.by_conductor[c] = stat.by_conductor.get(c, 0) + 1
            parent = stack[-1]
            span_id = parent[1]
            if spans:
                span_id = self.next_id
                self.next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                parent[0] += dur
                if spans:
                    self.spans.append((span_id, name, self.item, parent[1], t0, t1))

        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name` (used around `cli.run`)."""
        return self._wrap(name, fn, True, None, None)(*args, **kwargs)

    def install(self):
        """Replace each target, in its class or in every `crepant` module that
        imported it by name.  Targets a later version no longer has are listed
        in `missing` and count zero."""
        for name, module_name, path, spans, hit, conductor in TARGETS:
            module = importlib.import_module(module_name)
            owner = module
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{path}")
                self.stat(name)
                continue
            wrapped = self._wrap(name, fn, spans, hit, conductor)
            if owners:
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "crepant" or mod_name.startswith("crepant."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)

    def summary(self):
        return {"stats": {name: s.to_json() for name, s in sorted(self.stats.items())},
                "spans": len(self.spans), "missing": self.missing}
