"""Spans around calls into halg's layers, recorded from outside the package.

A `Tracer` wraps public functions at the module attributes through which
the layers call each other (``halg.constructions.check_structure``,
``halg.search.structure_ok``, ``halg.cli.parse_doc``, ...).  Each call
becomes a span ``[name, start_ns, end_ns, parent]`` kept in memory; the
aggregates are computed when the traced phase ends.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# One entry per structure kind: (arity, quantified over label pairs) for
# each axiom check_structure evaluates.  Written from the axiom inventory in
# halg.axioms' module docstring, not read from the engine.
_ASSOC3 = [(3, True)]
KIND_AXIOMS = {
    "matching-hom-assoc": _ASSOC3,
    "totally-compatible-hom-assoc": _ASSOC3,
    "compatible-hom-assoc": _ASSOC3,
    "matching-hom-lie": _ASSOC3,
    "compatible-hom-lie": _ASSOC3,
    "matching-hom-prelie": _ASSOC3,
    "matching-hom-dendriform": _ASSOC3 * 3,
    "matching-hom-tridendriform": _ASSOC3 * 7,
    "hom-assoc-matching-rb": [(3, False), (2, True)],
    "matching-hom-lie-rb": [(3, False), (2, True)],
    "plain-assoc-matching-rb": [(3, False), (2, True)],
    "plain-lie-matching-rb": [(3, False), (2, True)],
}


def axiom_instances(kind: str, n_labels: int, dim: int, verbose: bool = False) -> int:
    """Basis instances check_structure evaluates: the sum over the kind's
    axioms of |Omega|^2 * dim^arity (1 * dim^arity for unlabelled axioms).
    verbose adds the mhl-symmetry diagnostic on matching-hom-lie."""
    axioms = list(KIND_AXIOMS[kind])
    if verbose and kind == "matching-hom-lie":
        axioms.append((3, True))
    return sum((n_labels * n_labels if labelled else 1) * dim ** arity
               for arity, labelled in axioms)


def self_times(spans):
    """Per-span self time in ns: duration minus the children's durations.

    Spans come from one thread, so a span's children never overlap and
    their durations add up to the time they cover."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


class Tracer:
    """In-memory span recorder plus per-span-name counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """fn wrapped in a span; on_result(args, kwargs, result) runs after
        the span closes.  A call that raises counts under name + ".raised"."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx)
                tracer.count(name + ".raised")
                raise
            tracer.end(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def summary(self):
        """{span name: (calls, self seconds, total seconds)}."""
        selfs = self_times(self.spans)
        out = {}
        for (name, start, end, _), own in zip(self.spans, selfs):
            calls, s, t = out.get(name, (0, 0, 0))
            out[name] = (calls + 1, s + own, t + end - start)
        return {k: (c, s / 1e9, t / 1e9) for k, (c, s, t) in out.items()}


@contextmanager
def patched(targets):
    """Set (owner, attribute, value) triples for the duration of the block."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def halg_targets(tracer: Tracer):
    """The wrapped attributes for one traced phase, by layer."""
    import halg.cli
    import halg.constructions as cons
    import halg.linalg
    import halg.search
    import halg.structures
    from halg.fields import Field

    t = tracer
    out = []

    def add(owners, attr, name, on_result=None):
        wrapped = t.wrap(name, getattr(owners[0], attr), on_result)
        for owner in owners:
            out.append((owner, attr, wrapped))

    def on_check(args, kwargs, report):
        doc = args[0]
        verbose = kwargs.get("verbose", args[1] if len(args) > 1 else False)
        t.count("axioms.check_structure.instances",
                axiom_instances(doc.kind, len(doc.labels), doc.dim, verbose))
        t.count("axioms.check_structure.violations", len(report.violations))

    def passed(name, by_search=False):
        def hook(args, kwargs, result):
            ok = result if isinstance(result, bool) else result.passed
            t.count(name + ".passed", int(ok))
            if by_search:
                t.count("search.checks")
        return hook

    def on_search(args, kwargs, result):
        t.count("search.hits", len(result))

    # structures and fields
    add([halg.cli], "parse_doc", "structures.parse_doc")
    add([halg.cli], "serialize_doc", "structures.serialize_doc")
    add([halg.structures, cons, halg.search], "make_doc", "structures.make_doc")
    out.append((Field, "parse_scalar", t.wrap("fields.parse_scalar", Field.parse_scalar)))
    # axioms
    add([cons, halg.cli], "check_structure", "axioms.check_structure", on_check)
    # search's own calls also count as search.checks: candidates examined
    add([halg.search], "structure_ok", "axioms.structure_ok",
        passed("axioms.structure_ok", by_search=True))
    add([halg.search], "check_side_conditions", "axioms.check_side_conditions",
        passed("axioms.check_side_conditions", by_search=True))
    add([cons, halg.cli], "check_side_conditions",
        "axioms.check_side_conditions", passed("axioms.check_side_conditions"))
    add([cons], "check_morphism", "axioms.check_morphism")
    # constructions: module attributes, so verify_diagram's inner calls and
    # the CLI recipes that look them up at call time are seen too
    for fn in CONSTRUCTIONS:
        owners = [cons] + ([halg.cli] if fn in halg.cli.__dict__ else [])
        add(owners, fn, "constructions." + fn)
    # search
    add([halg.search, halg.cli], "enumerate_docs", "search.enumerate_docs", on_search)
    # linalg
    out.append((halg.linalg.LinearMap, "from_rows", staticmethod(
        t.wrap("linalg.from_rows", halg.linalg.LinearMap.from_rows))))
    for fn in TENSOR_OPS:
        add([cons], fn, "linalg." + fn)
    # cli
    add([halg.cli], "main", "cli.main")
    return out


CONSTRUCTIONS = ("yau_twist", "untwist", "derived_algebra", "centroid_twist",
                 "commutator", "prelie_commutator", "collapse_family",
                 "dendriform_twist", "dendriform_sum", "dendriform_to_prelie",
                 "rb_to_dendriform", "rb_to_tridendriform", "rb_to_prelie",
                 "verify_diagram")
TENSOR_OPS = ("postcompose", "precompose_left", "precompose_right",
              "tensor_combine", "tensor_transpose", "map_power", "map_invert")
