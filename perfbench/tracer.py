"""Spans and counters around the calls into each cyclealg layer.

The tracer wraps public functions from outside the program.  A function is
imported by name into several modules (``from .signatures import k0_matrix``),
so each wrapper replaces the original in *every* cyclealg module namespace
that bound it; otherwise calls from ``cli``, ``limits`` or ``matrix_model``
would bypass it.  Methods are wrapped on their class, numpy calls on
``numpy.linalg``.  Spans stay in memory as
``(name, op_id, parent, start_s, end_s, self_s)`` and are written out by the
caller once the run ends.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

#: Functions timed with a span: (module, attribute, layer metric prefix).
SPANNED = (
    ("cyclealg.cli", "main", "cli.main"),
    ("cyclealg.cli", "parse_tower_spec", "cli.parse_tower_spec"),
    ("cyclealg.limits", "finite_level_invariants", "limits.finite_level_invariants"),
    ("cyclealg.limits", "unital_joint_scale_contains", "limits.unital_joint_scale_contains"),
    ("cyclealg.limits", "decide_isomorphism", "limits.decide_isomorphism"),
    ("cyclealg.limits", "k0_limit", "limits.k0_limit"),
    ("cyclealg.limits", "h1_limit", "limits.h1_limit"),
    ("cyclealg.signatures", "joint_scale_finite", "signatures.joint_scale_finite"),
    ("cyclealg.signatures", "k0_matrix", "signatures.k0_matrix"),
    ("cyclealg.signatures", "signature_compose", "signatures.signature_compose"),
    ("cyclealg.signatures", "k0_is_rigid_type", "signatures.k0_is_rigid_type"),
    ("cyclealg.signatures", "signature_from_k0h1", "signatures.signature_from_k0h1"),
    ("cyclealg.signatures", "homology_range", "signatures.homology_range"),
    ("cyclealg.matrix_model", "random_model_partial_isometry",
     "matrix_model.random_model_partial_isometry"),
    ("cyclealg.matrix_model", "realize_rigid", "matrix_model.realize_rigid"),
    ("cyclealg.matrix_model", "decompose_signature", "matrix_model.decompose_signature"),
    ("cyclealg.matrix_model", "compose_embeddings", "matrix_model.compose_embeddings"),
    ("cyclealg.matrix_model", "locally_regular_check", "matrix_model.locally_regular_check"),
    ("cyclealg.matrix_model", "distance_to_partial_isometry",
     "matrix_model.distance_to_partial_isometry"),
    ("cyclealg.matrix_model", "ConcreteEmbedding.apply", "matrix_model.ConcreteEmbedding.apply"),
    ("cyclealg.cycle_core", "enumerate_automorphisms", "cycle_core.enumerate_automorphisms"),
)

#: Hot leaf functions that only get a call counter.
COUNTED = (
    ("cyclealg.matrix_model", "MatrixAlgebraModel.support_mask",
     "matrix_model.MatrixAlgebraModel.support_mask"),
    ("cyclealg.cycle_core", "dihedral_compose", "cycle_core.dihedral_compose"),
    ("cyclealg.cycle_core", "DihedralElement.act", "cycle_core.DihedralElement.act"),
    ("numpy.linalg", "svd", "numpy.linalg.svd"),
    ("numpy.linalg", "qr", "numpy.linalg.qr"),
)


def _joint_scale_counts(tracer, args, kwargs, result):
    """Signatures enumerated, C(n + 2m - 1, 2m - 1), and elements returned."""
    shape = args[0] if args else kwargs["shape"]
    unital = kwargs.get("unital_only", args[1] if len(args) > 1 else False)
    mults = shape.vertex_mults
    if unital and len(set(mults)) == 1:
        m = shape.m
        tracer.counts["signatures.joint_scale_finite.signatures_enumerated"] += \
            math.comb(mults[0] + 2 * m - 1, 2 * m - 1)
    tracer.counts["signatures.joint_scale_finite.elements"] += len(result)


def _homology_range_counts(tracer, args, kwargs, result):
    tracer.counts["signatures.homology_range.elements"] += len(result)


ON_RETURN = {
    "signatures.joint_scale_finite": _joint_scale_counts,
    "signatures.homology_range": _homology_range_counts,
}


class Tracer:
    """Installs wrappers, records spans and counts, and restores the originals."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = None
        self._open = []       # stack of [span index, child time]
        self._restore = []    # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        on_return = ON_RETURN.get(name)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = open_[-1][0] if open_ else None
            frame = [len(spans), 0.0]
            spans.append(None)
            open_.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                duration = end - start
                spans[frame[0]] = (name, self.op_id, parent, start, end, duration - frame[1])
                if open_:
                    open_[-1][1] += duration
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module, qualname, name in table:
                owner = sys.modules[module]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = make(name, original)
                self._replace(owner, attr, wrapper)
                if not path:
                    # Every module that did ``from .x import attr`` holds its own binding.
                    for modname, mod in list(sys.modules.items()):
                        if mod is None or not modname.startswith("cyclealg"):
                            continue
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._replace(mod, key, wrapper)
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------------

    def totals(self):
        """Per span name: calls, self seconds and inclusive seconds."""
        out = {}
        for name, _, _, start, end, self_s in self.spans:
            calls, total_self, total = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total_self + self_s, total + end - start)
        return out
