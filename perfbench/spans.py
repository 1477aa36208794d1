"""Span recorder and dense spectral-call counter for the traced run.

Spans wrap the public functions named in ``SPANS`` from outside the package:
each wrapper records the call, its self time (duration minus the time of the
spans it opened) and the exceptions leaving it.  ``numpy.linalg.eigh``,
``eigvalsh`` and ``svd`` are wrapped as well and every call is attributed to
the module of the innermost open span.  Counts go into the bucket the harness
selects before each request, so they can be read per request kind.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# Module -> public names that get a span.  "PsdMatrix" wraps the constructor,
# so isinstance checks keep seeing the original class.
SPANS = {
    "cli": ("main",),
    "psd_core": ("PsdMatrix", "psd_from_json", "range_contained", "matrix_to_json"),
    "parallel_sum": ("parallel_sum", "is_singular_pair"),
    "lebesgue": (
        "decompose",
        "ac_part_iterative",
        "ac_part_closed",
        "uniqueness_certificate",
        "is_dominated",
    ),
    "functionals": ("functional_lebesgue", "functional_uniqueness", "evaluate"),
    "diagonal": (
        "construct_unbounded_ratio",
        "diag_decompose",
        "diag_uniqueness",
        "sequence_from_json",
        "sequence_to_json",
        "certificate_to_json",
    ),
}

SPECTRAL = ("eigh", "eigvalsh", "svd")


class Tracer:
    """Installs the wrappers, collects counts, and restores everything on exit."""

    def __init__(self):
        self.buckets = defaultdict(lambda: defaultdict(float))
        self.bucket = defaultdict(float)  # replaced by start_request
        self._stack = []  # (module, [seconds spent in child spans])
        self._raised = []  # (exception, module) already counted in this request
        self._restore = []  # (namespace, attribute, original)

    def start_request(self, key):
        self.bucket = self.buckets[key]
        self._raised.clear()

    def _count_error(self, module, exc):
        if any(seen is exc and mod == module for seen, mod in self._raised):
            return
        self._raised.append((exc, module))
        self.bucket[f"{module}.errors"] += 1

    def _wrap(self, name, module, fn):
        stack, clock = self._stack, time.perf_counter
        iterative = name == "lebesgue.ac_part_iterative"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append((module, children))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(module, exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1][0] += elapsed
                bucket = self.bucket
                bucket[f"{name}.s"] += elapsed - children[0]
                bucket[f"{name}.calls"] += 1
            if iterative:
                bucket["lebesgue.iterations"] += len(result[1].steps)
                bucket["lebesgue.ac_part_iterative.returns"] += 1
            return result

        return traced

    def _count_spectral(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                self.bucket[f"{stack[-1][0]}.spectral_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, namespace, attribute, value):
        self._restore.append((namespace, attribute, getattr(namespace, attribute)))
        setattr(namespace, attribute, value)

    def __enter__(self):
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "oplebesgue" or key.startswith("oplebesgue.")]
        for short, names in SPANS.items():
            module = sys.modules[f"oplebesgue.{short}"]
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                label = f"{short}.{name}"
                if isinstance(original, type):
                    self._set(original, "__init__", self._wrap(label, short, original.__init__))
                    continue
                wrapper = self._wrap(label, short, original)
                for namespace in namespaces:
                    for attribute, value in list(vars(namespace).items()):
                        if value is original:
                            self._set(namespace, attribute, wrapper)
        for name in SPECTRAL:
            self._set(np.linalg, name, self._count_spectral(getattr(np.linalg, name)))
        return self

    def __exit__(self, *exc_info):
        while self._restore:
            namespace, attribute, original = self._restore.pop()
            setattr(namespace, attribute, original)
        return False
