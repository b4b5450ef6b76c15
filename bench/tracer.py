"""Per-layer tracing of bunpic from outside the program.

``Tracer`` replaces every public function of the seven bunpic modules with
a wrapper that records one span per call.  A module that imported a function
by name holds its own reference, so the wrapper is written into every bunpic
module namespace that holds the original.  The public methods of
``IntMatrix``, ``Lattice`` and ``FGAbelianGroup`` get a wrapper that only
counts calls: they run hundreds of thousands of times per pass, and a span
each would double the run time.  ``uninstall`` puts every original back.
Private helpers and methods are not spans: their time counts as self time of
the public function that called them (``_canonical_from_factors`` inside
``group_from_relations``, ``IntMatrix.mul`` inside ``sym2_action``).

Spans stay in memory as lists (fields in ``SPAN_FIELDS``) until ``write``
dumps them as JSON lines.  ``cpu`` is the
thread CPU time of a root span (one with no parent in its thread), which is
how GIL wait under the batch thread pool is measured.  ``summary`` derives
self times: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("exact_algebra", "root_datum", "invariant_forms", "family", "picard", "gerbe", "cli")
CLASSES = ("IntMatrix", "Lattice", "FGAbelianGroup")       # in exact_algebra
# calls whose matrices (arguments and results) give the largest coefficient size
NORMAL_FORMS = ("exact_algebra.smith_normal_form", "exact_algebra.hermite_normal_form")
SPAN_FIELDS = ("id", "name", "layer", "start", "end", "parent", "report", "cpu")


def _max_bits(matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m.entries for x in row),
               default=0)


class Tracer:
    def __init__(self):
        self.spans = []
        self.method_calls = defaultdict(int)    # exact only when single-threaded
        self.snf_max_dim = 0
        self.max_coeff_bits = 0
        self._ids = itertools.count()
        self._reports = itertools.count()
        self._local = threading.local()
        self._patches = []          # (namespace dict or class, attribute, original)

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"bunpic.{layer}") for layer in LAYERS}
        namespaces = [vars(sys.modules["bunpic"])] + [vars(m) for m in modules.values()]
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(fn, f"{layer}.{name}", layer)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is fn:
                            self._patches.append((ns, key, value))
                            ns[key] = wrapped
        for cls_name in CLASSES:
            cls = getattr(modules["exact_algebra"], cls_name)
            for name, attr in list(vars(cls).items()):
                if name.startswith("_"):
                    continue
                full = f"exact_algebra.{cls_name}.{name}"
                if isinstance(attr, staticmethod):
                    new = staticmethod(self._count(attr.__func__, full))
                elif inspect.isfunction(attr):
                    new = self._count(attr, full)
                else:
                    continue            # properties and data stay untouched
                self._patches.append((cls, name, attr))
                setattr(cls, name, new)
        return self

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def report(self, report_id):
        """Label the spans this thread records next with ``report_id``."""
        self._local.report = report_id

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, fn, name, layer):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        normal_form = name in NORMAL_FORMS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if stack:
                parent = stack[-1]
                rec = [next(ids), name, layer, 0.0, 0.0, parent[0], parent[6], None]
            else:
                report = getattr(local, "report", None)
                if report is None:
                    report = f"thread-{next(self._reports)}"
                rec = [next(ids), name, layer, 0.0, 0.0, None, report, time.thread_time()]
            spans.append(rec)
            stack.append(rec)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
                if rec[7] is not None:
                    rec[7] = time.thread_time() - rec[7]
            if normal_form:
                self._record_matrices(name, args[0], result)
            return result

        return traced

    def _count(self, fn, name):
        counts = self.method_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _record_matrices(self, name, m, result):
        # runs after the span closed: the scan counts in the caller's self time
        if name == "exact_algebra.smith_normal_form":
            self.snf_max_dim = max(self.snf_max_dim, m.rows, m.cols)
        self.max_coeff_bits = max(self.max_coeff_bits, _max_bits((m,) + tuple(result)))

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self seconds per span name and per layer, the wait (wall
        minus thread CPU) of root spans per name, and the normal-form size
        records."""
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec[5] is not None:
                child_time[rec[5]] += rec[4] - rec[3]
        calls = defaultdict(int, self.method_calls)
        name_self = defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        wait = defaultdict(float)
        for rec in self.spans:
            own = rec[4] - rec[3] - child_time.get(rec[0], 0.0)
            calls[rec[1]] += 1
            name_self[rec[1]] += own
            layer_self[rec[2]] += own
            if rec[7] is not None:
                wait[rec[1]] += max(0.0, rec[4] - rec[3] - rec[7])
        return {"calls": dict(calls), "self_s": dict(name_self), "layer_self_s": layer_self,
                "wait_s": dict(wait), "snf_max_dim": self.snf_max_dim,
                "max_coeff_bits": self.max_coeff_bits}

    def write(self, fh, tag: str) -> None:
        """A header line naming the fields, then one JSON array per span."""
        fh.write(json.dumps({"tag": tag, "fields": SPAN_FIELDS}) + "\n")
        for rec in self.spans:
            fh.write(json.dumps(rec) + "\n")
