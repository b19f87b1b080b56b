"""In-memory span tracer that times medcov's layers from outside.

A span is (name, start_ns, end_ns, parent, op): ``parent`` is the index
of the enclosing span (-1 for a root) and ``op`` the row, chunk or
replication id the benchmark was working on.  Spans stay in memory and
are written out once, at the end of a run.  A span's self time is its
duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.

Spans come from wrapping public callables at the package's module
boundaries (see ``layer_patches``); nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def wrap_generator(self, name, fn):
        """Wrap a generator function so that each ``next`` is one span."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    yield item
            finally:
                it.close()
        return traced

    def stats(self):
        """Per span name: calls, total and self nanoseconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_ns"] += end - start
            rec["self_ns"] += end - start - child_ns[i]
        return dict(out)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def layer_patches():
    """(owner, attribute, span name, is_generator) for every wrapped callable.

    Class methods are wrapped on the class, so instances the package
    builds internally (inside ``fit_stream`` or the Monte Carlo harness)
    are traced too.  Module functions are wrapped where their callers
    look them up.  ``cli.main`` and ``run_benchmark`` are not patched:
    the benchmark calls them itself and opens their spans around the call.
    """
    from medcov import bench, geomedian, mcm, online_pca

    tracker = online_pca.OnlineEigenTracker
    return [
        (mcm.MedianCovariationSGD, "update", "mcm.update", False),
        (geomedian.GeometricMedianSGD, "update", "geomedian.update", False),
        (tracker, "step", "online_pca.step", False),
        (tracker, "offer", "online_pca.offer", False),
        (tracker, "scores", "online_pca.scores", False),
        (online_pca, "as_sym_matrix", "linalg.as_sym_matrix", False),
        (bench, "iter_csv_rows", "bench.iter_csv_rows", True),
        (bench, "fit_stream", "bench.fit_stream", False),
        (bench, "save_snapshot", "bench.save_snapshot", False),
        (bench, "load_snapshot", "bench.load_snapshot", False),
        (bench, "draw_sample", "simgen.draw_sample", False),
        (bench, "weiszfeld_median", "geomedian.weiszfeld_median", False),
        (bench, "weiszfeld_mcm", "mcm.weiszfeld_mcm", False),
        (bench, "top_q_projector", "linalg.top_q_projector", False),
        (bench, "eigenspace_error", "metrics.eigenspace_error", False),
    ]


@contextlib.contextmanager
def installed(tracer):
    """Wrap every layer callable for the duration of the block.

    A callable that a later version of the package no longer has is
    skipped; its layer then reports zero calls.
    """
    saved = []
    try:
        for owner, attr, name, is_gen in layer_patches():
            original = vars(owner).get(attr)
            if original is None:
                continue
            wrapper = tracer.wrap_generator if is_gen else tracer.wrap
            setattr(owner, attr, wrapper(name, original))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
