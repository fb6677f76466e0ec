"""Spans and counters recorded from outside the library.

``Tracer.install`` replaces every public function of each faceenum module,
in every faceenum module that imported it by name, with a wrapper that
records a span (name, start, end, parent span, job id) and counts calls and
escaping exceptions per layer.  The core ``SimplicialComplex`` methods are
wrapped on the class.  Per-element helpers (``face``, ``label_key``,
``face_key``, ``has_face``, ``facets_containing``) are left alone: they run
about a million times per refit and would bury the layers under wrapper cost.
Only calls made while a job runs (``Tracer.job`` set) are recorded.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

LAYERS = (
    "complexes", "homology", "vectors", "audit", "trees", "constructions",
    "refit", "posets", "catalog", "io", "cli",
)
SKIP = {"face", "label_key", "face_key"}
COMPLEX_METHODS = (
    "__init__", "link", "closed_star", "all_faces", "faces", "is_connected",
    "is_i_neighborly", "nonedges", "induced", "relabel", "join",
)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_init(counts, args, kwargs, result):
    counts["complexes.init.facets"] += len(args[0].facets)


def _count_rank(counts, args, kwargs, result):
    rows = args[0]
    counts["homology.matrix_rank.rows"] += len(rows)
    counts["homology.matrix_rank.nnz"] += sum(len(r) for r in rows)


def _count_chains(counts, args, kwargs, result):
    counts["posets.chains"] += sum(result[0].entries.values())


def _count_read(counts, args, kwargs, result):
    counts["io.bytes_read"] += _file_size(args[0])


def _count_written(counts, args, kwargs, result):
    counts["io.bytes_written"] += _file_size(args[1])


# extra counters read from a wrapped call's arguments or result
EXTRA = {
    "complexes.init": _count_init,
    "homology.matrix_rank": _count_rank,
    "posets.flag_vectors": _count_chains,
    "io.load_complex": _count_read,
    "io.load_poset": _count_read,
    "io.load_move_log": _count_read,
    "io.save_complex": _count_written,
    "io.save_move_log": _count_written,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, job id]
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []
        self._patches: list = []  # (holder, attribute, original)

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list):
        span[2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> Counter:
        """Seconds per layer not covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name.split(".", 1)[0]] += end - start - covered
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        counts = self.counts
        extra = EXTRA.get(key)

        if inspect.isgeneratorfunction(fn):
            # the work happens while the caller iterates, inside the caller's span
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.job is not None:
                    counts[f"{layer}.calls"] += 1
                    counts[f"{key}.calls"] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            counts[f"{layer}.calls"] += 1
            counts[f"{key}.calls"] += 1
            span = self.open(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{layer}.failed"] += 1
                counts[f"{key}.failed"] += 1
                raise
            finally:
                self.close(span)
            if extra is not None:
                extra(counts, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, holder, attr: str, new):
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def install(self):
        modules = {layer: importlib.import_module(f"faceenum.{layer}") for layer in LAYERS}
        holders = [m for n, m in list(sys.modules.items()) if n == "faceenum" or n.startswith("faceenum.")]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or name in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(layer, name, obj)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, attr, wrapped)
        cls = modules["complexes"].SimplicialComplex
        for meth in COMPLEX_METHODS:
            self._patch(cls, meth, self._wrap("complexes", meth.strip("_"), vars(cls)[meth]))

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
