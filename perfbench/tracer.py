"""Spans around the public functions of each ``fockspace`` module.

The tracer works from outside the program: it wraps the listed functions
and rebinds every module-level name (and module-level dict value) that
refers to an original, so calls made through ``from .partitions import
residue`` or through a dispatch table are seen as well.  Functions in
``COUNTED`` are called so often that a span each would swamp the run; they
only count calls and errors, and their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter
from typing import Callable

MODULES = ("partitions", "fock", "crystal", "blocks", "casimir", "characters", "hecke", "verify", "cli")

SPANNED = {
    "partitions": ("removable_rim_hooks", "p_core", "p_weight", "m_count", "n_value",
                   "add_box", "remove_box", "partitions_of"),
    "fock": ("apply_e", "apply_f", "apply_h", "weight", "op_matrix"),
    "crystal": ("signature", "f_tilde", "e_tilde", "crystal_graph"),
    "blocks": ("blocks",),
    "casimir": ("x_eigenvalue", "y_eigenvalue"),
    "characters": ("schur", "schur_expand", "pieri_mult", "branch_r1", "schur_jacobi_trudi"),
    "hecke": ("multiply", "parse_expression"),
    "verify": ("run_verify",),
    "cli": ("main",),
}
COUNTED = {
    "partitions": ("check_modulus", "residue", "addable_boxes", "removable_boxes"),
}
# lru caches whose hit ratio is reported: metric name -> (module, attribute)
CACHES = {
    "partitions.partition_cache": ("partitions", "_partition_tuples"),
    "characters.schur_cache": ("characters", "_schur_terms"),
}

FUNCTIONS = tuple(
    f"{module}.{name}"
    for module in MODULES
    for name in SPANNED.get(module, ()) + COUNTED.get(module, ())
)


class Tracer:
    """Spans of one request, kept in flat arrays until the request ends.

    Span k has function ``fn[k]`` (an index into ``FUNCTIONS``), parent span
    ``parent[k]`` (-1 for a root), and runs from ``start[k]`` to ``end[k]``.
    """

    def __init__(self) -> None:
        self.fn = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(FUNCTIONS)
        self.errors = [0] * len(FUNCTIONS)
        self._stack = [-1]

    def spanned(self, idx: int, func: Callable) -> Callable:
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        calls, errors, stack = self.calls, self.errors, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = len(start)
            fn.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            calls[idx] += 1
            stack.append(span)
            start.append(perf_counter())
            try:
                return func(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                end[span] = perf_counter()
                stack.pop()

        return traced

    def counted(self, idx: int, func: Callable) -> Callable:
        calls, errors = self.calls, self.errors

        @functools.wraps(func)
        def traced(*args, **kwargs):
            calls[idx] += 1
            try:
                return func(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise

        return traced

    def self_times(self) -> list[float]:
        """Per-function self time: span duration minus time in child spans."""
        n = len(self.start)
        start, end, parent, fn = self.start, self.end, self.parent, self.fn
        inner = [0.0] * n
        for k in range(n - 1, -1, -1):
            p = parent[k]
            if p >= 0:
                inner[p] += end[k] - start[k]
        totals = [0.0] * len(FUNCTIONS)
        for k in range(n):
            totals[fn[k]] += end[k] - start[k] - inner[k]
        return totals

    def write_spans(self, stream, request: int) -> None:
        """Append this request's spans as tab-separated lines."""
        start = self.start[0] if self.start else 0.0
        stream.writelines(
            f"{request}\t{k}\t{self.parent[k]}\t{FUNCTIONS[self.fn[k]]}\t"
            f"{self.start[k] - start:.9f}\t{self.end[k] - start:.9f}\n"
            for k in range(len(self.start))
        )


def install(tracer: Tracer) -> None:
    """Replace every reference to a traced function in the fockspace modules."""
    # keyed by id() so that unhashable module globals can be skipped safely
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for idx, qualified in enumerate(FUNCTIONS):
        module, name = qualified.split(".")
        original = getattr(importlib.import_module(f"fockspace.{module}"), name)
        make = tracer.counted if name in COUNTED.get(module, ()) else tracer.spanned
        wrappers[id(original)] = (original, make(idx, original))

    def wrapped(value):
        entry = wrappers.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "fockspace" and not mod_name.startswith("fockspace."):
            continue
        for key, value in list(vars(mod).items()):
            if wrapped(value) is not None:
                setattr(mod, key, wrapped(value))
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if wrapped(v) is not None:
                        value[k] = wrapped(v)


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of each reported lru cache; (0, 0) if it is gone."""
    out = {}
    for metric, (module, attr) in CACHES.items():
        cache = getattr(sys.modules.get(f"fockspace.{module}"), attr, None)
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        out[metric] = (info.hits, info.misses) if info else (0, 0)
    return out
