"""Spans around the package's public module-level functions.

install() replaces each traced function with a wrapper on its defining
module and on every fisherbounds module or package namespace that
imported it by name, so report() and cli.main call through the wrappers
without any change to the package.  Spans (name, start, end, parent)
stay in memory; summary() turns them into calls and self time per
function, and write_spans() dumps them as JSON when the run ends.

A name that no longer exists, or whose module is gone, is recorded as
absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

TRACED = (
    ("cli", "main"),
    ("batch", "read_table_csv"),
    ("batch", "run_batch"),
    ("batch", "write_batch_csv"),
    ("batch", "write_rejects_csv"),
    ("batch", "format_pvalue"),
    ("batch", "format_float"),
    ("bounds", "report"),
    ("bounds", "ub1"),
    ("bounds", "ub2"),
    ("bounds", "ub_k"),
    ("bounds", "error_bound_ub_k"),
    ("bounds", "guarantees"),
    ("contingency", "build_table"),
    ("contingency", "derive_stats"),
    ("chi2", "chi2_one_sided"),
    ("exact", "make_term_engine"),
    ("exact", "exact_fisher"),
    ("logfact", "shared_table"),
)
NAMES = tuple(f"{module}.{function}" for module, function in TRACED)


class Recorder:
    """Spans of one process, kept in memory until summary() or write_spans()."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.terms = 0
        self._replaced: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, on_result=None):
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_terms(self, pv) -> None:
        self.terms += pv.terms_evaluated

    def install(self) -> None:
        """Route every traced name, and each alias of it, through a span wrapper."""
        self.absent = []
        modules = {}
        for module_name in dict.fromkeys(m for m, _ in TRACED):
            try:
                modules[module_name] = importlib.import_module(f"fisherbounds.{module_name}")
            except ImportError:
                pass
        namespaces = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "fisherbounds" or name.startswith("fisherbounds."))
        ]
        for name_id, (module_name, function) in enumerate(TRACED):
            qualified = NAMES[name_id]
            fn = getattr(modules.get(module_name), function, None)
            if not callable(fn):
                self.absent.append(qualified)
                continue
            hook = self._count_terms if qualified == "exact.exact_fisher" else None
            wrapper = self._wrap(name_id, fn, hook)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)
                        self._replaced.append((ns, attr, fn))

    def uninstall(self) -> None:
        """Put the original functions back; install() may be called again."""
        for ns, attr, fn in self._replaced:
            setattr(ns, attr, fn)
        self._replaced.clear()

    def summary(self, wall_s: float) -> dict:
        """Calls and self time per traced name, plus the untraced remainder.

        Self time is a span's duration minus its direct children's, so
        the self times add up to the root spans' total, and the
        remainder is the traced wall time those roots do not cover.
        """
        calls = [0] * len(NAMES)
        child_ns = [0] * len(self.spans)
        root_ns = 0
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name_id, start, end, parent = span
            calls[name_id] += 1
            if parent < 0:
                root_ns += end - start
            else:
                child_ns[parent] += end - start
        self_ns = [0] * len(NAMES)
        for idx, span in enumerate(self.spans):
            if span is not None:
                self_ns[span[0]] += span[2] - span[1] - child_ns[idx]
        return {
            "wall_s": wall_s,
            "spans": len(self.spans),
            "untraced_s": wall_s - root_ns / 1e9,
            "absent": list(self.absent),
            "terms": self.terms,
            "functions": {
                NAMES[i]: {"calls": calls[i], "self_s": self_ns[i] / 1e9}
                for i in range(len(NAMES))
            },
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "names": list(NAMES),
                    "spans": [s for s in self.spans if s is not None],
                },
                fh,
                separators=(",", ":"),
            )


def log_factorial_entries() -> int:
    """Entries in the shared log-factorial table, or 0 once it no longer exists.

    Call it with the wrappers uninstalled, so the lookup adds no span.
    """
    try:
        shared_table = importlib.import_module("fisherbounds.logfact").shared_table
    except (ImportError, AttributeError):
        return 0
    return shared_table(0).max_n + 1
