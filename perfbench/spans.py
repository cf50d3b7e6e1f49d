"""Spans around the package's public functions, recorded from the benchmark.

Tracer.install() replaces every public function of the traced layers with a
wrapper that records a span (name, start, end, parent) in memory.  It patches
every reference the package holds, module globals and the identity-suite
lists alike, because the modules import each other's functions by name.
Private helpers and the layers below (asymptotics, combinatorics) are not
wrapped, so their time counts as self time of the traced caller.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

PACKAGE = "anchor_moments"
LAYERS = ("cli", "moments", "special_functions", "simulation", "identities")


class Tracer:
    """Span recorder; spans are [name, start, end, parent index or -1]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, object, object]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def install(self) -> None:
        """Wrap the public functions of LAYERS wherever the package refers to them."""
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (callable(value) and not attr.startswith("_") and not isinstance(value, type)
                        and getattr(value, "__module__", None) == module.__name__):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._undo.append((namespace, attr, value))
                    namespace[attr] = wrappers[id(value)]
        suites = getattr(sys.modules[f"{PACKAGE}.identities"], "SUITES", {})
        for checks in suites.values():
            for k, check in enumerate(checks):
                if id(check) in wrappers:
                    self._undo.append((checks, k, check))
                    checks[k] = wrappers[id(check)]

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            target[key] = original

    def write(self, path: Path, **header) -> None:
        """Write the spans, times relative to the first span, as one JSON file."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[name, start - origin, end - origin, parent]
                for name, start, end, parent in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "fields": ["name", "start_s", "end_s", "parent"],
                                    "spans": rows}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
