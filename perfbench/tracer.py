"""Outside-in tracer for the oscspec package.

The tracer wraps every public function of the package from outside: in the
module that defines it and in every module that imported it by name (for
example `spectral.build_matrix` or `cli.trace_eigenvalue`).  No file of the
package changes.  Spans are kept in memory as `Span` records and written out
by the caller when the run ends; `uninstall` puts every patched attribute
back.

Self time of a span is its duration minus the time its direct children
cover.  Calls run on one thread, so children never overlap and that time is
the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1            # index into the span list, -1 for a root
    info: float | None = None   # value an observer extracted from the result
    error: str | None = None    # exception class name, if the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


def package_modules(package: str) -> list:
    """The package module and all its submodules, imported if need be."""
    root = importlib.import_module(package)
    for info in pkgutil.iter_modules(root.__path__, package + "."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def public_functions(module) -> dict[str, Callable]:
    """Functions listed in the module's `__all__` and defined there."""
    out = {}
    for name in module.__all__:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Wraps a package's public functions and records one span per call.

    `observers` maps a span name to a function of the call's result that
    returns a number to keep on the span (a byte count, a length).
    """

    def __init__(self, package: str,
                 observers: dict[str, Callable] | None = None):
        self.package = package
        self.observers = dict(observers or {})
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []
        self._modules: list | None = None
        # id(original) -> (original, wrapper)
        self._wrappers: dict[int, tuple[Callable, Callable]] = {}

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name=name, start=time.perf_counter(),
                               parent=parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx].error = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if observe is not None:
                self.spans[idx].info = float(observe(result))
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of a public function by its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        if self._modules is None:
            self._modules = package_modules(self.package)
            prefix = self.package + "."
            for module in self._modules:
                short = module.__name__.removeprefix(prefix)
                for name, fn in public_functions(module).items():
                    self._wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{name}"))
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        """Put back every attribute `install` replaced."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


@dataclass
class SpanTree:
    """Derived quantities of a span list: children, self time, roots."""

    spans: list[Span]
    children: list[list[int]] = field(init=False)
    self_time: list[float] = field(init=False)
    root: list[int] = field(init=False)
    outermost: list[bool] = field(init=False)

    def __post_init__(self):
        n = len(self.spans)
        self.children = [[] for _ in range(n)]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                self.children[s.parent].append(i)
        self.self_time = [
            s.duration - sum(self.spans[c].duration for c in self.children[i])
            for i, s in enumerate(self.spans)]
        # parents precede children in the list, so one forward pass works
        self.root = [0] * n
        self.outermost = [True] * n
        enclosing: list[frozenset] = [frozenset()] * n   # names on the path
        for i, s in enumerate(self.spans):
            if s.parent < 0:
                self.root[i] = i
                enclosing[i] = frozenset([s.name])
                continue
            self.root[i] = self.root[s.parent]
            # a recursive call (same name on an enclosing span) is not a
            # new call from outside: its time is inside the outer span
            self.outermost[i] = s.name not in enclosing[s.parent]
            enclosing[i] = enclosing[s.parent] | {s.name}

    def under(self, root_name: str) -> list[int]:
        """Indices of spans below roots named `root_name`."""
        return [i for i, s in enumerate(self.spans)
                if s.parent >= 0 and self.spans[self.root[i]].name == root_name]

    def roots(self, root_name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s.parent < 0 and s.name == root_name]

    def inclusive(self, name: str, indices: list[int]) -> tuple[float, int]:
        """Seconds and calls of the outermost spans named `name`."""
        total, calls = 0.0, 0
        for i in indices:
            if self.spans[i].name == name and self.outermost[i]:
                total += self.spans[i].duration
                calls += 1
        return total, calls

    def self_seconds(self, name: str, indices: list[int]) -> float:
        return sum(self.self_time[i] for i in indices
                   if self.spans[i].name == name)
