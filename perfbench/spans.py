"""In-memory spans and counts for the traced run.

A span records (name, start ns, end ns, parent span index, request id).
Spans open at the boundaries the benchmark controls: around each request
it sends, and around public package functions it wraps at the module
attribute through which the package calls them. Nothing under src/ is
changed. Wrappers are installed only for traced passes, so untraced
passes run the package exactly as shipped.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Optional

CountFn = Callable[[Counter, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request: Optional[str] = None
        self._open: list[int] = []
        self._patches: list[tuple[object, str, Callable[[Any], Any]]] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.request])
        self._open.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter_ns()

    def innermost(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self.spans[self._open[-1]][0] if self._open else None

    def patch(self, owner: object, attr: str, name: str, count: Optional[CountFn] = None) -> None:
        """Register owner.attr to run inside a span named `name` while installed."""
        self.replace(owner, attr, lambda original: self._wrapper(original, name, count))

    def replace(self, owner: object, attr: str, make: Callable[[Any], Any]) -> None:
        """Register owner.attr to be replaced by make(original) while installed."""
        self._patches.append((owner, attr, make))

    def install(self) -> None:
        for owner, attr, make in self._patches:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, name: str, count: Optional[CountFn]):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end()
            if count is not None:
                count(self.counts, result)
            return result
        return traced

    def self_ns(self, first: int = 0) -> dict[str, int]:
        """Per span name: total duration minus the part covered by child spans.

        Only spans from index `first` on are summed; their parents are
        among them, since every span of a pass closes within the pass.
        """
        covered: dict[int, int] = defaultdict(int)
        for name, start, end, parent, _req in self.spans[first:]:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _parent, _req) in enumerate(self.spans[first:], first):
            out[name] += end - start - covered[i]
        return dict(out)
