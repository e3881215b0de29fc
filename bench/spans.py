"""In-memory spans for the traced replay.

A span records a name, start, end, the span that contains it and the
trace id of the CLI call it belongs to. Spans are timed from outside the
program, around calls into its public functions; nothing is written until
the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, run: int):
        self.run = run
        self.trace = 0
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, entry: bool = False, less: tuple[int, ...] = ()):
        """Time the body as one span and yield its index.

        ``entry`` marks a library call that the CLI itself makes, so the
        CLI's own overhead is its time less the entry spans. ``less`` names
        earlier spans whose work this call repeats internally (a public
        function that rebuilds the tree, say); their time is taken off this
        span's self time.
        """
        index = len(self.spans)
        rec = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "trace": f"{self.run}/{self.trace}",
            "entry": entry,
            "less": list(less),
        }
        self.spans.append(rec)
        self._open.append(index)
        rec["start"] = perf_counter()
        try:
            yield index
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def duration(self, index: int) -> float:
        rec = self.spans[index]
        return rec["end"] - rec["start"]

    def self_times(self) -> dict[str, float]:
        """Per-name sum of each span's duration less its children's and less
        the spans it names in ``less``."""
        covered = [0.0] * len(self.spans)
        for i, rec in enumerate(self.spans):
            if rec["parent"] is not None:
                covered[rec["parent"]] += self.duration(i)
            covered[i] += sum(self.duration(j) for j in rec["less"])
        out: dict[str, float] = defaultdict(float)
        for i, rec in enumerate(self.spans):
            out[rec["name"]] += self.duration(i) - covered[i]
        return dict(out)

    def total(self, where) -> float:
        """Summed duration of the spans whose record satisfies ``where``."""
        return sum(self.duration(i) for i, rec in enumerate(self.spans) if where(rec))
