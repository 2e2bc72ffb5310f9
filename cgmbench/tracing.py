"""Spans recorded around the benchmark's calls into cgmlab.

A span holds a name, a start, an end and its parent; spans that feed a
per-layer metric also carry the metric name and the work they covered
(draws, cells, steps, slots, points or calls).  Spans stay in memory and
are written out when the run ends.  Nothing here reaches inside cgmlab.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

# metric unit -> factor from seconds per unit of work
UNIT_SCALE = {"ns": 1e9, "ms": 1e3, "s": 1.0}


class Tracer:
    """Records spans while enabled; while disabled span() records nothing."""

    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, metric: str | None = None, units: float = 1, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "metric": metric, "units": units, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def layer_metrics(self, units: dict[str, str]) -> dict[str, float]:
        """Median seconds per unit of work for each metric, in its unit."""
        per: dict[str, list[float]] = {}
        for s in self.spans:
            if s["metric"] is not None and "end" in s:
                per.setdefault(s["metric"], []).append(
                    (s["end"] - s["start"]) / s["units"])
        return {m: statistics.median(v) * UNIT_SCALE[units[m]]
                for m, v in per.items() if m in units}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def duration(rec) -> float:
    """Seconds a finished span covered; 0 for the None a disabled tracer yields."""
    return 0.0 if rec is None else rec["end"] - rec["start"]
