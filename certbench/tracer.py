"""In-memory spans and counts, recorded around calls into sl2cert.

A traced pass wraps public functions and methods of the program's modules
with span recorders defined here, so the spans nest as the calls do
(cli.run -> verify.session -> groups.enumerate_sl, ...) and the pass does
exactly the work of an untraced pass.  The wrappers are removed after the
pass.  Spans and counts are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from statistics import median


class NullTracer:
    """Stands in for a Tracer during untraced passes."""

    def __init__(self):
        self.context: dict = {}

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.context: dict = {}          # copied into every record: pass, q
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               **self.context}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["ok"] = False
        c0 = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
            rec["ok"] = True
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu"] = time.process_time() - c0
            self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counts.append({"name": name, "value": value,
                            "span": self._stack[-1] if self._stack else None,
                            **self.context})

    # -- wrapping the program's public calls -----------------------------------

    def wrap(self, owner, attr: str, name, counts=None) -> None:
        """Record a span around every call of owner.attr while installed.

        `name` is a span name or a function of the call's arguments giving
        one; `counts` maps the call's result to {count name: value}.
        """
        orig = owner.__dict__[attr]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            with self.span(span_name):
                result = orig(*args, **kwargs)
            if counts is not None:
                for key, value in counts(result).items():
                    self.count(key, value)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reading the record ------------------------------------------------------

    def pass_totals(self, pass_index: int) -> tuple[dict, dict, dict]:
        """(wall, cpu, count) totals of one pass, by name.

        A span nested inside a span of the same name is not counted again,
        so recursive or repeated wrapping never counts time twice.
        """
        by_id = {s["id"]: s for s in self.spans}
        wall: dict[str, float] = {}
        cpu: dict[str, float] = {}
        for s in self.spans:
            if s.get("pass") != pass_index:
                continue
            parent = s["parent"]
            nested = False
            while parent is not None:
                if by_id[parent]["name"] == s["name"]:
                    nested = True
                    break
                parent = by_id[parent]["parent"]
            if nested:
                continue
            wall[s["name"]] = wall.get(s["name"], 0.0) + s["end"] - s["start"]
            cpu[s["name"]] = cpu.get(s["name"], 0.0) + s["cpu"]
        counts: dict[str, float] = {}
        for c in self.counts:
            if c.get("pass") == pass_index:
                counts[c["name"]] = counts.get(c["name"], 0) + c["value"]
        return wall, cpu, counts

    def write(self, path, summary: dict) -> None:
        """Spans (with self time), counts and a summary as JSON lines."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        with open(path, "w") as fh:
            for s in self.spans:
                dur = s["end"] - s["start"]
                fh.write(json.dumps({"type": "span", **s, "dur": dur,
                                     "self": dur - child_time.get(s["id"], 0.0)})
                         + "\n")
            for c in self.counts:
                fh.write(json.dumps({"type": "count", **c}) + "\n")
            fh.write(json.dumps({"type": "summary", **summary}) + "\n")


def layer_metrics(tracer: Tracer, passes: list[int], rules: dict) -> dict:
    """Median over traced passes of each per-layer metric.

    rules maps a metric to ("wall" | "cpu" | "count", name) or to
    ("rate", count name, span name): count per second of span time.
    A layer the workload never enters reads 0.
    """
    values: dict[str, list[float]] = {m: [] for m in rules}
    for i in passes:
        wall, cpu, counts = tracer.pass_totals(i)
        for metric, rule in rules.items():
            kind = rule[0]
            if kind == "wall":
                v = wall.get(rule[1], 0.0)
            elif kind == "cpu":
                v = cpu.get(rule[1], 0.0)
            elif kind == "count":
                v = counts.get(rule[1], 0)
            else:
                t = wall.get(rule[2], 0.0)
                v = counts.get(rule[1], 0) / t if t > 0 else 0.0
            values[metric].append(v)
    return {m: median(v) for m, v in values.items()}
