"""Run reports: stable JSON for machines, timed text for humans.

JSON output deliberately excludes wall-clock timings so that two runs with
the same configuration and seed produce byte-identical documents; the text
format carries the timings instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import jsonschema

from .verify import CheckResult


@dataclass
class RunConfig:
    q: int
    checks: tuple[str, ...]
    seed: int = 1
    budget: int = 20000
    fmt: str = "text"
    out: str | None = None

    def as_dict(self) -> dict:
        return {"q": self.q, "checks": list(self.checks), "seed": self.seed,
                "budget": self.budget}


@dataclass
class Report:
    config: RunConfig
    results: list[CheckResult] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "pass" if all(r.passed for r in self.results) else "fail"

    def to_json(self) -> str:
        doc = {
            "config": self.config.as_dict(),
            "results": [
                {"name": r.name,
                 "passed": r.passed,
                 "expected": _stable(r.expected),
                 "computed": _stable(r.computed),
                 "detail": r.detail}
                for r in self.results
            ],
            "verdict": self.verdict,
        }
        jsonschema.validate(doc, load_schema())
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"sl2cert report  q={self.config.q}  seed={self.config.seed}"]
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"[{mark}] {r.name}  ({r.elapsed:.3f}s)")
            if not r.passed:
                lines.append(f"       expected {r.expected!r}")
                lines.append(f"       computed {r.computed!r}")
            if r.detail:
                lines.append(f"       {r.detail}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        return self.to_json() if self.config.fmt == "json" else self.to_text()


def _stable(value) -> str:
    """Deterministic string form for heterogeneous expected/computed values."""
    if isinstance(value, (set, frozenset)):
        return repr(sorted(value))
    if isinstance(value, dict):
        return repr(sorted((str(k), str(v)) for k, v in value.items()))
    return repr(value)


def load_schema() -> dict:
    text = resources.files("sl2cert").joinpath("report_schema.json").read_text()
    return json.loads(text)
