"""Structured pass/fail reporting shared by every verification suite."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        if self.detail:
            return f"[{mark}] {self.name}: {self.detail}"
        return f"[{mark}] {self.name}"


class Report:
    """An ordered list of named checks with a title.

    Suites append checks as they run; `ok` is True when every check
    passed.  Reports nest by merging, with the child's title used as a
    prefix so failure lines stay traceable.

    A check reports by one rule: `add` for one verdict, `first` for one
    check failing with its first witness, `tally` for a family (one failed
    check per failing instance, in order, then a summary passing when none
    failed).  One place keeps its own shape: the `properties` suites, whose
    laws share one loop's random draws.
    """

    def __init__(self, title: str):
        self.title = title
        self.checks: list[Check] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, bool(ok), detail))
        return bool(ok)

    def first(self, name: str, witnesses, detail: str = "") -> bool:
        """Add `name`: failing with the first of `witnesses`, drawn lazily,
        as its detail, or passing with `detail`."""
        why = next(iter(witnesses), None)
        return self.add(name, why is None, detail if why is None else why)

    def tally(self, summary: str, failures, detail: str = "") -> None:
        """Add a failed check for each (name, why) in `failures`, then
        `summary` with `detail`, passing when there were none."""
        before = len(self.checks)
        self.checks.extend(Check(name, False, why) for name, why in failures)
        self.add(summary, len(self.checks) == before, detail)

    def merge(self, other: "Report", prefix: str | None = None) -> None:
        pre = other.title if prefix is None else prefix
        for c in other.checks:
            name = f"{pre} / {c.name}" if pre else c.name
            self.checks.append(Check(name, c.ok, c.detail))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        bad = len(self.failures())
        word = "all passed" if bad == 0 else f"{bad} FAILED"
        return f"{self.title}: {len(self.checks)} checks, {word}"

    def render(self, only_failures: bool = False) -> str:
        lines = [self.summary()]
        for c in self.checks:
            if only_failures and c.ok:
                continue
            lines.append("  " + c.line())
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        recs = [
            {"suite": self.title, "check": c.name, "ok": c.ok, "detail": c.detail}
            for c in self.checks
        ]
        recs.append(
            {
                "suite": self.title,
                "summary": True,
                "total": len(self.checks),
                "failed": len(self.failures()),
                "ok": self.ok,
            }
        )
        return recs
