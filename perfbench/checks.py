"""Named correctness checks, so a run can show which ones it evaluated."""

from __future__ import annotations


class Checks:
    def __init__(self) -> None:
        self.ran: set[str] = set()
        self.problems: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ran.add(name)
        if not ok:
            self.problems.append(f"{name}: {detail}")
        return ok

    def merge(self, other: "Checks") -> None:
        self.ran |= other.ran
        self.problems += other.problems
