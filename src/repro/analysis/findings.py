"""Finding records for the engine invariant analyzer.

A :class:`Finding` is one rule violation at one source location.  Paths
are project-root-relative with POSIX separators so findings and CI logs
compare equal across checkouts and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Finding:
    """One rule violation: ``path:line: rule_id message``."""

    rule_id: str
    path: str
    line: int
    message: str

    def render_text(self) -> str:
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Deterministic report order: by file, then line, then rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule_id, f.message))
