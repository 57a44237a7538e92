"""Discovery, parsing, and the checker drive loop."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .context import ModuleContext, ProjectContext
from .findings import Finding, sort_findings
from .registry import all_checkers
from .suppress import is_suppressed, noqa_lines

#: rule id for files the analyzer cannot parse at all
PARSE_RULE = "RP000"

#: directory names never worth descending into
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".venv", "venv", "node_modules", ".mypy_cache"}
)


@dataclass
class AnalysisResult:
    """Everything one run produced."""

    root: Path
    findings: list[Finding] = field(default_factory=list)
    checked_files: int = 0


def find_project_root(paths: Sequence[Path]) -> Path:
    """Nearest ancestor holding ``pyproject.toml`` or ``.git``.

    Falls back to the first path's directory so ad-hoc trees (test
    fixtures, vendored snippets) still analyze with stable relative
    paths.
    """
    for path in paths:
        probe = path if path.is_dir() else path.parent
        for candidate in (probe, *probe.parents):
            markers = (candidate / "pyproject.toml", candidate / ".git")
            if any(marker.exists() for marker in markers):
                return candidate
    first = paths[0]
    return first if first.is_dir() else first.parent


def collect_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated .py list."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.add(candidate.resolve())
        elif path.suffix == ".py":
            files.add(path.resolve())
    return sorted(files)


def _relative(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def parse_module(path: Path, root: Path) -> tuple[Optional[ModuleContext], list]:
    """Parse one file; on failure return an RP000 finding instead."""
    rel_path = _relative(path, root)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as error:
        line = getattr(error, "lineno", None) or 1
        message = f"file cannot be analyzed: {error}"
        return None, [Finding(PARSE_RULE, rel_path, line, message)]
    ctx = ModuleContext(
        path=path,
        rel_path=rel_path,
        tree=tree,
        source=source,
        noqa=noqa_lines(source),
    )
    return ctx, []


def analyze_paths(paths: Sequence[Path], root: Optional[Path] = None) -> AnalysisResult:
    """Run every registered checker over ``paths``.

    Findings are noqa-filtered and sorted.
    """
    paths = [Path(p) for p in paths]
    resolved_root = (root or find_project_root(paths)).resolve()
    result = AnalysisResult(root=resolved_root)
    project = ProjectContext(root=resolved_root)
    checkers = all_checkers()
    raw: list[Finding] = []
    for path in collect_files(paths):
        ctx, parse_findings = parse_module(path, resolved_root)
        raw.extend(parse_findings)
        if ctx is None:
            continue
        result.checked_files += 1
        project.modules.append(ctx)
        for checker in checkers:
            raw.extend(checker.check_module(ctx))
    for checker in checkers:
        raw.extend(checker.finalize(project))
    result.findings = sort_findings(_filter_suppressed(raw, project))
    return result


def _filter_suppressed(
    findings: Iterable[Finding], project: ProjectContext
) -> list[Finding]:
    kept = []
    for finding in findings:
        ctx = project.module(finding.path)
        if ctx is not None and is_suppressed(ctx.noqa, finding.line, finding.rule_id):
            continue
        kept.append(finding)
    return kept
