"""RP005: the ``repro_*`` metrics schema is closed and consistent.

External scrapers rely on three contracts (pinned by
``tests/test_metrics.py`` since PR 7):

* every ``repro_*`` family is registered at exactly one call site (the
  registry's idempotency makes a second site a silent alias today and a
  crashing label conflict tomorrow);
* every call site that feeds a family uses exactly the registered label
  set — a missing or extra label key is a runtime ``ValueError`` on a
  path only exercised under traffic;
* the set of registered families matches the pinned
  ``EXPECTED_FAMILIES`` schema, both directions — a new family must be
  pinned deliberately, a pinned family must not silently vanish.

Registrations are recognised as ``<registry>.counter|gauge|histogram(
"repro_...", ...)`` with a literal name; feeds as ``self.<attr>.inc/
observe/set/sync(...)`` where ``self.<attr>`` was bound to a
registration in the same class.  Every feed is called inline at its
site, so the labels checked are the labels the family receives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from ..astutil import const_str, has_star_kwargs, keyword_arg, str_tuple
from ..context import ModuleContext, ProjectContext
from ..findings import Finding
from ..registry import Checker, register

_REGISTER_METHODS = frozenset({"counter", "gauge", "histogram"})
_FEED_METHODS = frozenset({"inc", "observe", "set", "sync"})
_FAMILY_PREFIX = "repro_"
_PIN_FILE = Path("tests") / "test_metrics.py"
_PIN_NAME = "EXPECTED_FAMILIES"


@dataclass(frozen=True)
class _Registration:
    name: str
    kind: str
    labels: Optional[tuple[str, ...]]  # None: labels kwarg not literal
    rel_path: str
    line: int


@register
class MetricsSchemaChecker(Checker):
    rule_id = "RP005"
    title = "repro_* families: one registration, consistent labels, pinned"

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        registrations: list[_Registration] = []
        for ctx in project.modules:
            module_regs = list(_module_registrations(ctx))
            registrations.extend(module_regs)
            yield from self._feed_mismatches(ctx)
        yield from self._duplicate_registrations(registrations)
        yield from self._pin_drift(project, registrations)

    def _feed_mismatches(self, ctx: ModuleContext) -> Iterable[Finding]:
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            bound = _attribute_bindings(class_node)
            if not bound:
                continue
            for call in ast.walk(class_node):
                mismatch = _feed_mismatch(call, bound)
                if mismatch is not None:
                    yield self.finding(ctx, mismatch[0], mismatch[1])

    def _duplicate_registrations(
        self, registrations: list[_Registration]
    ) -> Iterable[Finding]:
        by_name: dict[str, list[_Registration]] = {}
        for registration in registrations:
            by_name.setdefault(registration.name, []).append(registration)
        for name in sorted(by_name):
            sites = by_name[name]
            if len(sites) < 2:
                continue
            first = sites[0]
            for extra in sites[1:]:
                origin = f"{first.rel_path}:{first.line}"
                detail = (
                    f"family {name} registered more than once (first at "
                    f"{origin}); register each repro_* family at exactly "
                    "one call site"
                )
                if (extra.kind, extra.labels) != (first.kind, first.labels):
                    detail = (
                        f"family {name} re-registered as {extra.kind}"
                        f"{extra.labels or ()} but {origin} registered "
                        f"{first.kind}{first.labels or ()}"
                    )
                yield Finding(self.rule_id, extra.rel_path, extra.line, detail)

    def _pin_drift(
        self, project: ProjectContext, registrations: list[_Registration]
    ) -> Iterable[Finding]:
        if not registrations:
            return  # schema not in scope of this scan
        pin_path = project.root / _PIN_FILE
        pinned = _load_pinned_schema(pin_path)
        if pinned is None:
            return
        pinned_names, pin_line = pinned
        registered = {r.name: r for r in registrations}
        for name in sorted(set(registered) - pinned_names):
            registration = registered[name]
            yield Finding(
                self.rule_id,
                registration.rel_path,
                registration.line,
                f"family {name} is not in the pinned schema "
                f"({_PIN_FILE.as_posix()} {_PIN_NAME}); pin new families "
                "deliberately",
            )
        for name in sorted(pinned_names - set(registered)):
            yield Finding(
                self.rule_id,
                _PIN_FILE.as_posix(),
                pin_line,
                f"pinned family {name} is no longer registered anywhere "
                "under the scanned tree; unpin it deliberately",
            )


def _module_registrations(ctx: ModuleContext) -> Iterable[_Registration]:
    for node in ast.walk(ctx.tree):
        registration = _registration_of(node, ctx.rel_path)
        if registration is not None:
            yield registration


def _registration_of(node: ast.AST, rel_path: str) -> Optional[_Registration]:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in _REGISTER_METHODS:
        return None
    if not node.args:
        return None
    name = const_str(node.args[0])
    if name is None or not name.startswith(_FAMILY_PREFIX):
        return None
    labels_node = keyword_arg(node, "labels")
    labels: Optional[tuple[str, ...]] = ()
    if labels_node is not None:
        labels = str_tuple(labels_node)  # None when not a literal
    return _Registration(name, func.attr, labels, rel_path, node.lineno)


def _attribute_bindings(
    class_node: ast.ClassDef,
) -> dict[str, _Registration]:
    """``self.X = registry.counter("repro_...")`` bindings in a class."""
    bound: dict[str, _Registration] = {}
    for node in ast.walk(class_node):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Attribute):
            continue
        registration = _registration_of(node.value, "")
        if registration is not None:
            bound[target.attr] = registration
    return bound


def _feed_mismatch(
    node: ast.AST, bound: dict[str, _Registration]
) -> Optional[tuple[int, str]]:
    """(line, message) when a feed call's labels differ from the family's."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in _FEED_METHODS:
        return None
    if not isinstance(func.value, ast.Attribute):
        return None
    registration = bound.get(func.value.attr)
    if registration is None or registration.labels is None:
        return None
    if has_star_kwargs(node):
        return None  # label set not statically knowable
    keywords = {keyword.arg for keyword in node.keywords if keyword.arg}
    expected = set(registration.labels)
    if keywords == expected:
        return None
    return (
        node.lineno,
        f"family {registration.name} takes labels "
        f"{tuple(sorted(expected))} but this {func.attr}() call passes "
        f"{tuple(sorted(keywords))}",
    )


def _load_pinned_schema(path: Path) -> Optional[tuple[set[str], int]]:
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError, ValueError):
        return None
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name) or target.id != _PIN_NAME:
            continue
        names = str_tuple(node.value)
        if names is not None:
            return set(names), node.lineno
    return None
