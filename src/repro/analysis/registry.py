"""The checker registry: plug-in point for invariant rules.

A checker subclasses :class:`Checker`, sets ``rule_id``/``title`` and
implements :meth:`Checker.check_module` (per-file findings) and/or
:meth:`Checker.finalize` (cross-module findings, run once after every
module was visited).  Decorating the class with :func:`register` makes
the rule live — the runner, the CLI's ``--list-rules`` and the README
catalog all enumerate the registry rather than hard-coding rule lists.
"""

from __future__ import annotations

import re
from typing import Iterable, Type

from .context import ModuleContext, ProjectContext
from .findings import Finding

_RULE_ID_RE = re.compile(r"^RP\d{3}$")


class Checker:
    """Base class for one invariant rule."""

    #: ``RPxxx`` identifier used in findings and noqa markers
    rule_id: str = ""
    #: one-line summary shown by ``--list-rules``
    title: str = ""

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Findings local to one parsed module."""
        return ()

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        """Findings needing the whole scanned tree (e.g. schema pins)."""
        return ()

    def finding(self, ctx: ModuleContext, line: int, message: str) -> Finding:
        return Finding(self.rule_id, ctx.rel_path, line, message)


_REGISTRY: dict[str, Checker] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator: instantiate and index a checker by rule id."""
    checker = cls()
    if not _RULE_ID_RE.match(checker.rule_id):
        raise ValueError(f"invalid rule id {checker.rule_id!r} on {cls.__name__}")
    if checker.rule_id in _REGISTRY:
        raise ValueError(f"duplicate checker for rule {checker.rule_id}")
    _REGISTRY[checker.rule_id] = checker
    return cls


def all_checkers() -> list[Checker]:
    """Every registered checker, in rule-id order."""
    _load_builtin_checkers()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_checker(rule_id: str) -> Checker:
    _load_builtin_checkers()
    return _REGISTRY[rule_id]


def _load_builtin_checkers() -> None:
    # Imported lazily so registry <-> checkers never cycle at import
    # time; importing the package registers every built-in rule.
    from . import checkers  # noqa: F401
