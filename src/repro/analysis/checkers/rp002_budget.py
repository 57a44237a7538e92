"""RP002: budget discipline — every acquire has a reachable release.

``ResourceBudget`` conservation (PR 2 made over-release raise; PR 6/7
proved conservation across preemption, retries and tenant mirrors) only
holds if every ``allocate``/``acquire`` against a budget is paired with
a ``release`` that runs on *every* exit path.  The two compliant shapes
in the engine are:

* release inside a ``try/finally`` in the same function, or
* recording the hold on the session (``held_demand``) so the session
  teardown (``EngineServer._finish``) releases it.

A function that charges a budget and does neither leaks admission
capacity on the first exception between the charge and the release.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..astutil import FUNCTION_NODES, dotted_name, receiver_name, scope_calls
from ..context import ModuleContext
from ..findings import Finding
from ..registry import Checker, register

_ACQUIRE_METHODS = frozenset({"allocate", "acquire"})
_HOLD_MARKERS = frozenset({"held_demand"})


@register
class BudgetDisciplineChecker(Checker):
    rule_id = "RP002"
    title = "budget acquire must pair with a release on a teardown path"

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_engine_tree:
            return
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, FUNCTION_NODES):
                continue
            acquires = [
                (call, name)
                for call in scope_calls(fn)
                if (name := _budget_acquire_name(call)) is not None
            ]
            if not acquires:
                continue
            if _records_hold(fn) or _releases_in_finally(fn):
                continue
            for call, name in acquires:
                yield self.finding(
                    ctx,
                    call.lineno,
                    f"{name}() has no release on a teardown path: "
                    "release in a try/finally here, or record the hold "
                    "(held_demand) for the session teardown "
                    "to release",
                )


def _budget_acquire_name(call: ast.Call) -> str | None:
    """``recv.allocate``/``recv.acquire`` on a budget-ish receiver."""
    if not isinstance(call.func, ast.Attribute):
        return None
    if call.func.attr not in _ACQUIRE_METHODS:
        return None
    receiver = receiver_name(call)
    if receiver is None or "budget" not in receiver.lower():
        return None
    return f"{receiver}.{call.func.attr}"


def _records_hold(fn: ast.AST) -> bool:
    """Does the function write the session-held markers anywhere?"""
    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr in _HOLD_MARKERS:
                return True
            if isinstance(target, ast.Name) and target.id in _HOLD_MARKERS:
                return True
    return False


def _releases_in_finally(fn: ast.AST) -> bool:
    """Is there a release-ish call under some ``finally:`` in ``fn``?"""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for stmt in node.finalbody:
            for inner in ast.walk(stmt):
                if not isinstance(inner, ast.Call):
                    continue
                name = dotted_name(inner.func)
                if name is not None and "release" in name.rsplit(".", 1)[-1]:
                    return True
    return False
