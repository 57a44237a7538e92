"""RP009: no builtin ``sum()`` in the simulated-time packages.

Python 3.12 made the builtin ``sum`` of floats compensated (Neumaier), so
one float sum can give another result on 3.12+ than on 3.10 or 3.11.  CI
runs tier-1 on several interpreters and every leg checks the same
committed event-log fingerprints, so a float ``sum`` that feeds simulated
time is a fingerprint that depends on the interpreter.

Under ``src/repro/`` in ``hardware/``, ``core/``, ``engine/``, ``jit/``
and ``algebra/``, every call of the builtin ``sum`` is flagged.  Write a
left fold (``total = 0.0; for x in xs: total += x``), which every
interpreter evaluates alike, or accept the site with
``# repro: noqa[RP009]`` and say why it cannot move simulated time: it is
integer-valued, or it is host-only (a report, a message).  Method calls
such as ``np.sum`` or ``array.sum()`` are NumPy's pairwise sums, the same
on every interpreter, and are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..context import ENGINE_PACKAGE, ModuleContext
from ..findings import Finding
from ..registry import Checker, register

#: subpackages whose arithmetic can feed the simulated clock
SIMULATED_DIRS = frozenset({"hardware", "core", "engine", "jit", "algebra"})


@register
class FloatSumChecker(Checker):
    rule_id = "RP009"
    title = "no builtin sum() in simulated-time packages (3.12 compensates floats)"

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_engine_tree:
            return
        after = ctx.parts[ctx.parts.index(ENGINE_PACKAGE) + 1:-1]
        if not after or after[0] not in SIMULATED_DIRS:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
            ):
                yield self.finding(
                    ctx,
                    node.lineno,
                    "builtin sum() compensates float additions on Python "
                    "3.12+; use a left fold, or noqa it as integer-valued "
                    "or host-only",
                )
