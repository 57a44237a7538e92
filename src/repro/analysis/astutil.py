"""Small AST helpers shared by the checkers."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, None for anything dynamic."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def call_name(call: ast.Call) -> Optional[str]:
    """The dotted name a call targets, e.g. ``time.time``."""
    return dotted_name(call.func)


def receiver_name(call: ast.Call) -> Optional[str]:
    """For ``recv.method(...)``, the dotted name of ``recv``."""
    if isinstance(call.func, ast.Attribute):
        return dotted_name(call.func.value)
    return None


def walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a node's body without descending into nested scopes.

    Used to attribute yields/calls/returns to the function that owns
    them: a nested helper's ``yield`` must not make the outer function
    a generator, and a closure's blocking call is the closure's problem.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, _SCOPE_BARRIERS):
            continue
        stack.extend(ast.iter_child_nodes(child))


def is_generator(fn: FunctionNode) -> bool:
    """Does this function's own scope contain a yield?"""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in walk_scope(fn)
    )


def scope_calls(fn: ast.AST) -> Iterator[ast.Call]:
    """Calls made directly by this scope (nested defs excluded)."""
    for node in walk_scope(fn):
        if isinstance(node, ast.Call):
            yield node


def const_str(node: ast.AST) -> Optional[str]:
    """The value of a string-literal node, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def str_tuple(node: ast.AST) -> Optional[tuple[str, ...]]:
    """A tuple/list/set literal of string constants, else None."""
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    values = []
    for element in node.elts:
        value = const_str(element)
        if value is None:
            return None
        values.append(value)
    return tuple(values)


def keyword_arg(call: ast.Call, name: str) -> Optional[ast.expr]:
    """The value of keyword argument ``name``, else None."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def has_star_kwargs(call: ast.Call) -> bool:
    """Does the call splat ``**kwargs`` (label sets unknowable)?"""
    return any(keyword.arg is None for keyword in call.keywords)
