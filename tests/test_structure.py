"""Source-structure guards: one map step, one tangent QR loop.

The per-step infected update ``(1 - K) * I + force`` may appear only in
the map kernels, and ``math.hypot`` (the QR normalisation) only in the
tangent kernel.  A new hand-inlined copy of either fails here; route the
new caller through ``core.step``, ``core._advance`` or
``dynamics._tangent`` instead.
"""
import ast
from pathlib import Path

import sirmap

SOURCES = sorted(Path(sirmap.__file__).parent.glob("*.py"))
STEP_KERNELS = {"step", "step_full", "_advance", "_tangent"}
QR_KERNELS = {"_tangent"}


def _is_K(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "K") or (
        isinstance(node, ast.Attribute) and node.attr == "K"
    )


def _is_infected_update(node) -> bool:
    """``(1 - K) * <x> + <y>``, with K a name or an attribute."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    prod = node.left
    if not (isinstance(prod, ast.BinOp) and isinstance(prod.op, ast.Mult)):
        return False
    diff = prod.left
    return (
        isinstance(diff, ast.BinOp)
        and isinstance(diff.op, ast.Sub)
        and isinstance(diff.left, ast.Constant)
        and diff.left.value == 1
        and _is_K(diff.right)
    )


def _is_hypot(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "hypot") or (
        isinstance(node, ast.Name) and node.id == "hypot"
    )


def _occurrences(predicate):
    """(file, innermost enclosing function or None, line) of each match."""
    found = []

    def visit(node, func, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if predicate(node):
            found.append((path.name, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func, path)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), None, path)
    return found


def test_sources_found():
    assert {"core.py", "dynamics.py", "positivity.py"} <= {p.name for p in SOURCES}


def test_infected_update_only_in_step_kernels():
    sites = _occurrences(_is_infected_update)
    assert {func for _, func, _ in sites} == STEP_KERNELS, sites


def test_hypot_only_in_tangent_kernel():
    sites = _occurrences(_is_hypot)
    assert {func for _, func, _ in sites} == QR_KERNELS, sites
