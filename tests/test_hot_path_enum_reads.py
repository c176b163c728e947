"""Guard: the per-uop paths read no Enum member inside a function.

On Python 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, so every
``Op.X``/``BranchKind.X`` read inside a function takes CPython's slow
attribute hook: about 120 ns, against about 15 ns for a module-level name.
The core loop, the execution model and the emulator therefore compare
against names bound once at module level, and dispatch on the traits
``StaticUop`` decodes at construction (docs/ARCHITECTURE.md §8.4). cProfile
cannot show this cost, so this test keeps it from creeping back.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

HOT_MODULES = (
    "core/ooo_core.py",
    "core/fetch_engine.py",
    "core/apf.py",
    "core/uops.py",
    "backend/exec_model.py",
    "workloads/emulator.py",
)

ENUMS = ("Op", "BranchKind")

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def enum_reads_in_functions(tree: ast.AST) -> list:
    """``"line N: Enum.MEMBER"`` for every Enum member read inside a
    function body; module- and class-level reads are bindings, not
    per-call costs, and pass."""
    found = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, _SCOPES):
            continue
        for node in ast.walk(scope):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ENUMS):
                found.add((node.lineno, node.col_offset,
                           f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {name}" for line, _, name in sorted(found)]


def test_detector_flags_function_reads_only():
    tree = ast.parse(
        "_HALT = Op.HALT\n"
        "class C:\n"
        "    KIND = BranchKind.CALL\n"
        "    def f(self, op):\n"
        "        return op is _HALT or op is Op.LOAD\n"
        "g = lambda kind: kind is BranchKind.RETURN\n")
    assert enum_reads_in_functions(tree) == [
        "line 5: Op.LOAD", "line 6: BranchKind.RETURN"]


@pytest.mark.parametrize("module", HOT_MODULES)
def test_no_enum_member_reads_on_per_uop_paths(module):
    path = SRC / module
    reads = enum_reads_in_functions(ast.parse(path.read_text(), str(path)))
    assert not reads, (
        f"{module} reads Enum members inside functions; bind them once at "
        f"module level or decode a StaticUop trait instead: {reads}")
