"""Every module-level function and class of the library is used by the program, not only by tests."""

import ast

from conftest import REPO_ROOT

#: Where the program lives: the library, its scripts and the benchmark harness.
PROGRAM_DIRS = ("src", "scripts", "perfbench")


def _names_used(tree: ast.AST) -> set[str]:
    # every name read, attribute taken or name imported in the tree
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def test_every_library_definition_is_used_by_the_program():
    trees = {path: ast.parse(path.read_text(), str(path)) for d in PROGRAM_DIRS for path in (REPO_ROOT / d).rglob("*.py")}
    used_in = {path: _names_used(tree) for path, tree in trees.items()}
    library = REPO_ROOT / "src" / "paradoxlab"
    unused = []
    for path, tree in trees.items():
        if path.parent != library:
            continue
        used_elsewhere = set().union(*(used for p, used in used_in.items() if p != path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used_elsewhere:
                # a use inside the definition itself, such as a recursive call, does not count
                if not any(node.name in _names_used(other) for other in tree.body if other is not node):
                    unused.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno} {node.name}")
    assert unused == []
