"""Every definition of the library is used by the program, not only by tests.

Module-level functions and classes are checked by name, and the methods and
properties of library classes (dunder methods aside, which Python calls
itself) by the attributes the program takes or the names its class body reads.
"""

import ast

from conftest import REPO_ROOT

#: Where the program lives: the library, its scripts and the benchmark harness.
PROGRAM_DIRS = ("src", "scripts", "perfbench")


def _walk(tree: ast.AST, skip: ast.AST | None = None):
    # every node of the tree outside the subtree skip
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    # every name read, attribute taken or name imported in the tree, outside skip
    used = set()
    for node in _walk(tree, skip):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def _attributes_taken(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    return {node.attr for node in _walk(tree, skip) if isinstance(node, ast.Attribute)}


def _program_trees() -> dict:
    return {path: ast.parse(path.read_text(), str(path)) for d in PROGRAM_DIRS for path in (REPO_ROOT / d).rglob("*.py")}


def _library_trees(trees: dict) -> dict:
    library = REPO_ROOT / "src" / "paradoxlab"
    return {path: tree for path, tree in trees.items() if path.parent == library}


def test_every_library_definition_is_used_by_the_program():
    trees = _program_trees()
    used_in = {path: _names_used(tree) for path, tree in trees.items()}
    unused = []
    for path, tree in _library_trees(trees).items():
        used_elsewhere = set().union(*(used for p, used in used_in.items() if p != path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used_elsewhere:
                # a use inside the definition itself, such as a recursive call, does not count
                if node.name not in _names_used(tree, skip=node):
                    unused.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno} {node.name}")
    assert unused == []


def test_every_library_method_and_property_is_used_by_the_program():
    # A method is reached as an attribute (obj.name), or by its bare name in
    # its own class body (an alias such as ``__lt__ = _unsupported``).
    trees = _program_trees()
    taken_in = {path: _attributes_taken(tree) for path, tree in trees.items()}
    unused = []
    for path, tree in _library_trees(trees).items():
        taken_elsewhere = set().union(*(taken for p, taken in taken_in.items() if p != path))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            # names inside a method's body are its locals, not the class's
            in_class = set().union(
                *(_names_used(other) for other in cls.body if not isinstance(other, ast.FunctionDef)),
                *(_names_used(d) for other in cls.body if isinstance(other, ast.FunctionDef) for d in other.decorator_list),
            )
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or (node.name.startswith("__") and node.name.endswith("__")):
                    continue
                if node.name not in taken_elsewhere | _attributes_taken(tree, skip=node) | in_class:
                    unused.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno} {cls.name}.{node.name}")
    assert unused == []
