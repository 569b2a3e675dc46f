"""Every module-level function and class in the package has a caller in it.

A definition counts as called when a top-level statement of
``src/stacksolver`` other than its own definition mentions it: by its bare
name in its own module, through a ``from .module import name``, or as an
attribute of the module (``eqlang.solve``, ``nm.linear``).
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stacksolver"

# entry points whose callers live outside the package
ALLOWED = {
    "trainer.problem_loss": "the benchmark harness wraps and times it",
    "numerics.grad_check": "the gradient gate of the tests and acceptance criterion 3",
    "eqlang.execute": "the reference VM that the tests and the benchmark's checks "
                      "replay decodes through",
}


def _references(module: str, tree: ast.Module) -> list[tuple[ast.stmt, set[str]]]:
    """Per top-level statement, the ``module.name`` definitions it refers to."""
    modules: dict[str, str] = {}  # local name -> package module
    names: dict[str, str] = {}    # local name -> module.name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = f"{node.module}.{alias.name}"
    out = []
    for stmt in tree.body:
        refs = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                refs.add(names.get(node.id, f"{module}.{node.id}"))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                refs.add(f"{modules[node.value.id]}.{node.attr}")
        out.append((stmt, refs))
    return out


def test_every_definition_has_a_caller_in_the_package():
    definitions = []  # (module.name, its defining statement)
    references = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions += [(f"{path.stem}.{stmt.name}", stmt) for stmt in tree.body
                        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
        references += _references(path.stem, tree)
    uncalled = {name for name, defining in definitions
                if not any(name in refs for stmt, refs in references if stmt is not defining)}
    assert sorted(uncalled - ALLOWED.keys()) == []
    # an allowlisted name that gains a caller in the package leaves the list
    assert sorted(ALLOWED.keys() - uncalled) == []
