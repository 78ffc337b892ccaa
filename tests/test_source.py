"""Code with no caller goes: every top-level function and class in
``src/statlab`` is read somewhere in ``src/statlab``.

A definition counts as read when its name is loaded, as a bare name or as an
attribute, in any module of the package.  ``gof.shape_distance`` is the one
exception: the tests' reference for the distances ``GofPlan.run`` reports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "statlab"


def test_only_the_tests_reference_has_no_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))
              and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}.{node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              and node.name not in loaded]
    assert unread == ["gof.shape_distance"]
