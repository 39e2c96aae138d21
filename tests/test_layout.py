"""Regrowth guard: every public name of ``src/prsplit`` has a user in ``src/``."""

import ast
from pathlib import Path

import prsplit

# perfbench/tracing.py wraps these by name, so they stay until a benchmark
# change gives them a caller or drops them from its target list
TRACED_ONLY = {"estimate_moduli", "gram_norm", "gram_smallest_eigenvalue"}


def test_every_exported_name_is_used_in_src():
    src = Path(prsplit.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    # a load of the name or of an attribute so named; definitions, imports,
    # __all__ strings and the package's re-exports are no use
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for module, tree in trees.items() if module != "__init__.py"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    exported = [(module, entry.value)
                for module, tree in trees.items() for node in tree.body
                if isinstance(node, ast.Assign) and ["__all__"] == [
                    getattr(target, "id", None) for target in node.targets]
                for entry in node.value.elts]
    assert len(exported) > 40
    assert [f"{module}: {name}" for module, name in exported
            if name not in used | TRACED_ONLY] == []
