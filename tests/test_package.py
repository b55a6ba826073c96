import ast
from pathlib import Path

import lvseg


def test_every_exported_name_resolves():
    missing = [name for name in lvseg.__all__ if not hasattr(lvseg, name)]
    assert missing == []
    assert len(set(lvseg.__all__)) == len(lvseg.__all__)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them
    unused = []
    for path in sorted(Path(lvseg.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    # "import a.b" binds "a"
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
