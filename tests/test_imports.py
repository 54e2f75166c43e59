"""Every module of ``infolab`` uses each name it imports.

``__init__.py`` is exempt: its imports are the public re-exports.  The scan
reads each module with ``ast``: an imported name counts as used when a name
node of the module (an expression or annotation, not a string) reads it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "infolab"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``; ``import a.b as c`` and ``from a import b`` bind the alias
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .states import _built, _integer\n_built(np.ndarray)\n"
    assert _unused_imports(source) == ["line 1: os", "line 3: _integer"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (found := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
