"""Every module-level import in a bellsim module is named by that module.

No lint tool runs on the package, and deleting code tends to leave its
imports behind; this test parses each module with ``ast`` instead.
``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bellsim"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the module's top-level imports bind and its code never names."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in named]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom pathlib import Path, PurePath\nx = np.zeros(Path('a').stat().st_size)\n"
    assert unused_imports(source) == ["os", "PurePath"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
