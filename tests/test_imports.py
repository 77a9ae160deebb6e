"""Every module-level import in a bellsim module is named by that module,
every module-level private name is named somewhere else, every method of
a bellsim class is named somewhere, and no module reads the environment.

No lint tool runs on the package, and deleting code tends to leave its
imports and private helpers behind; these tests parse each module with
``ast`` instead.  ``__init__.py`` is left out of the import check: its
imports are the package's exports.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "bellsim"
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


def private_definitions(tree: ast.Module) -> list[str]:
    """The private (single-underscore) names that the module's top-level defs, classes and assignments bind."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in bound if name.startswith("_") and not name.startswith("__")]


def named(tree: ast.Module) -> set[str]:
    """Every name the module reads: as a variable, as an attribute, or imported by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_private_names(sources: list[str], tests_text: str = "") -> list[str]:
    """The private module-level names of ``sources`` that no source reads and ``tests_text`` never names."""
    trees = [ast.parse(source) for source in sources]
    read = set().union(*map(named, trees))
    return [name for tree in trees for name in private_definitions(tree)
            if name not in read and not re.search(rf"\b{name}\b", tests_text)]


def test_the_check_finds_a_dead_private_name():
    module = "_LIMIT = 3\n_unused_limit = 4\ndef _helper():\n    return _LIMIT\nclass _Left:\n    pass\n"
    caller = "from .module import _helper\nx = _helper()\n"
    assert dead_private_names([module, caller]) == ["_unused_limit", "_Left"]
    assert dead_private_names([module, caller], "assert mod._Left") == ["_unused_limit"]


def test_no_dead_private_name():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    tests_text = "\n".join(path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("*.py"))
                           if path.name != Path(__file__).name)  # not the names of the example above
    assert dead_private_names(sources, tests_text) == []


def dead_methods(sources: list[str], tests_text: str = "") -> list[str]:
    """The methods (also properties and classmethods) of the classes in ``sources``, as ``Class.name``,
    that no source reads and ``tests_text`` never names.

    Dunders are left out, and so are the classes with a base from outside
    ``sources``: that base may call their methods as hooks, as argparse calls
    ``ArgumentParser.error``.
    """
    trees = [ast.parse(source) for source in sources]
    classes = [node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)]
    ours = {cls.name for cls in classes}
    read = set().union(*map(named, trees))
    return [f"{cls.name}.{node.name}" for cls in classes
            if all(isinstance(base, ast.Name) and base.id in ours for base in cls.bases)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not re.fullmatch(r"__\w+__", node.name)
            and node.name not in read and not re.search(rf"\b{node.name}\b", tests_text)]


def test_the_check_finds_a_dead_method():
    module = (
        "import argparse\n"
        "class State:\n"
        "    def __post_init__(self):\n        pass\n"
        "    @classmethod\n    def up(cls):\n        return cls()\n"
        "    @classmethod\n    def down(cls):\n        return cls()\n"
        "    @property\n    def norm(self):\n        return 1\n"
        "    def vector(self):\n        return self.norm\n"
        "class Pair(State):\n"
        "    def swap(self):\n        return self.vector()\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        pass\n"
    )
    caller = "from .module import State\nx = State.up()\n"
    assert dead_methods([module, caller]) == ["State.down", "Pair.swap"]
    assert dead_methods([module, caller], "assert Pair().swap()") == ["State.down"]


def test_no_dead_method():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    tests_text = "\n".join(path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("*.py"))
                           if path.name != Path(__file__).name)  # not the names of the example above
    assert dead_methods(sources, tests_text) == []


# the names through which os reads the environment
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """The environment readers of ``os`` that the module names, as attributes or imported by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [alias.name for alias in node.names if alias.name in ENVIRONMENT_READERS]
    return found


def test_the_check_finds_an_environment_read():
    source = "import os\nfrom os import getenv\nn = os.environ.get('N') or getenv('N')\nos.cpu_count()\n"
    assert environment_reads(source) == ["getenv", "environ"]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_environment_read(module):
    # a run's config and arguments fix it; a variable of the environment would change it unseen
    assert environment_reads((SRC / module).read_text(encoding="utf-8")) == []


def test_the_cli_imports_no_thread_pool():
    # only a run on more than one thread uses it, and each stage pays for every import it makes
    code = "import sys, bellsim.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_the_package_imports_nothing_from_the_tests():
    # tests/reference.py is the scalar oracle the package is checked against, so no module may lean on it
    test_modules = {path.stem for path in TESTS.glob("*.py")} | {"tests"}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                continue
            assert {name.partition(".")[0] for name in imported}.isdisjoint(test_modules), path.name
