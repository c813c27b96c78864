"""Every name a dyntf module imports is used in that module.

No linter ships with the project, so this walks each module's syntax tree
the way pyflakes' F401 check does: a name bound by an import must appear as
a name somewhere else in the module. `from __future__` imports and import
statements whose first line carries `# noqa: F401` are exempt, as they are
for the linter; `__init__.py` re-exports its imports and is not walked.
Instead its `__all__` must list each name it imports, once, and nothing
else but `__version__`, and every entry must resolve, so a removed public
name cannot stay listed.

A second walk keeps one thread owner: `ThreadPoolExecutor` and `Thread` are
named, by name or attribute, only inside `trainer._ordered_map`, which starts
plain `threading` threads and runs each call in a copy of the caller's
context; a thread started elsewhere would lose numpy's error state.

The import footprint is guarded too: no module imports `concurrent`, at any
depth, and a fresh interpreter that imports `dyntf.cli` has not loaded
`concurrent.futures` or the `logging` and `queue` it pulls in. Each dyntf
process would pay that import in RSS and start-up time.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dyntf"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_a_stray_import_is_caught():
    source = "from itertools import chain\nimport numpy as np\n\nx = np.zeros(1)\n"
    assert unused_imports(source) == ["chain (line 1)"]


def export_problems(source: str) -> list[str]:
    """What is wrong with a package's `__all__`: a name listed twice, an
    imported name left out, or an entry nothing imports (`__version__` is
    assigned, not imported)."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0] for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    listed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "__all__")
    return ([f"{name} listed twice" for name in sorted(set(listed)) if listed.count(name) > 1]
            + [f"{name} not listed" for name in sorted(imported - set(listed))]
            + [f"{name} not imported"
               for name in sorted(set(listed) - imported - {"__version__"})])


def test_init_exports_exactly_its_imports():
    assert export_problems((SRC / "__init__.py").read_text(encoding="utf-8")) == []
    import dyntf
    assert [name for name in dyntf.__all__ if not hasattr(dyntf, name)] == []


def test_a_stale_export_is_caught():
    source = ("from .a import f, g\n\n__version__ = \"1\"\n"
              "__all__ = [\"f\", \"h\", \"f\", \"__version__\"]\n")
    assert export_problems(source) == ["f listed twice", "g not listed", "h not imported"]


THREAD_STARTERS = {"ThreadPoolExecutor", "Thread"}


def thread_starters(source: str) -> list[tuple[str, int]]:
    """(scope, line) of every use of a thread starter, by name or attribute,
    and of every import that renames one; scope is the dotted name of the
    enclosing classes and functions, "" at module level."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Name) and child.id in THREAD_STARTERS
                    or isinstance(child, ast.Attribute) and child.attr in THREAD_STARTERS
                    or isinstance(child, ast.alias) and child.name in THREAD_STARTERS
                    and child.asname):
                found.append((scope, child.lineno))
            walk(child, scope)

    walk(ast.parse(source), "")
    return found


def test_only_ordered_map_starts_threads():
    scopes = {(path.name, scope) for path in SRC.glob("*.py")
              for scope, _ in thread_starters(path.read_text(encoding="utf-8"))}
    assert scopes == {("trainer.py", "_ordered_map")}


def test_a_stray_thread_is_caught():
    source = ("import threading\nfrom threading import Thread as T\n\n"
              "class Pool:\n    def start(self, fn):\n        threading.Thread(target=fn).start()\n")
    assert thread_starters(source) == [("", 2), ("Pool.start", 6)]


def concurrent_imports(source: str) -> list[int]:
    """Lines of every import of `concurrent` or one of its modules, at any depth."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "concurrent" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "concurrent"]


def test_no_module_imports_concurrent():
    found = {path.name: concurrent_imports(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_a_stray_concurrent_import_is_caught():
    source = ("import concurrent.futures as cf\n\n"
              "def run(fn):\n    from concurrent.futures import ThreadPoolExecutor\n")
    assert concurrent_imports(source) == [1, 4]


def test_cli_import_loads_no_thread_pool_modules():
    code = "import sys, dyntf.cli; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "dyntf.cli" in loaded
    assert {"concurrent.futures", "logging", "queue"}.isdisjoint(loaded)
