"""The code outside ``tests/`` still imports what it names from ``repro``.

``examples/`` and ``bench/`` run outside tier-1 (CI's examples step,
``pytest bench``, ``bench/run.py``), so a name removed from the package
would otherwise fail only there.  Every
``from repro… import name`` and ``import repro…`` in those trees — at top
level or inside a function — is resolved here without running the script:
the module with :func:`importlib.import_module`, each name with
``getattr`` (or as a submodule).
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    path.relative_to(ROOT).as_posix()
    for tree in ("examples", "bench")
    for path in (ROOT / tree).rglob("*.py")
)


def _repro_imports(path: Path):
    """``(line, module, name or None)`` for each ``repro`` import of ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "repro" or node.module.startswith("repro."):
                for alias in node.names:
                    yield node.lineno, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield node.lineno, alias.name, None


def _unresolved(module: str, name):
    try:
        imported = importlib.import_module(module)
    except ImportError as error:
        return f"module {module!r}: {error}"
    if name is None or name == "*" or hasattr(imported, name):
        return None
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return f"{module!r} has no name {name!r}"
    return None


def test_the_scan_sees_every_tree():
    for tree in ("examples/", "bench/"):
        assert any(script.startswith(tree) for script in SCRIPTS), tree


@pytest.mark.parametrize("script", SCRIPTS)
def test_every_repro_import_resolves(script):
    problems = [
        f"{script}:{line}: {problem}"
        for line, module, name in _repro_imports(ROOT / script)
        if (problem := _unresolved(module, name)) is not None
    ]
    assert not problems, "\n".join(problems)


def test_a_removed_name_is_reported(tmp_path):
    """Teeth: a leftover import of a name the package dropped fails."""
    script = tmp_path / "leftover.py"
    script.write_text(
        "def main():\n"
        "    from repro.core import Client, FederatedTrainer\n"
        "import repro.no_such_module\n"
    )
    found = {
        (line, _unresolved(module, name))
        for line, module, name in _repro_imports(script)
    }
    assert found == {
        (2, "'repro.core' has no name 'Client'"),
        (2, None),
        (3, "module 'repro.no_such_module': No module named 'repro.no_such_module'"),
    }
