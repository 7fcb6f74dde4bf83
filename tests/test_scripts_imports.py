"""The code outside ``tests/`` still imports what it names from ``repro``.

``examples/`` and ``bench/`` run outside tier-1 (CI's examples step,
``pytest bench``, ``bench/run.py``), so a name removed from the package
would otherwise fail only there.  The same holds for the code readers copy
from the docs: README.md's and DESIGN.md's ```` ```python ```` blocks and
the ``>>>`` lines of the ``repro`` package docstring.  Every
``from repro… import name`` and ``import repro…`` in those sources — at
top level or inside a function — is resolved here without running it:
the module with :func:`importlib.import_module`, each name with
``getattr`` (or as a submodule).
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    path.relative_to(ROOT).as_posix()
    for tree in ("examples", "bench")
    for path in (ROOT / tree).rglob("*.py")
)


def _python_blocks(markdown: str):
    """The source of each ```` ```python ```` block of a Markdown text."""
    return re.findall(r"^```python\n(.*?)^```", markdown, flags=re.DOTALL | re.MULTILINE)


def _doctest_source(docstring: str) -> str:
    """A docstring's ``>>>`` / ``...`` lines as code, prompts stripped."""
    lines = (line.strip() for line in docstring.splitlines())
    return "\n".join(line[4:] for line in lines if line[:4] in (">>> ", "... "))


DOC_SOURCES = {
    f"{doc} block {number}": block
    for doc in ("README.md", "DESIGN.md")
    for number, block in enumerate(_python_blocks((ROOT / doc).read_text()), start=1)
}
DOC_SOURCES["repro docstring"] = _doctest_source(repro.__doc__)


def _repro_imports(source: str, filename: str = "<doc>"):
    """``(line, module, name or None)`` for each ``repro`` import of ``source``."""
    for node in ast.walk(ast.parse(source, filename=filename)):
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
    assert any(key.startswith("README.md") for key in DOC_SOURCES)
    assert any(_repro_imports(DOC_SOURCES["repro docstring"]))


def _problems(source: str, where: str):
    return [
        f"{where}:{line}: {problem}"
        for line, module, name in _repro_imports(source, where)
        if (problem := _unresolved(module, name)) is not None
    ]


@pytest.mark.parametrize("script", SCRIPTS)
def test_every_repro_import_resolves(script):
    problems = _problems((ROOT / script).read_text(), script)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("doc", DOC_SOURCES)
def test_every_doc_repro_import_resolves(doc):
    problems = _problems(DOC_SOURCES[doc], doc)
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
        for line, module, name in _repro_imports(script.read_text())
    }
    assert found == {
        (2, "'repro.core' has no name 'Client'"),
        (2, None),
        (3, "module 'repro.no_such_module': No module named 'repro.no_such_module'"),
    }


def test_a_removed_name_in_the_docs_is_reported():
    """Teeth: a doc block or docstring importing a dropped factory fails."""
    markdown = "Text.\n\n```python\nfrom repro.core import make_fedavg\n```\n"
    docstring = "Quickstart\n\n>>> from repro.core import (\n...     make_fedavg,\n... )\n"
    missing = ["doc:1: 'repro.core' has no name 'make_fedavg'"]
    (block,) = _python_blocks(markdown)
    assert _problems(block, "doc") == missing
    assert _problems(_doctest_source(docstring), "doc") == missing
