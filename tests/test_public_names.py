"""Every name a package serves has a user.

Each package ``__init__`` serves its public names from one
``_lazy.attach`` table (``repro/_lazy.py``).  A served name earns its
place when at least one of these holds:

* ``src/`` mentions it outside its definition line and its table entry
  (code, or a docstring pointing readers at it);
* a script in ``bench/`` or ``examples/`` mentions it;
* a README's ```` ```python ```` block mentions it;
* its definition is ``@register``-ed, so a manifest reaches it by name.

A name with none of these is dead surface: delete it (and the tests that
only test it), or add it to :data:`ALLOWED` with the reason it stays.
The scan reads the sources as text and :mod:`ast` and imports nothing.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Served names kept without a user, each with why.
ALLOWED = {
    "claim_cells": "the (claim, cell) list a multi-seed claim run is to fan out over",
    "bounded_variance_b_upper_bound": "Theorem 4's B, an input of the planned theory panel",
    "logistic_lipschitz_bound": "the logistic loss's L, an input of the planned theory panel",
}

CALLERS = ("bench", "examples")
READMES = ("README.md", "bench/README.md")

Place = Tuple[Path, int]  # (file, line)


def _module_file(package: Path, module: str) -> Path:
    """The file of a relative module (``".server"``, ``"..comms.config"``)."""
    dots = len(module) - len(module.lstrip("."))
    base = package
    for _ in range(dots - 1):
        base = base.parent
    target = base.joinpath(*module[dots:].split("."))
    return target / "__init__.py" if target.is_dir() else target.with_suffix(".py")


def _tables(src: Path) -> Iterable[Tuple[Path, ast.Call]]:
    """``(package __init__, its attach call)`` for every table under ``src``."""
    for init in sorted(src.rglob("__init__.py")):
        for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "attach"
            ):
                yield init, node


def served_names(src: Path) -> Dict[str, Path]:
    """Every name a table under ``src`` serves -> the file that defines it."""
    return {
        name: _module_file(init.parent, module)
        for init, call in _tables(src)
        for module, names in ast.literal_eval(call.args[1]).items()
        for name in names
    }


def _words(text: str, path: Path, into: Dict[str, Set[Place]]) -> None:
    for number, line in enumerate(text.splitlines(), start=1):
        for word in re.findall(r"\w+", line):
            into.setdefault(word, set()).add((path, number))


def _definition(module: ast.Module, name: str):
    """The top-level ``def``/``class``/assignment of ``name`` in a module."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def _registered(definition) -> bool:
    for decorator in getattr(definition, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "register":
            return True
    return False


def _python_blocks(markdown: str) -> List[str]:
    return re.findall(r"^```python\n(.*?)^```", markdown, flags=re.DOTALL | re.MULTILINE)


def unused_names(root: Path, callers=CALLERS, readmes=READMES) -> List[str]:
    """The names ``root/src``'s tables serve that nothing in the census uses."""
    src = root / "src"
    inside: Dict[str, Set[Place]] = {}
    for path in src.rglob("*.py"):
        _words(path.read_text(encoding="utf-8"), path, inside)
    table_lines = {
        (init, number)
        for init, call in _tables(src)
        for number in range(call.lineno, call.end_lineno + 1)
    }
    outside: Dict[str, Set[Place]] = {}
    for tree in callers:
        for path in (root / tree).rglob("*.py"):
            _words(path.read_text(encoding="utf-8"), path, outside)
    for readme in readmes:
        for block in _python_blocks((root / readme).read_text(encoding="utf-8")):
            _words(block, root / readme, outside)

    modules: Dict[Path, ast.Module] = {}

    def earns(name: str, home: Path) -> bool:
        if home not in modules:
            modules[home] = ast.parse(home.read_text(encoding="utf-8"))
        definition = _definition(modules[home], name)
        if definition is not None and _registered(definition):
            return True
        own = {(home, definition.lineno)} if definition is not None else set()
        return bool(outside.get(name) or inside.get(name, set()) - table_lines - own)

    return sorted(name for name, home in served_names(src).items() if not earns(name, home))


def test_every_served_name_earns_its_place():
    assert [name for name in unused_names(ROOT) if name not in ALLOWED] == []


def test_every_allowed_name_is_still_served_and_unused():
    """An allowance outlives neither its name nor the name's lack of users."""
    assert set(ALLOWED) <= set(unused_names(ROOT))


def test_the_census_reads_every_table():
    served = served_names(ROOT / "src")
    assert {"FederatedTrainer", "make_synthetic", "PackedClientStore"} <= set(served)
    assert all(path.is_file() for path in served.values())


def test_an_unused_name_is_reported(tmp_path):
    """Teeth: a fabricated table serving one name nobody uses fails."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .. import _lazy\n"
        "_lazy.attach(globals(), {\n"
        '    ".tools": ("used", "unused", "Registered", "documented"),\n'
        "})\n"
    )
    (package / "tools.py").write_text(
        "def used():\n    pass\n\n"
        "def unused():\n    pass\n\n"
        "@register\nclass Registered:\n    pass\n\n"
        "documented = 1\n"
    )
    (package / "run.py").write_text("from .tools import used\nused()\n")
    (tmp_path / "README.md").write_text("```python\nprint(documented)\n```\n")
    assert unused_names(tmp_path, callers=(), readmes=("README.md",)) == ["unused"]
