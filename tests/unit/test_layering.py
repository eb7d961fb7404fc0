"""Package layering, checked on the source with ``ast``.

``import repro`` pulls in every package, so ``sys.modules`` cannot show
which package depends on which; the import statements can.  Imports
inside functions and ``TYPE_CHECKING`` blocks count too.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import repro

SOURCE = Path(repro.__file__).resolve().parent


def _module_name(path: Path) -> str:
    parts = path.relative_to(SOURCE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(path: Path) -> list[tuple[str, int]]:
    """``(absolute module name, line)`` of every import in ``path``."""
    package = _module_name(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    found: list[tuple[str, int]] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            name = node.module
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                name = f"{base}.{name}" if name else base
            found.append((name, node.lineno))
    return found


def _sources(package: str) -> list[Path]:
    return sorted((SOURCE / package).rglob("*.py"))


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def test_durable_imports_only_the_standard_library_and_exceptions():
    foreign = {
        name
        for name, _ in imported_modules(SOURCE / "durable.py")
        if name.partition(".")[0] not in sys.stdlib_module_names
        and name != "repro.exceptions"
    }
    assert foreign == set()


@pytest.mark.parametrize(
    "package, forbidden",
    [("serve", "repro.evaluation"), ("obs", "repro.evaluation"), ("obs", "repro.core")],
)
def test_package_does_not_import(package, forbidden):
    offenders = {
        f"{path.relative_to(SOURCE.parent)}:{line}: {name}"
        for path in _sources(package)
        for name, line in imported_modules(path)
        if _within(name, forbidden)
    }
    assert offenders == set()
