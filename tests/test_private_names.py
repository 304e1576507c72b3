"""No package module reads a private (``_``-prefixed) name of another
package module: what one module shares with another is public."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "varnamer").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[tuple[int, str]]:
    """(line, "module.name") of every private name that ``source`` reads from
    a package module, by ``from .module import _name`` or ``module._name``
    where ``module`` was bound by ``from . import module``."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        for alias in node.names:
            if node.module is None:
                modules[alias.asname or alias.name] = alias.name
            elif _private(alias.name):
                found.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return sorted(found)


def test_the_probe_sees_private_reads():
    source = ("import numpy as np\n"
              "from . import autodiff as ad\n"
              "from . import masking, __version__\n"
              "from .model import _project, forward\n"
              "def f(code, name):\n"
              "    np._core\n"
              "    masking.segments(code, name)\n"
              "    return ad._GELU_C, masking._window, __version__\n")
    assert private_reads(source) == [(4, "model._project"), (8, "autodiff._GELU_C"),
                                     (8, "masking._window")]


def test_no_module_reads_another_modules_private_names():
    assert SOURCES
    offenders = [f"{path.name}:{line} reads {name}"
                 for path in SOURCES
                 for line, name in private_reads(path.read_text(encoding="utf-8"))]
    assert offenders == []
