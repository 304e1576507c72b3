"""The package raises only its own ``VarnamerError`` classes, never a
builtin exception, so a caller can catch every input fault in one place."""

import ast
import builtins
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "varnamer").glob("*.py"))


def builtin_raises(source: str) -> list[tuple[int, str]]:
    """(line, class name) of every ``raise`` of a builtin exception class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if not isinstance(target, ast.Name):
            continue
        value = getattr(builtins, target.id, None)
        if isinstance(value, type) and issubclass(value, BaseException):
            found.append((node.lineno, target.id))
    return sorted(found)


def test_the_probe_sees_builtin_raises():
    source = ("def f(x):\n"
              "    if x:\n"
              "        raise ValueError('bad')\n"
              "    raise IndexError\n"
              "def g(exc):\n"
              "    raise exc\n"
              "def h():\n"
              "    try:\n"
              "        pass\n"
              "    except OSError:\n"
              "        raise\n"
              "    raise UsageError('typed')\n")
    assert builtin_raises(source) == [(3, "ValueError"), (4, "IndexError")]


def test_no_builtin_exception_is_raised_in_the_package():
    assert SOURCES
    offenders = [f"{path.name}:{line} raises {name}"
                 for path in SOURCES
                 for line, name in builtin_raises(path.read_text(encoding="utf-8"))]
    assert offenders == []
