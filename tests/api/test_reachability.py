"""Every module under ``src/repro`` must be reachable from an entry point.

The entry points are the library facade (``repro.api``) and the figure
CLI (``repro.experiments.__main__``).  A module neither of them imports,
directly or through other modules, runs in no figure and no benchmark:
it is dead weight that still has to be read, tested and kept in step.
The import graph is read statically with :mod:`ast`, imports inside
functions included, so the check needs no simulation run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
ROOTS = ("repro.api", "repro.experiments.__main__")


def _module_files():
    """Dotted module name -> source path for every ``.py`` in the package."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _imports(name, path, modules):
    """Modules that importing ``name`` (source at ``path``) loads."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = {name}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            # ``from pkg import sub`` loads the submodule ``pkg.sub``
            found.update(f"{base}.{alias.name}" for alias in node.names)
    # loading ``a.b.c`` runs the ``__init__`` of ``a`` and ``a.b`` first
    closed = set()
    for target in found:
        parts = target.split(".")
        closed.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return closed & modules.keys()


def unreachable_modules():
    modules = _module_files()
    seen = set()
    todo = list(ROOTS)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(_imports(name, modules[name], modules) - seen)
    return sorted(modules.keys() - seen)


def test_every_module_is_reachable_from_an_entry_point():
    unreachable = unreachable_modules()
    assert not unreachable, (
        "modules no entry point imports (wire them in or delete them): "
        + ", ".join(unreachable))
