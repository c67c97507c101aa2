"""Every name a library module imports is used in that module, and the
package imports nothing outside the standard library.

No linter ships with the test extra, so this guard reads each module's
syntax tree with the standard library's ast.  A name counts as used if
the module loads it anywhere or lists it in __all__.  Package
__init__.py files re-export by design and are skipped, as is any import
statement marked `# noqa: F401`.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "flatpart"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree, lines):
    """(name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        if "# noqa: F401" in text:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, node.lineno


def _used(tree) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = _used(tree)
    unused = ["%s (line %d)" % (name, line)
              for name, line in _imported(tree, source.splitlines())
              if name not in used]
    assert not unused, "%s imports unused names: %s" % (path.name, ", ".join(unused))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_standard_library_is_imported(path):
    tree = ast.parse(path.read_text())
    outside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside.update(n for n in names
                       if n.split(".")[0] not in sys.stdlib_module_names)
    assert not outside, "%s imports %s" % (path.name, ", ".join(sorted(outside)))
