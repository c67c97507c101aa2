"""Every name a library module imports is used in that module, the
package imports nothing outside the standard library, only errors.py
refuses an argument for not being an int or for its type, and the module
attributes perfbench rebinds stay bound and reached.

No linter ships with the test extra, so this guard reads each module's
syntax tree with the standard library's ast.  A name counts as used if
the module loads it anywhere or lists it in __all__.  Package
__init__.py files re-export by design and are skipped, as is any import
statement marked `# noqa: F401`.
"""

import ast
import importlib
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


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_integer_checks_go_through_require_int(path):
    # errors.require_int is the one place that says "must be an int"
    raises = [node for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise)]
    own = sorted({text.lineno for node in raises for text in ast.walk(node)
                  if isinstance(text, ast.Constant) and isinstance(text.value, str)
                  and "must be an int" in text.value})
    assert not own, "%s refuses non-ints itself on lines %s; use require_int" % (
        path.name, own)


# the one type refusal with its own words: test_search.py pins "bounds
# must be a JSON object, got list"
OWN_TYPE_CHECKS = {("search.py", "from_json")}


def _type_refusals(tree):
    """(enclosing function, line) of every `if not isinstance(...)` whose
    body raises PreconditionViolated."""
    within = {}
    for func in ast.walk(tree):  # breadth first: an inner function wins
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            within.update((id(node), func.name) for node in ast.walk(func))
    for node in ast.walk(tree):
        test = getattr(node, "test", None)
        if (isinstance(node, ast.If) and isinstance(test, ast.UnaryOp)
                and isinstance(test.op, ast.Not) and isinstance(test.operand, ast.Call)
                and getattr(test.operand.func, "id", None) == "isinstance"
                and any(isinstance(raised, ast.Raise)
                        and "PreconditionViolated" in ast.unparse(raised)
                        for stmt in node.body for raised in ast.walk(stmt))):
            yield within.get(id(node)), node.lineno


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_type_checks_go_through_require_type(path):
    # errors.require_type is the one place that refuses an argument's type
    own = sorted(line for func, line in _type_refusals(ast.parse(path.read_text()))
                 if (path.name, func) not in OWN_TYPE_CHECKS)
    assert not own, "%s refuses a type itself on lines %s; use require_type" % (
        path.name, own)


def test_the_type_guard_sees_the_named_exception():
    # the exception must stay a live check, or the guard would pass blind
    tree = ast.parse((SRC / "search.py").read_text())
    assert [func for func, _line in _type_refusals(tree)] == ["from_json"]


# perfbench/rep.py times layers by rebinding these module attributes, so
# each must stay bound, and be called through its module
REBOUND = [("families", "sum_series_dp"), ("families", "count_by_predicate"),
           ("search", "sum_series_dp"), ("search", "euler_exponents"),
           ("search", "detect_period"), ("series", "product_series"),
           ("verify", "registered_names")]


@pytest.mark.parametrize("module, name", REBOUND,
                         ids=["%s.%s" % pair for pair in REBOUND])
def test_the_names_perfbench_rebinds_stay_bound(module, name):
    assert callable(getattr(importlib.import_module("flatpart." + module), name))


@pytest.mark.parametrize("module, name, method, field", [
    ("series", "product_series", "product_series", "product"),
    ("families", "sum_series_dp", "count_series", "flat")])
def test_a_statement_reaches_the_rebound_names(monkeypatch, module, name,
                                               method, field):
    # count_series and product_series look both names up at call time,
    # so a traced run times them; first_mismatch compares the packed
    # sides and reaches neither name
    from flatpart.families import get_identity
    bound = importlib.import_module("flatpart." + module)
    calls = []
    original = getattr(bound, name)

    def counted(arg, order):
        calls.append(order)
        return original(arg, order)

    monkeypatch.setattr(bound, name, counted)
    rr1 = get_identity("RR1")
    assert getattr(rr1, method)(10) == original(getattr(rr1, field), 10)
    assert calls == [10]
