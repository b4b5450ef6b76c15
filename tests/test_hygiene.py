"""Source hygiene of ``src/bunpic``, read from the syntax tree: no import that
nothing uses, no module-level private function that nothing calls, no public
method or unexported public function that only the tests read (a method
counts as read only through an attribute, a static method only through its
class), no value read out of a JSON object coerced into a type, and no import
of ``dataclasses``, and no private name of ``exact_algebra`` imported
elsewhere.  One start-up guard runs a subprocess: ``import
bunpic.cli`` loads neither ``dataclasses`` nor ``inspect``."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bunpic"
MODULES = sorted(SRC.glob("*.py"))
BENCH = sorted((ROOT / "bench").rglob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def name_reads(node) -> Counter:
    """How often the node reads each name: bare names and attribute names."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def attribute_reads(node) -> Counter:
    """How often the node reads each name as an attribute (``obj.name``)."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def imported_names(tree) -> list:
    """The names the module's imports bind (``import a.b`` binds ``a``), less
    the ``annotations`` future import."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    return [name for name in bound if name != "annotations"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parse(path)
    used = name_reads(tree)
    assert [name for name in imported_names(tree) if name not in used] == []


def test_every_private_function_is_referenced():
    # a reference is a read of the name anywhere in src outside the function's
    # own definition (importing it alone does not count)
    top_level = [(node, name_reads(node)) for path in MODULES for node in parse(path).body]
    private = [node for node, _ in top_level
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert private, "no private function found: is SRC right?"
    unused = [node.name for node in private
              if not any(node.name in names for other, names in top_level if other is not node)]
    assert unused == []


def test_every_public_api_has_a_reader_outside_the_tests():
    # a public method of a class, or a public function that bunpic/__init__.py
    # does not export, must be read by name in src or bench/ outside its own
    # definition: a method only as an attribute (.name; a bare name proves
    # nothing: the builtin sum would keep a method Lattice.sum alive), and a
    # public static method as Class.name (a bare attribute read proves
    # nothing either: IntMatrix.zero and FGAbelianGroup.free share their
    # names with other methods and fields): an API only the tests read
    # belongs in tests/reference.py
    trees = {path: parse(path) for path in MODULES + BENCH}
    reads = {how: sum((how(tree) for tree in trees.values()), Counter())
             for how in (name_reads, attribute_reads)}
    class_reads = {f"{n.value.id}.{n.attr}" for tree in trees.values() for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    exported = {alias.asname or alias.name for node in trees[SRC / "__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    public = []
    for path in MODULES:
        for node in trees[path].body:
            if isinstance(node, ast.ClassDef):
                public += [(f"{node.name}.{d.name}", d, attribute_reads) for d in node.body
                           if isinstance(d, functions) and not d.name.startswith("_")]
            elif (isinstance(node, functions) and not node.name.startswith("_")
                  and node.name not in exported):
                public.append((node.name, node, name_reads))
    assert public, "no public method found: is SRC right?"
    unread = [label for label, node, how in public
              if reads[how][node.name] == how(node)[node.name]
              or (label not in class_reads and any(
                  isinstance(d, ast.Name) and d.id == "staticmethod"
                  for d in node.decorator_list))]
    # the one exception, named here so that it cannot grow unseen: acceptance
    # criteria 1 and 4 call Pi1Element.zero, and the acceptance tests pin
    # the paper-facing API
    assert unread == ["Pi1Element.zero"]


def test_no_module_imports_a_private_name_of_exact_algebra():
    # the lattice algorithms (_echelon and its helpers) stay behind the public
    # functions of exact_algebra, so each normal-form job has one home
    found = [f"{path.name}:{node.lineno} {alias.name}" for path in MODULES
             if path.name != "exact_algebra.py" for node in ast.walk(parse(path))
             if isinstance(node, ast.ImportFrom) and node.module
             and node.module.split(".")[-1] == "exact_algebra"
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def is_keyed_read(node) -> bool:
    """A string-keyed subscript (``obj["genus"]``) or a ``.get("...")`` call."""
    if isinstance(node, ast.Subscript):
        key = node.slice
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr == "get" and node.args):
        key = node.args[0]
    else:
        return False
    return isinstance(key, ast.Constant) and isinstance(key.value, str)


def test_no_coercion_of_keyed_reads():
    # int(obj["genus"]) turns 2.7 into 2 and bool(obj.get("flag")) "false" into
    # True: JSON values are checked by root_datum.json_field instead
    coercions = {"int", "bool", "str", "tuple"}
    found = [f"{path.name}:{node.lineno}" for path in MODULES for node in ast.walk(parse(path))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in coercions and any(map(is_keyed_read, node.args))]
    assert found == []


def test_integers_are_read_by_one_ascii_grammar():
    # \d and str.isdecimal, isdigit and isnumeric accept the digits of every
    # script, which int() then reads: outside text is matched against
    # root_datum._INTEGER, or [0-9] for a rank, instead
    found = [f"{path.name}:{node.lineno}" for path in MODULES for node in ast.walk(parse(path))
             if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and "\\d" in node.value)
             or (isinstance(node, ast.Attribute)
                 and node.attr in ("isdecimal", "isdigit", "isnumeric"))]
    assert found == []


def test_no_module_imports_dataclasses():
    # dataclasses imports inspect and compiles each generated method with its
    # own exec, at every start: records come from bunpic.record instead
    assert MODULES, "no module found: is SRC right?"
    found = [f"{path.name}:{node.lineno}" for path in MODULES for node in ast.walk(parse(path))
             if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
             or (isinstance(node, ast.Import)
                 and any(alias.name == "dataclasses" for alias in node.names))]
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a module-set check, not a timing: what ``import bunpic.cli`` adds to the
    # modules a bare interpreter loads.  Neither -I nor -E: both ignore
    # PYTHONDONTWRITEBYTECODE and would write src/bunpic/__pycache__
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent),
                                                       os.environ.get("PYTHONPATH")]))}

    def loaded(statement):
        code = f"import sys{statement}; print(' '.join(sorted(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        return set(proc.stdout.split())

    added = loaded(", bunpic.cli") - loaded("")
    assert "bunpic.cli" in added
    assert added & {"dataclasses", "inspect"} == set()
