"""Source-level rules for the library package."""
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import hjbsl

SRC = Path(hjbsl.__file__).resolve().parent


def test_no_assert_statements_in_library():
    # python -O strips assert; invariants must raise a typed HJBError
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/hjbsl: {found}"


def _imports_of(node, module: str) -> bool:
    """node imports module or one of its submodules, also as `from
    package import module`."""
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return False
    return any(n == module or n.startswith(module + ".") for n in names)


def test_triangulation_imported_only_where_a_mesh_is_triangulated():
    # scipy.spatial costs about 15 MB of resident memory; a 1D solve, which
    # triangulates nothing, must not load it (README, "Footprint")
    at_top, found, in_helper = [], [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        at_top += [f"{path.name}:{node.lineno}" for node in tree.body
                   if _imports_of(node, "scipy.spatial")]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _imports_of(node, "scipy.spatial")]
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "_triangulate":
                in_helper += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                              if _imports_of(node, "scipy.spatial")]
    assert at_top == [], f"module-level scipy.spatial imports in src/hjbsl: {at_top}"
    assert len(found) == 1 and found == in_helper, \
        f"scipy.spatial imports in src/hjbsl: {found}, in mesh._triangulate: {in_helper}"


def test_no_sparse_matrix_import_in_library():
    # the operator's product is numpy's; scipy.sparse alone costs about 22 MB
    # of resident memory (README, "Footprint")
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if _imports_of(node, "scipy.sparse")]
    assert found == [], f"scipy.sparse imports in src/hjbsl: {found}"


def test_no_unused_imports_in_library():
    # __init__.py imports to re-export; every other module uses what it imports
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported.setdefault(name, node.lineno)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert not found, f"unused imports in src/hjbsl: {found}"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unreferenced_definitions() -> list:
    """Module-level functions, classes and constants, and methods, other
    than dunders, whose name no module of src/hjbsl refers to; an import by
    name, as the re-exports in __init__.py, counts as a reference."""
    defined, used = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(t.id, t.id) for t in targets
                            if isinstance(t, ast.Name) and not _is_dunder(t.id)]
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{item.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name)]
        for node in ast.walk(tree):
            # an assignment's own target is not a reference
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(qual for qual, name in defined if name not in used)


def test_no_unreferenced_definitions_in_library():
    found = _unreferenced_definitions()
    assert found == [], \
        f"functions, classes, constants or methods no module of src/hjbsl refers to: {found}"


def test_readme_constants_match_the_library():
    # every `module.NAME = value` the README cites, across its line breaks,
    # names a constant of hjbsl.module with that value
    text = " ".join((SRC.parents[1] / "README.md").read_text().split())
    cited = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*) = ([^`]+)`", text)
    assert cited
    wrong = [f"{module}.{name} = {value}" for module, name, value in cited
             if getattr(importlib.import_module(f"hjbsl.{module}"), name, None)
             != ast.literal_eval(value)]
    assert wrong == [], f"README constants that differ from the library: {wrong}"


def _library_names() -> tuple:
    """({module: its module-level names}, {class: its methods, dataclass
    fields and self. attributes}) of src/hjbsl."""
    modules, classes = {}, {}
    for path in sorted(SRC.rglob("*.py")):
        names = modules.setdefault(path.stem, set())
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
            if isinstance(node, ast.ClassDef):
                members = classes.setdefault(node.name, set())
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        members.add(item.name)
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        members.add(item.target.id)
                members.update(n.attr for n in ast.walk(node)
                               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                               and isinstance(n.value, ast.Name) and n.value.id == "self")
    return modules, classes


def test_readme_citations_resolve():
    # every `prefix.name` the README cites, across its line breaks and
    # outside its code blocks, whose prefix is an hjbsl module or class names
    # a module-level definition, a method, a dataclass field or a self.
    # attribute; a module falls back to its own class (`mesh.vertices` is
    # Mesh.vertices), and file names (`mesh.py`) are skipped
    text = re.sub(r"```.*?```", "", (SRC.parents[1] / "README.md").read_text(), flags=re.S)
    spans = re.findall(r"`([^`]+)`", " ".join(text.split()))
    modules, classes = _library_names()
    checked, stale = 0, []
    for prefix, name in (m.groups() for s in spans if (m := re.match(r"(\w+)\.(\w+)", s))):
        if name == "py" or not (prefix in modules or prefix in classes):
            continue
        own = next((c for c in modules.get(prefix, ()) if c.lower() == prefix), None)
        checked += 1
        if name not in modules.get(prefix, set()) | classes.get(own or prefix, set()):
            stale.append(f"{prefix}.{name}")
    assert checked
    assert stale == [], f"README citations of names src/hjbsl does not define: {stale}"


def test_no_private_constructor_arguments():
    # derived values and caches are computed by their class, never passed in
    found = []
    for info in pkgutil.iter_modules(hjbsl.__path__):
        module = importlib.import_module(f"hjbsl.{info.name}")
        for name, cls in vars(module).items():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                params = inspect.signature(cls.__init__).parameters
                found += [f"{info.name}.{name}({arg})" for arg in params if arg.startswith("_")]
    assert not found, f"constructor arguments starting with _ in src/hjbsl: {found}"


# functions that may convert with np.asarray or np.array and dtype=float,
# with the reason
FLOAT_CONVERSION_ALLOWED = {
    "read_mesh": "parses a mesh file's text inside its try, which turns a bad "
                 "number into BadParams for the file",
}


class _CallSites(ast.NodeVisitor):
    """(function, line) of each call node for which match(node) holds."""

    def __init__(self, match):
        self.match, self.scope, self.found = match, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if self.match(node):
            self.found.append((self.scope[-1], node.lineno))
        self.generic_visit(node)


def _call_sites(match) -> list:
    """(file name, function, line) of each call in src/hjbsl that match
    accepts."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        visitor = _CallSites(match)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found += [(path.name, fn, line) for fn, line in visitor.found]
    return found


def _is_float_conversion(node) -> bool:
    """np.asarray(..., dtype=float) or np.array(..., dtype=float), dtype
    given by keyword or position."""
    f = node.func
    dtypes = [k.value for k in node.keywords if k.arg == "dtype"] + node.args[1:2]
    return (isinstance(f, ast.Attribute) and f.attr in ("array", "asarray")
            and isinstance(f.value, ast.Name) and f.value.id == "np"
            and any(isinstance(d, ast.Name) and d.id == "float" for d in dtypes))


def test_float_conversion_only_through_real_array():
    # geometry.real_array is the one conversion of outside arrays: it
    # rejects complex, boolean and string entries and checks the shape,
    # where a float cast drops an imaginary part or reads a bool as a number
    found = _call_sites(_is_float_conversion)
    assert [f"{name}:{line} in {fn}" for name, fn, line in found
            if fn not in FLOAT_CONVERSION_ALLOWED] == [], \
        "float conversions outside geometry.real_array"
    # the allow-list names only functions that still convert
    assert set(FLOAT_CONVERSION_ALLOWED) <= {fn for _, fn, _ in found}


# the functions that may call scheme._characteristics, with the reason
CHARACTERISTICS_CALLERS = {
    "build_node_table": "forms the rows of each store and checks the "
                        "time_independent_dynamics flag on those same rows",
    "consistency_residual": "the probe needs the raw characteristics of one "
                            "point, evaluated exactly, not a built row",
}


def _calls_characteristics(node) -> bool:
    f = node.func
    return ((isinstance(f, ast.Name) and f.id == "_characteristics")
            or (isinstance(f, ast.Attribute) and f.attr == "_characteristics"))


def test_characteristics_formed_only_where_rows_are_built():
    # a row depends on mu and sigma only through its characteristics, so the
    # build that forms them is where the shared-store flag is checked; a
    # separate whole-mesh check would form them again
    found = _call_sites(_calls_characteristics)
    assert [f"{name}:{line} in {fn}" for name, fn, line in found
            if fn not in CHARACTERISTICS_CALLERS] == [], \
        "scheme._characteristics called outside build_node_table and consistency_residual"
    assert set(CHARACTERISTICS_CALLERS) <= {fn for _, fn, _ in found}
