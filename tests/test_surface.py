"""Every function, class and method in src/palette has a reader in the code
the CLI, the demos and the benchmark run; code only tests read belongs in
tests/ or nowhere."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "palette"

# name -> why it stays although nothing outside tests reads it
ALLOWED: dict[str, str] = {
    "used_mask": "the one-vertex read a plug-in strategy's decide makes; the package "
                 "copies the whole mask list (used_masks) instead",
}


def _sources():
    return [f for d in (PACKAGE, ROOT / "bench", ROOT / "demos") for f in sorted(d.glob("*.py"))]


def _docstrings(tree):
    bodies = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return {id(b.body[0].value) for b in bodies
            if b.body and isinstance(b.body[0], ast.Expr)
            and isinstance(b.body[0].value, ast.Constant) and isinstance(b.body[0].value.value, str)}


def _words(node, docstrings):
    """Identifiers a node mentions itself: names, attributes, imports and the
    words of string literals other than docstrings (names looked up by string)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name.rsplit(".", 1)[-1]]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
        return re.findall(r"\w+", node.value)
    return []


def _scan():
    """(definitions, occurrences): each definition in the package as
    (file, qualified name, name, node), each identifier use as (word, the
    definition nodes enclosing it)."""
    definitions, occurrences = [], []
    for path in _sources():
        tree = ast.parse(path.read_text())
        docstrings = _docstrings(tree)

        def visit(node, enclosing, prefix):
            for word in _words(node, docstrings):
                occurrences.append((word, enclosing))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path.parent == PACKAGE and not node.name.startswith("__"):
                    definitions.append((path.name, prefix + node.name, node.name, node))
                enclosing, prefix = enclosing | {id(node)}, prefix + node.name + "."
            for child in ast.iter_child_nodes(node):
                visit(child, enclosing, prefix)

        visit(tree, frozenset(), "")
    return definitions, occurrences


def _unread():
    """Definitions no code outside their own body reads, as file::qualified name."""
    definitions, occurrences = _scan()
    readers = {}
    for word, enclosing in occurrences:
        readers.setdefault(word, []).append(enclosing)
    return {
        f"{file}::{qualname}": name
        for file, qualname, name, node in definitions
        if all(id(node) in enclosing for enclosing in readers.get(name, ()))
    }


def test_every_definition_has_a_reader_outside_tests():
    assert [where for where, name in _unread().items() if name not in ALLOWED] == []


def test_every_allowed_name_is_still_unread():
    # an entry whose name gained a reader is stale
    assert set(ALLOWED) <= set(_unread().values())


def _unused_imports(path):
    """Names a module imports and never mentions again."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_test_module_imports_a_name_it_never_uses():
    modules = sorted((ROOT / "tests").glob("*.py"))
    assert modules
    assert [where for path in modules for where in _unused_imports(path)] == []


def test_no_package_or_demo_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert [where for path in modules for where in _unused_imports(path)] == []


def test_the_package_docstring_and_the_readme_name_every_module():
    """Each layer is a module under src/palette, and the package docstring
    and the README's layer list (the text before its first section) each
    name every one of them as palette.<module>."""
    modules = {f"palette.{f.stem}" for f in PACKAGE.glob("*.py") if f.stem != "__init__"}
    docstring = ast.get_docstring(ast.parse((PACKAGE / "__init__.py").read_text()))
    layers = (ROOT / "README.md").read_text().split("\n## ", 1)[0]
    assert sorted(m for m in modules if f"`{m}`" not in docstring) == []
    assert sorted(m for m in modules if f"`{m}`" not in layers) == []


def test_the_package_leaves_the_collector_settings_alone():
    """A library must not change settings for the whole process: no module
    under src/palette calls gc.disable, gc.set_threshold or gc.freeze."""
    banned = {"disable", "set_threshold", "freeze"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names if a.name == "gc"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in banned
                    and isinstance(node.value, ast.Name) and node.value.id in names):
                found.append(f"{path.name}:{node.lineno} gc.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                found += [f"{path.name}:{node.lineno} from gc import {a.name}"
                          for a in node.names if a.name in banned | {"*"}]
    assert found == []


def _numpy_import_scopes(node, scope=None):
    """The enclosing function of each numpy import under node, None at import time."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _numpy_import_scopes(child, child.name)
        elif (isinstance(child, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in child.names)
              or isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "numpy"):
            yield scope
        else:
            yield from _numpy_import_scopes(child, scope)


def test_only_the_random_pair_kernel_imports_numpy():
    """numpy costs about 40 ms of every process that imports it, and only the
    random-pair kernel reads it: no module under src/palette imports it at
    import time, and the kernel imports it on its first call."""
    found = [(path.name, scope) for path in sorted(PACKAGE.glob("*.py"))
             for scope in _numpy_import_scopes(ast.parse(path.read_text()))]
    assert found == [("engine.py", "rp_path_colored_counts")]


# module -> the palette modules it imports; each layer reads only those below it
LAYERS = {
    "graph": set(),
    "exact": set(),
    "engine": {"graph"},
    "oracle": {"graph"},
    "adversaries": {"engine", "graph"},
    "charging": {"engine", "exact", "graph", "oracle"},
    "harness": {"adversaries", "charging", "engine", "oracle"},
    "cli": {"adversaries", "engine", "graph", "harness", "oracle"},
}


def _package_imports(path):
    """The palette modules a module imports by relative import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {a.name for a in node.names} if node.module is None else {node.module}
    return found


def test_each_module_imports_only_its_layers():
    modules = {f.stem for f in PACKAGE.glob("*.py") if f.stem != "__init__"}
    assert modules == set(LAYERS)
    assert {name: _package_imports(PACKAGE / f"{name}.py") for name in LAYERS} == LAYERS
