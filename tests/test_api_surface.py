"""Every public function, class and method in ``src/lidarmoe`` is used by
the package itself, not only by tests.

A name counts as used when some module of the package refers to it
outside its own definition: a bare name in its module or in a module that
imports it, ``module.name`` through an imported module, or, for a method,
any attribute access of that name. Every name a module imports is used
in that module.
"""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lidarmoe"

# public names kept for callers outside the package
ALLOWED = {
    "autodiff.grad_check",  # the tests' reference for every backward pass
    "autodiff.sum_all",  # the scalar loss of test graphs and of the benchmark tracer test
}


def _parse():
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _public_names(trees):
    """{(module, name)} of top-level functions and classes, and
    {(module, class, method)} of their non-dunder methods."""
    defs, methods = set(), set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            defs.add((module, node.name))
            if isinstance(node, ast.ClassDef):
                methods |= {(module, node.name, m.name) for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_")}
    return defs, methods


def _imports(tree):
    """Local name -> (module, name) for ``from .m import name``, and
    local name -> module for ``from . import m``."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    return names, modules


def _references(trees):
    """(module, name) pairs referred to outside their own definition, and
    every attribute name accessed anywhere."""
    refs, attrs = set(), set()
    for module, tree in trees.items():
        names, modules = _imports(tree)
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                    if isinstance(node.value, ast.Name) and node.value.id in modules:
                        refs.add((modules[node.value.id], node.attr))
                elif isinstance(node, ast.Name) and node.id != own:
                    refs.add(names.get(node.id, (module, node.id)))
    return refs, attrs


def test_every_public_name_in_src_is_used_by_src():
    trees = _parse()
    defs, methods = _public_names(trees)
    refs, attrs = _references(trees)
    unused = sorted(f"{m}.{n}" for m, n in defs - refs)
    unused += sorted(f"{m}.{c}.{n}" for m, c, n in methods if n not in attrs)
    assert [name for name in unused if name not in ALLOWED] == []


def test_every_import_in_src_is_used():
    """Each name a module imports is referred to in that module."""
    unused = []
    for module, tree in _parse().items():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imported[local] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert sorted(unused) == []


def test_allowlist_names_exist_and_are_unused():
    trees = _parse()
    defs, _ = _public_names(trees)
    refs, _ = _references(trees)
    for entry in ALLOWED:
        module, name = entry.split(".")
        assert (module, name) in defs - refs, entry


def test_every_exception_class_derives_from_lidarmoe_error():
    """Bad input raises one hierarchy, so the CLI's exit code 2 catches
    exactly ``(LidarMoeError, OSError)``."""
    from lidarmoe.cli import _DATA_ERRORS
    from lidarmoe.errors import LidarMoeError

    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"lidarmoe.{path.stem}")
        found.update((f"{path.stem}.{name}", obj) for name, obj in vars(module).items()
                     if isinstance(obj, type) and issubclass(obj, BaseException)
                     and obj.__module__ == module.__name__)
    assert "errors.LidarMoeError" in found
    assert [name for name, cls in found.items()
            if not issubclass(cls, LidarMoeError)] == []
    assert _DATA_ERRORS == (LidarMoeError, OSError)


def _open_mode(call):
    """The mode string of an ``open(path, mode)`` or ``path.open(mode)``
    call: "r" when absent, "?" when not a literal."""
    pos = 1 if isinstance(call.func, ast.Name) else 0
    mode = call.args[pos] if len(call.args) > pos else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) else "?"


def test_every_file_the_package_writes_is_atomic():
    """Only ``dataio.atomic_write`` opens a file to write; no module
    imports shutil or calls ``.write_text`` or ``.write_bytes``."""
    found = []
    for module, tree in _parse().items():
        for top in tree.body:
            writer = (module, getattr(top, "name", None)) == ("dataio", "atomic_write")
            for node in ast.walk(top):
                where = f"{module}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, ast.Import) and any(
                        a.name.split(".")[0] == "shutil" for a in node.names) \
                        or isinstance(node, ast.ImportFrom) and node.module == "shutil":
                    found.append(f"{where} imports shutil")
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if isinstance(func, ast.Attribute) and name in ("write_text", "write_bytes"):
                    found.append(f"{where} calls .{name}")
                if name == "open" and not writer and set(_open_mode(node)) & set("wax+?"):
                    found.append(f"{where} opens a file with mode {_open_mode(node)}")
    assert found == []


# functions whose defaults serve callers outside the package, or whose
# callers reach them through a stored reference
UNPASSED_DEFAULTS_ALLOWED = {
    "autodiff.grad_check",  # the tests' reference
    "cli.main",  # argv comes from the command line
}


def _defaulted_params(trees):
    """(qualified name, callee name, positional shift, parameter, positional
    index or None) of every parameter with a default of a top-level function
    or method. A method's callee name is its own, or its class for
    ``__init__``; its positional arguments start after ``self``."""
    found = []
    for module, tree in trees.items():
        scopes = [(module, None, tree.body)] + [
            (f"{module}.{c.name}", c.name, c.body) for c in tree.body
            if isinstance(c, ast.ClassDef)]
        for owner, cls, body in scopes:
            for fn in body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                qual = f"{owner}.{fn.name}"
                callee = cls if fn.name == "__init__" else fn.name
                shift = int(cls is not None and not any(
                    getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list))
                positional = fn.args.posonlyargs + fn.args.args
                first = len(positional) - len(fn.args.defaults)
                found += [(qual, callee, shift, a.arg, i)
                          for i, a in enumerate(positional) if i >= first]
                found += [(qual, callee, shift, a.arg, None) for a, d in
                          zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return found


def test_every_default_parameter_is_passed_by_some_src_call():
    """A default that no call in the package overrides is one value, not an
    argument. A call passes a parameter by name, by position, or through
    ``*`` or ``**``; calls are matched to definitions by name alone."""
    trees = _parse()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passed(call, param, index, shift):
        return any(k.arg in (None, param) for k in call.keywords) \
            or any(isinstance(a, ast.Starred) for a in call.args) \
            or index is not None and index - shift < len(call.args)

    params = _defaulted_params(trees)
    assert UNPASSED_DEFAULTS_ALLOWED <= {qual for qual, *_ in params}
    unpassed = sorted(
        f"{qual}({param})" for qual, callee, shift, param, index in params
        if qual not in UNPASSED_DEFAULTS_ALLOWED
        and not any(passed(c, param, index, shift) for c in calls.get(callee, [])))
    assert unpassed == []


def _referrers(names):
    """``module.name`` of each top-level function or class of the package
    that refers to one of ``names``, by call or by a stored reference."""
    found = set()
    for module, tree in _parse().items():
        for top in tree.body:
            own = f"{module}.{getattr(top, 'name', '')}"
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in names:
                    found.add(own)
    return found


# the only functions that may build a view: every stage reaches its views
# through ``_scan_view``, which keeps a scan's un-augmented ones; cosine-map
# embeds one cloud that belongs to no scan
MAKE_VIEW_CALLERS = {"pipeline._scan_view", "cli._cmd_cosine_map"}


def test_views_are_built_only_through_the_view_helper():
    """No function but ``MAKE_VIEW_CALLERS`` refers to ``make_view``, so no
    stage can bypass the reuse of un-augmented views."""
    assert _referrers({"make_view"}) - {"pipeline.make_view"} == MAKE_VIEW_CALLERS


# the only function that makes a directory: an output directory is made by
# the first write into it, so a command that fails before writing leaves none
MKDIR_CALLERS = {"dataio.atomic_write"}


def test_directories_are_made_only_by_the_atomic_write():
    """No function but ``MKDIR_CALLERS`` refers to ``mkdir`` or ``makedirs``."""
    assert _referrers({"mkdir", "makedirs"}) == MKDIR_CALLERS


def test_encoders_read_only_the_values_they_are_handed():
    """No function of ``encoders`` calls ``.input``: an encoder takes its
    features as a graph value, and the caller names the graph input after
    the view's kind."""
    found = [f"encoders:{node.lineno}" for node in ast.walk(_parse()["encoders"])
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "input"]
    assert found == []



# config classes: ``check_fields`` and ``config_to_json`` read their fields
# by name, not as attributes
CONFIG_CLASSES = {"RunConfig", "SensorModel", "CameraModel", "SceneConfig"}


def _dataclass_fields(trees):
    """``module.Class.field`` of every annotated field of a ``@dataclass``."""
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                found += [(module, node.name, item.target.id) for item in node.body
                          if isinstance(item, ast.AnnAssign)]
    return found


def test_every_dataclass_field_is_read_by_src():
    """Each field of a ``src`` dataclass outside ``CONFIG_CLASSES`` is read
    as an attribute somewhere in the package, so no value is kept that
    nothing reads."""
    trees = _parse()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = _dataclass_fields(trees)
    assert {cls for _, cls, _ in fields} >= CONFIG_CLASSES
    assert [f"{m}.{c}.{f}" for m, c, f in fields
            if c not in CONFIG_CLASSES and f not in read] == []
