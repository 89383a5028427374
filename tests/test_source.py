"""Source hygiene: every name a module of the package imports is used,
every module-level private name is read by some module of the package,
scipy is imported only inside the rank-1 oracles, every memoized
function is keyed by value-hashed parameters, and every raise is typed."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "liekernel"


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression reads and
    ``__all__`` does not list; ``from __future__`` imports are directives."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from math import pi, tau\nimport xml.dom\n__all__ = ['tau']\nx = np.zeros(1)\n")
    assert unused_imports(source) == [(2, "os"), (4, "pi"), (5, "xml")]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_imports_are_used(path):
    # __init__.py imports to re-export, so it is not scanned
    assert unused_imports((SRC / path).read_text(encoding="utf-8")) == []


def dead_private_names(sources: dict) -> list:
    """Module-level private names (one leading underscore) that no module of
    ``sources``, a map from module name to source, reads by name, by
    attribute or by import: (module, line, name)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [(module, node.lineno, name) for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(dead)


def test_scan_finds_dead_private_names():
    sources = {
        "a.py": ("_used = 1\n_dead = 2\n__version__ = '1'\ndef _helper():\n    return _used\n"
                 "class _Gone:\n    pass\ndef public(m):\n    return m._field\n"),
        "b.py": "from .a import _helper\n_cache: dict = {}\n_field = 0\n",
    }
    assert dead_private_names(sources) == [("a.py", 2, "_dead"), ("a.py", 6, "_Gone"), ("b.py", 2, "_cache")]


def test_module_private_names_are_used():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert dead_private_names(sources) == []


# the functions whose bodies may import scipy, by module: the rank-1 oracles
SCIPY_ORACLES = {"kernel.py": {"su2_resolvent_poles", "radial_convolve", "integrate_central_su2"}}


def misplaced_scipy_imports(sources: dict) -> list:
    """scipy imports, given a map from module name to source, that are not in
    the body of one of ``SCIPY_ORACLES``: (module, line)."""
    misplaced = []
    for module, source in sources.items():
        tree = ast.parse(source)
        allowed = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in SCIPY_ORACLES.get(module, ()):
                allowed |= {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names) and id(node) not in allowed:
                misplaced.append((module, node.lineno))
    return sorted(misplaced)


def test_scan_finds_misplaced_scipy_imports():
    oracle = "def radial_convolve():\n    from scipy.integrate import simpson\n    return simpson\n"
    sources = {
        "kernel.py": "import scipy.special\n" + oracle + "def other():\n    from scipy import linalg\n",
        "domains.py": "from .kernel import radial_convolve\n" + oracle,
    }
    assert misplaced_scipy_imports(sources) == [("domains.py", 3), ("kernel.py", 1), ("kernel.py", 6)]


def test_scipy_is_imported_only_by_rank1_oracles():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert misplaced_scipy_imports(sources) == []


# the parameter types a memoized function may be keyed by: hashed by value
MEMO_KEY_TYPES = {"RootSystem", "GroupFamily", "EvolutionDomain", "WindingLattice", "TimeParameter",
                  "tuple", "int", "float", "str", "bytes", "bool", "None"}


def _annotation_types(node) -> set:
    """Type names of an annotation, a union split into its members; a
    string annotation is parsed, anything else names itself in full."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_types(node.left) | _annotation_types(node.right)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _annotation_types(ast.parse(node.value, mode="eval").body)
    if isinstance(node, ast.Constant) and node.value is None:
        return {"None"}
    return {node.id if isinstance(node, ast.Name) else ast.unparse(node)}


def _is_memoizer(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name in ("cache", "lru_cache")


def identity_keyed_memos(sources: dict) -> list:
    """Parameters of ``functools.cache`` or ``lru_cache`` functions, given a
    map from module name to source, that are unannotated or annotated with a
    type outside ``MEMO_KEY_TYPES``: (module, line, function, parameter)."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(map(_is_memoizer, node.decorator_list)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
            found += [(module, node.lineno, node.name, p.arg) for p in params
                      if p.annotation is None or not _annotation_types(p.annotation) <= MEMO_KEY_TYPES]
    return sorted(found)


def test_scan_finds_identity_keyed_memos():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.cache\ndef ok(rs: RootSystem, sig: tuple, n: int | None, t: 'TimeParameter'):\n    pass\n"
        "@functools.lru_cache(maxsize=4)\ndef group_key(group: WeylGroup, k: int):\n    pass\n"
        "@cache\ndef array_key(a: np.ndarray):\n    pass\n"
        "@lru_cache\ndef bare(x, *rest: int):\n    pass\n"
        "def plain(group: WeylGroup):\n    pass\n"
        "class C:\n    @functools.cache\n    def method(self, y: float):\n        pass\n"
    )
    assert identity_keyed_memos({"m.py": source}) == [
        ("m.py", 7, "group_key", "group"), ("m.py", 10, "array_key", "a"),
        ("m.py", 13, "bare", "x"), ("m.py", 19, "method", "self"),
    ]


def test_memoized_functions_take_value_hashed_keys():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert identity_keyed_memos(sources) == []


def untyped_raises(sources: dict) -> list:
    """``raise`` statements, given a map from module name to source, that
    raise neither a class deriving from ``LieKernelError`` (by the class
    definitions in ``sources``) nor the exception of an ``except ... as``
    clause of the same module: (module, line).  A bare ``raise`` re-raises."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    bases = {node.name: [ast.unparse(b).split(".")[-1] for b in node.bases]
             for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    def typed(name):
        return name == "LieKernelError" or any(typed(b) for b in bases.get(name, ()) if b != name)

    found = []
    for module, tree in trees.items():
        caught = {node.name for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.name}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "")
            if not (typed(name) or (isinstance(node.exc, ast.Name) and name in caught)):
                found.append((module, node.lineno))
    return sorted(found)


def test_scan_finds_untyped_raises():
    sources = {
        "errors.py": ("class LieKernelError(Exception):\n    pass\n"
                      "class Bad(LieKernelError, ValueError):\n    pass\n"),
        "m.py": ("from . import errors\ndef f(x):\n    if x:\n        raise ValueError('no')\n    try:\n"
                 "        g()\n    except KeyError:\n        raise\n    except OSError as err:\n"
                 "        raise err\n    raise errors.Bad('typed')\n    raise Bad\n    raise KeyError\n"
                 "    raise LieKernelError('base')\n    raise exc\n"),
    }
    assert untyped_raises(sources) == [("m.py", 4), ("m.py", 13), ("m.py", 15)]


def test_every_raise_is_typed():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert untyped_raises(sources) == []
