import ast
import importlib
import pkgutil
from pathlib import Path

import whergo

# the paper's tau-plane route, kept as a test oracle in tests/tau_route.py
TAU_ROUTE_NAMES = ("compose_monodromy", "MonodromyMatrixTau", "existence_system_2x2",
                   "compose_polynomial")
TEST_MODULES = ("tests", "tau_route", "conftest")


def _imported_modules(tree):
    """The absolute module names a parsed file imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_has_one_route_and_no_test_code():
    for name in whergo.__all__:
        assert getattr(whergo, name) is not None, name
    modules = [whergo] + [importlib.import_module(f"whergo.{info.name}")
                          for info in pkgutil.iter_modules(whergo.__path__)
                          if info.name != "__main__"]
    for module in modules:
        for name in TAU_ROUTE_NAMES:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for path in Path(whergo.__file__).parent.glob("*.py"):
        for imported in _imported_modules(ast.parse(path.read_text(encoding="utf-8"))):
            assert imported.split(".")[0] not in TEST_MODULES, f"{path.name} imports {imported}"
