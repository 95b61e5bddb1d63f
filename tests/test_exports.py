import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import ctcsim
import ctcsim.exact

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(ctcsim.__path__, prefix="ctcsim.")
) + ["ctcsim"]

PACKAGE_DIR = Path(ctcsim.__file__).parent
SOURCES = sorted(PACKAGE_DIR.rglob("*.py"))
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# second routes that moved into the tests or were dropped
REMOVED = [
    "program_to_natural_dense",
    "apply_channel",
    "partial_trace",
    "determinant",
    "exact_inverse",
    "fixed_space_basis",
    "table_to_stochastic",
    "off_cycle_mass",
    "cycle_support",
    "RANGE_SLACK",
    "gadget_np_conp",
    "rational_to_text",
    # the resolvent oracle stays in ctcsim.fixpoint, off the package surface
    "PolyMatrix",
    "SymbolicResolvent",
    "symbolic_resolvent",
    "projector_limit",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr}"


def test_removed_routes_are_not_exported():
    for package in (ctcsim, ctcsim.exact):
        assert not set(REMOVED) & set(package.__all__)
        assert not any(hasattr(package, name) for name in REMOVED)


def test_package_exports_come_from_module_exports():
    exported = set()
    for name in MODULES:
        if name != "ctcsim":
            exported |= set(getattr(importlib.import_module(name), "__all__", ()))
    missing = set(ctcsim.__all__) - exported - {"__version__"}
    assert not missing, f"ctcsim.__all__ names no submodule exports: {sorted(missing)}"


def test_benchmark_trace_targets_resolve(monkeypatch):
    """The traced benchmark wraps each (module, attribute) it lists at the
    name the caller looks up, reading the original from the owner's own
    __dict__; a name that moves or goes away breaks that run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while loading
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if last not in owner.__dict__:
            missing.append(f"{module}.{attr}")
    assert not missing, f"trace targets not bound: {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE_DIR)))
def test_every_import_is_used(path):
    """An import is read in its module or re-exported through __all__.

    An import line marked `# noqa: F401` is exempt: the name is kept bound
    on purpose.
    """
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound in used:
                continue
            # the alias may sit on its own line inside parentheses
            marked = lines[alias.lineno - 1]
            if "# noqa: F401" not in marked:
                unused.append(bound)
    assert not unused, f"{path} imports names it never reads: {unused}"
