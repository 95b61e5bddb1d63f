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
REPO = Path(__file__).resolve().parents[1]
TRACING = REPO / "perfbench" / "tracing.py"
# the package's files keep their ids relative to the package
CHECKED = [(path, str(path.relative_to(PACKAGE_DIR))) for path in SOURCES] + [
    (path, str(path.relative_to(REPO)))
    for path in sorted(REPO.glob("tests/*.py")) + sorted(REPO.glob("scripts/*.py"))
]

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


def _imports(tree: ast.Module, lines):
    """(bound name, whether its line is marked `# noqa: F401`) for each
    name the module imports, __future__ features aside."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            # the alias may sit on its own line inside parentheses
            marked = "# noqa: F401" in lines[alias.lineno - 1]
            yield alias.asname or alias.name.split(".")[0], marked


@pytest.mark.parametrize("path", [p for p, _ in CHECKED], ids=[i for _, i in CHECKED])
def test_every_import_is_used(path):
    """An import is read in its module or re-exported through __all__.

    An import line marked `# noqa: F401` is exempt: the name is kept bound
    on purpose.
    """
    text = path.read_text()
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
    unused = [
        bound for bound, marked in _imports(tree, text.splitlines())
        if bound not in used and not marked
    ]
    assert not unused, f"{path} imports names it never reads: {unused}"


def test_every_pinned_import_is_a_trace_target():
    """A `# noqa: F401` import in the package only keeps a name bound for a
    (module, attribute) pair that perfbench/tracing.py TARGETS wraps; once
    the benchmark drops that target, the pin has to go too."""
    tree = ast.parse(TRACING.read_text())
    (targets,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    wrapped = {(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts}
    stray = []
    for path in SOURCES:
        parts = path.relative_to(PACKAGE_DIR).with_suffix("").parts
        module = ".".join(("ctcsim",) + parts[: -1 if parts[-1] == "__init__" else None])
        text = path.read_text()
        stray += [
            f"{module}.{bound}"
            for bound, marked in _imports(ast.parse(text), text.splitlines())
            if marked and (module, bound) not in wrapped
        ]
    assert not stray, f"pinned imports that no trace target wraps: {stray}"
