import importlib
import pkgutil

import pytest

import ctcsim
import ctcsim.exact

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(ctcsim.__path__, prefix="ctcsim.")
) + ["ctcsim"]

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
