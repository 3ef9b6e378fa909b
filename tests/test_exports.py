import importlib
import pkgutil

import pytest

import graphcert

MODULES = sorted(info.name for info in pkgutil.iter_modules(graphcert.__path__))
EXPORTING = [name for name in MODULES
             if hasattr(importlib.import_module(f"graphcert.{name}"), "__all__")]

# deleted with the code that only tests read; they must not come back as
# dangling exports
DELETED = (
    "collision_instance",
    "tie_counterexample",
    "modulus_audit",
    "ModulusAuditResult",
    "TooSmall",
    "NoTiePresent",
    "ridge_risk",
    "ridge_risk_bound",
    "tradeoff_bounds",
    "TradeoffBounds",
    "VarianceProxy",
    "align_to_centers",
    "centrality_bands",
    "config_to_dict",
    "eigenvalues",
)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"graphcert.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_not_importable(name):
    assert not hasattr(graphcert, name)
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"graphcert.{module}"), name), module
