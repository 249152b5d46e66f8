"""Every name a package's ``__all__`` lists resolves, and none is listed
twice, so a name deleted from a module cannot stay exported."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["isoembed", "isoembed.flows", "isoembed.pipeline"])
def test_every_exported_name_resolves_once(package):
    module = importlib.import_module(package)
    repeated = sorted({name for name in module.__all__ if module.__all__.count(name) > 1})
    assert repeated == []
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
