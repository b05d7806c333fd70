"""Every name a package lists in `__all__` resolves, so a deleted or
renamed definition cannot leave a stale export behind."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["gdecomp", "gdecomp.groups"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
