"""Package-level checks on what each module exports."""

import pytest

import stakit

MODULES = [name for name in stakit.__all__ if name != "__version__"]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves_and_appears_once(module):
    mod = getattr(stakit, module)
    assert sorted(set(mod.__all__)) == sorted(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
