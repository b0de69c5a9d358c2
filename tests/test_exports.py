"""The package's export list names exactly its public attributes."""

import inspect

import prelog_lab


def test_all_names_resolve_and_cover_the_public_attributes():
    missing = [name for name in prelog_lab.__all__ if not hasattr(prelog_lab, name)]
    assert missing == []
    public = {name for name, obj in vars(prelog_lab).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public - set(prelog_lab.__all__) == set()
