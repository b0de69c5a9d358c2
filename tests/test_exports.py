"""The package's export list names exactly its public attributes, each the
object its layer defines."""

import importlib
import inspect

import pytest

import prelog_lab

LAYERS = ("errors", "spectra", "bounds")  # the array layers are not re-exported


def test_all_names_resolve_and_cover_the_public_attributes():
    missing = [name for name in prelog_lab.__all__ if not hasattr(prelog_lab, name)]
    assert missing == []
    public = {name for name, obj in vars(prelog_lab).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public - set(prelog_lab.__all__) == set()


@pytest.mark.parametrize("name", prelog_lab.__all__)
def test_each_name_is_its_layers_object(name):
    layers = [importlib.import_module(f"prelog_lab.{layer}") for layer in LAYERS]
    homes = [mod for mod in layers
             if getattr(vars(mod).get(name), "__module__", None) == mod.__name__]
    assert len(homes) == 1
    assert getattr(prelog_lab, name) is vars(homes[0])[name]


def test_dir_and_star_import_cover_all():
    assert set(prelog_lab.__all__) <= set(dir(prelog_lab))
    namespace = {}
    exec("from prelog_lab import *", namespace)
    assert set(prelog_lab.__all__) <= set(namespace)


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        prelog_lab.no_such_name
    assert not hasattr(prelog_lab, "hermitian")
