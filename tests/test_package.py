"""The lazy ``identkit`` namespace: each public name is its home module's object."""

from __future__ import annotations

import importlib
import types

import pytest

import identkit


def test_every_public_name_is_its_home_modules_object():
    for name in identkit.__all__:
        value = getattr(identkit, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"identkit.{name}")
        else:
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value
    assert identkit.census_row is identkit.census.census_row
    assert identkit.make_model is identkit.model.make_model


def test_dir_lists_every_public_name():
    listed = set(dir(identkit))
    assert set(identkit.__all__) <= listed
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        identkit.no_such_name
    assert not hasattr(identkit, "no_such_name")


def test_from_import_returns_the_submodule():
    from identkit import census, cyclespace, graphprops

    assert census is importlib.import_module("identkit.census")
    assert cyclespace.path_cycle_rank is identkit.path_cycle_rank
    assert graphprops.DEFAULT_CAP == cyclespace.DEFAULT_CAP


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from identkit import *", namespace)
    for name in identkit.__all__:
        assert namespace[name] is getattr(identkit, name)
