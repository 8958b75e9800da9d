"""The docstring examples of every module run as tests."""

import doctest
import importlib
import pkgutil

import adlv


def test_module_doctests():
    names = [m.name for m in pkgutil.iter_modules(adlv.__path__)]
    for mod in [adlv] + [importlib.import_module(f"adlv.{n}") for n in names]:
        assert doctest.testmod(mod).failed == 0, mod.__name__
