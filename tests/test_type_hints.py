"""Every annotation in the package names something its module can see.

No static checker runs on this code, and `from __future__ import
annotations` keeps annotations as unevaluated strings, so a name used only in
an annotation and never imported goes unnoticed until something resolves it.
"""
import importlib
import inspect
import pkgutil
import typing

import pytest

import taserial

MODULES = sorted(m.name for m in pkgutil.iter_modules(taserial.__path__,
                                                      "taserial."))


def _defined(module):
    """(qualified name, object) of each class, method and function the
    module defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if (inspect.isfunction(member)
                        and member.__module__ == module.__name__):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("name", MODULES)
def test_every_type_hint_resolves(name):
    module = importlib.import_module(name)
    unresolved = []
    for what, obj in _defined(module):
        try:
            typing.get_type_hints(obj)
        except NameError as e:
            unresolved.append(f"{what}: {e}")
    assert unresolved == []
