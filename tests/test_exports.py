"""Every ``__all__`` name of every ``repro`` module resolves, once.

A deletion that leaves a stale ``__all__`` entry breaks only
``from module import *``, which nothing else in the suite runs.
"""

import importlib
import pkgutil

import repro


def test_every_export_resolves_and_is_listed_once():
    modules = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    problems = []
    for name in modules:
        module = importlib.import_module(name)
        exported = list(getattr(module, "__all__", ()))
        problems += [
            f"{name}.{symbol} listed {exported.count(symbol)} times"
            for symbol in sorted(set(exported))
            if exported.count(symbol) > 1
        ]
        problems += [
            f"{name}.{symbol} does not resolve"
            for symbol in exported
            if not hasattr(module, symbol)
        ]
    assert len(modules) > 1
    assert problems == []
