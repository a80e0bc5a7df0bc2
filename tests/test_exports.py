"""Every ``__all__`` name of every ``repro`` module resolves, once, and
every ``repro`` name README's Python samples import exists.

A deletion that leaves a stale ``__all__`` entry breaks only
``from module import *``, and one that leaves a stale README sample
breaks only a reader's copy-paste; nothing else in the suite runs
either.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import repro

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_sample_imports_resolve():
    text = README.read_text(encoding="utf-8")
    blocks = re.finditer(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    checked, missing = 0, []
    for block in blocks:
        line = text.count("\n", 0, block.start()) + 1
        for node in ast.walk(ast.parse(block.group(1))):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "repro":
                module = importlib.import_module(node.module)
                checked += len(node.names)
                missing += [
                    f"README.md:{line}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(module, alias.name)
                ]
    assert checked > 0
    assert missing == []
