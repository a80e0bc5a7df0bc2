"""Legacy setup shim.

The offline environment lacks the ``wheel`` package, which the PEP 517
editable-install path requires; keeping a ``setup.py`` lets
``pip install -e .`` fall back to ``setup.py develop``.  All package
metadata lives in this file; the project has no ``pyproject.toml``.
numpy 1.25 is the floor because ``Generator.spawn``, which
``ShardedOperator.from_matrix(stream="per_shard")`` uses, first appeared
there.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.25", "scipy>=1.10"],
)
