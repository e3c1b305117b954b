"""Thin setup shim.

The execution environment has no ``wheel`` package, so PEP 660 editable
installs (``pip install -e .`` with build isolation) cannot build an
editable wheel.  This shim enables the legacy editable path::

    pip install -e . --no-build-isolation --no-use-pep517

It carries no package metadata; the test suite and the CLI run from a
checkout with ``PYTHONPATH=src`` instead.
"""

from setuptools import setup

setup()
