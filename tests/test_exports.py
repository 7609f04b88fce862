"""Every name that the package and its library modules export exists."""

from __future__ import annotations

import importlib

import pytest

MODULES = ["replicator_ctl"] + [
    f"replicator_ctl.{name}"
    for name in ("agents", "dynamics", "game", "integrate", "stability")]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_defines_every_exported_name(name):
    exported = importlib.import_module(name).__all__
    assert len(set(exported)) == len(exported)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert [item for item in exported if item not in namespace] == []
