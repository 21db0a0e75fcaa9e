"""Every name a module exports must exist.

``from ioqfr.<module> import *`` and ``perfbench/tracing.py`` (which wraps
every callable in ``hilbert.__all__``) read these lists by name, so a name
left behind after its definition is deleted breaks them.
"""
from __future__ import annotations

import importlib
import pkgutil

import ioqfr


def test_every_exported_name_resolves():
    names = ["ioqfr"] + [f"ioqfr.{info.name}"
                         for info in pkgutil.iter_modules(ioqfr.__path__)]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert missing == []
