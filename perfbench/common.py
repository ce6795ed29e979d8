"""Shared pieces of the benchmark: loading the package fresh, root data."""

from __future__ import annotations

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# (GCM, custom realization or None for the default one)
DATA = {
    "a1": ([[2]], None),
    "a2": ([[2, -1], [-1, 2]], (2, [(1, 0), (0, 1)], [(2, -1), (-1, 2)])),
    "b2": ([[2, -2], [-1, 2]], None),
    "aff": ([[2, -2], [-2, 2]], None),
}


def fresh_package():
    """Import `kmhecke.cli` from source in a clean state and return the package.

    Every kmhecke module is dropped from `sys.modules` first, so the
    process-global caches start empty and import costs are paid again.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "kmhecke" or n.startswith("kmhecke.")]:
        del sys.modules[name]
    importlib.import_module("kmhecke.cli")
    return sys.modules["kmhecke"]


def build(km, name):
    gcm, custom = DATA[name]
    rs = km.root_system
    return rs.build_realization(rs.validate_gcm(gcm), custom)
