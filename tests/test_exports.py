"""Every name a module of the package exports by `__all__` exists, so a
star-import never breaks on a stale entry."""

import importlib
import pkgutil

import strat_ic


def test_every_all_entry_resolves():
    exported, missing = [], []
    for info in pkgutil.iter_modules(strat_ic.__path__):
        module = importlib.import_module("strat_ic." + info.name)
        for name in getattr(module, "__all__", ()):
            exported.append(name)
            if not hasattr(module, name):
                missing.append("%s.%s" % (info.name, name))
    assert exported and missing == []


def test_star_import_of_linalg():
    scope = {}
    exec("from strat_ic.linalg import *", scope)
    assert "ExactMatrix" in scope and "smith_normal_form" in scope
