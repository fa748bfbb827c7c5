"""The benchmark's tracer must find every name it wraps, and put it back.

perfbench/tracer.py looks each traced function up with getattr when it
installs, so removing or renaming one of them breaks `--trace 1`; this test
makes that a tier-1 failure instead of a benchmark-time one.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings(owners):
    return {owner: dict(vars(owner)) for owner in owners}


def test_tracer_installs_every_name_and_restores_every_binding():
    tracer = _load_tracer()
    owners = [m for n, m in sys.modules.items() if n.startswith("strat_ic")]
    owners += [o for targets in tracer.TRACED.values() for o, _a in targets
               if isinstance(o, type)]
    before = _bindings(owners)
    originals = {(o, a): getattr(o, a)
                 for targets in tracer.TRACED.values() for o, a in targets}
    t = tracer.Tracer()
    t.install()
    try:
        for (owner, attr), fn in originals.items():
            assert getattr(owner, attr).__wrapped__ is fn, (owner, attr)
    finally:
        t.uninstall()
    after = _bindings(owners)
    for owner, names in before.items():
        assert after[owner].keys() == names.keys(), owner
        for name, value in names.items():
            assert after[owner][name] is value, (owner, name)
