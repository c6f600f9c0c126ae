"""Every ``repro`` entry point the benchmark tracer wraps still exists.

``bench/tracer.py`` patches the functions and methods its ``SPANS`` and
``COUNTERS`` tables name; a rename in ``src/`` would otherwise surface
only when a traced benchmark run fails. The tracer is loaded by path and
never installed: each name is resolved with the tracer's own
``_resolve``, exactly as ``Tracer.install`` would.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", TRACER_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()

TARGETS = sorted(
    {(module, attribute) for _, module, attribute, _ in tracer.SPANS}
    | {(module, attribute) for _, module, attribute in tracer.COUNTERS}
)


@pytest.mark.parametrize(
    "module, attribute", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS]
)
def test_traced_entry_point_resolves(module, attribute):
    owner, name = tracer._resolve(module, attribute)
    assert callable(getattr(owner, name))
