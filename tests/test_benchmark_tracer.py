"""The benchmark's tracer (perfbench/tracer.py) wraps program functions and
methods by name, so renaming one breaks the benchmark.  These checks load
the tracer as it is and fail here first.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves(tracer):
    for name, owner, attr, _ in tracer.WRAPPED:
        # The tracer looks the attribute up on its owner itself, not
        # through inheritance.
        assert callable(vars(owner).get(attr)), name


def test_tracer_restores_the_originals(tracer):
    def current():
        return [vars(owner)[attr] for _, owner, attr, _ in tracer.WRAPPED]

    originals = current()
    with tracer.Tracer():
        wrapped = current()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(now is o for now, o in zip(current(), originals))
