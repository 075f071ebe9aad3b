"""The benchmark tracer (perfbench/spans.py) patches names in heatrobin's
module and class namespaces; every name it lists must exist there, or every
traced benchmark run stops with a KeyError."""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_where_the_tracer_patches_it(spans):
    for home, attr, _, callers, _ in spans.FUNCTIONS:
        for module in (home, *callers):
            assert attr in module.__dict__, (module.__name__, attr)
    for home, attr, _, callers in spans.COUNTED:
        for module in (home, *callers):
            assert attr in module.__dict__, (module.__name__, attr)
    for cls, attr, _, _ in spans.METHODS:
        assert attr in cls.__dict__, (cls.__name__, attr)


def test_tracer_installs_and_restores_cleanly(spans):
    import heatrobin.spectral as spectral

    original = spectral.trig_poly_integral
    with spans.Tracer().installed():
        assert spectral.trig_poly_integral is not original
    assert spectral.trig_poly_integral is original
