"""The benchmark's tracer resolves the (module, function) names it wraps
when it is installed; a name that no longer resolves would crash every
traced benchmark run, so each one is checked here."""

import importlib
import importlib.util
import pathlib

import pytest

_TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED_FUNCTIONS


@pytest.mark.parametrize("module_name, function_name", _traced_functions())
def test_traced_name_resolves(module_name, function_name):
    assert callable(getattr(importlib.import_module(module_name), function_name))
