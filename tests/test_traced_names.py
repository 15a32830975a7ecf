"""Every name the benchmark tracer wraps must exist in ``spin7``.

``bench/tracing.py`` replaces module attributes by name, so deleting or
renaming a traced function breaks only ``bench/run.py --trace 1``.  This
test loads the tracer's target tables (without installing the tracer) and
resolves each name, so such a change fails the test suite instead.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

TRACING = (pathlib.Path(__file__).resolve().parent.parent
           / "bench" / "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name,attr", [
    (module_name, attr)
    for module_name, attrs in tracing.TARGETS.items() for attr in attrs])
def test_traced_function_exists(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("module_name,cls_name,method",
                         tracing.METHOD_TARGETS)
def test_traced_method_exists(module_name, cls_name, method):
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert callable(vars(cls).get(method)), f"{cls_name}.{method}"
