"""The layer functions the benchmark's tracer patches by name still exist.

`bench/tracing.py` wraps each function listed in its `LAYERS` table, looked
up by module and name; a rename or deletion under src/ breaks `--trace 1`
runs of the benchmark.  The tracer uses only the standard library, so it is
loaded here read-only from its file.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).parent.parent / "bench" / "tracing.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYER_NAMES = [(m, f) for m, functions in _layers().items() for f in functions]


@pytest.mark.parametrize("module_name,name", LAYER_NAMES,
                         ids=[f"{m}.{f}" for m, f in LAYER_NAMES])
def test_traced_layer_resolves(module_name, name):
    module = importlib.import_module(f"triadica.{module_name}")
    if "." in name:  # a method, patched on its class
        cls_name, method = name.split(".")
        assert callable(vars(getattr(module, cls_name)).get(method))
    else:
        assert callable(getattr(module, name, None))
