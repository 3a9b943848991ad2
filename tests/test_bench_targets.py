"""Every function the benchmark tracer patches exists in the package.

``benchmarks/tracing.py`` wraps functions by attribute path and stops on
a missing one, so without this check a rename in the package would show
only when the traced benchmark runs.  The tracer file is only read.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def tracer_targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(target[0], target[1]) for target in module._TARGETS]


@pytest.mark.parametrize("module, attribute", tracer_targets())
def test_patched_attribute_resolves(module, attribute):
    owner = importlib.import_module(f"kgsqueeze.{module}")
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
