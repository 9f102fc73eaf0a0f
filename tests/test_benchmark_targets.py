import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def test_every_traced_name_is_defined_where_the_tracer_looks():
    """The benchmark's tracer wraps each (owner, attribute) of its target
    list by reading ``owner.__dict__``; a removed or renamed function would
    break every traced run. Checked without installing any wrapper."""
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing._TARGETS
        if attr not in owner.__dict__
    ]
    assert tracing._TARGETS and missing == []
