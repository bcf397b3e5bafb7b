"""The benchmark's traced run wraps library names by module and attribute
(``TARGETS`` in ``perfbench/tracing.py``). A target it cannot resolve turns
its metric into a ``missing`` line, so a renamed or deleted public name must
show up here first."""
import importlib.util
import sys
from pathlib import Path

# metrics whose wrap target is gone on purpose
RETIRED = {
    "embeddings.lookup_calls",  # EmbeddingTable.lookup: indices is the one word-lookup path
}


def _load_tracing(monkeypatch):
    """``perfbench/tracing.py``, loaded by path; it leaves ``sys.modules``
    with the test (its dataclasses look their module up there)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_only_retired_benchmark_targets_are_unresolvable(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    unresolved = set()
    for target in tracing.TARGETS:
        try:
            tracing._resolve(target)
        except (ImportError, AttributeError):
            unresolved.add(target.name)
    assert unresolved == RETIRED
