"""The benchmark tracer (`perfbench/tracer.py`) wraps depnet functions by
module and name; a refactor that moves or renames one would silently drop
its layer from traced runs."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_is_callable_in_its_layer():
    missing = [
        f"depnet.{layer}.{name}"
        for layer, names in traced_layers().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"depnet.{layer}"),
                                name, None))
    ]
    assert missing == []
