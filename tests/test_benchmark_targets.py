"""The benchmark's tracer wraps sdcodes functions by name; every name it
wraps must still resolve, or `perfbench/worker.py --trace` breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = load_targets()
    assert targets
    for module_name, attr, _, scope in targets:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module_name, attr)
        if scope != "all":
            # the tracer replaces only that module's binding of the object
            bound = vars(importlib.import_module(scope)).values()
            assert any(value is obj for value in bound), (module_name, attr, scope)
