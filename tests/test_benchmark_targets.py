"""The benchmark's tracer wraps sdcodes functions by name; every name it
wraps must still resolve, or `perfbench/worker.py --trace` breaks, and the
words it counts must still pass through the names it wraps."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def test_traced_survey_counts_its_span_passes():
    # the survey's 864 survivors are [26,13] codes, and the W of each is one
    # span pass of 2^13 words through `_histogram_words`
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", "survey", "--seed", "1", "--trace"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    record = json.loads(out.stdout)
    assert record["traced"] and record["attempted"] and record["failed"] == []
    assert record["layers"]["wenum.words_enumerated"] == 864 * 2**13
