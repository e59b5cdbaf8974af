"""Every entry point the benchmark wraps still exists.

``perfbench/tracer.py`` wraps haarsg functions and methods by name; a
renamed or removed one makes a benchmark run exit 3 after it has started.
This test resolves the same targets, so such a rename fails here first.
It only reads ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_wrap_target_resolves():
    tracer = _load_tracer()
    targets = tracer.PHASE_TARGETS + tracer.LAYER_TARGETS
    assert len(tracer.resolve_all(targets)) == len(targets)
