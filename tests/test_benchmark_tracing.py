"""Contract between the program and the repository benchmark's tracer.

``perfbench/tracing.py`` wraps named entry points of every layer for
the benchmark's traced run.  Loading it straight from its file (nothing
is added to ``sys.path``) and installing its wrappers here means a
deleted or renamed traced entry point fails this suite instead of the
benchmark's traced run, and that ``restore()`` really puts every
original back.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_wrappers_install_and_restore():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install_layer_wrappers(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.restore()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr
    wrapped = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in patches}
    for entry in [
        ("AnsatzObjective", "energy_and_gradient"),
        ("AnsatzObjective", "gradient"),
        ("VQE", "gradient"),
        ("BatchedStatevectorSimulator", "run_plan"),
    ]:
        assert entry in wrapped
