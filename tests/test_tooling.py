"""The benchmark's tracer must still find every name it wraps."""

import importlib.util
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    from tempint import harness, models
    before = (harness.report, models.model_h)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert harness.report is not before[0]
    finally:
        tracer.uninstall()
    assert (harness.report, models.model_h) == before
