"""The benchmark's tracer must still find every name it wraps."""

import importlib.util
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    from tempint import cli, fitter, harness, models

    def traced_names():
        # the per-layer fit metrics read these wrappers
        return (harness.report, models.model_h, fitter.linprog,
                fitter.check_feasible, fitter.build_feasibility,
                vars(fitter.FitGrid)["from_eval_grid"], cli.bisect_fit)

    before = traced_names()
    tracer = layers.Tracer()
    tracer.install()
    try:
        during = traced_names()
        assert all(new is not old for new, old in zip(during, before))
    finally:
        tracer.uninstall()
    assert traced_names() == before
