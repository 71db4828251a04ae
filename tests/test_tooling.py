"""The benchmark's tracer must still find every name it wraps."""

import importlib.util
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_tracer_installs_and_uninstalls():
    # every name the tracer wraps, read as install reads it: each is
    # replaced on install and restored on uninstall
    layers = _load_layers()
    names = [(owner, attr) for owner, attr, *_ in layers._targets()]

    def traced_names():
        return [vars(owner)[attr] for owner, attr in names]

    before = traced_names()
    tracer = layers.Tracer()
    tracer.install()
    try:
        during = traced_names()
        for (owner, attr), new, old in zip(names, during, before):
            assert new is not old, (owner, attr)
    finally:
        tracer.uninstall()
    for (owner, attr), restored, old in zip(names, traced_names(), before):
        assert restored is old, (owner, attr)


def test_tracer_counts_each_walk_temperature_once():
    # a walk of N consecutive segments evaluates g_cf at its N + 1
    # temperatures, through the name the tracer wraps
    from tempint import harness
    e_over_r, temps = 12000.0, [400.0 + 3.0 * k for k in range(9)]
    harness.vyazovkin_segment(e_over_r, 300.0, 310.0)   # away from the walk
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        for t_lo, t_hi in zip(temps, temps[1:]):
            harness.vyazovkin_segment(e_over_r, t_lo, t_hi)
    finally:
        tracer.uninstall()
    assert tracer.calls["harness.vyazovkin_segment"] == len(temps) - 1
    assert tracer.calls["oracle.g_cf"] == len(temps)


def test_tracer_counts_every_lp_of_a_fit():
    # every LP of a fit, the steps' and the lower end's, goes through
    # the name the tracer counts LPs by
    from tempint.fitter import FitGrid, FitProblem, bisect_fit
    from tempint.harness import EvalGrid
    grid = FitGrid.from_eval_grid(EvalGrid.from_spec("coarse"))
    problem = FitProblem(degree=2, grid=grid)
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        result = bisect_fit(problem)
    finally:
        tracer.uninstall()
    assert tracer.calls["fitter.check_feasible"] == result.lp_solves == 6
