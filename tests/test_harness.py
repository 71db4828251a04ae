import csv
import io
import math
import os
import pathlib
import random
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tempint import harness, models
from tempint.harness import (
    EvalGrid,
    GRID_PRESETS,
    compare,
    oracle_h_row,
    render_comparison_csv,
    render_comparison_text,
    render_per_point_csv,
    report,
    resolve_model_list,
    restrict,
    vyazovkin_segment,
)
from tempint.models import ModelDomainError
from tempint.oracle import DomainError, EvalPoint, g_cf, h_array
from tempint.rational import load_coeffs, paper_approximant, save_coeffs

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Frozen regression constant: direct adaptive quadrature at rel_tol
# 1e-14 of the exp(-E/RT) dT segment for E/R = 10000 K, T in [500, 520].
VYAZOVKIN_10000_500_520 = 6.2372353177521454e-08


@st.composite
def axis_ranges(draw, lo, span):
    """(lo, hi, step) of at most 21 values; lo may start at a domain
    bound, and the range may cross either bound."""
    start = draw(st.one_of(st.sampled_from(lo[:2]), st.floats(*lo[2:])))
    width = draw(st.floats(0.0, span))
    step = width / draw(st.integers(1, 20))
    return start, start + width, step if step > 0.0 else 1.0


class TestGrids:
    def test_preset_cardinalities(self):
        assert EvalGrid.from_spec("paper-eval").size == 7857
        assert EvalGrid.from_spec("paper-narrow").size == 41 * 97
        assert EvalGrid.from_spec("arrhenius").size == 97

    def test_endpoints_inclusive(self):
        g = EvalGrid.from_spec("paper-eval")
        assert g.m_values[0] == -4.0 and g.m_values[-1] == 4.0
        assert g.x_values[0] == 4.0 and g.x_values[-1] == 100.0

    def test_spec_mini_language(self):
        g = EvalGrid.from_spec("m=-2:-2:1,x=4:100:1")
        assert g.m_values == (-2.0,)
        assert len(g.x_values) == 97

    def test_bad_specs(self):
        for bad in ("m=1:2", "y=1:2:1,x=4:100:1", "m=1:2:0,x=4:100:1",
                    "m=1:2:1", "m=2:1:1,x=4:100:1"):
            with pytest.raises(ValueError):
                EvalGrid.from_spec(bad)

    @pytest.mark.parametrize("spec", [
        "m=nan:1:1,x=4:100:1", "m=0:inf:1,x=4:100:1", "m=-inf:1:1,x=4:100:1",
        "m=0:1:inf,x=4:100:1", "m=0:1:nan,x=4:100:1", "m=0:1:1,x=4:nan:1",
    ])
    def test_non_finite_range_rejected(self, spec):
        with pytest.raises(ValueError, match="non-finite"):
            EvalGrid.from_spec(spec)

    def test_oversized_rejected(self):
        # one axis of a billion points, and a grid whose two axes each
        # pass but whose product does not
        # the size is checked before the domain, which the last one leaves
        for spec in ("m=0:1e9:1,x=4:100:1", "m=-4:4:0.001,x=4:100:0.001",
                     "m=-9:4:0.001,x=4:100:0.001"):
            with pytest.raises(ValueError, match="above the limit"):
                EvalGrid.from_spec(spec)

    def test_step_below_float_resolution_ends(self):
        # k * 1e-20 needs 1e11 steps to pass m's tolerance, and 100 + k *
        # 1e-20 == 100 never passes x's: the point count bounds the values
        grid = EvalGrid.from_spec("m=0:0:1e-20,x=100:100:1e-20")
        assert (grid.m_values, grid.x_values) == ((0.0,), (100.0,))

    @pytest.mark.parametrize("preset", sorted(GRID_PRESETS))
    def test_presets_and_refinements_in_domain(self, preset):
        EvalGrid.from_spec(preset)

    @given(m=axis_ranges((-4.0, 4.0, -6.0, 6.0), 12.0),
           x=axis_ranges((4.0, 100.0, -5.0, 110.0), 120.0))
    @settings(max_examples=200, deadline=None)
    def test_from_spec_rejects_what_the_oracle_rejects(self, m, x):
        # the grid fails when made exactly where the oracle fails on all
        # of it, with the oracle's message for the first point in C order;
        # an axis whose rounded values repeat fails before that
        spec = "m={!r}:{!r}:{!r},x={!r}:{!r}:{!r}".format(*m, *x)
        try:
            m_values = harness._axis_values(*m)
            x_values = harness._axis_values(*x)
        except ValueError as exc:
            assert "repeats the value" in str(exc)
            with pytest.raises(ValueError) as rejected:
                EvalGrid.from_spec(spec)
            assert str(rejected.value) == str(exc)
            return
        try:
            h_array(np.array(m_values)[:, None], np.array(x_values))
            expected = None
        except DomainError as exc:
            expected = str(exc)
        try:
            grid = EvalGrid.from_spec(spec)
        except DomainError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert (grid.m_values, grid.x_values) == (m_values, x_values)

    def test_direct_construction_checked(self):
        with pytest.raises(DomainError, match=r"^\(m=0\.0, x=3\.0\)"):
            EvalGrid((0.0, 5.0), (10.0, 3.0))
        with pytest.raises(DomainError, match="non-finite"):
            EvalGrid((0.0,), (float("nan"),))
        grid = EvalGrid.from_spec("m=-4:4:4,x=4:100:96")
        with pytest.raises(DomainError, match=r"^\(m=-4\.0, x=100\.5\)"):
            EvalGrid(grid.m_values, grid.x_values + (100.5,))


class TestDeviation:
    def test_exact_model_zero_deviation(self):
        # Gorbachev is exact at m = -2
        rep = report("G", EvalGrid((-2.0,), (10.0,)))
        assert rep.eps_max_abs == pytest.approx(0.0, abs=1e-12)

    def test_g4_worst_point(self, paper_eval_grid):
        rep = report("G4", paper_eval_grid)
        assert rep.eps_max_abs == pytest.approx(6.18e-7, rel=0.05)

    def test_sy_worst_point(self, arrhenius_grid):
        rep = report("SY", arrhenius_grid)
        assert rep.eps_max_abs == pytest.approx(8.15e-5, rel=0.02)


class TestReport:
    def test_aggregates_consistent(self, arrhenius_grid):
        rep = report("J", arrhenius_grid)
        assert rep.eps_max_abs == float(np.abs(rep.eps).max())
        assert rep.sse == float((rep.eps * rep.eps).sum())
        assert rep.sse >= rep.eps_max_abs**2
        assert rep.sse <= rep.eps.size * rep.eps_max_abs**2

    def test_ch4_narrow(self):
        rep = report("Ch4", EvalGrid.from_spec("paper-narrow"))
        assert rep.sse == pytest.approx(1.03e-2, rel=0.05)
        assert rep.eps_max_abs == pytest.approx(1.88e-2, rel=0.05)

    def test_cs_full(self, paper_eval_grid):
        rep = report("Cs", paper_eval_grid)
        assert rep.sse == pytest.approx(1.02e-2, rel=0.05)
        assert rep.eps_max_abs == pytest.approx(3.60e-2, rel=0.05)

    def test_g1_full(self, paper_eval_grid):
        rep = report("G1", paper_eval_grid)
        assert rep.eps_max_abs == pytest.approx(1.12e-2, rel=0.05)

    def test_narrow_le_full(self):
        narrow = EvalGrid.from_spec("paper-narrow")
        full = EvalGrid.from_spec("paper-eval")
        for tag in ("G", "Ch4", "L", "G2"):
            assert (report(tag, narrow).eps_max_abs
                    <= report(tag, full).eps_max_abs)

    def test_univariate_model_on_bivariate_grid_is_hard_error(self):
        with pytest.raises(ModelDomainError):
            report("J", EvalGrid.from_spec("paper-eval"))

    def test_x_out_of_domain_rows_rejected(self):
        # X keeps its tabulated rows only; a row outside [-4, 4] never
        # reaches it, as no grid holds one
        info = models.model_info("X")
        assert info.lines((-4.5, -1.0, 0.3, 2.0)) == (-1.0, 2.0)
        with pytest.raises(DomainError, match=r"^\(m=-4\.5, x=10\.0\)"):
            EvalGrid((-4.5, -1.0, 0.3), (10.0,))
        with pytest.raises(DomainError, match=r"^\(m=4\.5, x=10\.0\)"):
            EvalGrid((3.0, 4.5), (10.0,))
        with pytest.raises(ModelDomainError, match="m=3.0"):
            report("X", EvalGrid((3.0, 3.5), (10.0,)))

    def test_per_point_rows_within_oracle_tolerance(self):
        rep = report("G4", EvalGrid.from_spec("coarse"))
        for _, m, x, g_oracle, g_model, eps in rep.per_point_rows():
            assert abs(g_oracle / g_cf(EvalPoint(m, x)) - 1.0) <= 1e-13
            assert g_model == g_oracle * (1.0 + eps)

    @pytest.mark.parametrize("model, preset", [
        ("G4", "coarse"), ("X", "paper-narrow"), ("J", "arrhenius")])
    def test_per_point_csv_formats_per_point_rows(self, model, preset):
        rep = report(model, EvalGrid.from_spec(preset))
        lines = [",".join([tag, *map(repr, values)])
                 for tag, *values in rep.per_point_rows()]
        assert render_per_point_csv(rep).splitlines()[1:] == lines

    def test_x_restricted_with_footnote(self):
        rep = report("X", EvalGrid.from_spec("paper-narrow"))
        assert rep.footnote
        assert rep.m_lines == (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
        assert rep.eps_max_abs == pytest.approx(6.14e-4, rel=0.05)

    @pytest.mark.parametrize("preset", sorted(GRID_PRESETS))
    def test_whole_grid_equals_row_stack(self, preset, tmp_path):
        # report evaluates each model over the whole grid in one call; its
        # eps must equal the rows evaluated one m at a time, bit for bit
        grid = EvalGrid.from_spec(preset)
        path = tmp_path / "g3.coeff"
        save_coeffs(paper_approximant(3), path)
        tags = [tag for tag in (*models.ALL_TAGS, "SY88")
                if models.model_info(tag).defined_on(grid.m_values)]
        assert "Cp" in tags and "G4" in tags
        xs = np.array(grid.x_values)
        for model in (*tags, load_coeffs(path)):
            rep = report(model, grid)
            rows = np.array([models.model_h(model, m, xs)
                             for m in rep.m_lines])
            expected = rows / oracle_h_row(rep.m_lines, grid.x_values) - 1.0
            assert np.array_equal(rep.eps.view(np.int64),
                                  expected.view(np.int64)), model


class TestRestrict:
    @pytest.mark.parametrize("tag, spec", [
        *((info.tag, "paper-narrow") for info in models.list_models()
          if info.m_domain == "any"),
        *((f"G{n}", "arrhenius") for n in range(1, 5)),
        # rows 30, 40 and 50 of paper-eval: not consecutive there
        *((tag, "m=-1:1:1,x=4:100:1") for tag in ("G", "G4", "Cp")),
    ])
    def test_equals_report_on_the_subgrid(self, paper_eval_grid, tag, spec):
        grid = EvalGrid.from_spec(spec)
        cut = restrict(report(tag, paper_eval_grid), grid)
        fresh = report(tag, grid)
        assert np.array_equal(cut.eps, fresh.eps)
        assert cut.sse == fresh.sse
        assert cut.eps_max_abs == fresh.eps_max_abs
        assert cut.argmax_point == fresh.argmax_point
        assert (cut.model, cut.grid, cut.m_lines, cut.footnote) == \
            (fresh.model, fresh.grid, fresh.m_lines, fresh.footnote)

    def test_consecutive_rows_are_a_view(self, paper_eval_grid):
        rep = report("G", paper_eval_grid)
        cut = restrict(rep, EvalGrid.from_spec("paper-narrow"))
        assert np.shares_memory(cut.eps, rep.eps)
        assert np.array_equal(cut.eps, rep.eps[25:66])

    def test_x_axis_must_match(self, paper_eval_grid):
        rep = report("G", paper_eval_grid)
        for spec in ("m=0:0:1,x=4:100:2", "m=0:0:1,x=4:99:1"):
            with pytest.raises(ValueError, match="differ in x"):
                restrict(rep, EvalGrid.from_spec(spec))

    def test_m_rows_must_be_in_the_report(self, paper_eval_grid):
        rep = report("G", EvalGrid.from_spec("paper-narrow"))
        with pytest.raises(ValueError, match=r"m=-4\.0 .* not a row"):
            restrict(rep, paper_eval_grid)
        # between two rows of the report
        with pytest.raises(ValueError, match=r"m=0\.05 .* not a row"):
            restrict(rep, EvalGrid.from_spec("m=0.05:0.05:1,x=4:100:1"))
        # X keeps its tabulated rows only
        x_rep = report("X", paper_eval_grid)
        with pytest.raises(ValueError, match=r"m=-1\.5 .* not a row"):
            restrict(x_rep, EvalGrid.from_spec("paper-narrow"))


class TestCompare:
    def test_arrhenius_ordering(self, arrhenius_grid):
        reports = compare(["J", "O", "SY", "G1", "G2", "G3", "G4"],
                          arrhenius_grid)
        labels = [r.model for r in reports]
        # ascending max deviation per the published comparison
        assert labels.index("G4") < labels.index("G3") < labels.index("O") \
            < labels.index("J") < labels.index("SY")

    def test_single_point_zero_row(self):
        reports = compare(["G"], EvalGrid.from_spec("m=-2:-2:1,x=10:10:1"))
        assert reports[0].eps_max_abs == pytest.approx(0.0, abs=1e-12)

    def test_all_resolution(self):
        full = EvalGrid.from_spec("paper-eval")
        tags = resolve_model_list("all", full)
        assert "J" not in tags and "X" in tags and "G4" in tags
        arrh = EvalGrid.from_spec("arrhenius")
        assert "J" in resolve_model_list("all", arrh)

    def test_repeated_tag_rejected(self, arrhenius_grid):
        for spec in ("G4,G4", "J, G4,SY,G4"):
            with pytest.raises(ValueError, match="model 'G4' is listed twice"):
                resolve_model_list(spec, arrhenius_grid)
        assert resolve_model_list("J, G4,SY", arrhenius_grid) == [
            "J", "G4", "SY"]

    def test_empty_list(self, arrhenius_grid):
        with pytest.raises(ValueError):
            compare([], arrhenius_grid)

    def test_renderings(self, arrhenius_grid):
        reports = compare(["J", "SY"], arrhenius_grid)
        text = render_comparison_text(reports)
        assert "SY" in text and "eps" in text.lower()
        csv = render_comparison_csv(reports)
        assert csv.splitlines()[0] == "model,grid,points,sse,eps_max,arg_m,arg_x"
        per_point = render_per_point_csv(reports[0])
        assert per_point.splitlines()[0] == "model,m,x,g_oracle,g_model,eps"
        assert len(per_point.splitlines()) == 98

    def test_csv_quotes_custom_grid_spec(self):
        spec = "m=-1:1:0.5,x=5:90:5"
        reports = compare(["G", "C1"], EvalGrid.from_spec(spec))
        rows = list(csv.reader(io.StringIO(render_comparison_csv(reports))))
        assert len(rows) == 3
        for row in rows:
            assert len(row) == 7
        assert [row[1] for row in rows[1:]] == [spec, spec]


def test_import_leaves_quadrature_unloaded():
    # quadrature is the oracle's fallback only; importing the harness
    # must not pay for scipy.integrate
    code = ("import sys, tempint.harness; "
            "assert 'scipy.integrate' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def _ramp_segments(seed, count):
    """``count`` consecutive (E/R, T_lo, T_hi) segments along seeded
    heating ramps, with x = E/RT in [4.5, 95] at both ends."""
    rng = random.Random(seed)
    segments = []
    while len(segments) < count:
        e_over_r = rng.uniform(6000.0, 30000.0)
        t, t_max = e_over_r / 95.0, e_over_r / 4.5
        while len(segments) < count:
            t_next = t + rng.uniform(0.5, 50.0)
            if t_next > t_max:
                break
            segments.append((e_over_r, t, t_next))
            t = t_next
    return segments


def _g0(model, x):
    """g(0, x) by ``model`` with no memo: the value every end must get."""
    if model == "oracle":
        return g_cf(EvalPoint(0.0, x))
    return models.eval_model(model, 0.0, x)


def _segment_direct(e, lo, hi, model="oracle"):
    return e * (_g0(model, e / hi) - _g0(model, e / lo))


def _counted(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that logs each call's args."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


# one heating ramp, E/R = 12000 K: 8 consecutive segments, x in [22, 30]
WALK_E = 12000.0
WALK_T = [400.0 + 2.5 * k + 0.125 * k * k for k in range(9)]


class TestSegmentEndMemo:
    """Consecutive segments of a walk share an end, evaluated once."""

    def _walk(self, model):
        # a segment ending away from the walk first, so the walk's first
        # lower end is never in the memo
        vyazovkin_segment(WALK_E, 300.0, 310.0, model)
        return [(lo, hi, model) for lo, hi in zip(WALK_T, WALK_T[1:])]

    @staticmethod
    def _run(walk):
        return [vyazovkin_segment(WALK_E, lo, hi, model)
                for lo, hi, model in walk]

    def _check(self, walk):
        assert self._run(walk) == [_segment_direct(WALK_E, lo, hi, model)
                                   for lo, hi, model in walk]

    @pytest.mark.parametrize("model", ["G4", "J", "SY"])
    def test_model_walk_evaluates_n_plus_1_ends(self, monkeypatch, model):
        walk = self._walk(model)
        calls = _counted(monkeypatch, models, "model_h")
        got = self._run(walk)
        assert len(calls) == len(walk) + 1
        assert got == [_segment_direct(WALK_E, lo, hi, model)
                       for lo, hi, model in walk]

    def test_oracle_walk_evaluates_n_plus_1_ends(self, monkeypatch):
        walk = self._walk("oracle")
        calls = _counted(monkeypatch, harness, "g_cf")
        self._check(walk)
        # one call per temperature of the walk, in order; the direct
        # values come from the g_cf this module imported, not counted
        assert [point.x for (point,) in calls] == [WALK_E / t for t in WALK_T]

    def test_model_change_at_a_shared_end(self):
        # G2's lower end is G4's upper end: the memo must not hand G2
        # the G4 value, nor the oracle the G2 one
        self._check(self._walk("G4")[:1] + [
            (WALK_T[1], WALK_T[2], "G2"), (WALK_T[2], WALK_T[3], "oracle"),
            (WALK_T[3], WALK_T[4], "G4")])

    def test_same_segment_with_two_models(self):
        lo, hi = WALK_T[0], WALK_T[1]
        self._check([(lo, hi, "G4"), (lo, hi, "G2"), (lo, hi, "G4")])

    def test_same_temperature_other_e_over_r_misses(self):
        first = vyazovkin_segment(10000.0, 500.0, 520.0, "G4")
        assert first == _segment_direct(10000.0, 500.0, 520.0, "G4")
        got = vyazovkin_segment(11000.0, 520.0, 540.0, "G4")
        assert got == _segment_direct(11000.0, 520.0, 540.0, "G4")

    def test_equal_approximants_are_told_apart(self, tmp_path, monkeypatch):
        path = tmp_path / "g4.coeff"
        save_coeffs(paper_approximant(4), path)
        a, b = load_coeffs(path), load_coeffs(path)
        assert a == b and a is not b
        self._walk(a)
        calls = _counted(monkeypatch, models, "model_h")
        got_a = vyazovkin_segment(WALK_E, WALK_T[0], WALK_T[1], a)
        got_b = vyazovkin_segment(WALK_E, WALK_T[1], WALK_T[2], b)
        # a misses twice (after the warm-up), b misses twice (a is
        # another instance); the direct evaluations come after the count
        assert len(calls) == 4
        assert got_a == _segment_direct(WALK_E, WALK_T[0], WALK_T[1], a)
        assert got_b == _segment_direct(WALK_E, WALK_T[1], WALK_T[2], b)

    def test_threads_sharing_the_memo(self):
        # six threads walk the same few temperatures over and over, three
        # with each model, and switch often: each must get its own
        # model's values, which a torn memo entry would mix up
        walk = [(WALK_E, lo, hi)
                for lo, hi in zip(WALK_T[:3], WALK_T[1:4])] * 100
        expected = {k: [_segment_direct(*seg, k) for seg in walk]
                    for k in ("oracle", "G4")}
        kinds = list(expected) * 3
        got = [None] * len(kinds)

        def run(i):
            got[i] = [vyazovkin_segment(*seg, kinds[i]) for seg in walk]

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(kinds))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [expected[k] for k in kinds]

    def test_raising_call_leaves_the_next_correct(self):
        lo, mid, hi = WALK_T[:3]
        self._check([(lo, mid, "G4")])
        with pytest.raises(KeyError, match="unknown model tag 'nope'"):
            vyazovkin_segment(WALK_E, mid, hi, "nope")
        self._check([(mid, hi, "G4")])
        with pytest.raises(DomainError):
            vyazovkin_segment(WALK_E, hi / 10.0, hi, "G4")   # x_lo > 100
        self._check([(hi, WALK_T[3], "G4"), (mid, hi, "oracle")])


class TestVyazovkin:
    def test_zero_interval(self):
        assert vyazovkin_segment(10000.0, 500.0, 500.0) == 0.0

    def test_zero_interval_is_checked(self):
        # equal temperatures give one x; it and the model are checked as
        # for any other segment
        assert vyazovkin_segment(10000.0, 500.0, 500.0, "G4") == 0.0
        with pytest.raises(KeyError, match="unknown model tag 'nope'"):
            vyazovkin_segment(10000.0, 500.0, 500.0, "nope")
        with pytest.raises(DomainError, match="x = 2e"):
            vyazovkin_segment(1e9, 5.0, 5.0, "nope")
        with pytest.raises(DomainError, match="x = nan"):
            vyazovkin_segment(float("nan"), 500.0, 500.0)

    def test_model_mode_equals_eval_model(self, tmp_path):
        # each end, memo hit or not, is eval_model's g(0, x), bit for
        # bit, for every kind of model
        path = tmp_path / "g4.coeff"
        save_coeffs(paper_approximant(4), path)
        tags = [info.tag for info in models.list_models(0.0)]
        for model in (*tags, "SY88", load_coeffs(path)):
            for e, lo, hi in _ramp_segments(20261020, 60):
                expected = e * (
                    models.eval_model(model, 0.0, e / hi)
                    - models.eval_model(model, 0.0, e / lo))
                assert vyazovkin_segment(e, lo, hi, model) == expected, (
                    model, e, lo, hi)

    def test_oracle_mode_equals_g_cf(self):
        for e, lo, hi in _ramp_segments(20261021, 200):
            expected = e * (g_cf(EvalPoint(0.0, e / hi))
                            - g_cf(EvalPoint(0.0, e / lo)))
            assert vyazovkin_segment(e, lo, hi) == expected, (e, lo, hi)

    def test_frozen_constant(self):
        val = vyazovkin_segment(10000.0, 500.0, 520.0)
        assert val == pytest.approx(VYAZOVKIN_10000_500_520, rel=1e-10)

    def test_prefactor_linearity(self):
        # doubling E/R with both temperatures doubled keeps every x = E/RT
        # unchanged, so the result scales by exactly the prefactor
        base = vyazovkin_segment(10000.0, 500.0, 520.0)
        doubled = vyazovkin_segment(20000.0, 1000.0, 1040.0)
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_positive(self):
        assert vyazovkin_segment(8000.0, 400.0, 450.0) > 0.0

    def test_out_of_domain(self):
        with pytest.raises(DomainError) as info:
            vyazovkin_segment(10000.0, 50.0, 60.0)   # x far above 100
        assert str(info.value) == (
            "x = 166.667 outside the approximation domain [4, 100]; use "
            "oracle mode with in-range temperatures")
        with pytest.raises(DomainError):
            vyazovkin_segment(10000.0, 0.0, 500.0)

    def test_model_mode_close_to_oracle(self):
        oracle_val = vyazovkin_segment(10000.0, 500.0, 520.0)
        g4_val = vyazovkin_segment(10000.0, 500.0, 520.0, model="G4")
        assert g4_val == pytest.approx(oracle_val, rel=1e-5)

    def test_random_sweep_vs_direct_quadrature(self):
        rng = random.Random(20260823)
        for _ in range(25):
            e_over_r = rng.uniform(5000.0, 40000.0)
            t_lo = rng.uniform(e_over_r / 90.0, e_over_r / 10.0)
            t_hi = t_lo * rng.uniform(1.001, min(1.5, (e_over_r / 4.3) / t_lo))
            if not 4.0 <= e_over_r / t_hi <= 100.0:
                continue
            expected, _ = quad(lambda t: math.exp(-e_over_r / t), t_lo, t_hi,
                               epsabs=0.0, epsrel=1e-13)
            got = vyazovkin_segment(e_over_r, t_lo, t_hi)
            assert got == pytest.approx(expected, rel=1e-10)
