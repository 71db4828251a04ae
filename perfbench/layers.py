"""Per-layer tracing of tempint from outside the program.

Each wrapper replaces a public function under the name its calling module
looks it up by (``tempint.harness.h``, ``tempint.fitter.linprog``, ...), so
the program itself is unchanged.  Every wrapped call adds to a per-name
call count and self time: its duration minus the time spent in wrapped
calls nested inside it.  Functions that run once per grid row or less
also record a span (id, parent span id, operation index, name, start,
end), kept in memory and written out at the end.  Per-point functions
(``h``, ``g_cf``, ``oracle_h``, the scalar model calls) are counters only,
since a span each would cost more than the work they time.

Spans carry the index of the benchmark operation they ran in.
``bench.other_s`` is the traced wall time minus the self times of all
layers: the benchmark's own share, wrapper costs included.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

class Tracer:
    def __init__(self):
        self.on = True
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)   # filled by result hooks
        self.fits = []                     # one dict per bisect_fit result
        self.spans = []
        self.op = -1                       # set by the benchmark per op
        self._stack = [[0.0, 0]]           # [child seconds, span id]
        self._next_id = 1
        self._saved = []

    def wrap(self, name, fn, span=False, hook=None):
        tracer, stack = self, self._stack
        calls, self_s, clock = self.calls, self.self_s, time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if span:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                parent[0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if span:
                    tracer.spans.append(
                        (sid, parent[1], tracer.op, name, t0, t1))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every traced function; ``uninstall`` puts them back."""
        for owner, attr, name, span, hook in _targets():
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, span, hook))
            else:
                new = self.wrap(name, raw, span, hook)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": t0, "end": t1})
                         + "\n")


def _on_linprog(tracer, args, kwargs, res):
    a = kwargs["A_ub"]
    rows, cols = a.shape
    c = tracer.counts
    c["fitter.lp_rows"] = max(c["fitter.lp_rows"], rows)
    c["fitter.lp_cols"] = max(c["fitter.lp_cols"], cols)
    # A_ub, b_ub and the cost vector as float64, as handed to HiGHS
    c["fitter.lp_bytes"] += 8 * (rows * cols + rows + cols)
    c["fitter.highs.iterations"] += int(res.nit)
    if res.status != 0:
        c["fitter.highs.nonzero_status"] += 1


def _on_check_feasible(tracer, args, kwargs, witness):
    if witness is not None:
        tracer.counts["fitter.feasible"] += 1


def _on_bisect_fit(tracer, args, kwargs, result):
    problem = args[0]
    tracer.fits.append({
        "degree": problem.degree, "grid": problem.grid.grid.spec,
        "u_minus": result.u_minus, "u_plus": result.u_plus,
        "achieved_dev": result.achieved_dev,
        "bracket_excess": result.achieved_dev / result.u_plus})


def _on_reproduce_all(tracer, args, kwargs, result):
    cells, _ordered = result
    tracer.counts["tables.cells"] += len(cells)
    tracer.counts["tables.cells_failed"] += sum(not c.ok for c in cells)


def _targets():
    """(owner, attribute, metric name, records spans, result hook)."""
    from tempint import cli, fitter, harness, models, tables
    return [
        (harness, "h", "oracle.h", False, None),
        (harness, "g_cf", "oracle.g_cf", False, None),
        (harness, "oracle_h", "harness.oracle_h", False, None),
        (harness, "oracle_h_row", "harness.oracle_h_row", True, None),
        (fitter, "oracle_h_row", "harness.oracle_h_row", True, None),
        (harness, "report", "harness.report", True, None),
        (tables, "report", "harness.report", True, None),
        (harness, "compare", "harness.compare", True, None),
        (harness, "render_comparison_csv", "harness.render", True, None),
        (harness, "render_comparison_text", "harness.render", True, None),
        (harness, "render_per_point_csv", "harness.render", True, None),
        (harness, "vyazovkin_segment", "harness.vyazovkin_segment",
         False, None),
        (harness, "rational_eval_h_array", "rational.rational_eval_h_array",
         False, None),
        (models, "model_h", "models.model_h", False, None),
        (models, "eval_model", "models.eval_model", False, None),
        (models, "paper_approximant", "rational.paper_approximant",
         False, None),
        (fitter.FitGrid, "from_eval_grid", "fitter.fitgrid", True, None),
        (fitter, "build_feasibility", "fitter.build_feasibility", True, None),
        (fitter, "check_feasible", "fitter.check_feasible", True,
         _on_check_feasible),
        (fitter, "linprog", "fitter.highs", True, _on_linprog),
        (cli, "bisect_fit", "fitter.bisect_fit", True, _on_bisect_fit),
        (tables, "reproduce_all", "tables.reproduce_all", True,
         _on_reproduce_all),
        (cli, "main", "cli.main", True, None),
    ]


# Names whose self time is reported; with bench.other_s they cover the
# whole traced wall time.
SELF_TIMED = (
    "oracle.h", "oracle.g_cf", "harness.oracle_h", "harness.oracle_h_row",
    "harness.report", "harness.compare", "harness.render",
    "harness.vyazovkin_segment", "models.model_h", "models.eval_model",
    "rational.rational_eval_h_array", "rational.paper_approximant",
    "fitter.fitgrid", "fitter.build_feasibility", "fitter.check_feasible",
    "fitter.highs", "fitter.bisect_fit", "tables.reproduce_all", "cli.main",
)

CALL_COUNTED = (
    "oracle.h", "oracle.g_cf", "harness.oracle_h", "harness.oracle_h_row",
    "harness.report", "harness.vyazovkin_segment", "models.model_h",
    "models.eval_model", "rational.rational_eval_h_array",
    "rational.paper_approximant", "fitter.check_feasible", "cli.main",
)

# Measurements no wrapper outside the program can take.
UNAVAILABLE = {
    "oracle.fallbacks": "oracle.h falls back to quadrature through the "
                        "module-private _h_quad; counting it needs an "
                        "in-program counter",
    "harness.evalpoint_s": "EvalPoint construction is a class call inside "
                           "oracle_h_row; it is part of "
                           "harness.oracle_h_row.self_s",
    "fitter.level_log": "per-level u, verdict and slack live inside "
                        "bisect_fit; only the final bracket is visible",
    "fitter.highs.wait_s": "one operation is in flight and HiGHS runs in "
                           "the calling thread, so no layer waits on "
                           "another",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, overhead: float,
                  dev_rel: float, fit_set):
    """Every per-layer metric as name -> (value, unit), plus the bases.

    Metrics of a layer a workload does not reach read 0, ratios with a
    zero base too; ``fit_set`` lists the (degree, grid) fits whose
    bracket excess is reported by name.
    """
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = (calls[name], "count")
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (self_s[name], "s")

    oracle_calls = calls["oracle.h"] + calls["oracle.g_cf"]
    oracle_s = self_s["oracle.h"] + self_s["oracle.g_cf"]
    out["oracle.points_per_s"] = (_ratio(oracle_calls, oracle_s), "points/s")
    lookups = calls["harness.oracle_h"]
    out["harness.cache_hit_ratio"] = (
        1.0 - _ratio(calls["oracle.h"], lookups) if lookups else 0.0, "ratio")

    fits = calls["fitter.bisect_fit"]
    lps = calls["fitter.check_feasible"]
    solves = calls["fitter.highs"]
    out["fitter.fits"] = (fits, "count")
    out["fitter.lps_per_fit"] = (_ratio(lps, fits), "LPs/fit")
    out["fitter.feasible_ratio"] = (
        _ratio(counts["fitter.feasible"], lps), "ratio")
    out["fitter.highs.solves"] = (solves, "count")
    out["fitter.highs.retries"] = (solves - lps, "count")
    out["fitter.highs.retry_ratio"] = (_ratio(solves - lps, solves), "ratio")
    for key, unit in (("fitter.highs.iterations", "count"),
                      ("fitter.highs.nonzero_status", "count"),
                      ("fitter.lp_rows", "count"),
                      ("fitter.lp_cols", "count"),
                      ("fitter.lp_bytes", "B_computed")):
        out[key] = (int(counts[key]), unit)
    for degree, grid in fit_set:
        excess = [f["bracket_excess"] for f in tracer.fits
                  if (f["degree"], f["grid"]) == (degree, grid)]
        out[f"fitter.bracket_excess.n{degree}_{grid}"] = (
            excess[-1] if excess else 0.0, "ratio")
    out["fitter.dev_rel"] = (dev_rel, "ratio")
    out["tables.cells"] = (int(counts["tables.cells"]), "count")
    out["tables.cells_failed"] = (int(counts["tables.cells_failed"]), "count")

    # the benchmark loop's own time plus the wrapper cost around each call
    layer_s = sum(self_s[name] for name in SELF_TIMED)
    out["bench.other_s"] = (traced_wall - layer_s, "s")
    out["bench.traced_wall_s"] = (traced_wall, "s")
    out["bench.trace_overhead"] = (overhead, "ratio")

    bases = {
        "harness.cache_hit_ratio": {"harness.oracle_h.calls": lookups,
                                    "oracle.h.calls": calls["oracle.h"]},
        "fitter.lps_per_fit": {"fitter.fits": fits, "LPs": lps},
        "fitter.feasible_ratio": {"feasible": int(counts["fitter.feasible"]),
                                  "LPs": lps},
        "fitter.highs.retry_ratio": {"retries": solves - lps,
                                     "fitter.highs.solves": solves},
        "fitter.bracket_excess": tracer.fits,   # achieved_dev over u_plus
        "oracle.points_per_s": {"calls": oracle_calls, "self_s": oracle_s},
    }
    return out, bases
