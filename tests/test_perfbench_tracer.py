"""perfbench's tracer patches lazysat's classes and the names
``lazysat/reconcile.py`` bound at import, by name (see perfbench/tracer.py).
A traced solve here fails when one of those names is gone, and checks that
uninstalling puts every patched name back.

The tracer is loaded from its file, as perfbench/run.py imports it, and
``install()`` runs under ``try/finally: uninstall()`` so that an install
that raises part way still takes back the patches it made.
"""

import importlib.util
import sys
from pathlib import Path

from lazysat import Solver, reconcile
from tests.helpers import pigeonhole

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched_names():
    rec = sys.modules["lazysat.reconcile"]
    return Solver.solve, Solver.add_clause, rec.Solver


def _traced_solve(f, k):
    """One traced reconcile(f, k): its result, the self seconds of its spans
    by name, and its counters."""
    before = _patched_names()
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        result, first, counts = tracer.solve(0, reconcile, f, k)
    finally:
        tracer.uninstall()
    after = _patched_names()
    assert all(a is b for a, b in zip(after, before)), "uninstall left a patch in place"
    return result, tracer.self_times(first), counts


def test_traced_unsat_solve_counts_every_interpolant():
    result, spans, counts = _traced_solve(pigeonhole(5, 4), 4)
    assert result.verdict == "UNSAT"
    assert result.stats.interpolants > 0
    assert counts["itp.count"] == result.stats.interpolants
    assert counts["solver.g.calls"] == result.stats.rounds
    assert {"reconcile", "solver.g.solve", "solver.part.solve", "itp.interpolate"} <= set(spans)


def test_traced_sat_solve_times_the_model_assembly():
    result, spans, counts = _traced_solve(pigeonhole(4, 4), 4)
    assert result.verdict == "SAT"
    assert "reconcile.assemble" in spans
    assert "cnf.eval" in spans
