"""The benchmark's tracer (`perfbench/spans.py`, which this test only reads)
wraps the program's entry points by name. Renaming one of them, or calling
it other than through its module or class attribute, would otherwise only
show as a failed traced benchmark run."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from catafuse import engine, parser, smtlib, solver, transform
from catafuse.refsolver import horn, qfcore

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

MODS = SimpleNamespace(parser=parser, transform=transform, engine=engine,
                       smtlib=smtlib, solver=solver, horn=horn, qfcore=qfcore)
OWNERS = (parser, transform, transform.Transformer, engine,
          engine.ConstraintEngine, engine.Oracle, smtlib, solver, horn, qfcore)

UNSAT_BY_REFUTATION = """(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((X Int)) (=> (> X 0) (p X))))
(assert (forall ((X Int)) (=> (p X) false)))
(check-sat)"""


def test_tracer_wraps_every_entry_point_and_unwrap_restores_it():
    before = [dict(vars(o)) for o in OWNERS]
    tracer = spans.Tracer()
    spans.install(tracer, MODS)
    try:
        changed = {(o.__name__, name) for o, old in zip(OWNERS, before)
                   for name, f in vars(o).items() if old.get(name) is not f}
        assert {("catafuse.refsolver.horn", "refute"),
                ("catafuse.refsolver.horn", "houdini"),
                ("catafuse.refsolver.horn", "read_script"),
                ("catafuse.refsolver.horn", "solve_script"),
                ("catafuse.refsolver.qfcore", "check_sat"),
                ("Transformer", "fold_clause"),
                ("Oracle", "_start")} <= changed
        assert horn.solve_script(UNSAT_BY_REFUTATION) == horn.UNSAT
    finally:
        tracer.unwrap()
    for o, old in zip(OWNERS, before):
        assert dict(vars(o)) == old, o.__name__
    # every QF check of the refutation is reached through the attribute
    totals = spans.layer_totals(tracer.spans)
    assert totals["refsolver.horn.refute.calls"] == 1
    assert totals["refsolver.qfcore.check_sat.under_refute.calls"] == \
        totals["refsolver.qfcore.check_sat.calls"] > 0
