"""The benchmark's tracer (`perfbench/spans.py`, which this test only reads)
wraps the program's entry points by name. Renaming one of them, or calling
it other than through its module or class attribute, would otherwise only
show as a failed traced benchmark run."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from catafuse import engine, parser, smtlib, solver, transform
from catafuse.refsolver import horn, qfcore
from catafuse.syntax import TRUE

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

# a stand-in oracle that starts fast and answers sat to every check-sat
FAKE_ORACLE = """
import sys
for line in sys.stdin:
    if line.startswith("(check-sat"):
        print("sat", flush=True)
    elif line.startswith("(exit"):
        break
"""


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


def test_every_oracle_child_starts_inside_an_oracle_spawn_span(request):
    # the second start also starts the next start's child: that start-up
    # belongs to `engine.oracle.spawn` too
    cmd = [sys.executable, "-S", "-c", FAKE_ORACLE, request.node.name]
    tracer = spans.Tracer()
    spans.install(tracer, MODS)
    tracer.wrap(engine, "_spawn", "engine._spawn")
    try:
        for _ in range(2):
            oracle = engine.Oracle(cmd)
            try:
                assert oracle.check(engine.query_text(TRUE)) == engine.SAT
            finally:
                oracle.close()
    finally:
        tracer.unwrap()
        for child in engine._idle.pop(tuple(cmd), []):
            child.discard()
    by_id = {s.id: s for s in tracer.spans}
    starts = [s for s in tracer.spans if s.name == "engine.oracle.spawn"]
    spawns = [s for s in tracer.spans if s.name == "engine._spawn"]
    assert len(starts) == 2
    assert len(spawns) == 3
    assert all(by_id[s.parent].name == "engine.oracle.spawn" for s in spawns)
