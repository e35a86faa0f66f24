"""transform_all folds the clauses that the fixpoint's stable round already
unfolded and strengthened. A reference copy of the version that unfolded
the final definition set once more checks that results and derivation logs
are unchanged on the whole corpus."""

from pathlib import Path

import pytest

from catafuse.engine import ConstraintEngine
from catafuse.parser import parse_problem
from catafuse.syntax import pretty_clause
from catafuse.transform import (TransformResult, Transformer,
                                propagate_equalities)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PROBLEMS = sorted(p.name for p in CORPUS.glob("*.chc"))


def reference_transform_all(tr: Transformer) -> TransformResult:
    """transform_all as it was before the stable round was reused: after the
    query folds, the final definition set is unfolded and strengthened again."""
    defs, iterations = tr.definition_fixpoint()
    folded_queries = [tr.fold_clause(q, defs) for q in tr.problem.queries]
    body = tr.strengthen_all(tr.unfold_all(defs))
    folded = [tr.fold_clause(c, defs) for c in body]
    out = folded_queries + folded
    out = [propagate_equalities(c) for c in out]
    referenced: set[str] = set()
    for c in out:
        referenced.update(a.pred for a in c.body)
    leftovers = [c for c in tr.problem.properties
                 if c.head and c.head.pred in referenced]
    out.extend(leftovers)
    return TransformResult(out, dict(tr.new_decls), defs.snapshot(),
                           iterations, tr.log)


@pytest.mark.parametrize("name", PROBLEMS)
def test_reuse_matches_reference(name):
    text = (CORPUS / name).read_text(encoding="utf-8")
    eng = ConstraintEngine()
    try:
        ref = reference_transform_all(Transformer(parse_problem(text), eng))
        got = Transformer(parse_problem(text), eng).transform_all()
    finally:
        eng.close()
    assert [pretty_clause(c) for c in got.clauses] == \
        [pretty_clause(c) for c in ref.clauses]
    assert got.new_preds == ref.new_preds
    assert got.definitions == ref.definitions
    assert got.iterations == ref.iterations
    assert got.log.to_text() == ref.log.to_text()
    assert got.log.to_json() == ref.log.to_json()


def test_no_unfolding_after_the_fixpoint(insertion_sort):
    calls = []

    class Recording(Transformer):
        def definition_fixpoint(self):
            out = super().definition_fixpoint()
            calls.append("fixpoint")
            return out

        def unfold_all(self, defs):
            calls.append("unfold_all")
            return super().unfold_all(defs)

    eng = ConstraintEngine()
    try:
        Recording(insertion_sort, eng).transform_all()
    finally:
        eng.close()
    assert calls.index("fixpoint") == len(calls) - 1
    assert calls.count("unfold_all") >= 1


def test_stable_first_round_leaves_an_empty_body():
    # no queries: the first round defines nothing and the set is stable
    p = parse_problem("pred p(list(int)).\np([]).\np([H|T]) :- p(T).\n")
    eng = ConstraintEngine()
    try:
        tr = Transformer(p, eng)
        res = tr.transform_all()
    finally:
        eng.close()
    assert tr.last_round == ([], [])
    assert res.clauses == [] and res.iterations == 1
    assert [r.rule for r in res.log.records] == ["fixpoint"]
