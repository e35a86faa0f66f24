"""Golden tests for the worked sorting example: the unfold/strengthen/fold
derivation, the seven-definition fixpoint, and the final clause set, each
matched structurally modulo the documented renaming scheme."""

import pytest

from catafuse.engine import ConstraintEngine
from catafuse.parser import parse_problem
from catafuse.transform import (DefinitionSet, Transformer, cata_sig,
                                transform_problem)
from variants import variant_of

GOLD = """
pred d_sort(list(int), bool, list(int), bool, list(int)).
pred d_ins(list(int), bool, list(int), bool, list(int), bool, bool, int, bool, int, int, list(int)).
pred d_empty(list(int), bool, bool, int).
pred tru(list(int)).
pred ins_sort(list(int), list(int), list(int)).
pred ord_ins(int, list(int), list(int), list(int), list(int)).
pred empty_list(list(int)).
cata ordered(in:, adt: list(int), out: bool).
cata first(in:, adt: list(int), out: bool, int).
cata last(in:, adt: list(int), out: bool, int).
ordered([], B) :- B.
ordered([H|T], B) :- B <=> (B1 => (H =< F & B2)), first(T, B1, F), ordered(T, B2).
first([], B, F) :- ~B & F = 0.
first([H|T], B, F) :- B & F = H.
last([], B, L) :- ~B & L = 0.
last([H|T], B, L) :- B & L = ite(B1, L1, H), last(T, B1, L1).
"""


def _gold(clause_text: str, head_name: str | None = None):
    from catafuse.syntax import Atom, Clause
    p = parse_problem(GOLD + clause_text + "\n")
    c = (p.program + p.queries)[-1]
    body = tuple(Atom("true_list_int", a.args) if a.pred == "tru" else a
                 for a in c.body)
    head = c.head
    if head is not None and head_name is not None:
        head = Atom(head_name, head.args)
    return Clause(head, c.constraint, body)


@pytest.fixture()
def tr(insertion_sort):
    eng = ConstraintEngine()
    yield Transformer(insertion_sort, eng)
    eng.close()


@pytest.fixture()
def first_defs(tr):
    defs = DefinitionSet()
    tr.definition_step(defs)
    return defs


def test_first_round_definitions(first_defs):
    # one definition per queried predicate, fusing exactly the query's folds
    assert len(first_defs) == 4
    d1 = first_defs.by_pred["ins_sort"]
    gold = _gold("d_sort(A,B,C,D,E) :- ordered(A,B), ordered(C,D), ins_sort(A,E,C).",
                 d1.name)
    assert variant_of(d1.clause(), gold, ordered_body=True)
    d2 = first_defs.by_pred["ord_ins"]
    gold2 = _gold("d_ins(A,B,C,D,E,F,G,H,I,J,K,L) :- ordered(A,B), ordered(C,D),"
                  " ordered(E,F), last(A,G,H), first(C,I,J), ord_ins(K,A,C,L,E).",
                  d2.name)
    assert variant_of(d2.clause(), gold2, ordered_body=True)


def test_unfold_yields_base_and_cons_clauses(tr, first_defs):
    out = tr.unfold_rule(first_defs.by_pred["ins_sort"])
    assert len(out) == 2
    # functionality rewriting replaced the duplicated fold by an equality;
    # the absent-program-atom convention materializes as a structural true atom
    name = first_defs.by_pred["ins_sort"].name
    base_case = _gold("d_sort(A,B,A,C,[]) :- B <=> C, ordered(A,B), tru(A).", name)
    cons_case = _gold("d_sort(A,B,C,D,[E|F]) :- ordered(A,B), ordered(C,D), "
                      "empty_list(G), ord_ins(E,G,A,F,C).", name)
    assert any(variant_of(c, base_case) for c in out)
    assert any(variant_of(c, cons_case) for c in out)


def test_strengthen_cons_clause_adds_contract(tr, first_defs):
    out = tr.unfold_rule(first_defs.by_pred["ins_sort"])
    cons_case = next(c for c in out if len(c.body) == 4)
    strengthened = tr.strengthen_clause(cons_case)
    gold = _gold(
        "d_sort(A,B,C,D,[E|F]) :- (L & B & ((J & H) => K =< I) & (J => K =< E)) => D,"
        " ordered(A,B), ordered(C,D), ordered(G,L), last(G,J,K), first(A,H,I),"
        " empty_list(G), ord_ins(E,G,A,F,C).",
        first_defs.by_pred["ins_sort"].name)
    assert variant_of(strengthened, gold)


def test_fold_strengthened_cons_clause(tr):
    defs, _ = tr.definition_fixpoint()
    unf = tr.unfold_rule(defs.by_pred["ins_sort"])
    cons_case = next(c for c in unf if len(c.body) == 4)
    strengthened = tr.strengthen_clause(cons_case)
    folded = tr.fold_clause(strengthened, defs)
    ord_name = defs.by_pred["ord_ins"].name
    empty_name = defs.by_pred["empty_list"].name
    gold = _gold(
        "d_sort(A,B,C,D,[E|F]) :- (G & B & ((H & I) => J =< K) & (H => J =< E)) => D,"
        " d_ins(L,G,A,B,C,D,H,J,I,K,E,F), d_empty(L,G,H,J).",
        defs.by_pred["ins_sort"].name)
    # map the gold placeholders onto the generated predicate names
    from catafuse.syntax import Atom, Clause
    body = tuple(Atom({"d_ins": ord_name, "d_empty": empty_name}[a.pred], a.args)
                 for a in gold.body)
    gold = Clause(gold.head, gold.constraint, body)
    assert variant_of(folded, gold)


def test_fold_first_query(tr):
    defs, _ = tr.definition_fixpoint()
    folded = tr.fold_clause(tr.problem.queries[0], defs)
    name = defs.by_pred["ins_sort"].name
    gold = _gold("false :- ~(A => B), d_sort(C,A,D,B,E).")
    from catafuse.syntax import Atom, Clause
    gold = Clause(None, gold.constraint,
                  tuple(Atom(name, a.args) for a in gold.body))
    assert variant_of(folded, gold)


EXPECTED_SIGNATURES = {
    ("ins_sort", (("ordered", 2),)),
    ("ord_ins", (("first", 1), ("last", 1), ("ordered", 3))),
    ("append", (("first", 3), ("last", 1), ("ordered", 3))),
    ("snoc", (("first", 2), ("last", 2), ("ordered", 2))),
    ("empty_list", (("last", 1), ("ordered", 1))),
    ("true_list_int", (("ordered", 1),)),
    ("true_list_int", (("first", 1), ("ordered", 1))),
}


def test_fixpoint_has_the_seven_definitions(tr, engine):
    defs, iterations = tr.definition_fixpoint()
    got = {(d.prog.pred, cata_sig(d.catas)) for d in defs}
    assert got == EXPECTED_SIGNATURES
    assert len(defs) == 7
    assert iterations <= 5
    # all definition constraints are trivially true on this example
    for d in defs:
        assert engine.equivalent(d.constraint, __true())


def __true():
    from catafuse.syntax import TRUE
    return TRUE


def test_final_set_shape(insertion_sort):
    eng = ConstraintEngine()
    try:
        res = transform_problem(insertion_sort, eng)
    finally:
        eng.close()
    assert len(res.clauses) == 18
    queries = [c for c in res.clauses if c.is_query]
    assert len(queries) == 4
    # clause counts per new predicate mirror the worked example's final set
    by_pred: dict[str, int] = {}
    for c in res.clauses:
        if c.head is not None:
            by_pred[c.head.pred] = by_pred.get(c.head.pred, 0) + 1
    defs = {d.prog.pred: d.name for d in res.definitions
            if d.prog.pred not in ("true_list_int",)}
    assert by_pred[defs["ins_sort"]] == 2
    assert by_pred[defs["ord_ins"]] == 3
    assert by_pred[defs["append"]] == 2
    assert by_pred[defs["snoc"]] == 2
    assert by_pred[defs["empty_list"]] == 1
    # no catamorphism predicate survives in the output
    for c in res.clauses:
        for a in c.body:
            assert a.pred not in ("ordered", "first", "last")


def test_equality_propagated_base_clause(insertion_sort):
    eng = ConstraintEngine()
    try:
        res = transform_problem(insertion_sort, eng)
    finally:
        eng.close()
    ins_def = next(d for d in res.definitions if d.prog.pred == "ins_sort")
    true_def = next(d for d in res.definitions
                    if d.prog.pred == "true_list_int"
                    and cata_sig(d.catas) == (("ordered", 1),))
    base = next(c for c in res.clauses
                if c.head is not None and c.head.pred == ins_def.name
                and len(c.body) == 1 and c.body[0].pred == true_def.name)
    # the B=C equality was substituted into the head: new1(A,B,A,B,[])
    args = base.head.args
    assert args[0] == args[2] and args[1] == args[3]


def test_derivation_log_counts(insertion_sort):
    eng = ConstraintEngine()
    try:
        tr = Transformer(insertion_sort, eng)
        res = tr.transform_all()
    finally:
        eng.close()
    rules = [r.rule for r in res.log.records]
    assert rules.count("define.project") == 7  # all seven via Project
    assert rules.count("fold") == 18
    text = res.log.to_text()
    assert "unfold.step" in text and "strengthen" in text
    import json
    for line in res.log.to_json().splitlines():
        json.loads(line)
