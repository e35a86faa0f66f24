"""Structural properties of the transformation: monovariance, the extension
order across iterations, introduction-rule side conditions, functionality
rewriting, and the behavior of the individual rules on edge inputs."""

import pytest

from catafuse.catas import io_split
from catafuse.engine import ConstraintEngine
from catafuse.parser import parse_problem
from catafuse.syntax import (INT, PRED_TRUE, TRUE, Atom, Clause, FComp,
                             IntConst, Var, conjuncts, free_vars, list_sort,
                             mk_and)
from catafuse.transform import (Definition, DefinitionSet, TransformError,
                                Transformer, def_extends, propagate_equalities,
                                transform_problem)


@pytest.fixture()
def tr(insertion_sort):
    eng = ConstraintEngine()
    yield Transformer(insertion_sort, eng)
    eng.close()


def _iterate(tr):
    """Iterate the definition step, yielding each intermediate set."""
    defs = DefinitionSet()
    snaps = []
    for _ in range(tr.max_iterations):
        changed = tr.definition_step(defs)
        snaps.append(list(defs))
        if not changed:
            break
    return defs, snaps


def test_monovariance_every_iteration(tr):
    defs, snaps = _iterate(tr)
    for snap in snaps:
        per_pred = [d.prog.pred for d in snap
                    if tr.decls[d.prog.pred].kind != PRED_TRUE]
        assert len(per_pred) == len(set(per_pred))


def test_extension_chain_between_iterations(tr):
    _, snaps = _iterate(tr)
    for before, after in zip(snaps, snaps[1:]):
        for d1 in before:
            assert any(def_extends(d1, d2, tr.engine, tr.decls)
                       for d2 in after), d1.name


def test_def_extends_reflexive_and_ordered(tr):
    defs, _ = _iterate(tr)
    for d in defs:
        assert def_extends(d, d, tr.engine, tr.decls)
    snoc_def = defs.by_pred["snoc"]
    ins_def = defs.by_pred["ins_sort"]
    assert not def_extends(snoc_def, ins_def, tr.engine, tr.decls)


def test_def_extends_strict_chain_not_symmetric(tr):
    """Across iterations the snoc definition strictly grows; the extension
    order must not hold with the arguments swapped."""
    _, snaps = _iterate(tr)
    first_snoc = next(d for snap in snaps for d in snap
                      if d.prog.pred == "snoc")
    last_snoc = next(d for d in reversed(snaps[-1]) if d.prog.pred == "snoc")
    assert len(first_snoc.catas) < len(last_snoc.catas)
    assert def_extends(first_snoc, last_snoc, tr.engine, tr.decls)
    assert not def_extends(last_snoc, first_snoc, tr.engine, tr.decls)


def test_r1_conditions_on_introduced_definitions(tr):
    defs, _ = _iterate(tr)
    names = set()
    for d in defs:
        assert d.name not in names
        names.add(d.name)
        body_vars = free_vars(list(d.catas)) | free_vars(d.prog)
        assert set(d.head.args) == body_vars
        assert len(set(d.head.args)) == len(d.head.args)
        assert free_vars(d.constraint) <= body_vars
        assert free_vars(list(d.catas), "adt") <= free_vars(d.prog, "adt")


def _definition(name, prog_pred, cata_preds):
    t = Var("T", list_sort(INT))
    prog = Atom(prog_pred, (t,))
    catas = tuple(Atom(p, (t, Var(f"N{i}", INT)))
                  for i, p in enumerate(cata_preds))
    head = Atom(name, (t,) + tuple(a.args[1] for a in catas))
    return Definition(name, head, TRUE, catas, prog)


def test_definition_slot_takes_one_definition():
    defs = DefinitionSet()
    defs.add(_definition("new1", "app", ["len"]))
    defs.add(_definition("new2", "true_list_int", ["len"]))
    # a program predicate has one slot, whatever its fold group
    with pytest.raises(TransformError):
        defs.add(_definition("new3", "app", ["len", "sum"]))
    with pytest.raises(TransformError):
        defs.add(_definition("new4", "true_list_int", ["len"]))
    assert [d.name for d in defs] == ["new1", "new2"]


def test_true_definitions_coexist_by_signature():
    defs = DefinitionSet()
    one = _definition("new1", "true_list_int", ["len"])
    two = _definition("new2", "true_list_int", ["len", "sum"])
    defs.add(one)
    defs.add(two)
    assert defs.lookup(one.prog, one.catas) is one
    assert defs.lookup(two.prog, two.catas) is two
    assert defs.lookup(one.prog, two.catas[1:]) is None


def test_replace_moves_a_true_definition_to_its_new_slot():
    defs = DefinitionSet()
    first = _definition("new1", "app", ["len"])
    old = _definition("new2", "true_list_int", ["len"])
    last = _definition("new3", "true_list_int", ["sum"])
    for d in (first, old, last):
        defs.add(d)
    new = _definition("new4", "true_list_int", ["len", "len"])
    defs.replace(old, new)
    assert list(defs) == [first, new, last]
    assert defs.lookup(new.prog, new.catas) is new
    assert defs.lookup(old.prog, old.catas) is None
    assert defs.lookup(last.prog, last.catas) is last


def test_functionality_leaves_no_duplicate_catas(tr):
    defs, _ = _iterate(tr)
    for d in defs:
        for c in tr.unfold_rule(d):
            seen = set()
            for a in c.body:
                if not tr.is_cata(a.pred):
                    continue
                xs, t, _ = io_split(a, tr.decls[a.pred])
                key = (a.pred, xs, t)
                assert key not in seen, c
                seen.add(key)


def test_strengthen_rejects_queries(tr):
    with pytest.raises(AssertionError):
        tr.strengthen_clause(tr.problem.queries[0])


def test_fold_applies_to_queries_and_unfolded_clauses_only(tr, monkeypatch):
    """What fold/unfold correctness asks, so fold_clause itself does not
    refuse a clause that folds with the definition it was unfolded from."""
    folded = []
    fold = tr.fold_clause

    def recorded(c, defs):
        folded.append(c)
        return fold(c, defs)

    monkeypatch.setattr(tr, "fold_clause", recorded)
    tr.transform_all()
    n = len(tr.problem.queries)
    assert folded[:n] == tr.problem.queries
    assert len(folded) > n
    assert all(c.origin in ("unfold", "strengthen") for c in folded[n:])


def test_fold_empty_clause_unchanged(tr):
    defs, _ = _iterate(tr)
    c = Clause(None, TRUE, ())
    out = tr.fold_clause(c, defs)
    assert out.body == () and out.constraint == TRUE


def test_one_step_unfold_no_matching_heads(tr):
    c = Clause(None, TRUE, (Atom("empty_list",
                                 (Var("L", tr.decls["empty_list"].arg_sorts[0]),)),))
    out = tr.one_step_unfold(c, 0, [cl for cl in tr.problem.program
                                    if cl.head.pred == "snoc"])
    assert out == []


def test_one_step_unfold_prunes_unsat_resolvents():
    p = parse_problem(
        "pred p(int).\npred q(int).\n"
        "p(X) :- X >= 1, q(X).\n"
        "q(X) :- X =< 0.\n"
        "q(X) :- X >= 5.\n")
    eng = ConstraintEngine()
    try:
        tr = Transformer(p, eng)
        clause = p.program[0]
        out = tr.one_step_unfold(clause, 0, p.program)
        # the X>=1 & X<=0 resolvent is dropped, the X>=1 & X>=5 one kept
        assert len(out) == 1
    finally:
        eng.close()


def test_one_step_unfold_bad_index(tr):
    with pytest.raises(TransformError):
        tr.one_step_unfold(tr.problem.program[0], 5, tr.problem.program)


def test_empty_query_set_fixes_immediately():
    p = parse_problem(
        "pred p(list(int)).\n"
        "p([]).\n"
        "p([H|T]) :- p(T).\n")
    eng = ConstraintEngine()
    try:
        res = transform_problem(p, eng)
        assert res.iterations == 1
        assert res.definitions == []
        assert [c for c in res.clauses if c.is_query] == []
    finally:
        eng.close()


def test_iteration_cap_is_enforced(insertion_sort):
    eng = ConstraintEngine()
    try:
        tr = Transformer(insertion_sort, eng, max_iterations=1)
        with pytest.raises(TransformError, match="fixpoint"):
            tr.definition_fixpoint()
    finally:
        eng.close()


def test_strengthen_accumulates_across_atoms(tr):
    """The catamorphism atoms added for an earlier program atom are visible
    when the later ones are strengthened (same-clause chaining)."""
    defs = DefinitionSet()
    tr.definition_step(defs)
    d2 = defs.by_pred["ord_ins"]
    unf = tr.unfold_rule(d2)
    base = next(c for c in unf
                if sum(tr.is_program_kind(a.pred) for a in c.body) == 2)
    out = tr.strengthen_clause(base)
    ordered_ts = [a.args[0] for a in out.body if a.pred == "ordered"]
    snoc_out = next(a for a in out.body if a.pred == "snoc").args[2]
    ins_in = next(a for a in out.body if a.pred == "ins_sort").args[0]
    assert snoc_out == ins_in
    # the ordered atom introduced for the snoc output is reused, not duplicated
    assert ordered_ts.count(snoc_out) == 1


def test_transformed_set_references_only_new_predicates(insertion_sort):
    eng = ConstraintEngine()
    try:
        res = transform_problem(insertion_sort, eng)
        new_names = {d.name for d in res.definitions}
        for c in res.clauses:
            for a in c.body:
                assert a.pred in new_names
            if c.head is not None:
                assert c.head.pred in new_names
    finally:
        eng.close()


def test_deterministic_output(insertion_sort_text):
    def run():
        p = parse_problem(insertion_sort_text)
        eng = ConstraintEngine()
        try:
            res = transform_problem(p, eng)
        finally:
            eng.close()
        from catafuse.transform import transformed_problem
        from catafuse.smtlib import emit_smtlib
        return emit_smtlib(transformed_problem(p, res))

    assert run() == run()


def test_propagate_equalities_keeps_first_occurrence_past_52_variables():
    # V27 occurs first (display name B1), V52 later (A2); the representative
    # is the one that occurs first, not the one whose display name sorts first
    vs = [Var(f"V{i:02d}", INT) for i in range(60)]
    c = Clause(None, mk_and(*(FComp(">=", v, IntConst(0)) for v in vs),
                            FComp("=", vs[52], vs[27])), ())
    out = propagate_equalities(c)
    assert vs[27] in free_vars(out) and vs[52] not in free_vars(out)
    assert len(conjuncts(out.constraint)) == 59
