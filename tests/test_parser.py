import pytest

from catafuse.parser import ParseError, parse_problem
from catafuse.syntax import (INT, PRED_CATA, PRED_PROGRAM, FComp, FEq, IntConst,
                             Var, conjuncts, lin)

X = Var("X", INT)
Y = Var("Y", INT)


def test_fixture_counts(insertion_sort):
    assert len(insertion_sort.program) == 10
    assert len(insertion_sort.properties) == 6
    assert len(insertion_sort.queries) == 4
    kinds = {n: d.kind for n, d in insertion_sort.preds.items()}
    assert kinds["ins_sort"] == PRED_PROGRAM
    assert kinds["ordered"] == PRED_CATA


def test_declarations_only():
    p = parse_problem("pred p(int).\ncata c(in:, adt: list(int), out: bool).\n")
    assert p.program == [] and p.queries == []


def test_body_atom_normalization_duplicate_var():
    p = parse_problem(
        "pred snoc(list(int), int, list(int)).\n"
        "pred q(list(int)).\n"
        "q(Xs1) :- snoc(Xs1, Y, Xs1).\n")
    (clause,) = p.program
    (atom,) = clause.body
    args = atom.args
    assert len(set(args)) == 3, "arguments must be distinct variables"
    eqs = [f for f in conjuncts(clause.constraint) if isinstance(f, FEq)]
    assert len(eqs) == 1, "displaced duplicate becomes a term equality"


def test_body_atom_normalization_pattern_arg():
    p = parse_problem(
        "pred p(list(int)).\n"
        "pred q(int).\n"
        "q(X) :- p([X]).\n")
    (clause,) = p.program
    assert all(isinstance(t, Var) for t in clause.body[0].args)
    assert any(isinstance(f, FEq) for f in conjuncts(clause.constraint))


def test_heads_keep_patterns(insertion_sort):
    heads = [c.head for c in insertion_sort.program if c.head.pred == "snoc"]
    assert any(not isinstance(t, Var) for h in heads for t in h.args)


def test_normalization_is_invertible():
    """Substituting the introduced equalities back reconstructs the raw atom,
    so the normalized clause is equivalent modulo the fresh variables."""
    from catafuse.syntax import Subst
    p = parse_problem(
        "pred p(list(int), int).\n"
        "pred q(int).\n"
        "q(X) :- p([X], X + 1).\n")
    (clause,) = p.program
    mapping = {}
    for f in conjuncts(clause.constraint):
        mapping[f.lhs] = f.rhs
    restored = Subst(mapping).atom(clause.body[0])
    # structural inversion: the first argument is the singleton list of X,
    # the second the incremented variable
    a0, a1 = restored.args
    from catafuse.syntax import Ctor, lin
    assert isinstance(a0, Ctor) and a0.ctor == "cons"
    assert a0.args[0] == clause.head.args[0]
    assert a1 == lin({clause.head.args[0]: 1}, 1)


def test_equality_resolved_by_sort():
    p = parse_problem(
        "pred p(int, bool, list(int)).\n"
        "p(X, B, L) :- X = 3, B = (X > 2), L = [X].\n")
    fs = conjuncts(p.program[0].constraint)
    kinds = sorted(type(f).__name__ for f in fs)
    assert kinds == ["FComp", "FEq", "FIff"]


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_problem("pred p(int).\np(X) :- .\n")
    assert e.value.line == 2


def test_undeclared_predicate():
    with pytest.raises(ParseError, match="undeclared predicate"):
        parse_problem("q(X).\n")


def test_sort_mismatch():
    with pytest.raises(ParseError, match="sort mismatch|sorts"):
        parse_problem("pred p(int).\npred q(list(int)).\n"
                      "p(X) :- q(X).\n")


def test_duplicate_query_rejected():
    with pytest.raises(ParseError, match="duplicate query"):
        parse_problem(
            "pred p(list(int)).\n"
            "cata len(in:, adt: list(int), out: int).\n"
            "len([], N) :- N = 0.\n"
            "len([H|T], N) :- N = N1 + 1, len(T, N1).\n"
            "false :- ~(N = 0), len(Xs, N), p(Xs).\n"
            "false :- ~(N > 0), len(Xs, N), p(Xs).\n")


def test_reserved_true_namespace():
    with pytest.raises(ParseError, match="reserved"):
        parse_problem("pred true_list_int(list(int)).\n")
    with pytest.raises(ParseError, match="reserved"):
        parse_problem("cata true_list_int(in:, adt: list(int), out: int).\n")


_LEN = ("cata len(in:, adt: list(int), out: int).\n"
        "len([], N) :- N = 0.\n"
        "len([H|T], N) :- N = N1 + 1, len(T, N1).\n")


def _refused(text: str, match: str) -> tuple[int, int]:
    with pytest.raises(ParseError, match=match) as err:
        parse_problem(text)
    return err.value.line, err.value.col


@pytest.mark.parametrize("name", ["bool", "int"])
def test_sort_named_like_a_builtin_refused(name):
    """Such a sort was the builtin itself: its constructors went undeclared
    in SMT-LIB, and `sort int = a | b.` made `a` an integer."""
    assert _refused(f"sort {name} = yes | no.\n"
                    f"pred p(list(int), {name}).\n" + _LEN +
                    "p([], yes).\np([X|Xs], no) :- p(Xs, B).\n"
                    "false :- N < 0, len(Xs, N), p(Xs, B).\n",
                    f"sort {name} is builtin") == (1, 6)


@pytest.mark.parametrize("word, decl", [
    ("and", "pred and(list(int))."),
    ("distinct", "cata distinct(in:, adt: list(int), out: int)."),
    ("let", "sort let = a."), ("push", "sort s = a | push(int)."),
    ("reset", "pred reset(int).")])
def test_smtlib_reserved_name_refused(word, decl):
    """SMT-LIB cannot declare these: `(declare-fun and (Lst_Int) Bool)` made
    the bundled solver print an error and `unknown`."""
    _refused(decl + "\n", f"name {word} is reserved in SMT-LIB")


def test_predicate_and_constructor_of_one_name_refused():
    """The script declared `mk` as both a constructor and a predicate."""
    assert _refused("sort s = mk | other(int).\npred mk(list(int), s).\n"
                    + _LEN + "mk([], mk).\n"
                    "false :- N < 0, len(Xs, N), mk(Xs, S).\n",
                    "predicate mk has a constructor's name") == (2, 6)
    assert _refused("pred mk(list(int)).\nsort s = other(int) | mk.\n",
                    "constructor mk has a predicate's name") == (2, 23)
    for builtin in ("cons", "leaf", "node"):
        _refused(f"cata {builtin}(in:, adt: tree(int), out: int).\n",
                 f"catamorphism {builtin} has a constructor's name")


def test_custom_adt_declaration():
    p = parse_problem(
        "sort pair = mk(int, int).\n"
        "pred p(pair).\n"
        "p(mk(A, B)) :- A =< B.\n")
    sd = p.sorts.resolve(p.preds["p"].arg_sorts[0])  # KeyError if unknown
    assert [c.name for c in sd.ctors] == ["mk"]


def test_comments_and_ite():
    p = parse_problem(
        "% a comment\n"
        "pred p(int, int).\n"
        "p(X, Y) :- Y = ite(X > 0, X, 0 - X).  % abs\n")
    assert len(p.program) == 1


@pytest.mark.parametrize("rhs, want", [
    ("-X", lin({X: -1})),
    ("-(X+1)", lin({X: -1}, -1)),
    ("2*X", lin({X: 2})),
    ("X*2", lin({X: 2})),
    ("2*3", IntConst(6)),
    ("X - Y", lin({X: 1, Y: -1})),
])
def test_linear_arithmetic(rhs, want):
    p = parse_problem(f"pred p(int, int).\np(X, Y) :- Y = {rhs}.\n")
    assert p.program[0].constraint == FComp("=", Y, want)


@pytest.mark.parametrize("rhs, msg", [
    ("X*Y", "2:17: non-linear product"),
    ("2*ite(X > 0, X, 1)", "2:17: non-linear arithmetic term"),
    ("X + ite(X > 0, X, 1)", "2:18: non-linear arithmetic term"),
])
def test_nonlinear_arithmetic_rejected(rhs, msg):
    with pytest.raises(ParseError) as e:
        parse_problem(f"pred p(int, int).\np(X, Y) :- Y = {rhs}.\n")
    assert str(e.value) == msg
