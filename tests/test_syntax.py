import ast
import dataclasses
import importlib
import itertools
import pkgutil
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catafuse
from catafuse import catas, parser, solver, syntax, transform
from catafuse import engine as engine_mod
from catafuse.syntax import (
    BOOL, INT, Atom, BoolConst, Clause, Ctor, CtorDecl, IntConst, NameGen,
    PredDecl, Subst, TRUE, Var, conjuncts, eq_of, free_vars, lin, list_sort,
    mgu, mk_and, pretty_clause, rename_apart, term_sort, tree_sort,
    FComp, FEq, FFalse, FVar,
)
from variants import variant_of

LI = list_sort(INT)
NIL = Ctor(LI, "[]", ())


def cons(h, t):
    return Ctor(LI, "cons", (h, t))


def lvar(n):
    return Var(n, LI)


def ivar(n):
    return Var(n, INT)


# ---------------------------------------------------------------------------
# mgu
# ---------------------------------------------------------------------------

def test_mgu_repeated_head_variable_case():
    # unifying the definition's program atom with the fact-like head whose
    # first and third arguments coincide
    a = Atom("ins_sort", (lvar("A"), lvar("E"), lvar("C")))
    k = Atom("ins_sort", (lvar("Xs"), NIL, lvar("Xs")))
    s, residue = mgu(a, k)
    assert residue == ()
    assert s.term(lvar("A")) == s.term(lvar("C"))
    assert s.term(lvar("E")) == NIL


def test_mgu_var_var():
    s, residue = mgu(Atom("p", (ivar("X"),)), Atom("p", (ivar("Y"),)))
    assert residue == ()
    assert s.term(ivar("X")) == s.term(ivar("Y"))


def test_mgu_constructor_clash():
    a = Atom("p", (cons(ivar("H"), lvar("T")),))
    b = Atom("p", (NIL,))
    assert mgu(a, b) is None
    assert mgu(b, a) is None


def test_mgu_occurs_check():
    assert mgu(Atom("p", (lvar("X"),)),
               Atom("p", (cons(ivar("H"), lvar("X")),))) is None


def test_mgu_leaves_arithmetic_to_the_constraint():
    # inside a constructor, X+1 against 3 is an equation, not a clash
    x1 = lin({ivar("X"): 1}, 1)
    s, residue = mgu(Atom("p", (cons(x1, lvar("T")),)),
                     Atom("p", (cons(IntConst(3), lvar("T2")),)))
    assert s.term(lvar("T")) == lvar("T2")
    assert residue == (FComp("=", x1, IntConst(3)),)
    # a basic variable that occurs on the other side is not bound
    s, residue = mgu(Atom("p", (ivar("X"),)), Atom("p", (x1,)))
    assert not s and residue == (FComp("=", ivar("X"), x1),)
    # the residue is returned with the final unifier applied
    s, residue = mgu(Atom("p", (x1, ivar("X"))),
                     Atom("p", (IntConst(3), ivar("Y"))))
    assert s.term(ivar("X")) == ivar("Y")
    assert residue == (FComp("=", lin({ivar("Y"): 1}, 1), IntConst(3)),)


def _ground_terms(depth):
    if depth == 0:
        return [NIL]
    smaller = _ground_terms(depth - 1)
    out = list(smaller)
    for e in (IntConst(0), IntConst(1)):
        out.extend(cons(e, t) for t in smaller)
    return out


def _ground_instances(atom, depth=2):
    """Brute-force oracle: all groundings of atom over small lists/{0,1}."""
    vs = sorted(free_vars(atom), key=lambda v: v.name)
    domains = []
    for v in vs:
        domains.append(_ground_terms(depth) if v.sort == LI
                       else [IntConst(0), IntConst(1)])
    for combo in itertools.product(*domains):
        yield Subst(dict(zip(vs, combo)))


def test_mgu_is_most_general_bruteforce():
    # every common ground instance factors through the mgu
    a1 = Atom("p", (lvar("X"), cons(ivar("H"), lvar("X"))))
    a2 = Atom("p", (cons(ivar("K"), lvar("T")), lvar("Z")))
    s, residue = mgu(a1, a2)
    assert residue == ()
    found = 0
    for g1 in _ground_instances(a1, 1):
        inst = g1.atom(a1)
        for g2 in _ground_instances(a2, 2):
            if g2.atom(a2) != inst:
                continue
            found += 1
            # inst must be an instance of the unified atom
            base = s.atom(a1)
            rho, residue = mgu(base, inst)
            assert residue == ()
            assert rho.atom(base) == inst
    assert found > 0


# ---------------------------------------------------------------------------
# resolve
# ---------------------------------------------------------------------------

def test_resolve_constructor_clash_is_none():
    c = Clause(Atom("p", (lvar("X"),)), TRUE, (Atom("q", (NIL,)),))
    k = Clause(Atom("q", (cons(ivar("H"), lvar("T")),)), TRUE, ())
    assert syntax.resolve(c, 0, k, {}) is None


def test_resolve_applies_the_unifier_and_keeps_the_residue():
    """c = p(X, T) <- X >= 0, r(X), q(cons(X+1, T)), s(T) on q(cons(X+1, T))
    with k = q(cons(3, T2)) <- T2 = [], t(T2): T becomes T2 everywhere and
    X+1 = 3 joins both constraints."""
    x, t, t2 = ivar("X"), lvar("T"), lvar("T2")
    x1 = lin({x: 1}, 1)
    c = Clause(Atom("p", (x, t)), FComp(">=", x, IntConst(0)),
               (Atom("r", (x,)), Atom("q", (cons(x1, t),)), Atom("s", (t,))))
    k = Clause(Atom("q", (cons(IntConst(3), t2),)), FEq(t2, NIL, LI),
               (Atom("t", (t2,)),))
    r = syntax.resolve(c, 1, k, {})
    assert r.head == Atom("p", (x, t2))
    assert r.body == (Atom("r", (x,)), Atom("t", (t2,)), Atom("s", (t2,)))
    assert conjuncts(r.constraint) == (
        FComp(">=", x, IntConst(0)), FEq(t2, NIL, LI),
        FComp("=", x1, IntConst(3)))
    assert r.origin == c.origin


def test_resolve_body_splices_k_in_place_under_the_unifier():
    a, b, y = lvar("A"), lvar("B"), ivar("Y")
    c = Clause(None, TRUE, (Atom("u", (a,)), Atom("q", (a, b)),
                            Atom("w", (b,))))
    k = Clause(Atom("q", (NIL, cons(y, NIL))), FComp(">", y, IntConst(1)),
               (Atom("v", (y,)), Atom("x", (y,))))
    r = syntax.resolve(c, 1, k, {})
    s, _ = mgu(c.body[1], k.head)
    assert r.head is None  # a query stays a query
    assert r.body == tuple(s.atom(b) for b in c.body[:1] + k.body + c.body[2:])
    assert r.body == (Atom("u", (NIL,)), Atom("v", (y,)), Atom("x", (y,)),
                      Atom("w", (cons(y, NIL),)))
    assert r.constraint == FComp(">", y, IntConst(1))


# ---------------------------------------------------------------------------
# rename_apart / substitution
# ---------------------------------------------------------------------------

def _clause():
    return Clause(Atom("p", (lvar("A"), ivar("B"))), TRUE,
                  (Atom("q", (lvar("A"),)), Atom("r", (ivar("B"),))))


def test_rename_apart_disjoint():
    gen = NameGen()
    c = _clause()
    ren = rename_apart(c, {lvar("A")}, gen)
    assert set(ren) == {lvar("A")}
    out = Subst(ren).clause(c)
    assert lvar("A") not in free_vars(out)
    assert variant_of(c, out)


def test_rename_apart_empty_avoid_is_identity():
    gen = NameGen()
    assert rename_apart(_clause(), set(), gen) == {}


def test_rename_apart_composes():
    gen = NameGen()
    c = _clause()
    avoid = set(free_vars(c))
    c1 = Subst(rename_apart(c, avoid, gen)).clause(c)
    avoid |= free_vars(c1)
    c2 = Subst(rename_apart(c1, avoid, gen)).clause(c1)
    assert variant_of(c, c2)
    assert not (free_vars(c2) & set(free_vars(c)))


# ---------------------------------------------------------------------------
# free variable filters
# ---------------------------------------------------------------------------

def test_free_vars_filters():
    a = Atom("ordered", (lvar("Xs"), Var("B1", BOOL)))
    assert free_vars(a, "adt") == {lvar("Xs")}
    assert free_vars(a, "basic") == {Var("B1", BOOL)}
    assert free_vars(Atom("empty_list", (NIL,))) == set()


# ---------------------------------------------------------------------------
# variant matching
# ---------------------------------------------------------------------------

def test_variant_requires_bijection():
    c1 = Clause(None, FComp("=<", ivar("X"), ivar("Y")),
                (Atom("p", (ivar("X"), ivar("Y"))),))
    c2 = Clause(None, FComp("=<", ivar("A"), ivar("B")),
                (Atom("p", (ivar("A"), ivar("B"))),))
    c3 = Clause(None, FComp("=<", ivar("A"), ivar("A")),
                (Atom("p", (ivar("A"), ivar("A"))),))
    assert variant_of(c1, c2)
    assert not variant_of(c1, c3)
    assert not variant_of(c3, c1)


def test_variant_revises_a_pairing_of_summands():
    """D+E pairs D with D and E with E first; only swapping them maps the
    rest of the clause, so the first pairing must be revised."""
    c1, c2 = parser.parse_problem(
        "pred p(int).\n"
        "p(C) :- C = D+E+1, E = 0, D = F+1.\n"
        "p(C) :- C = D+E+1, D = 0, E = F+1.\n").program
    assert variant_of(c1, c2)
    assert variant_of(c2, c1)
    assert variant_of(c1, c2, ordered_body=True)


@settings(max_examples=60, deadline=None)
@given(st.permutations(["p", "q", "r"]))
def test_variant_body_is_multiset(order):
    atoms = {n: Atom(n, (ivar(f"X{n}"),)) for n in "pqr"}
    c1 = Clause(None, TRUE, tuple(atoms[n] for n in "pqr"))
    c2 = Clause(None, TRUE, tuple(atoms[n] for n in order))
    assert variant_of(c1, c2)


def test_pretty_roundtrip_display_names():
    c = Clause(Atom("p", (lvar("Zz"), ivar("Qq"))), TRUE,
               (Atom("q", (lvar("Zz"),)),))
    assert pretty_clause(c) == "p(A,B) :- q(A)."


# ---------------------------------------------------------------------------
# value classes: the semantics of the dataclasses they replace
# ---------------------------------------------------------------------------

_NAMES = ("X", "Y")
_B = Var("B", BOOL)
# stand-ins for fields compared by identity: a log, a process, a file
_LOGS = (transform.DerivationLog(), transform.DerivationLog())
_PROCS = ("proc", object())


def _pick(r, *options):
    return options[r.randrange(len(options))]


def _term(r):
    return _pick(r, ivar("X"), ivar("Y"), IntConst(0), lin({ivar("X"): 2}, 1))


def _formula(r):
    return _pick(r, TRUE, FFalse(), FVar(_B), FComp("=", ivar("X"), IntConst(0)))


def _atom(r):
    return Atom(_pick(r, "p", "q"), (_term(r),))


# per class, seeded positional arguments for every field; the pools are
# small, so equal objects come up often
_ARGS = {
    syntax.Sort: lambda r: (_pick(r, "int", "bool"),),
    syntax.CtorDecl: lambda r: (_pick(r, "[]", "cons"), _pick(r, (), (INT, LI))),
    syntax.SortDef: lambda r: (_pick(r, INT, LI), _pick(r, (), (CtorDecl("[]", ()),))),
    syntax.Var: lambda r: (_pick(r, *_NAMES), _pick(r, INT, BOOL)),
    syntax.IntConst: lambda r: (_pick(r, 0, 1),),
    syntax.BoolConst: lambda r: (_pick(r, False, True),),
    syntax.LinExpr: lambda r: (((ivar(_pick(r, *_NAMES)), _pick(r, 1, 2)),),
                               _pick(r, 0, 1)),
    syntax.Ctor: lambda r: (LI, _pick(r, "[]", "cons"), _pick(r, (), (ivar("X"), NIL))),
    syntax.TermIte: lambda r: (_formula(r), _term(r), _term(r)),
    syntax.FTrue: lambda r: (),
    syntax.FFalse: lambda r: (),
    syntax.FVar: lambda r: (Var(_pick(r, *_NAMES), BOOL),),
    syntax.FNot: lambda r: (_formula(r),),
    syntax.FAnd: lambda r: (_pick(r, (_formula(r),), (_formula(r), _formula(r))),),
    syntax.FOr: lambda r: (_pick(r, (_formula(r),), (_formula(r), _formula(r))),),
    syntax.FImp: lambda r: (_formula(r), _formula(r)),
    syntax.FIff: lambda r: (_formula(r), _formula(r)),
    syntax.FIte: lambda r: (_formula(r), _formula(r), _formula(r)),
    syntax.FComp: lambda r: (_pick(r, "=", "<"), _term(r), _term(r)),
    syntax.FEq: lambda r: (lvar(_pick(r, *_NAMES)), NIL, LI),
    syntax.Atom: lambda r: (_pick(r, "p", "q"), _pick(r, (), (_term(r),))),
    syntax.Clause: lambda r: (_pick(r, None, _atom(r)), _formula(r),
                              _pick(r, (), (_atom(r),)), _pick(r, "source", "fold")),
    syntax.PredDecl: lambda r: (_pick(r, "p", "q"), _pick(r, (), (INT,)),
                                _pick(r, "program", "catamorphism"), _pick(r, (), (0,)),
                                _pick(r, -1, 0), _pick(r, (), (1,))),
    syntax.Problem: lambda r: (syntax.SortTable(), _pick(r, {}, {"p": PredDecl("p", ())}),
                               _pick(r, [], [_clause()]), [], []),
    parser.Tok: lambda r: (_pick(r, "id", "kw"), _pick(r, "p", "q"), _pick(r, 1, 2),
                           _pick(r, 1, 2)),
    parser.Node: lambda r: (_pick(r, "id", "app"), _pick(r, "", "p"),
                            _pick(r, (), (parser.Node("id", "x"),)), _pick(r, 0, 1),
                            _pick(r, 0, 1)),
    transform.LogRecord: lambda r: (_pick(r, "fold", "unfold.step"), _pick(r, "", "d"),
                                    _pick(r, [], ["p(A)."]), _pick(r, [], ["q."])),
    transform.Definition: lambda r: (_pick(r, "new1", "new2"), _atom(r), _formula(r),
                                     _pick(r, (), (_atom(r),)), _atom(r)),
    transform.TransformResult: lambda r: (_pick(r, [], [_clause()]),
                                          _pick(r, {}, {"p": PredDecl("p", ())}),
                                          [], _pick(r, 1, 2), _pick(r, *_LOGS)),
    catas.CatamorphismSchema: lambda r: (_pick(r, "len", "sum"), _pick(r, "list", "tree"),
                                         LI, _pick(r, (), (INT,)), _clause(),
                                         _pick(r, _clause(), Clause(None, TRUE, ())),
                                         _pick(r, (), ("len",))),
    catas.QuerySpec: lambda r: (_formula(r), _pick(r, [], [(_atom(r), (), ivar("X"), ())]),
                                _atom(r)),
    solver.SolveResult: lambda r: (_pick(r, "sat", "unsat"), _pick(r, 0.5, 1.0),
                                   _pick(r, "z3", "horn")),
    solver.BenchRow: lambda r: (_pick(r, "a", "b"), _pick(r, 1, 2), "sat",
                                _pick(r, "sat", "unknown"), 0.5, "sat",
                                _pick(r, 0.5, 1.0), 0.25, _pick(r, True, False),
                                _pick(r, "", "why")),
    solver.BenchReport: lambda r: (_pick(r, [], [solver.BenchRow(
        "a", 1, "sat", "sat", 0.5, "sat", 0.5, 0.25, True)]),),
    engine_mod.Child: lambda r: (_pick(r, *_PROCS), _pick(r, *_PROCS)),
}


def _twin(cls):
    """A frozen dataclass with the class's fields and defaults."""
    body = cls.__dict__.get("__annotations__", {})
    fields = [(n, object, dataclasses.field(default=cls.__dict__[n]))
              if n in cls.__dict__ else (n, object) for n in body]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


PACKAGE = Path(catafuse.__file__).resolve().parent


def _package_modules():
    return [importlib.import_module(m.name) for m in
            pkgutil.walk_packages(catafuse.__path__, "catafuse.")]


def test_value_classes_cover_every_record():
    made = {c for m in _package_modules() for c in vars(m).values()
            if isinstance(c, type) and "__match_args__" in c.__dict__
            and c.__module__ == m.__name__}
    assert made == set(_ARGS)
    assert all(c.__repr__ is syntax._repr for c in made)


def _hash_like_twin(x, tx):
    """Equal hashes, the cached one included, or TypeError for both when a
    field is unhashable."""
    try:
        h = hash(tx)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == h == hash(x)


def test_value_classes_behave_like_dataclasses():
    rng = random.Random(7)
    for cls, gen in _ARGS.items():
        twin = _twin(cls)
        for _ in range(40):
            a1, a2 = gen(rng), gen(rng)
            x, y, tx, ty = cls(*a1), cls(*a2), twin(*a1), twin(*a2)
            _hash_like_twin(x, tx)
            assert (x == y) == (tx == ty) and (x != y) == (tx != ty)
            assert repr(x) == repr(tx)
            assert x == cls(*a1) and x != tx
            assert cls.__eq__(x, tx) is NotImplemented
        a = gen(rng)
        x, tx = cls(*a), twin(*a)
        # like a dataclass, an object never equals one of a subclass
        assert x != type("Sub", (cls,), {})(*a)
        first = next(iter(cls.__dict__.get("__annotations__", {})), "extra")
        for name in (first, "extra"):
            for obj in (x, tx):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 0)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert x == cls(*a)


def test_problem_fields_stay_mutable_lists():
    p = syntax.Problem(syntax.SortTable(), {}, [], [], [])
    p.queries.append(Clause(None, TRUE, ()))
    assert p.all_clauses() == [Clause(None, TRUE, ())]
    with pytest.raises(AttributeError):
        p.queries = []


def test_no_module_imports_dataclasses_or_typing():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in n.names] if isinstance(n, ast.Import) \
                else [n.module or ""] if isinstance(n, ast.ImportFrom) else []
            found += [f"{path.relative_to(PACKAGE)}: {m}" for m in names
                      if m.split(".")[0] in ("dataclasses", "typing")]
    assert found == []


def test_solver_config_reads_chc_solver_when_made(monkeypatch):
    monkeypatch.setenv("CHC_SOLVER", "first-solver -v")
    one = solver.SolverConfig(timeout=5.0)
    monkeypatch.setenv("CHC_SOLVER", "second-solver")
    two = solver.SolverConfig()
    assert (one.cmd, one.timeout, two.cmd) == (
        ["first-solver", "-v"], 5.0, ["second-solver"])
    assert solver.SolverConfig(["mine"]).cmd == ["mine"]
    shorter = solver.SolverConfig(["mine"], 9.0, 7, 3.0).for_original()
    assert (shorter.cmd, shorter.timeout, shorter.max_iterations,
            shorter.original_timeout) == (["mine"], 3.0, 7, None)


def test_value_class_defaults_apply():
    c = Clause(None, TRUE, ())
    assert c.origin == "source" and c == Clause(None, TRUE, (), "source")
    assert PredDecl("p", ()) == PredDecl("p", (), syntax.PRED_PROGRAM, (), -1, ())
    assert parser.Node("id") == parser.Node("id", "", (), 0, 0)
    for cls, args in ((Clause, (None, TRUE, ())), (PredDecl, ("p", ())),
                      (parser.Node, ("id",))):
        assert repr(cls(*args)) == repr(_twin(cls)(*args))


# ---------------------------------------------------------------------------
# term algebra: variable order and linear sums, against reference copies of
# the separate implementations they replace
# ---------------------------------------------------------------------------

def _ref_order(c):
    """The first-occurrence visitor `display_renaming` once had of its own."""
    order, seen = [], set()

    def visit_term(t):
        if isinstance(t, Var):
            if t not in seen:
                seen.add(t)
                order.append(t)
        elif isinstance(t, syntax.LinExpr):
            for v, _ in t.coeffs:
                visit_term(v)
        elif isinstance(t, Ctor):
            for a in t.args:
                visit_term(a)
        elif isinstance(t, syntax.TermIte):
            visit_formula(t.cond)
            visit_term(t.then)
            visit_term(t.els)

    def visit_formula(f):
        if isinstance(f, FVar):
            visit_term(f.var)
        elif isinstance(f, syntax.FNot):
            visit_formula(f.arg)
        elif isinstance(f, (syntax.FAnd, syntax.FOr)):
            for a in f.args:
                visit_formula(a)
        elif isinstance(f, (syntax.FImp, syntax.FIff)):
            visit_formula(f.lhs)
            visit_formula(f.rhs)
        elif isinstance(f, syntax.FIte):
            visit_formula(f.cond)
            visit_formula(f.then)
            visit_formula(f.els)
        elif isinstance(f, (FComp, syntax.FEq)):
            visit_term(f.lhs)
            visit_term(f.rhs)

    if c.head is not None:
        for a in c.head.args:
            visit_term(a)
    visit_formula(c.constraint)
    for at in c.body:
        for a in at.args:
            visit_term(a)
    return order


def _ref_lin_sum(parts, const=0):
    """The accumulation `Subst.term`, `lin_sub`, the parsers and smtparse
    each once wrote out: as_lin of every part, scaled and added."""
    acc = {}
    for k, t in parts:
        c, k0 = syntax.as_lin(t)
        for v, a in c.items():
            acc[v] = acc.get(v, 0) + k * a
        const += k * k0
    return lin(acc, const)


_IVARS = [ivar(n) for n in ("X", "Y", "Z", "W")]
_BVARS = [Var(n, BOOL) for n in ("P", "Q")]
_LVARS = [lvar(n) for n in ("Xs", "Ys")]


def _rand_int(r, depth):
    k = r.randrange(5 if depth else 3)
    if k == 0:
        return r.choice(_IVARS)
    if k == 1:
        return IntConst(r.randint(-3, 3))
    if k == 2:
        return lin({v: r.choice([-2, -1, 1, 3]) for v in r.sample(_IVARS, 2)},
                   r.randint(-2, 2))
    if k == 3:
        return syntax.TermIte(_rand_formula(r, depth - 1),
                              _rand_int(r, depth - 1), _rand_int(r, depth - 1))
    return lin({r.choice(_IVARS): 1}, r.randint(1, 4))


def _rand_list(r, depth):
    if depth == 0 or r.random() < 0.4:
        return r.choice(_LVARS + [NIL])
    return cons(_rand_int(r, depth - 1), _rand_list(r, depth - 1))


def _rand_formula(r, depth):
    k = r.randrange(9 if depth > 0 else 3)
    if k == 0:
        return FVar(r.choice(_BVARS))
    if k == 1:
        return FComp(r.choice(["=", "<", "=<"]), _rand_int(r, depth), _rand_int(r, depth))
    if k == 2:
        return syntax.FEq(_rand_list(r, depth), _rand_list(r, depth), LI)
    sub = [_rand_formula(r, depth - 1) for _ in range(3)]
    if k == 3:
        return syntax.FNot(sub[0])
    if k == 4:
        return syntax.FAnd(tuple(sub))
    if k == 5:
        return syntax.FOr(tuple(sub[:2]))
    if k == 6:
        return syntax.FImp(sub[0], sub[1])
    if k == 7:
        return syntax.FIff(sub[0], sub[1])
    return syntax.FIte(*sub)


def _rand_atom(r):
    return Atom(r.choice("pq"), (_rand_list(r, 2), _rand_int(r, 2)))


def _rand_clause(r):
    head = None if r.random() < 0.3 else _rand_atom(r)
    return Clause(head, _rand_formula(r, 3),
                  tuple(_rand_atom(r) for _ in range(r.randrange(3))))


# ---------------------------------------------------------------------------
# mgu and resolve against the compose-based unifier they replace
# ---------------------------------------------------------------------------

TI = tree_sort(INT)
LEAF = Ctor(TI, "leaf", ())


# the reference composes a Subst per binding
def _compose(s, other):
    """s then other: x -> other(s(x))."""
    out = {}
    for v, t in s.mapping.items():
        img = other.term(t)
        if img != v:
            out[v] = img
    for v, t in other.mapping.items():
        if v not in s.mapping:
            out[v] = t
    return Subst(out)


def _ref_unify(lhs, rhs, s, residue):
    lhs = s.term(lhs)
    rhs = s.term(rhs)
    if lhs == rhs:
        return s
    if isinstance(lhs, Ctor) and isinstance(rhs, Ctor):
        if lhs.sort != rhs.sort or lhs.ctor != rhs.ctor or len(lhs.args) != len(rhs.args):
            return None
        for a, b in zip(lhs.args, rhs.args):
            s = _ref_unify(a, b, s, residue)
            if s is None:
                return None
        return s
    for v, t in ((lhs, rhs), (rhs, lhs)):
        if isinstance(v, Var) and v not in free_vars(t):
            return _compose(s, Subst({v: t}))
    for v, t in ((lhs, rhs), (rhs, lhs)):
        if isinstance(v, Var) and v.sort.is_adt and syntax._rigid(v, t):
            return None
    residue.append(eq_of(lhs, rhs, term_sort(lhs)))
    return s


def _ref_mgu(a1, a2):
    if a1.pred != a2.pred or len(a1.args) != len(a2.args):
        return None
    s = Subst()
    residue = []
    for x, y in zip(a1.args, a2.args):
        s = _ref_unify(x, y, s, residue)
        if s is None:
            return None
    return s, tuple(s.formula(e) for e in residue)


def _ref_resolve(c, i, k):
    """Resolution in two steps, with k already renamed apart from c."""
    u = _ref_mgu(c.body[i], k.head)
    if u is None:
        return None
    s, residue = u
    head = None if c.head is None else s.atom(c.head)
    body = c.body[:i] + k.body + c.body[i + 1:]
    return Clause(head, mk_and(s.formula(c.constraint),
                               s.formula(k.constraint), *residue),
                  tuple(s.atom(b) for b in body), c.origin)


_TVARS = [Var(n, TI) for n in ("T", "U")]


def _rand_tree(r, depth):
    if depth == 0 or r.random() < 0.4:
        return r.choice(_TVARS + [LEAF])
    return Ctor(TI, "node", (_rand_tree(r, depth - 1), _rand_int(r, depth - 1),
                             _rand_tree(r, depth - 1)))


def _rand_arg(r, sort):
    if sort == INT:
        return _rand_int(r, 2)
    if sort == BOOL:
        return r.choice(_BVARS + [BoolConst(False), BoolConst(True)])
    return _rand_list(r, 2) if sort == LI else _rand_tree(r, 2)


# the variable pools are small, so both atoms share variables: repeated
# variables, occurs checks and chains of bindings come up often
_SIGS = {"s": (LI, INT), "t": (TI, INT, BOOL), "u": (INT, LI, TI, BOOL)}


def _atom_pairs(r):
    yield (Atom("p", (ivar("Y"), ivar("X"))),
           Atom("p", (ivar("Z"), lin({ivar("X"): 1, ivar("Y"): 1, ivar("Z"): -1}))))
    yield Atom("p", (lvar("L"),)), Atom("p", (cons(ivar("X"), lvar("L")),))
    yield Atom("p", (NIL,)), Atom("p", (cons(ivar("X"), lvar("L")),))
    for _ in range(4000):
        pred = r.choice(tuple(_SIGS))
        other = pred if r.random() < 0.95 else "s"
        yield (Atom(pred, tuple(_rand_arg(r, a) for a in _SIGS[pred])),
               Atom(other, tuple(_rand_arg(r, a) for a in _SIGS[other])))


def test_mgu_matches_compose_based_reference():
    """On seeded random atom pairs, mgu gives the compose-based unifier's
    mapping, its keys in the same order, and the same residue."""
    seen = {"none": 0, "bound": 0, "residue": 0}
    for a1, a2 in _atom_pairs(random.Random(17)):
        try:
            want = _ref_mgu(a1, a2)
        except TypeError:  # an int variable bound to an ite inside a sum
            continue
        got = mgu(a1, a2)
        if want is None:
            assert got is None, (a1, a2)
            seen["none"] += 1
            continue
        assert list(got[0].mapping.items()) == list(want[0].mapping.items()), (a1, a2)
        assert got[1] == want[1], (a1, a2)
        seen["bound"] += bool(want[0])
        seen["residue"] += bool(want[1])
    assert min(seen.values()) > 300, seen


def test_mgu_sees_a_bound_variable_cancel():
    # Y is bound to Z first, so X against X+Y-Z is X against X
    x, y, z = ivar("X"), ivar("Y"), ivar("Z")
    s, residue = mgu(Atom("p", (y, x)), Atom("p", (z, lin({x: 1, y: 1, z: -1}))))
    assert s.mapping == {y: z} and residue == ()


def test_resolve_matches_two_step_resolution():
    """resolve(c, i, k, ren) is the resolvent of c with k renamed by ren,
    as the reference makes it from a renamed copy of k."""
    r = random.Random(23)
    resolved = 0
    for _ in range(1500):
        c = _rand_clause(r)
        if not c.body:
            continue
        i = r.randrange(len(c.body))
        k = _rand_clause(r)
        k = Clause(Atom(c.body[i].pred, _rand_atom(r).args), k.constraint, k.body)
        ren = rename_apart(k, free_vars(c), NameGen())
        try:
            want = _ref_resolve(c, i, Subst(ren).clause(k))
        except TypeError:  # an int variable bound to an ite inside a sum
            continue
        assert syntax.resolve(c, i, k, ren) == want, (c, i, k)
        resolved += want is not None
    assert resolved > 500


def test_vars_in_order_matches_reference_visitor():
    r = random.Random(20261018)
    for _ in range(400):
        c = _rand_clause(r)
        order = _ref_order(c)
        assert syntax.vars_in_order(c) == order
        ren = syntax.display_renaming(c)
        assert list(ren.mapping) == order
        assert [v.name for v in ren.mapping.values()] == \
            list(itertools.islice(syntax._display_names(), len(order)))
        # a term, a formula and an atom are visited as in a clause holding them
        t = _rand_int(r, 3)
        assert syntax.vars_in_order(t) == \
            _ref_order(Clause(Atom("p", (t,)), TRUE, ()))
        assert syntax.vars_in_order(c.constraint) == \
            _ref_order(Clause(None, c.constraint, ()))
        assert list(syntax.display_renaming(c.constraint).mapping) == \
            _ref_order(Clause(None, c.constraint, ()))
        assert syntax.vars_in_order(list(c.body)) == _ref_order(Clause(None, TRUE, c.body))
        assert set(order) == free_vars(c)


def test_lin_sum_matches_reference_accumulation():
    r = random.Random(7)
    for _ in range(500):
        parts = [(r.randint(-3, 3), _rand_int(r, 1)) for _ in range(r.randrange(4))]
        const = r.randint(-5, 5)
        try:
            want = _ref_lin_sum(parts, const)
        except TypeError as e:
            with pytest.raises(TypeError) as info:
                syntax.lin_sum(parts, const)
            assert str(info.value) == str(e)
            continue
        got = syntax.lin_sum(parts, const)
        assert got == want
        assert syntax.lin_sum(iter(parts), const) == want  # any iterable
        if len(parts) == 2:
            (_, a), (_, b) = parts
            assert syntax.lin_sub(a, b) == _ref_lin_sum([(1, a), (-1, b)])
    # canonical: a lone variable and a cancelled sum collapse
    X = ivar("X")
    assert syntax.lin_sum([(1, X)]) == X
    assert syntax.lin_sum([(2, X), (-1, lin({X: 2}, 3))], 3) == IntConst(0)
