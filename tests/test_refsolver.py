"""The bundled reference oracle and CHC solver."""

import itertools
import random
import subprocess
import sys
import time
from math import gcd

import pytest

from catafuse import engine as engine_mod
from catafuse.engine import UNKNOWN, ConstraintEngine, Oracle
from catafuse.parser import parse_problem
from catafuse.refsolver import horn, qfcore
from catafuse.refsolver.smtparse import (
    Incomplete, SmtContext, UnsupportedSmt, commands, parse_sexps,
)
from catafuse.smtlib import emit_smtlib
from catafuse.solver import expected_tag
from catafuse.syntax import (
    BOOL, INT, Atom, BoolConst, Clause, Ctor, FAnd, FComp, FEq, FFalse, FIff,
    FImp, FIte, FNot, FOr, FTrue, FVar, IntConst, Sort, Subst, TermIte, Var,
    as_lin, conjuncts, display_renaming, eq_of, eval_formula, find_term_ite,
    free_vars, lin, lin_sub, lin_sum, list_sort, mk_and, mk_not, mk_or,
    pretty_clause, term_sort, tree_sort, unify, variant_of, TRUE, FALSE,
)
from catafuse.transform import transform_problem, transformed_problem

X = Var("X", INT)
Y = Var("Y", INT)
B1 = Var("B1", BOOL)
B2 = Var("B2", BOOL)
B3 = Var("B3", BOOL)
LI = list_sort(INT)
LB = list_sort(BOOL)
L1 = Var("L1", LI)
L2 = Var("L2", LI)
M1 = Var("M1", LB)


# ---------------------------------------------------------------------------
# QF core: differential against brute-force evaluation (syntax.eval_formula)
# ---------------------------------------------------------------------------

def _rand_formula(rng, depth, adt=False):
    if depth == 0:
        if adt and rng.random() < 0.5:
            return _rand_adt_atom(rng)
        if rng.random() < 0.5:
            c = {v: rng.randint(-2, 2) for v in rng.sample([X, Y], rng.randint(0, 2))}
            return FComp(rng.choice(["=", "<", "=<", ">=", ">"]),
                         lin(c, rng.randint(-3, 3)), IntConst(rng.randint(-2, 2)))
        return FVar(rng.choice([B1, B2]))
    a = _rand_formula(rng, depth - 1, adt)
    b = _rand_formula(rng, depth - 1, adt)
    k = rng.random()
    if k < 0.3:
        return mk_and(a, b)
    if k < 0.55:
        return mk_or(a, b)
    if k < 0.7:
        return FImp(a, b)
    if k < 0.8:
        return FIff(a, b)
    if k < 0.9:
        return mk_not(a)
    return FIte(a, b, _rand_formula(rng, depth - 1, adt))


def _rand_list(rng):
    nil = Ctor(LI, "[]", ())
    k = rng.random()
    if k < 0.3:
        return rng.choice([L1, L2])
    if k < 0.45:
        return nil
    if k < 0.85:
        head = rng.choice([X, Y, IntConst(rng.randint(-1, 1))])
        return Ctor(LI, "cons", (head, rng.choice([L1, L2, nil])))
    return TermIte(FVar(B3), rng.choice([L1, nil]), Ctor(LI, "cons", (X, L2)))


def _rand_adt_atom(rng):
    """Atoms the plain generator lacks: list equalities, term-level ite, and
    boolean variables inside constructor terms."""
    k = rng.random()
    if k < 0.5:
        return FEq(_rand_list(rng), _rand_list(rng), LI)
    if k < 0.75:
        ite = TermIte(FVar(rng.choice([B1, B3])), X, lin({Y: 1}, rng.randint(-1, 1)))
        return FComp(rng.choice(["=", "=<", "<"]), ite, IntConst(rng.randint(-1, 1)))
    nil = Ctor(LB, "[]", ())
    return FEq(Ctor(LB, "cons", (rng.choice([B1, B2]), nil)),
               Ctor(LB, "cons", (rng.choice([B2, B3]), rng.choice([M1, nil]))), LB)


def test_qfcore_never_contradicts_bruteforce():
    rng = random.Random(42)
    for _ in range(300):
        f = _rand_formula(rng, 3)
        got = qfcore.check_sat(f)
        model_found = any(
            eval_formula(f, {X: x, Y: y, B1: b1, B2: b2})
            for x in range(-4, 5) for y in range(-4, 5)
            for b1 in (False, True) for b2 in (False, True))
        if model_found:
            assert got != qfcore.UNSAT, f
        # bounded search cannot refute a 'sat' verdict


def _lists(elems):
    """The list values of length at most 2 over elems."""
    nil = ("[]",)
    return [nil, *(("cons", a, nil) for a in elems),
            *(("cons", a, ("cons", b, nil)) for a in elems for b in elems)]


# a bounded domain for each sort of the ADT generator's variables
_DOMAIN = {INT: range(-2, 3), BOOL: (False, True),
           LI: _lists((-1, 0, 1)), LB: _lists((False, True))}


def test_qfcore_adt_never_contradicts_bruteforce():
    """No formula with list equalities that has a model over the bounded
    domains is found unsat."""
    nil = Ctor(LI, "[]", ())
    one = {X: 1, L1: ("cons", 1, ("[]",))}
    assert eval_formula(FEq(L1, Ctor(LI, "cons", (X, nil)), LI), one)
    assert not eval_formula(
        FEq(L1, Ctor(LI, "cons", (lin({X: 1}, 1), nil)), LI), one)
    rng = random.Random(43)
    refuted = 0
    for _ in range(600):
        f = _rand_formula(rng, 3, adt=True)
        if qfcore.check_sat(f) != qfcore.UNSAT:
            continue  # bounded search cannot refute a 'sat' verdict
        vs = sorted(free_vars(f), key=lambda v: v.name)
        for vals in itertools.product(*(_DOMAIN[v.sort] for v in vs)):
            assert not eval_formula(f, dict(zip(vs, vals))), (f, vals)
        refuted += 1
    assert refuted > 30


def _term_of(value, sort):
    """The constant or constructor term whose value is `value`."""
    if sort == INT:
        return IntConst(value)
    if sort == BOOL:
        return BoolConst(value)
    if value[0] == "[]":
        return Ctor(sort, "[]", ())
    elem = INT if sort == LI else BOOL
    return Ctor(sort, "cons",
                (_term_of(value[1], elem), _term_of(value[2], sort)))


def test_eval_formula_agrees_with_qfcore_on_ground_formulas():
    """With every variable of a random formula replaced by a constant or a
    constructor value, the QF core, where it is definitive, answers sat
    exactly when the evaluator finds the ground formula true; and the
    evaluator finds it true exactly when the formula holds under the values."""
    rng = random.Random(44)
    decided = {True: 0, False: 0}
    for _ in range(600):
        f = _rand_formula(rng, 3, adt=True)
        env = {v: rng.choice(_DOMAIN[v.sort])
               for v in sorted(free_vars(f), key=lambda v: v.name)}
        ground = Subst({v: _term_of(x, v.sort)
                        for v, x in env.items()}).formula(f)
        assert not free_vars(ground), ground
        holds = eval_formula(ground, {})
        assert holds == eval_formula(f, env), (f, env)
        got = qfcore.check_sat(ground)
        if got != qfcore.UNKNOWN:
            assert got == (qfcore.SAT if holds else qfcore.UNSAT), ground
            decided[holds] += 1
    assert min(decided.values()) > 150, decided


# The rewriting DPLL that the assignment-based search replaced: after every
# decision it rebuilds the formula with the decided atom set to a constant.

def _ref_first_atom(f):
    if isinstance(f, (FComp, FEq, FVar)):
        return f
    if isinstance(f, FNot):
        return _ref_first_atom(f.arg)
    if isinstance(f, (FAnd, FOr)):
        for a in f.args:
            got = _ref_first_atom(a)
            if got is not None:
                return got
    return None


def _ref_assign(f, atom, val):
    if f == atom:
        return TRUE if val else FALSE
    if isinstance(f, FNot):
        return mk_not(_ref_assign(f.arg, atom, val))
    if isinstance(f, FAnd):
        return mk_and(*(_ref_assign(a, atom, val) for a in f.args))
    if isinstance(f, FOr):
        return mk_or(*(_ref_assign(a, atom, val) for a in f.args))
    return f


def _ref_unit(f):
    for a in f.args if isinstance(f, FAnd) else (f,):
        if isinstance(a, (FComp, FEq, FVar)):
            return a, True
        if isinstance(a, FNot) and isinstance(a.arg, (FComp, FEq, FVar)):
            return a.arg, False
    return None


def _ref_dpll(f, lits, budget):
    if not budget.spend():
        return qfcore.UNKNOWN
    if isinstance(f, FFalse):
        return qfcore.UNSAT
    if isinstance(f, FTrue):
        return qfcore._theory_check(lits, budget)
    unit = _ref_unit(f)
    atom = unit[0] if unit else _ref_first_atom(f)
    out = qfcore.UNSAT
    for val in (unit[1],) if unit else (True, False):
        lits[atom] = val
        r = _ref_dpll(_ref_assign(f, atom, val), lits, budget)
        del lits[atom]
        if r == qfcore.SAT:
            return r
        if r == qfcore.UNKNOWN:
            out = r
    return out


# The two rewriting passes that qfcore's one-pass compile replaced: ite
# elimination, then atom canonization, each rebuilding the whole formula
# through mk_and / mk_or / mk_not; then the compiler of canonized formulas.

def _ref_elim_ite(f):
    if isinstance(f, (FTrue, FFalse, FVar)):
        return f
    if isinstance(f, FNot):
        return mk_not(_ref_elim_ite(f.arg))
    if isinstance(f, FAnd):
        return mk_and(*(_ref_elim_ite(a) for a in f.args))
    if isinstance(f, FOr):
        return mk_or(*(_ref_elim_ite(a) for a in f.args))
    if isinstance(f, FImp):
        return mk_or(mk_not(_ref_elim_ite(f.lhs)), _ref_elim_ite(f.rhs))
    if isinstance(f, FIff):
        a, b = _ref_elim_ite(f.lhs), _ref_elim_ite(f.rhs)
        return mk_or(mk_and(a, b), mk_and(mk_not(a), mk_not(b)))
    if isinstance(f, FIte):
        c = _ref_elim_ite(f.cond)
        return mk_or(mk_and(c, _ref_elim_ite(f.then)),
                     mk_and(mk_not(c), _ref_elim_ite(f.els)))
    for side in (f.lhs, f.rhs):  # FComp / FEq
        ite = find_term_ite(side)
        if ite is not None:
            then_f = qfcore._atom_replace(f, ite, ite.then)
            else_f = qfcore._atom_replace(f, ite, ite.els)
            c = _ref_elim_ite(ite.cond)
            return mk_or(mk_and(c, _ref_elim_ite(then_f)),
                         mk_and(mk_not(c), _ref_elim_ite(else_f)))
    return f


def _ref_canonize(f):
    if isinstance(f, FComp):
        g = qfcore.canon_atom(f)
        if isinstance(g.lhs, IntConst):
            return TRUE if qfcore._const_holds(g) else FALSE
        return g
    if isinstance(f, FEq):
        return TRUE if f.lhs == f.rhs else f
    if isinstance(f, FNot):
        return mk_not(_ref_canonize(f.arg))
    if isinstance(f, FAnd):
        return mk_and(*(_ref_canonize(a) for a in f.args))
    if isinstance(f, FOr):
        return mk_or(*(_ref_canonize(a) for a in f.args))
    return f


def _ref_compile(f, atoms):
    if isinstance(f, FTrue):
        return (qfcore._AND, ())
    if isinstance(f, FFalse):
        return (qfcore._OR, ())
    if isinstance(f, FNot):
        return (qfcore._NOT, _ref_compile(f.arg, atoms))
    if isinstance(f, FAnd):
        return (qfcore._AND, tuple(_ref_compile(a, atoms) for a in f.args))
    if isinstance(f, FOr):
        return (qfcore._OR, tuple(_ref_compile(a, atoms) for a in f.args))
    return atoms.setdefault(f, len(atoms))


def _resolve(node, table):
    """A skeleton with every atom index replaced by its atom."""
    if type(node) is int:
        return table[node]
    op, arg = node
    if op == qfcore._NOT:
        return op, _resolve(arg, table)
    return op, tuple(_resolve(c, table) for c in arg)


def _ref_skeleton(f):
    atoms = {}
    return _resolve(_ref_compile(_ref_canonize(_ref_elim_ite(f)), atoms),
                    list(atoms))


def _skeleton(f):
    atoms = {}
    root = qfcore._compile(f, atoms)
    return _resolve(root, list(atoms))


def _ref_check_sat(f):
    return _ref_dpll(_ref_canonize(_ref_elim_ite(f)), {}, qfcore.Budget())


def test_qfcore_search_matches_rewriting_dpll():
    rng = random.Random(7)
    seen = set()
    for i in range(400):
        f = _rand_formula(rng, 3, adt=i % 4 != 0)
        got = qfcore.check_sat(f)
        assert got == _ref_check_sat(f), f
        seen.add(got)
    assert {qfcore.SAT, qfcore.UNSAT} <= seen


def test_one_pass_compile_matches_rewriting_pipeline():
    """The one-pass compile builds, atom for atom, the skeleton of the
    formula that ite elimination and canonization used to rebuild."""
    rng = random.Random(11)
    for i in range(2400):
        f = _rand_formula(rng, 3 + i % 2, adt=i % 2 == 0)
        assert _skeleton(f) == _ref_skeleton(f), f
    # flattening and dedup are visible, not merely equivalent
    a = FComp("<", X, IntConst(0))
    b = FComp("=<", lin({X: 1}, 1), IntConst(0))  # the same atom as a
    c = FVar(B1)
    nested = FAnd((FAnd((a, c)), b, FOr((FOr((c, a)), FFalse()))))
    assert _skeleton(nested) == _ref_skeleton(nested)
    k = qfcore._compile(nested, {})
    assert k == (qfcore._AND, (0, 1, (qfcore._OR, (1, 0))))


def _resolve_graph(n):
    """The skeleton, with atoms resolved, that a node graph stands for; an
    and-node over and-nodes flattens as _and would have flattened it."""
    if n.op is None:
        return n.atom
    if n.op is qfcore._NOT:
        return qfcore._not(_resolve_graph(n.kids[0]))
    mk = qfcore._and if n.op is qfcore._AND else qfcore._or
    return mk([_resolve_graph(k) for k in n.kids])


def test_shared_encoding_matches_fresh_compile():
    """Queries with a common prefix through one Encoding get the verdict
    and the skeleton that each gets compiled on its own."""
    rng = random.Random(5)
    for adt in (False, True):
        p = mk_and(*(_rand_formula(rng, 2, adt) for _ in range(3)))
        enc = qfcore.Encoding()
        for _ in range(60):
            f = mk_and(p, _rand_formula(rng, 3, adt))
            assert _resolve_graph(enc.root(f)) == _skeleton(f), f
            assert qfcore.check_sat(f, None, enc) == qfcore.check_sat(f), f


# The search that kept no node values: at every search node it evaluated
# the tuple skeleton three-valued from the root, against a list holding the
# value of every atom.

def _ref_value(n, assign):
    if type(n) is int:
        return assign[n]
    op, arg = n
    if op is qfcore._NOT:
        v = _ref_value(arg, assign)
        return None if v is None else not v
    stop = op is qfcore._OR  # the child value that decides the connective
    out = not stop
    for c in arg:
        v = assign[c] if type(c) is int else _ref_value(c, assign)
        if v is stop:
            return stop
        if v is None:
            out = None
    return out


def _ref_residue(n, assign):
    neg = False
    while type(n) is not int:
        op, arg = n
        if op is qfcore._NOT:
            neg = not neg
            n = arg
            continue
        only = None
        for c in arg:
            if _ref_value(c, assign) is None:
                if only is not None:
                    return neg, n
                only = c
        n = only
    return neg, n


def _ref_unit_literal(n, assign):
    neg, core = _ref_residue(n, assign)
    if type(core) is int:
        return core, not neg
    if neg or core[0] is not qfcore._AND:
        return None
    for c in core[1]:
        if _ref_value(c, assign) is None:
            unit = _ref_unit_literal(c, assign)
            if unit is not None:
                return unit
    return None


def _ref_first_open(n, assign):
    while type(n) is not int:
        op, arg = n
        if op is qfcore._NOT:
            n = arg
        else:
            n = next(c for c in arg if _ref_value(c, assign) is None)
    return n


def _ref_search(root, atoms, assign, lits, budget):
    if not budget.spend():
        return qfcore.UNKNOWN
    v = _ref_value(root, assign)
    if v is False:
        return qfcore.UNSAT
    if v is True:
        return qfcore._theory_check(lits, budget)
    unit = _ref_unit_literal(root, assign)
    if unit is not None:
        i, val = unit
        branches = (val,)
    else:
        i, branches = _ref_first_open(root, assign), (True, False)
    out = qfcore.UNSAT
    for val in branches:
        assign[i] = val
        lits[atoms[i]] = val
        r = _ref_search(root, atoms, assign, lits, budget)
        del lits[atoms[i]]
        assign[i] = None
        if r == qfcore.SAT:
            return qfcore.SAT
        if r == qfcore.UNKNOWN:
            out = qfcore.UNKNOWN
    return out


def _ref_verdict_and_steps(f):
    atoms = {}
    root = qfcore._compile(f, atoms)
    budget = qfcore.Budget()
    r = _ref_search(root, list(atoms), [None] * len(atoms), {}, budget)
    return r, budget.steps


def test_kept_values_search_matches_reevaluating_search():
    """Same verdict and same Budget steps, so the same decisions, as the
    search that re-evaluated the skeleton at every node; also through a
    shared Encoding, whose root is an and-node over the conjuncts' tops."""
    rng = random.Random(13)
    seen = set()
    for i in range(400):
        f = _rand_formula(rng, 3 + i % 2, adt=i % 2 == 0)
        budget = qfcore.Budget()
        got = qfcore.check_sat(f, budget)
        assert (got, budget.steps) == _ref_verdict_and_steps(f), f
        seen.add(got)
    assert {qfcore.SAT, qfcore.UNSAT} <= seen
    for adt in (False, True):
        p = mk_and(*(_rand_formula(rng, 2, adt) for _ in range(3)))
        enc = qfcore.Encoding()
        for _ in range(100):
            f = mk_and(p, _rand_formula(rng, 3, adt))
            budget = qfcore.Budget()
            got = qfcore.check_sat(f, budget, enc)
            assert (got, budget.steps) == _ref_verdict_and_steps(f), f


def _graph_nodes(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            nodes.append(n)
            stack.extend(n.kids)
    return nodes


def _as_skeleton(n, enc):
    if n.op is None:
        return enc.atoms[n.atom]
    if n.op is qfcore._NOT:
        return n.op, _as_skeleton(n.kids[0], enc)
    return n.op, tuple(_as_skeleton(k, enc) for k in n.kids)


def test_node_values_follow_assignments():
    """Along random assign/unassign sequences every node keeps the value
    that evaluating its skeleton from scratch gives, with matching counts,
    and unassigning everything restores every node's first value."""
    rng = random.Random(17)
    for i in range(400):
        f = _rand_formula(rng, 3 + i % 2, adt=i % 2 == 0)
        enc = qfcore.Encoding()
        nodes = _graph_nodes(enc.root(f))
        leaves = [n for n in nodes if n.op is None]
        skeletons = [(n, _as_skeleton(n, enc)) for n in nodes]

        def check():
            assign = [leaf.val for leaf in enc.leaves]
            for n, sk in skeletons:
                assert n.val is _ref_value(sk, assign), f
                if n.op in (qfcore._AND, qfcore._OR):
                    vals = [k.val for k in n.kids]
                    assert n.open == vals.count(None), f
                    assert n.hits == vals.count(n.op is qfcore._OR), f
        check()
        first = [n.val for n in nodes]
        for _ in range(3 * len(leaves)):
            leaf = rng.choice(leaves)
            qfcore._set(leaf, rng.choice((True, False)) if leaf.val is None else None)
            check()
        for leaf in leaves:
            qfcore._set(leaf, None)
        assert [n.val for n in nodes] == first, f


def test_budget_reads_the_clock_on_every_spend():
    assert qfcore.Budget(deadline=time.monotonic() - 1).spend() is False
    assert qfcore.Budget(deadline=time.monotonic() + 60).spend() is True


def test_qfcore_integer_exactness():
    two_x = lin({X: 2}, 0)
    f = FComp("=", two_x, IntConst(3))
    assert qfcore.check_sat(f) == qfcore.UNSAT
    f2 = mk_and(FComp("=<", two_x, lin({Y: 2}, 1)),
                FComp("=<", lin({Y: 2}, 0), lin({X: 2}, -1)))
    assert qfcore.check_sat(f2) == qfcore.UNSAT


def test_qfcore_adt_reasoning():
    from catafuse.syntax import Ctor, FEq, list_sort
    li = list_sort(INT)
    nil = Ctor(li, "[]", ())
    l1 = Var("L1", li)
    f = mk_and(FEq(l1, Ctor(li, "cons", (X, nil)), li), FEq(l1, nil, li))
    assert qfcore.check_sat(f) == qfcore.UNSAT
    g = mk_and(FEq(l1, Ctor(li, "cons", (X, l1)), li))
    assert qfcore.check_sat(g) == qfcore.UNSAT  # acyclicity
    h = mk_and(FEq(l1, Ctor(li, "cons", (X, nil)), li),
               FEq(l1, Ctor(li, "cons", (Y, nil)), li),
               FComp("=", lin({X: 1, Y: -1}, 0), IntConst(1)))
    assert qfcore.check_sat(h) == qfcore.UNSAT  # injectivity feeds LIA


def test_qfcore_adt_disequality_over_several_positions():
    """~(a = b) between constructor terms whose basic positions are all
    forced equal is unsat, however many positions differ."""
    z, w = Var("Z", INT), Var("W", INT)
    nil = Ctor(LI, "[]", ())

    def pair(a, b):  # [a, b]
        return Ctor(LI, "cons", (a, Ctor(LI, "cons", (b, nil))))

    lists = mk_and(FEq(L1, pair(X, z), LI), FEq(L2, pair(Y, w), LI),
                   FComp("=", X, Y), FComp("=", z, w), mk_not(FEq(L1, L2, LI)))
    assert qfcore.check_sat(lists) == qfcore.UNSAT

    ti = tree_sort(INT)
    t1, t2 = Var("T1", ti), Var("T2", ti)
    leaf = Ctor(ti, "leaf", ())

    def node(v, right):
        return Ctor(ti, "node", (leaf, v, right))

    trees = mk_and(FEq(t1, node(X, node(z, leaf)), ti),
                   FEq(t2, node(Y, node(w, leaf)), ti),
                   FComp("=", X, Y), FComp("=", z, w), mk_not(FEq(t1, t2, ti)))
    assert qfcore.check_sat(trees) == qfcore.UNSAT

    m2 = Var("M2", LB)
    bnil = Ctor(LB, "[]", ())
    bools = mk_and(FEq(M1, Ctor(LB, "cons", (B1, bnil)), LB),
                   FEq(m2, Ctor(LB, "cons", (B2, bnil)), LB),
                   FIff(FVar(B1), FVar(B2)), mk_not(FEq(M1, m2, LB)))
    assert qfcore.check_sat(bools) == qfcore.UNSAT
    # a boolean no atom assigns takes whichever value the check needs
    b3, t, f = (Ctor(LB, "cons", (v, bnil))
                for v in (B3, BoolConst(True), BoolConst(False)))
    assert qfcore.check_sat(mk_and(mk_not(FEq(b3, t, LB)),
                                   mk_not(FEq(b3, f, LB)))) == qfcore.UNSAT
    assert qfcore.check_sat(mk_and(FEq(M1, b3, LB),
                                   FEq(M1, t, LB))) == qfcore.SAT
    # one differing position suffices for sat
    assert qfcore.check_sat(mk_and(
        FEq(L1, pair(X, z), LI), FEq(L2, pair(Y, w), LI),
        FComp("=", X, Y), mk_not(FEq(L1, L2, LI)))) == qfcore.SAT
    assert qfcore.check_sat(mk_and(
        FEq(M1, Ctor(LB, "cons", (B1, bnil)), LB),
        FEq(m2, Ctor(LB, "cons", (B2, bnil)), LB),
        FVar(B1), mk_not(FVar(B2)), mk_not(FEq(M1, m2, LB)))) == qfcore.SAT


# The theory check before constructor equalities moved onto syntax.unify:
# a congruence closure of its own, with clash, occurs check and canonical
# form; its decomposition's integer and boolean pairs went to the other
# theories.

class _RefCC:
    def __init__(self):
        self.parent = {}
        self.int_eqs = []
        self.bool_eqs = []

    def find(self, t):
        while self.parent.get(t, t) != t:
            self.parent[t] = self.parent.get(self.parent[t], self.parent[t])
            t = self.parent[t]
        return t

    def union(self, a, b):
        """False on conflict (clash or cycle)."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return True
        if isinstance(a, Ctor) and isinstance(b, Ctor):
            if a.sort != b.sort or a.ctor != b.ctor:
                return False
            for x, y in zip(a.args, b.args):
                s = term_sort(x)
                if s.is_adt:
                    if not self.union(x, y):
                        return False
                elif s == BOOL:
                    self.bool_eqs.append((x, y))
                else:
                    self.int_eqs.append((x, y))
            return True
        # orient: variables point at terms
        if isinstance(b, Var):
            a, b = b, a
        if isinstance(a, Var):
            if self._occurs(a, b):
                return False
            self.parent[a] = b
            return True
        return False

    def _occurs(self, v, t):
        t = self.find(t)
        if t == v:
            return True
        if isinstance(t, Ctor):
            return any(term_sort(a).is_adt and self._occurs(v, a) for a in t.args)
        return False

    def canon(self, t):
        t = self.find(t)
        if isinstance(t, Ctor):
            return Ctor(t.sort, t.ctor,
                        tuple(self.canon(a) if term_sort(a).is_adt else a
                              for a in t.args))
        return t


def _ref_theory_check(lits, budget):
    cc = _RefCC()
    diseqs = []
    lia_le = []
    lia_eq = []
    for atom, val in lits.items():
        if isinstance(atom, FVar):
            continue
        if isinstance(atom, FEq):
            if val:
                if not cc.union(atom.lhs, atom.rhs):
                    return qfcore.UNSAT
            else:
                diseqs.append((atom.lhs, atom.rhs))
        elif isinstance(atom, FComp):
            coeffs, k = as_lin(atom.lhs)
            if atom.rel == "=<":
                if val:
                    lia_le.append((coeffs, k))
                else:
                    lia_le.append(({v: -a for v, a in coeffs.items()}, 1 - k))
            else:
                if val:
                    lia_eq.append((coeffs, k))
                else:
                    diseqs.append((atom.lhs, atom.rhs))
    for x, y in cc.int_eqs:
        lia_eq.append(as_lin(lin_sub(x, y)))
    for x, y in cc.bool_eqs:
        r = qfcore._bool_eq_status(x, y, lits)
        if r is False:
            return qfcore.UNSAT
        if r is None:
            return qfcore._split_bool(lits, x, y, budget)
    int_diseqs = []
    for a, b in diseqs:
        if not (isinstance(a, (Var, Ctor)) and term_sort(a).is_adt):
            int_diseqs.append([as_lin(lin_sub(a, b))])
            continue
        ca, cb = cc.canon(a), cc.canon(b)
        if ca == cb:
            return qfcore.UNSAT
        diffs = qfcore._basic_diffs(ca, cb)
        if diffs is None:
            continue
        alts = []
        for x, y in diffs:
            if term_sort(x) != BOOL:
                alts.append(as_lin(lin_sub(x, y)))
                continue
            r = qfcore._bool_eq_status(x, y, lits)
            if r is None:
                return qfcore._split_bool(lits, x, y, budget)
            if r is False:
                break
        else:
            if not alts:
                return qfcore.UNSAT
            int_diseqs.append(alts)
    return qfcore._lia_with_diseqs(lia_eq, lia_le, int_diseqs, budget)


def _has_adt_atom(f):
    atoms = {}
    qfcore._compile(f, atoms)
    return any(isinstance(a, FEq) for a in atoms)


def test_theory_check_matches_congruence_closure(monkeypatch):
    """On seeded formulas with constructor equalities, deciding them by
    syntax.unify gives the verdicts the congruence closure gave."""
    rng = random.Random(23)
    formulas = []
    while len(formulas) < 3000:
        # conjuncts: several constraints on the same lists, often unsat
        f = mk_and(*(_rand_formula(rng, 1 + (len(formulas) + i) % 2, adt=True)
                     for i in range(3)))
        if _has_adt_atom(f):
            formulas.append(f)
    got = [qfcore.check_sat(f) for f in formulas]
    # _split_bool calls back into the patched check
    monkeypatch.setattr(qfcore, "_theory_check", _ref_theory_check)
    want = [qfcore.check_sat(f) for f in formulas]
    for f, g, w in zip(formulas, got, want):
        assert g == w, f
    assert min(got.count(qfcore.SAT), got.count(qfcore.UNSAT)) > 600


# The integer feasibility check before it moved onto lia.eliminate.

def _ref_tighten(c, k):
    c = {v: a for v, a in c.items() if a != 0}
    g = gcd(*[abs(a) for a in c.values()]) if c else 1
    if g > 1:
        c = {v: a // g for v, a in c.items()}
        k = -((-k) // g)
    return c, k


def _ref_dedup(les):
    seen = set()
    out = []
    for c, k in les:
        key = (tuple(sorted(((v.name, a) for v, a in c.items()))), k)
        if key not in seen:
            seen.add(key)
            out.append((c, k))
    return out


def _ref_substitute(rows, var, sub_c, sub_k):
    for i, (c, k) in enumerate(rows):
        a = c.get(var)
        if a is None:
            continue
        nc = {v: x for v, x in c.items() if v != var}
        for v, x in sub_c.items():
            nc[v] = nc.get(v, 0) + a * x
            if nc[v] == 0:
                del nc[v]
        rows[i] = (nc, k + a * sub_k)


def _ref_lia_feasible(eqs, les, budget):
    eqs = [({v: a for v, a in c.items() if a != 0}, k) for c, k in eqs]
    les = [_ref_tighten(c, k) for c, k in les]
    while eqs:
        c, k = eqs.pop()
        c = {v: a for v, a in c.items() if a != 0}
        if not c:
            if k != 0:
                return qfcore.UNSAT
            continue
        g = gcd(*[abs(a) for a in c.values()])
        if g > 1:
            if k % g != 0:
                return qfcore.UNSAT
            c = {v: a // g for v, a in c.items()}
            k //= g
        unit = next((v for v, a in sorted(c.items(), key=lambda p: p[0].name)
                     if abs(a) == 1), None)
        if unit is not None:
            a = c[unit]
            sub_c = {v: -x * a for v, x in c.items() if v != unit}
            sub_k = -k * a
            _ref_substitute(eqs, unit, sub_c, sub_k)
            _ref_substitute(les, unit, sub_c, sub_k)
        else:
            les.append((dict(c), k))
            les.append(({v: -a for v, a in c.items()}, -k))
    exact = True
    while True:
        les = _ref_dedup([_ref_tighten(c, k) for c, k in les])
        for c, k in les:
            if not c and k > 0:
                return qfcore.UNSAT
        les = [(c, k) for c, k in les if c]
        vs = sorted({v for c, _ in les for v in c}, key=lambda v: v.name)
        if not vs:
            return qfcore.SAT if exact else qfcore.UNKNOWN
        if not budget.spend(len(les)):
            return qfcore.UNKNOWN

        def cost(v):
            lo = sum(1 for c, _ in les if c.get(v, 0) < 0)
            hi = sum(1 for c, _ in les if c.get(v, 0) > 0)
            return lo * hi

        x = min(vs, key=lambda v: (cost(v), v.name))
        lows = [(c, k) for c, k in les if c.get(x, 0) < 0]
        highs = [(c, k) for c, k in les if c.get(x, 0) > 0]
        new = [(c, k) for c, k in les if c.get(x, 0) == 0]
        for cl, kl in lows:
            al = -cl[x]
            for ch, kh in highs:
                ah = ch[x]
                if min(al, ah) != 1:
                    exact = False
                comb = {}
                for v, a in cl.items():
                    if v != x:
                        comb[v] = comb.get(v, 0) + ah * a
                for v, a in ch.items():
                    if v != x:
                        comb[v] = comb.get(v, 0) + al * a
                new.append(_ref_tighten(comb, ah * kl + al * kh))
                if len(new) > 4000:
                    return qfcore.UNKNOWN
        les = new


def _rand_rows(rng, vs, n):
    return [({v: rng.choice((-3, -2, -1, 1, 2, 3))
              for v in rng.sample(vs, rng.randint(0, 3))}, rng.randint(-5, 5))
            for _ in range(n)]


def test_lia_feasible_matches_reference():
    rng = random.Random(17)
    vs = [Var(n, INT) for n in "PQRSTU"]
    seen = set()
    for _ in range(1500):
        eqs = _rand_rows(rng, vs, rng.randint(0, 3))
        les = _rand_rows(rng, vs, rng.randint(0, 7))
        steps = rng.choice((5, 40, 400_000))
        want_budget, got_budget = qfcore.Budget(steps), qfcore.Budget(steps)
        want = _ref_lia_feasible([(dict(c), k) for c, k in eqs],
                                 [(dict(c), k) for c, k in les], want_budget)
        got = qfcore._lia_feasible(eqs, les, got_budget)
        assert (got, got_budget.steps) == (want, want_budget.steps), (eqs, les)
        seen.add(got)
    assert seen == {qfcore.SAT, qfcore.UNSAT, qfcore.UNKNOWN}


# ---------------------------------------------------------------------------
# Oracle subprocess: SMT-LIB over stdin/stdout with push/pop
# ---------------------------------------------------------------------------

def test_oracle_protocol_roundtrip():
    proc = subprocess.Popen(
        [sys.executable, "-m", "catafuse.refsolver.oracle"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
    script = [
        "(set-logic ALL)",
        "(declare-datatypes ((L 0)) (((nil) (cons (h Int) (t L)))))",
        "(push 1)",
        "(declare-const X Int)",
        "(declare-const B Bool)",
        "(assert (and (>= X 1) (<= X 0)))",
        "(check-sat)",
        "(pop 1)",
        "(push 1)",
        "(declare-const A L)",
        "(declare-const X Int)",
        "(assert (= A (cons X nil)))",
        "(assert (not (= A nil)))",
        "(check-sat)",
        "(pop 1)",
        "(exit)",
    ]
    out, _ = proc.communicate("\n".join(script) + "\n", timeout=60)
    assert out.split() == ["unsat", "sat"]


def test_oracle_survives_errors():
    proc = subprocess.Popen(
        [sys.executable, "-m", "catafuse.refsolver.oracle"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
    out, _ = proc.communicate(
        "(frobnicate)\n(declare-const X Int)\n(assert (> X 0))\n(check-sat)\n(exit)\n",
        timeout=60)
    lines = out.splitlines()
    assert lines[0].startswith("(error")
    assert lines[-1] == "sat"


def test_oracle_answers_after_lines_that_do_not_parse():
    """A stray ')' is an error, not the start of a command that never ends;
    the assertion it may have held leaves every later check-sat in its
    scope unknown."""
    proc = subprocess.run(
        [sys.executable, "-m", "catafuse.refsolver.oracle"],
        input="(declare-const x Int)\n(assert (> x 0)))\n(check-sat)\n"
              "(assert (> x 1))\n(check-sat)\n",
        capture_output=True, text=True, timeout=30)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0
    assert len(lines) == 3 and lines[0].startswith("(error")
    assert lines[1:] == ["unknown", "unknown"]


# A finite datatype: no value of x differs from both red and green, which the
# QF core (taking every datatype variable as able to differ) would miss.
COLOR = "sort color = red | green.\npred p(color).\np(X) :- X = red.\n"
RED_GREEN = [
    "(declare-datatypes ((C 0)) (((red) (green))))",
    "(push 1)",
    "(declare-const x C)",
    "(assert (not (= x red)))",
    "(assert (not (= x green)))",
    "(check-sat)",
    "(pop 1)",
    "(exit)",
]


def test_oracle_child_never_sat_over_finite_datatype():
    proc = subprocess.Popen(
        [sys.executable, "-m", "catafuse.refsolver.oracle"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
    out, _ = proc.communicate("\n".join(RED_GREEN) + "\n", timeout=60)
    assert "sat" not in out.split()
    assert out.splitlines()[-1] == "unknown"


def test_engine_oracle_unknown_over_finite_datatype():
    sorts = parse_problem(COLOR).sorts
    color = sorts.resolve(Sort("color"))
    x = Var("X", color.sort)
    differs = [mk_not(eq_of(x, Ctor(color.sort, c.name, ()), color.sort))
               for c in color.ctors]
    oracle = Oracle([sys.executable, "-m", "catafuse.refsolver.oracle"])
    try:
        oracle.set_datatypes(sorts)
        assert oracle.check(mk_and(*differs)) == UNKNOWN
    finally:
        oracle.close()


def test_horn_unknown_over_finite_datatype():
    # refused outright, also where the answer (here sat) would be right
    text = COLOR + "false :- p(X), X = green.\n"
    assert horn.solve_script(emit_smtlib(parse_problem(text)), 10) == "unknown"


def test_unused_finite_datatype_is_not_declared(corpus_dir):
    # the refusal of a finite sort that no clause uses must not reach the
    # transform's oracle or the emitted script
    text = (corpus_dir / "member_unsat.chc").read_text(encoding="utf-8")
    runs = []
    for src in (text, "sort color = red | green.\n" + text):
        problem = parse_problem(src)
        assert "color" not in emit_smtlib(problem)
        oracle = Oracle([sys.executable, "-m", "catafuse.refsolver.oracle"])
        verdicts = []
        check = oracle.check
        oracle.check = lambda f: verdicts.append(check(f)) or verdicts[-1]
        engine = ConstraintEngine(oracle)
        try:
            tp = transformed_problem(problem, transform_problem(problem, engine))
        finally:
            engine.close()
        assert verdicts and UNKNOWN not in verdicts
        runs.append(([pretty_clause(c) for c in tp.all_clauses()],
                     emit_smtlib(tp)))
    assert runs[0] == runs[1]
    assert horn.solve_script(runs[1][1], 60) == "unsat"


def test_refused_datatypes_start_the_oracle_once(corpus_dir):
    # a used finite sort: its declaration is refused once, and every query
    # over it is unknown without another child start
    text = ("sort color = red | green.\npred paint(color).\npaint(red).\n"
            + (corpus_dir / "member_unsat.chc").read_text(encoding="utf-8"))
    problem = parse_problem(text)
    oracle = Oracle([sys.executable, "-m", "catafuse.refsolver.oracle"])
    starts, verdicts = [], []
    start, check = oracle._start, oracle.check
    oracle._start = lambda: starts.append(1) or start()
    oracle.check = lambda f: verdicts.append(check(f)) or verdicts[-1]
    engine = ConstraintEngine(oracle)
    try:
        transform_problem(problem, engine)
    finally:
        engine.close()
    assert len(starts) == 1
    assert len(verdicts) > 1 and set(verdicts) == {UNKNOWN}


def test_new_datatypes_clear_a_refusal():
    oracle = Oracle([sys.executable, "-m", "catafuse.refsolver.oracle"])
    positive = FComp(">=", X, IntConst(1))
    try:
        oracle.set_datatypes(parse_problem(COLOR).sorts)
        assert oracle.check(positive) == UNKNOWN
        assert oracle.proc is None
        oracle.set_datatypes(parse_problem("pred p(list(int)).\n").sorts)
        assert oracle.check(positive) == "sat"
        assert oracle.check(mk_and(positive, FComp("=<", X, IntConst(0)))) == "unsat"
    finally:
        oracle.close()


@pytest.mark.parametrize("decl", [
    "(declare-datatypes ((B 0)) (((box (v Bool)))))",
    "(declare-datatypes ((E 0) (F 0)) (((e0) (e1 (f F))) ((f0) (f1 (b Bool)))))",
])
def test_smtparse_rejects_finite_datatypes(decl):
    ctx = SmtContext()
    with pytest.raises(UnsupportedSmt):
        ctx.declare_datatypes(*parse_sexps(decl)[0][1:])
    # nothing of the rejected block stays declared
    assert set(ctx.sort_names) == {"Int", "Bool"} and not ctx.ctors


@pytest.mark.parametrize("chc", [
    "pred p(list(int)).\np([]).\n",
    "pred p(tree(bool)).\np(leaf).\n",
    "sort pair = mk(int, int).\npred p(pair).\np(mk(A, B)) :- A =< B.\n",
    "sort w = none | some(list(bool)).\npred p(w).\np(none).\n",
])
def test_smtparse_accepts_infinite_datatypes(chc):
    text = emit_smtlib(parse_problem(chc))
    clauses, ctx = horn.read_script(text)
    assert clauses and ctx.sorts.adt_defs()


# ---------------------------------------------------------------------------
# Horn solver on tiny systems
# ---------------------------------------------------------------------------

def _solve(text, timeout=60):
    return horn.solve_script(text, timeout)


def test_horn_trivial_unsat():
    s = """(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((X Int)) (=> (> X 0) (p X))))
(assert (forall ((X Int)) (=> (p X) false)))
(check-sat)"""
    assert _solve(s) == "unsat"


@pytest.mark.parametrize("bound, verdict", [(5, "sat"), (2, "unsat")])
def test_horn_ite_in_a_predicate_argument(bound, verdict):
    """An argument holding an ite is named by a fresh variable: resolution
    would otherwise substitute the ite into `x + 1`, a linear term."""
    s = f"""(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((b Bool)) (=> true (p (ite b 1 2)))))
(assert (forall ((x Int)) (=> (and (p x) (> (+ x 1) {bound})) false)))
(check-sat)"""
    assert _solve(s) == verdict


def test_smtparse_names_ite_arguments_in_head_and_body():
    ctx = SmtContext()
    ctx.declare_datatypes([["Lst", "0"]], [[["nil"], ["cons", ["hd", "Int"],
                                                     ["tl", "Lst"]]]])
    ctx.declare_fun("q", ["Int", "Lst"], "Bool")
    clause = ctx.to_clause(parse_sexps(
        "(forall ((b Bool) (x Int) (l Lst))"
        " (=> (and (q (ite b x 0) l) (> x 0)) (q x (cons (ite b 1 x) l))))")[0])
    assert all(isinstance(a, Var) for a in clause.body[0].args)
    assert isinstance(clause.head.args[1], Var)
    assert clause.head.args[0] == Var("x", INT)
    assert "ite" in str(clause.constraint)
    with pytest.raises(UnsupportedSmt, match="arity"):
        ctx.to_clause(parse_sexps("(q 1)")[0])


def test_horn_false_from_true_unsat():
    assert _solve("(set-logic HORN)\n(assert false)\n(check-sat)") == "unsat"


def test_horn_trivial_sat_by_saturation():
    s = """(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((X Int)) (=> (> X 0) (p X))))
(assert (forall ((X Int)) (=> (and (p X) (< X 0)) false)))
(check-sat)"""
    assert _solve(s) == "sat"


def test_horn_recursive_sat_by_invariant():
    s = """(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (p 0))
(assert (forall ((X Int)) (=> (and (p X) (<= X 10)) (p (+ X 1)))))
(assert (forall ((X Int)) (=> (and (p X) (< X 0)) false)))
(check-sat)"""
    assert _solve(s) == "sat"


def test_horn_recursive_unsat_found_by_unrolling():
    s = """(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (p 0))
(assert (forall ((X Int)) (=> (p X) (p (+ X 1)))))
(assert (forall ((X Int)) (=> (and (p X) (> X 2)) false)))
(check-sat)"""
    assert _solve(s) == "unsat"


LIST_INT = ("(declare-datatypes ((Lst_Int 0)) (((nil_Lst_Int) (cons_Lst_Int"
            " (cons_Lst_Int_1 Int) (cons_Lst_Int_2 Lst_Int)))))\n")


@pytest.mark.parametrize("script, want", [
    # the query binds the fact's A to 0, and A > 5 must follow it there
    ("""(declare-fun p (Int) Bool)
(assert (forall ((A Int)) (=> (> A 5) (p A))))
(assert (=> (p 0) false))""", "sat"),
    # the repeated X makes the fact's A and B one variable: A = 0, B = 1 clash
    ("""(declare-fun p (Int Int) Bool)
(assert (forall ((A Int) (B Int)) (=> (and (= A 0) (= B 1)) (p A B))))
(assert (forall ((X Int)) (=> (p X X) false)))""", "sat"),
    # X+1 against 1 inside a constructor is the equation X = 0, not a clash
    (LIST_INT + """(declare-fun p (Lst_Int) Bool)
(assert (p (cons_Lst_Int 1 nil_Lst_Int)))
(assert (forall ((X Int)) (=> (p (cons_Lst_Int (+ X 1) nil_Lst_Int)) false)))""",
     "unsat"),
], ids=["bound-to-constant", "repeated-variable", "arithmetic-in-constructor"])
def test_horn_join_keeps_fact_constraints(script, want):
    assert _solve(f"(set-logic HORN)\n{script}\n(check-sat)") == want


def _random_system(rng):
    """A small integer Horn system whose every clause variable is bounded by
    0 <= v <= 2: (clauses as (head, body, constraint), arities). A head or a
    body atom is (pred, args); an argument is a variable name or a constant
    0-2; the constraint is a list of (op, a, b) with op in =, <=, !=, +1."""
    arity = {f"p{i}": rng.randint(1, 2) for i in range(rng.randint(1, 3))}
    preds = list(arity)
    clauses = []
    for k in range(rng.randint(2, 6)):
        vs = [f"V{i}" for i in range(rng.randint(1, 3))]

        def args(p):
            return tuple(rng.choice(vs + [0, 1, 2]) for _ in range(arity[p]))
        head = None
        if k == 0 or rng.random() < 0.6:
            p = rng.choice(preds)
            head = (p, args(p))
        body = [(p, args(p)) for p in rng.choices(preds, k=rng.randint(
            0 if head else 1, 2))]
        extra = [(rng.choice(("=", "<=", "!=", "+1")), rng.choice(vs),
                  rng.choice(vs + [0, 1, 2])) for _ in range(rng.randint(0, 2))]
        clauses.append((head, body, extra))
    if all(h is not None for h, _, _ in clauses):
        p = rng.choice(preds)
        clauses.append((None, [(p, tuple(rng.choice([0, 1, 2, "V0"])
                                         for _ in range(arity[p])))], []))
    return clauses, arity


def _clause_vars(clause):
    head, body, extra = clause
    atoms = body + ([head] if head else [])
    names = {a for _, args in atoms for a in args} | \
        {x for _, a, b in extra for x in (a, b)}
    return sorted(n for n in names if isinstance(n, str))


def _least_model_unsat(clauses, arity):
    """Does a query fire in the least model? Exact over Int, since every
    variable is confined to {0, 1, 2} and so is every constant."""
    model = {p: set() for p in arity}
    ops = {"=": lambda a, b: a == b, "<=": lambda a, b: a <= b,
           "!=": lambda a, b: a != b, "+1": lambda a, b: a == b + 1}

    def firings(clause):
        head, body, extra = clause
        vs = _clause_vars(clause)
        for vals in itertools.product(range(3), repeat=len(vs)):
            env = dict(zip(vs, vals))

            def val(a):
                return env[a] if isinstance(a, str) else a
            if all(ops[op](val(a), val(b)) for op, a, b in extra) and all(
                    tuple(map(val, args)) in model[p] for p, args in body):
                yield None if head is None else (
                    head[0], tuple(map(val, head[1])))

    grew = True
    while grew:
        grew = False
        for clause in clauses:
            for fact in firings(clause):
                if fact is None:
                    return True
                if fact[1] not in model[fact[0]]:
                    model[fact[0]].add(fact[1])
                    grew = True
    return False


def _smt_system(clauses, arity):
    def atom(p, args):
        return f"({p} {' '.join(map(str, args))})"

    rel = {"=": "(= {} {})", "<=": "(<= {} {})", "!=": "(not (= {} {}))",
           "+1": "(= {} (+ {} 1))"}
    lines = ["(set-logic HORN)"]
    lines += [f"(declare-fun {p} ({' '.join(['Int'] * n)}) Bool)"
              for p, n in arity.items()]
    for clause in clauses:
        head, body, extra = clause
        vs = _clause_vars(clause)
        parts = [f"(<= 0 {v})" for v in vs] + [f"(<= {v} 2)" for v in vs]
        parts += [rel[op].format(a, b) for op, a, b in extra]
        parts += [atom(p, args) for p, args in body]
        f = atom(*head) if head else "false"
        if parts:
            f = f"(=> (and {' '.join(parts)}) {f})"
        if vs:
            f = f"(forall ({' '.join(f'({v} Int)' for v in vs)}) {f})"
        lines.append(f"(assert {f})")
    return "\n".join(lines + ["(check-sat)"])


def test_horn_never_contradicts_least_model():
    """On small random integer systems, every definitive verdict agrees with
    the least model computed by brute force."""
    rng = random.Random(11)
    decided = 0
    for _ in range(400):
        clauses, arity = _random_system(rng)
        want = "unsat" if _least_model_unsat(clauses, arity) else "sat"
        got = _solve(_smt_system(clauses, arity), 2)
        if got != "unknown":
            assert got == want, _smt_system(clauses, arity)
            decided += 1
    assert decided > 350


def test_substituting_locals_is_exact():
    """On the clauses of random systems, with a scaled equality and boolean
    conjuncts added to each constraint, substituting away the locals (the
    variables in neither head nor body) that a conjunct defines keeps the
    constraint's meaning over the other variables: the input implies the
    result, and the result implies the input with each eliminated local
    replaced by its definition."""
    rng = random.Random(23)
    ints = {n: Var(n, INT) for n in ("V0", "V1", "V2")}
    bools = [Var(f"B{i}", BOOL) for i in range(3)]
    rel = {"=": lambda a, b: FComp("=", a, b),
           "<=": lambda a, b: FComp("=<", a, b),
           "!=": lambda a, b: mk_not(FComp("=", a, b)),
           "+1": lambda a, b: FComp("=", a, lin_sum(((1, b),), 1))}

    def term(a):
        return ints[a] if isinstance(a, str) else IntConst(a)

    eliminated = {INT: 0, BOOL: 0}
    for _ in range(120):
        clauses, _ = _random_system(rng)
        for clause in clauses:
            head, body, extra = clause
            vs = [ints[n] for n in _clause_vars(clause)]
            if not vs:
                continue
            parts = [FComp("=<", IntConst(0), v) for v in vs]
            parts += [FComp("=<", v, IntConst(2)) for v in vs]
            parts += [rel[op](term(a), term(b)) for op, a, b in extra]
            x, y = rng.choice(vs), rng.choice(vs)
            parts.append(FComp("=", lin({x: rng.choice((2, -2, 3))}),
                               lin_sum(((1, y),), rng.randint(-2, 2))))
            b0, b1 = rng.sample(bools, 2)
            parts.append(rng.choice((FVar(b0), mk_not(FVar(b0)))))
            parts.append(FIff(FVar(b1), FComp("=<", x, IntConst(1))))
            c = mk_and(*parts)
            # some booleans are kept, as the arguments of one more body atom
            atoms = [Atom(pred, tuple(map(term, args))) for pred, args in body]
            atoms.append(Atom("k", tuple(rng.sample(bools, rng.randint(0, 2)))))
            r = Clause(None if head is None else
                       Atom(head[0], tuple(map(term, head[1]))), c, tuple(atoms))
            keep = free_vars(list(r.body) + ([r.head] if r.head else []))
            got, made = horn._project(r)
            assert (got.head, got.body) == (r.head, r.body)
            p = got.constraint
            assert free_vars(p) <= free_vars(c)
            assert qfcore.check_sat(mk_and(c, mk_not(p))) == qfcore.UNSAT
            back = c
            for v, t in made:
                if v not in keep:
                    back = Subst({v: t}).formula(back)
                    eliminated[v.sort] += 1
            assert qfcore.check_sat(mk_and(p, mk_not(back))) == qfcore.UNSAT
    assert min(eliminated.values()) > 50, eliminated


def test_horn_honours_deadline(corpus_dir):
    """The transformed bst_insert_sat is beyond the bundled solver; every
    phase must stop at the limit instead of finishing its round or sweep."""
    pb = parse_problem((corpus_dir / "bst_insert_sat.chc").read_text())
    eng = ConstraintEngine()
    try:
        res = transform_problem(pb, eng)
    finally:
        eng.close()
    script = emit_smtlib(transformed_problem(pb, res))
    t0 = time.monotonic()
    assert horn.solve_script(script, 2) == "unknown"
    assert time.monotonic() - t0 < 3


# The bounded refutation before it skipped joins into full predicates and
# reused partial-join verdicts: every definite clause is joined in every
# round, every final join state is checked again, and a new fact is
# compared with every stored fact of its predicate. It makes its fresh
# names as refute does, so that only the joins it makes decide its facts.

class _RefFacts:
    def __init__(self, cap_per_pred):
        self.by_pred = {}
        self.cap = cap_per_pred
        self.saturated = True

    def add(self, pred, args, c):
        row = self.by_pred.setdefault(pred, [])
        probe = Clause(Atom(pred, args), c, ())
        for a2, c2 in row:
            if variant_of(Clause(Atom(pred, a2), c2, ()), probe):
                return False
        if len(row) >= self.cap:
            self.saturated = False
            return False
        row.append((args, c))
        return True


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


def _ref_join(clause, facts, gen, limit):
    out = []
    state = [(Subst(), clause.constraint)]
    for atom in clause.body:
        rows = facts.by_pred.get(atom.pred, [])
        nxt = []
        for s, c in state:
            for fargs, fc in rows:
                ren = {v: gen.fresh_var(v.sort) for v in
                       sorted(free_vars(list(fargs)) | free_vars(fc),
                              key=lambda w: w.name)}
                r = Subst(ren)
                fargs2 = tuple(r.term(t) for t in fargs)
                fc2 = r.formula(fc)
                s2 = s
                extra = []
                ok = True
                for pa, fa in zip(atom.args, fargs2):
                    pa_s, fa_s = s2.term(pa), s2.term(fa)
                    # a unifier by syntax alone: none where unify leaves a residue
                    u = unify([(pa_s, fa_s)])
                    if u is None or u[1]:
                        st = term_sort(pa_s)
                        if st.is_adt:
                            ok = False
                            break
                        extra.append(eq_of(pa_s, fa_s, st))
                    else:
                        s2 = _compose(s2, u[0])
                if not ok:
                    continue
                cns = mk_and(s2.formula(c), s2.formula(fc2),
                             *(s2.formula(e) for e in extra))
                if qfcore.check_sat(cns, qfcore.Budget(20_000)) == qfcore.UNSAT:
                    continue
                nxt.append((s2, cns))
                if len(nxt) > limit:
                    facts.saturated = False
                    break
            if len(nxt) > limit:
                break
        state = nxt
        if not state:
            return []
    for s, c in state:
        verdict = qfcore.check_sat(c, qfcore.Budget(60_000))
        if verdict == qfcore.UNSAT:
            continue
        if verdict == qfcore.UNKNOWN:
            facts.saturated = False
            continue
        head = None if clause.head is None else tuple(
            s.term(t) for t in clause.head.args)
        out.append((head, c))
    return out


def _ref_refute(clauses, rounds, cap, joins):
    """(verdict, facts, number of joins made)."""
    gen = horn._FreshNames("r")
    facts = _RefFacts(cap)
    queries = [c for c in clauses if c.head is None]
    definite = [c for c in clauses if c.head is not None]
    made = 0
    for _ in range(rounds):
        grew = False
        for c in definite:
            made += 1
            for head, cns in _ref_join(c, facts, gen, joins):
                if facts.add(c.head.pred, head, cns):
                    grew = True
        for q in queries:
            made += 1
            if _ref_join(q, facts, gen, joins):
                return horn.UNSAT, facts.by_pred, made
        if not grew:
            verdict = horn.SAT if facts.saturated else horn.UNKNOWN
            return verdict, facts.by_pred, made
    return horn.UNKNOWN, facts.by_pred, made


def _ground(sort, sorts, rng, depth=2):
    """A random ground term of sort: an int in -2..3, a bool, or a datatype
    value with at most depth recursive constructors on a path (a list of
    length at most 2)."""
    if sort == INT:
        return IntConst(rng.randint(-2, 3))
    if sort == BOOL:
        return BoolConst(rng.random() < 0.5)
    ctors = [c for c in sorts.resolve(sort).ctors
             if depth > 0 or sort not in c.arg_sorts]
    c = rng.choice(ctors)
    return Ctor(sort, c.name, tuple(_ground(s, sorts, rng, depth - (s == sort))
                                    for s in c.arg_sorts))


def _verdict_at(args, constraint, sorts, ground):
    """Does the fact with head args and constraint hold at the ground head?"""
    return qfcore.check_sat(mk_and(constraint, *(
        eq_of(a, g, s) for a, g, s in zip(args, ground, sorts))),
        qfcore.Budget(60_000))


REFUTE_PROBLEMS = ("bst_size_sat", "append_ordered_sat", "snoc_ordered_sat",
                   "reverse_len_sat", "member_unsat", "double_reverse_sat")

# With a cap of 6, p holds 0..5 after five rounds and nothing has been cut;
# only the sixth round's join, deriving p(6) over the cap, tells refute that
# saturation is lost (p(7) makes the system unsat)
COUNT_TO_SEVEN = """(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (p 0))
(assert (forall ((X Int)) (=> (p X) (p (+ X 1)))))
(assert (forall ((X Int)) (=> (and (p X) (>= X 7)) false)))
(check-sat)"""


@pytest.fixture(scope="module")
def tagged_scripts(corpus_dir):
    """The original and transformed SMT-LIB scripts of every corpus problem
    with an expected verdict, and that verdict."""
    out = {}
    for path in sorted(corpus_dir.glob("*.chc")):
        text = path.read_text()
        tag = expected_tag(text)
        if not tag:
            continue
        pb = parse_problem(text)
        eng = ConstraintEngine()
        try:
            res = transform_problem(pb, eng)
        finally:
            eng.close()
        out[path.stem] = (emit_smtlib(pb),
                          emit_smtlib(transformed_problem(pb, res)), tag)
    return out


@pytest.fixture(scope="module")
def corpus_scripts(tagged_scripts):
    """The original and transformed SMT-LIB scripts of corpus problems."""
    return {name: tagged_scripts[name][:2]
            for name in REFUTE_PROBLEMS + ("insertion_sort",)}


def test_refute_matches_reference_refutation(corpus_scripts, monkeypatch):
    """On the original and transformed scripts of corpus problems, refute
    gives the reference's verdict and as many facts of each predicate,
    while joining less. Its facts have their defined locals substituted
    away and the reference's do not, so they are compared by meaning: at
    each position, the fact and the reference fact hold at the same ground
    heads, wherever the QF core decides both."""
    cases = [(script, 3, 6, 40) for name in REFUTE_PROBLEMS
             for script in corpus_scripts[name]]
    cases.append((COUNT_TO_SEVEN, 8, 6, 40))
    joins = [0]
    join = horn._join

    def counted(*args):
        joins[0] += 1
        return join(*args)

    monkeypatch.setattr(horn, "_join", counted)
    rng = random.Random(5)
    ref_joins = 0
    agreed = {qfcore.SAT: 0, qfcore.UNSAT: 0}
    for script, rounds, cap, limit in cases:
        clauses, ctx = horn.read_script(script)
        got, facts = horn.refute(clauses, None, rounds, cap, limit)
        want, ref_facts, made = _ref_refute(clauses, rounds, cap, limit)
        assert got == want
        assert {p: len(rows) for p, rows in facts.items()} == \
            {p: len(rows) for p, rows in ref_facts.items()}
        ref_joins += made
        for pred, rows in facts.items():
            sorts = ctx.preds[pred]
            grounds = [tuple(_ground(s, ctx.sorts, rng) for s in sorts)
                       for _ in range(8)]
            for f, (ref_args, ref_c) in zip(rows, ref_facts[pred]):
                for g in grounds:
                    a = _verdict_at(f.head.args, f.constraint, sorts, g)
                    b = _verdict_at(ref_args, ref_c, sorts, g)
                    if qfcore.UNKNOWN not in (a, b):
                        assert a == b, (pred, pretty_clause(f), g)
                        agreed[a] += 1
    assert joins[0] < ref_joins  # the skip fired
    assert min(agreed.values()) > 20, agreed


# The bounded refutation before its rounds became semi-naive: every clause
# is joined on all its facts in every round, and a query's join makes every
# derivation. Otherwise it is refute's own join loop (fresh names,
# projection, caps and the reuse of sat partial checks); it also tells
# whether its join limit cut a join.

def _ref_naive_join(clause, facts, gen, limit, cuts):
    state = [(clause, qfcore.UNKNOWN)]
    for atom in clause.body:
        nxt = []
        rows = zip(facts.by_pred.get(atom.pred, ()),
                   facts.vars.get(atom.pred, ()))
        for (s, _), (f, fvars) in itertools.product(state, rows):
            r = horn.resolve(s, 0, f,
                             {v: gen.fresh_var(v.sort) for v in fvars})
            if r is not None:
                r = horn._project(r)[0]
            verdict = qfcore.UNSAT if r is None else qfcore.check_sat(
                r.constraint, qfcore.Budget(20_000))
            if verdict != qfcore.UNSAT:
                nxt.append((r, verdict))
            if len(nxt) > limit:
                facts.saturated = False
                cuts.append(clause)
                break
        state = nxt
    out = []
    for r, verdict in state:
        if verdict != qfcore.SAT:
            verdict = qfcore.check_sat(r.constraint, qfcore.Budget(60_000))
        if verdict == qfcore.SAT:
            out.append(r)
        elif verdict == qfcore.UNKNOWN:
            facts.saturated = False
    return out


def _ref_naive_refute(clauses, rounds, cap, joins):
    """(verdict, the _Facts, whether the join limit cut a join)."""
    gen = horn._FreshNames("r")
    facts = horn._Facts(cap)
    queries = [c for c in clauses if c.head is None]
    definite = [c for c in clauses if c.head is not None]
    cuts = []
    for _ in range(rounds):
        grew = False
        for c in definite:
            if not facts.saturated and \
                    len(facts.by_pred.get(c.head.pred, ())) >= cap:
                continue
            for f in _ref_naive_join(c, facts, gen, joins, cuts):
                if facts.add(f):
                    grew = True
        for q in queries:
            if _ref_naive_join(q, facts, gen, joins, cuts):
                return horn.UNSAT, facts, bool(cuts)
        if not grew:
            return (horn.SAT if facts.saturated else horn.UNKNOWN), facts, \
                bool(cuts)
    return horn.UNKNOWN, facts, bool(cuts)


def _fact_texts(by_pred):
    return {p: [pretty_clause(display_renaming(f).clause(f)) for f in rows]
            for p, rows in by_pred.items()}


def test_semi_naive_refute_matches_naive_rounds(corpus_scripts, monkeypatch):
    """refute gives the verdict of joining every clause on all its facts in
    every round, stores the same facts (display-renamed) wherever the join
    limit cut no join, and never calls resolve more often, in all strictly
    less: on the corpus scripts at the first refutation's bounds, on
    COUNT_TO_SEVEN and on seeded random systems. With a limit small enough
    to cut, the verdict is the same too, and saturation is lost."""
    resolved = [0]
    resolve, facts_cls = horn.resolve, horn._Facts

    def counted(*args):
        resolved[0] += 1
        return resolve(*args)

    made = []
    monkeypatch.setattr(horn, "resolve", counted)
    monkeypatch.setattr(horn, "_Facts",
                        lambda cap: made.append(facts_cls(cap)) or made[-1])
    cases = [(script, 4, 40, 250) for name in REFUTE_PROBLEMS
             for script in corpus_scripts[name]]
    cases.append((COUNT_TO_SEVEN, 8, 6, 40))
    rng = random.Random(31)
    cases += [(_smt_system(*_random_system(rng)), 5, 4, 40)
              for _ in range(150)]
    # a limit of 2 cuts a join of bst_size_sat's transformed set
    cut_case = (corpus_scripts["bst_size_sat"][1], 4, 40, 2)
    totals = [0, 0]
    compared = 0
    for script, rounds, cap, limit in cases + [cut_case]:
        clauses, _ = horn.read_script(script)
        resolved[0] = 0
        got, facts = horn.refute(clauses, None, rounds, cap, limit)
        saturated, calls = made[-1].saturated, resolved[0]
        resolved[0] = 0
        want, ref, cut = _ref_naive_refute(clauses, rounds, cap, limit)
        assert got == want, script
        assert calls <= resolved[0], script
        totals[0] += calls
        totals[1] += resolved[0]
        if not cut:
            assert _fact_texts(facts) == _fact_texts(ref.by_pred), script
            compared += 1
    assert cut and not saturated and not ref.saturated
    assert totals[0] < totals[1], totals
    assert compared > 150


def test_projection_leaves_the_solver_path_unchanged(tagged_scripts,
                                                     monkeypatch):
    """On every tagged transformed script the solver gives the expected
    verdict, the same QF-core verdicts in the same order and the same
    pre-pruned Houdini candidates as with join states left unprojected."""
    check_sat, preprune = qfcore.check_sat, horn._preprune

    def run():
        checks, pruned = [], []

        def recorded_check(*args):
            checks.append(check_sat(*args))
            return checks[-1]

        def recorded_preprune(inv, *args):
            preprune(inv, *args)
            pruned.append({p: list(cands) for p, cands in inv.items()})

        monkeypatch.setattr(qfcore, "check_sat", recorded_check)
        monkeypatch.setattr(horn, "_preprune", recorded_preprune)
        verdicts = {name: horn.solve_script(transformed)
                    for name, (_, transformed, _) in tagged_scripts.items()}
        return verdicts, checks, pruned

    verdicts, checks, pruned = run()
    assert verdicts == {name: tag for name, (_, _, tag)
                        in tagged_scripts.items()}
    assert len(verdicts) == 21 and len(pruned) == 10
    monkeypatch.setattr(horn, "_project", lambda r: (r, []))
    assert run() == (verdicts, checks, pruned)


def test_facts_index_keeps_variants_together():
    """A variant whose linear term lists its coefficients in another order
    (they are sorted by variable name) has the same key, so _Facts finds
    and rejects it."""
    a, b, x, y = (Var(n, INT) for n in ("a", "b", "x", "y"))
    first = FComp("=<", lin({a: 1, b: 2}), IntConst(0))
    second = FComp("=<", lin({y: 1, x: 2}), IntConst(0))
    assert [v.name for v, _ in second.lhs.coeffs] == ["x", "y"]
    facts = horn._Facts(5)
    assert facts.add(Clause(Atom("p", (a, b)), first, ()))
    assert not facts.add(Clause(Atom("p", (y, x)), second, ()))
    assert facts.add(Clause(Atom("p", (b, a)), first, ()))
    assert len(facts.by_pred["p"]) == 2


# Houdini's candidate mining before its tables became ordered sets: every
# new candidate is compared with each one kept so far.

def _ref_mine(clauses, preds, pv):
    cands = {p: [] for p in preds}
    facts = {p: [] for p in preds}
    guards = {p: [] for p in preds}

    def add(tbl, pred, f):
        if f != TRUE and f not in tbl[pred]:
            tbl[pred].append(f)

    def posmap(args, pred):
        vs = horn._pos_vars(pred, preds[pred], pv)
        m = {}
        for i, t in enumerate(args):
            if isinstance(t, Var) and t not in m:
                m[t] = vs[i]
        return m

    def mapped(f, m):
        fv = free_vars(f)
        if not fv or not fv <= set(m):
            return None
        return Subst(dict(m)).formula(f)

    def note_fact(pred, g):
        add(facts, pred, g)
        if isinstance(g, FVar) or (isinstance(g, FNot) and isinstance(g.arg, FVar)):
            add(guards, pred, g)
            add(guards, pred, mk_not(g))

    for c in clauses:
        parts = conjuncts(c.constraint)
        if c.head is not None:
            pred = c.head.pred
            vs = horn._pos_vars(pred, preds[pred], pv)
            m = posmap(c.head.args, pred)
            for f in parts:
                g = mapped(f, m)
                if g is not None:
                    note_fact(pred, g)
            firstpos = {}
            for i, t in enumerate(c.head.args):
                if isinstance(t, Var):
                    if t in firstpos and preds[pred][i].is_basic:
                        note_fact(pred, eq_of(vs[firstpos[t]], vs[i],
                                              preds[pred][i]))
                    else:
                        firstpos.setdefault(t, i)
                elif isinstance(t, (IntConst,)):
                    note_fact(pred, FComp("=", vs[i], t))
        if c.head is None:
            negated = mk_not(c.constraint)
            for a in c.body:
                m = posmap(a.args, a.pred)
                g = mapped(negated, m)
                if g is not None:
                    add(cands, a.pred, g)
        else:
            for a in c.body:
                m = posmap(a.args, a.pred)
                for f in parts:
                    g = mapped(f, m)
                    if g is not None:
                        note_fact(a.pred, g)

    for pred, sorts in preds.items():
        vs = horn._pos_vars(pred, sorts, pv)
        for i, s in enumerate(sorts):
            if s == BOOL:
                note_fact(pred, FVar(vs[i]))
                note_fact(pred, mk_not(FVar(vs[i])))
        basics = [i for i, s in enumerate(sorts) if s.is_basic]
        for ai, i in enumerate(basics):
            for j in basics[ai + 1:]:
                if sorts[i] == sorts[j]:
                    add(facts, pred, eq_of(vs[i], vs[j], sorts[i]))

    for pred in preds:
        for f in facts[pred]:
            add(cands, pred, f)
        for g in guards[pred]:
            for f in facts[pred]:
                if f == g or f == mk_not(g) or mk_not(f) == g:
                    continue
                add(cands, pred, FImp(g, f))
    return cands


def test_mine_matches_list_scan_reference(corpus_scripts):
    """Candidate mining keeps the reference's candidates in its order on the
    original and transformed scripts of corpus problems."""
    mined = 0
    for scripts in corpus_scripts.values():
        for script in scripts:
            clauses, ctx = horn.read_script(script)
            got = horn._mine(clauses, ctx.preds, {})
            assert got == _ref_mine(clauses, ctx.preds, {})
            mined += sum(map(len, got.values()))
    assert mined > 1000


# Houdini's pre-prune and sweep before they reused a verdict: the pre-prune
# checks each candidate on each sample fact until one falsifies it, and the
# sweep checks each head candidate of each clause on its own.

def _ref_preprune(inv, samples, pv, preds):
    for pred, cands in inv.items():
        rows = samples.get(pred, [])[:24]
        if not rows:
            continue
        vs = horn._pos_vars(pred, preds[pred], pv)
        substs = [(Subst(dict(zip(vs, f.head.args))), f.constraint)
                  for f in rows]
        enc = qfcore.Encoding()
        inv[pred] = [cand for cand in cands if all(
            qfcore.check_sat(mk_and(cns, mk_not(s.formula(cand))),
                             qfcore.Budget(30_000), enc) != qfcore.SAT
            for s, cns in substs)]


def _ref_sweep(clauses, inv, pv, preds):
    changed = True
    while changed:
        changed = False
        for c in clauses:
            if c.head is None or not inv[c.head.pred]:
                continue
            vs = horn._pos_vars(c.head.pred, preds[c.head.pred], pv)
            s = Subst(dict(zip(vs, c.head.args)))
            inst = horn._body(c, inv, pv, preds)
            enc = qfcore.Encoding()
            keep = [cand for cand in inv[c.head.pred] if horn._check(
                c, inst, s.formula(cand), None, enc) == qfcore.UNSAT]
            changed = changed or len(keep) < len(inv[c.head.pred])
            inv[c.head.pred] = keep
    return inv


@pytest.fixture(scope="module")
def houdini_cases(tagged_scripts, corpus_dir):
    """The 22 original and 21 tagged transformed scripts of the corpus, each
    with its clauses, predicates and sample facts: those of three rounds of
    derivation from its definite clauses (the solver's first refutation
    has four, which on the original bst_insert_sat take most of a minute,
    and stops at a query that fires)."""
    pb = parse_problem((corpus_dir / "bst_insert_sat.chc").read_text())
    scripts = [s for orig, trans, _ in tagged_scripts.values()
               for s in (orig, trans)] + [emit_smtlib(pb)]
    out = []
    for script in scripts:
        clauses, ctx = horn.read_script(script)
        definite = [c for c in clauses if c.head is not None]
        out.append((clauses, ctx.preds,
                    horn.refute(definite, None, 3, 40, 250)[1]))
    return out


@pytest.mark.slow
def test_houdini_matches_per_candidate_reference(houdini_cases,
                                                 monkeypatch):
    """Given the same samples, the pre-prune keeps the candidates that
    checking each one on each sample keeps, and makes only checks (query
    and budget) that this reference makes, fewer in all; the sweep then
    keeps the reference sweep's final invariant."""
    check_sat = qfcore.check_sat
    asked = []

    def recorded(f, budget=None, enc=None):
        asked.append((f, budget.steps))
        return check_sat(f, budget, enc)

    monkeypatch.setattr(qfcore, "check_sat", recorded)
    made = ref_made = kept = 0
    for clauses, preds, samples in houdini_cases:
        pv = {}
        inv = horn._mine(clauses, preds, pv)
        ref = {p: list(cands) for p, cands in inv.items()}
        asked.clear()
        horn._preprune(inv, samples, pv, preds, None)
        ours = set(asked)
        made += len(asked)
        asked.clear()
        _ref_preprune(ref, samples, pv, preds)
        ref_made += len(asked)
        assert ours <= set(asked)
        assert inv == ref
        assert horn._sweep(clauses, inv, pv, preds, None) == \
            _ref_sweep(clauses, ref, pv, preds)
        kept += sum(map(len, inv.values()))
    assert len(houdini_cases) == 43
    assert made < ref_made, (made, ref_made)
    assert kept > 100


def test_horn_cli_entry(tmp_path):
    f = tmp_path / "q.smt2"
    f.write_text("(set-logic HORN)\n(assert false)\n(check-sat)\n")
    out = subprocess.run(
        [sys.executable, "-m", "catafuse.refsolver.horn", str(f)],
        capture_output=True, text=True, timeout=120)
    assert out.stdout.split()[0] == "unsat"


_P_OF_0 = ("(declare-fun p (Int) Bool)\n"
           "(assert (forall ((x Int)) (=> (= x 0) (p x))))\n")
_NOT_P = "(assert (forall ((x Int)) (=> (p x) false)))\n"


@pytest.mark.parametrize("text, verdicts", [
    # each check-sat, for the commands since the last reset
    (_P_OF_0 + _NOT_P + "(check-sat)\n(check-sat)\n(reset)\n" + _P_OF_0
     + "(check-sat)\n(reset)\n(assert false)\n(check-sat)\n(exit)\n"
     "(check-sat)\n", ["unsat", "unsat", "sat", "unsat"]),
    # an unsupported or unparsable command: unknown until the next reset
    ("(get-model)\n" + _P_OF_0 + _NOT_P + "(check-sat)\n(check-sat)\n"
     "(reset)\n(assert false))\n(check-sat)\n(reset)\n(assert false)\n"
     "(check-sat)\n", ["unknown", "unknown", "unknown", "unsat"]),
    # input that never asks is answered once at its end or exit, as a file
    (_P_OF_0 + _NOT_P, ["unsat"]),
    ("(assert false)\n(exit)\n", ["unsat"]),
    # input that ends inside a command, here a string, is refused
    (_P_OF_0 + '(assert (= 1 "a))\n', ["unknown"]),
], ids=["per-reset", "refused-until-reset", "never-asked", "exit-unasked",
        "ends-in-a-string"])
def test_horn_session_answers_each_check_sat(text, verdicts):
    out = subprocess.run(
        [sys.executable, "-m", "catafuse.refsolver.horn", "-t", "30", "-"],
        input=text, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == verdicts


def test_horn_session_answers_before_its_input_ends():
    child = engine_mod._spawn(
        engine_mod.bundled_cmd("catafuse.refsolver.horn") + ["-t", "30", "-"])
    try:
        # a parenthesis in a comment opens nothing
        child.send("; (a comment\n(assert false)\n(check-sat)")
        assert child.read_verdict(time.monotonic() + 30) == "unsat"
        child.send("(reset)\n(check-sat)")
        assert child.read_verdict(time.monotonic() + 30) == "sat"
        child.send("(exit)")
        assert child.proc.wait(timeout=30) == 0
    finally:
        child.discard()


def _horn_session(text: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "catafuse.refsolver.horn", "-t", "30", "-"],
        input=text, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("text, verdicts", [
    ("(push 1)(assert false)(pop 1)(check-sat)\n", ["sat"]),
    # push and pop take a count, and pop never drops the outermost frame
    (_P_OF_0 + "(push 1)\n" + _NOT_P + "(check-sat)\n(pop 1)\n(check-sat)\n"
     "(push 1)\n(assert false)\n(push 2)\n(pop 2)\n(check-sat)\n(pop 5)\n"
     "(check-sat)\n", ["unsat", "sat", "unsat", "sat"]),
], ids=["one-frame", "counts"])
def test_horn_reads_push_and_pop(text, verdicts):
    out = _horn_session(text)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == verdicts


_DECLARE_X = "(declare-const x Int)\n(assert (> x 0))\n(check-sat)\n"
_THEN_RESET = "(reset)\n(assert false)\n(check-sat)\n"


@pytest.mark.parametrize("bad, oracle_verdicts", [
    # a declaration or push that is refused leaves no assertion out
    ("(declare-fun f)", ["sat", "unsat"]),
    ("(declare-const y)", ["sat", "unsat"]),
    ("(declare-datatypes ((L 0)))", ["sat", "unsat"]),
    ("(push x)", ["sat", "unsat"]),
    # an assertion that is refused leaves its frame unknown
    ("(assert)", ["unknown", "unsat"]),
    ("(assert (not))", ["unknown", "unsat"]),
    # a string that never ends takes in the rest of the input
    ('(assert (= 1 "a))', []),
], ids=["declare-fun", "declare-const", "declare-datatypes", "push", "assert",
        "assert-not", "string"])
def test_malformed_commands_are_refused(tmp_path, bad, oracle_verdicts):
    out = subprocess.run(
        [sys.executable, "-m", "catafuse.refsolver.oracle"],
        input=bad + "\n" + _DECLARE_X + _THEN_RESET,
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and "Traceback" not in out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("(error") and "internal" not in lines[0]
    assert lines[1:] == oracle_verdicts

    out = _horn_session(bad + "\n" + _P_OF_0 + "(check-sat)\n" + _THEN_RESET)
    assert out.returncode == 0 and "Traceback" not in out.stderr
    assert out.stdout.split() == (["unknown"] if '"' in bad
                                  else ["unknown", "unsat"])

    path = tmp_path / "bad.smt2"
    path.write_text(bad + "\n" + _P_OF_0 + _NOT_P + "(check-sat)\n")
    out = subprocess.run(
        [sys.executable, "-m", "catafuse.refsolver.horn", "-t", "30",
         str(path)], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and "Traceback" not in out.stderr
    assert out.stdout.split() == ["unknown"]


@pytest.mark.parametrize("lines, want", [
    # a parenthesis in a comment, a string or a |symbol| opens nothing
    (["; (a comment\n", "(assert false)\n"], [(2, ["assert", "false"])]),
    (['(set-info :source "a (")\n', "(check-sat)\n"],
     [(1, ["set-info", ":source", '"a ("']), (2, ["check-sat"])]),
    (["(declare-const |a(| Int)(check-sat)\n"],
     [(1, ["declare-const", "|a(|", "Int"]), (1, ["check-sat"])]),
    # a command spread over three lines is taken once its last line is read
    (["(assert\n", "(> x\n", "0))\n", "(check-sat)\n"],
     [(3, ["assert", [">", "x", "0"]]), (4, ["check-sat"])]),
    # a stray ')' refuses its line, and the next line starts afresh
    (["(assert (> x 0)))\n", "(check-sat)\n"],
     [(1, UnsupportedSmt), (2, ["check-sat"])]),
    # input that ends inside a string is refused at its end
    (['(assert (= 1 "a))\n', "(check-sat)\n"], [(2, Incomplete)]),
], ids=["comment", "string", "symbol", "three-lines", "stray-paren",
        "ends-in-a-string"])
def test_commands_end_where_the_tokenizer_says(lines, want):
    read = []

    def feed():
        for line in lines:
            read.append(line)
            yield line

    got = [(len(read), type(c) if isinstance(c, Exception) else c)
           for c in commands(feed())]
    assert got == want


@pytest.mark.parametrize("text", ['(assert (= 1 "a))', "(declare-const |a Int)",
                                  "(assert (> x 0)"])
def test_parse_sexps_raises_incomplete_on_unfinished_text(text):
    with pytest.raises(Incomplete):
        parse_sexps(text)


@pytest.mark.parametrize("argv", [
    ["-t"], ["-t", "abc", "-"], ["x", "-t"], ["-t", "nan", "-"],
    ["-t", "inf", "-"], ["-t", "-1", "-"], ["-t", "0", "-"]])
def test_horn_cli_rejects_a_bad_limit(argv):
    out = subprocess.run(
        [sys.executable, "-m", "catafuse.refsolver.horn", *argv],
        input="(assert false)\n(check-sat)\n",
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert out.stderr.startswith("usage: horn") and "Traceback" not in out.stderr


@pytest.mark.parametrize("content", [None, b"\xff\xfe(check-sat)\n"])
def test_horn_cli_reports_an_unreadable_file(tmp_path, content):
    path = tmp_path / "in.smt2"
    if content is not None:
        path.write_bytes(content)
    out = subprocess.run(
        [sys.executable, "-m", "catafuse.refsolver.horn", str(path)],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.count("\n") == 1 and "in.smt2" in out.stderr
    assert "Traceback" not in out.stderr


_SMT_ENV = {"x": X, "y": Y, "z": Var("Z", INT), "b": B1}


@pytest.mark.parametrize("expr, want", [
    ("(- x)", lin({X: -1})),
    ("(- x y z)", lin({X: 1, Y: -1, Var("Z", INT): -1})),
    ("(+ x)", X),
    ("(- 3)", IntConst(-3)),
    ("(* 2 x)", lin({X: 2})),
    ("(* x 2)", lin({X: 2})),
    ("(* 0 x)", IntConst(0)),
    ("(+ 1 2 x (* 3 y))", lin({X: 1, Y: 3}, 3)),
])
def test_smtparse_linear_arithmetic(expr, want):
    assert SmtContext().to_term(parse_sexps(expr)[0], _SMT_ENV) == want


@pytest.mark.parametrize("expr, msg", [
    ("(* x y)", "non-linear term"),
    ("(* 1 2 3)", "n-ary *"),
    ("(+ x (ite (< x y) x y))", "ite inside arithmetic"),
    ("(* 2 (ite (< x y) x y))", "ite inside arithmetic"),
    ("(- (ite (< x y) x y))", "ite inside arithmetic"),
])
def test_smtparse_rejects_nonlinear_arithmetic(expr, msg):
    with pytest.raises(UnsupportedSmt) as e:
        SmtContext().to_term(parse_sexps(expr)[0], _SMT_ENV)
    assert str(e.value) == msg


@pytest.mark.parametrize("expr", [
    "(+ x b)", "(- b)", "(- x b)", "(* 2 b)", "(* b 2)", "(+ 1 (* 3 b))",
])
def test_smtparse_rejects_bool_inside_arithmetic(expr):
    with pytest.raises(UnsupportedSmt, match="bool inside arithmetic"):
        SmtContext().to_term(parse_sexps(expr)[0], _SMT_ENV)
