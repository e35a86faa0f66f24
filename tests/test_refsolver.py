"""The bundled reference oracle and CHC solver."""

import random
import subprocess
import sys
import time

from catafuse.engine import ConstraintEngine
from catafuse.parser import parse_problem
from catafuse.refsolver import horn, qfcore
from catafuse.smtlib import emit_smtlib
from catafuse.syntax import (
    BOOL, INT, Ctor, FAnd, FComp, FEq, FFalse, FIff, FImp, FIte, FNot, FOr,
    FTrue, FVar, IntConst, TermIte, Var, lin, list_sort, mk_and, mk_not, mk_or,
    TRUE, FALSE,
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
# QF core: differential against a bounded brute-force evaluator
# ---------------------------------------------------------------------------

def _eval(f, env):
    if isinstance(f, FVar):
        return env[f.var]
    if isinstance(f, FNot):
        return not _eval(f.arg, env)
    if isinstance(f, FAnd):
        return all(_eval(a, env) for a in f.args)
    if isinstance(f, FOr):
        return any(_eval(a, env) for a in f.args)
    if isinstance(f, FImp):
        return (not _eval(f.lhs, env)) or _eval(f.rhs, env)
    if isinstance(f, FIff):
        return _eval(f.lhs, env) == _eval(f.rhs, env)
    if isinstance(f, FIte):
        return _eval(f.then, env) if _eval(f.cond, env) else _eval(f.els, env)
    if isinstance(f, FComp):
        def term(t):
            if isinstance(t, Var):
                return env[t]
            if isinstance(t, IntConst):
                return t.value
            if isinstance(t, TermIte):
                return term(t.then) if _eval(t.cond, env) else term(t.els)
            return sum(a * env[v] for v, a in t.coeffs) + t.const
        l, r = term(f.lhs), term(f.rhs)
        return {"=": l == r, "<": l < r, "=<": l <= r,
                ">=": l >= r, ">": l > r}[f.rel]
    return {"FTrue": True, "FFalse": False}[type(f).__name__]


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
            _eval(f, {X: x, Y: y, B1: b1, B2: b2})
            for x in range(-4, 5) for y in range(-4, 5)
            for b1 in (False, True) for b2 in (False, True))
        if model_found:
            assert got != qfcore.UNSAT, f
        # bounded search cannot refute a 'sat' verdict


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
        ite = qfcore._find_term_ite(side)
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


def test_shared_encoding_matches_fresh_compile():
    """Queries with a common prefix through one Encoding get the verdict
    and the skeleton that each gets compiled on its own."""
    rng = random.Random(5)
    for adt in (False, True):
        p = mk_and(*(_rand_formula(rng, 2, adt) for _ in range(3)))
        enc = qfcore.Encoding()
        for _ in range(60):
            f = mk_and(p, _rand_formula(rng, 3, adt))
            assert _resolve(enc.root(f), enc.table) == _skeleton(f), f
            assert qfcore.check_sat(f, None, enc) == qfcore.check_sat(f), f


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


def test_horn_cli_entry(tmp_path):
    f = tmp_path / "q.smt2"
    f.write_text("(set-logic HORN)\n(assert false)\n(check-sat)\n")
    out = subprocess.run(
        [sys.executable, "-m", "catafuse.refsolver.horn", str(f)],
        capture_output=True, text=True, timeout=120)
    assert out.stdout.split()[0] == "unsat"
