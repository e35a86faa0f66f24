import itertools
import random
import sys

import pytest

from catafuse.engine import FAILS, HOLDS, UNSAT, Oracle, OracleError, simplify
from catafuse.syntax import (
    BOOL, INT, FAnd, FComp, FIff, FImp, FNot, FOr, FVar, Formula, IntConst,
    TRUE, Var, conjuncts, free_vars, lin, mk_and, mk_not, mk_or,
)

X = Var("X", INT)
Y = Var("Y", INT)
B1 = Var("B1", BOOL)
B2 = Var("B2", BOOL)
B3 = Var("B3", BOOL)


def geq(a, b):
    return FComp(">=", a, b)


def leq(a, b):
    return FComp("=<", a, b)


# ---------------------------------------------------------------------------
# satisfiability / entailment, with a truth-table oracle for the bool fragment
# ---------------------------------------------------------------------------

def test_sat_examples(engine):
    assert engine.is_satisfiable(mk_and(geq(X, IntConst(1)),
                                        leq(X, IntConst(0)))) == UNSAT
    assert engine.is_satisfiable(mk_and(FVar(B1), mk_not(FVar(B1)))) == UNSAT
    assert engine.is_satisfiable(
        mk_and(FImp(FVar(B1), FVar(B2)), FVar(B1), mk_not(FVar(B2)))) == UNSAT


def test_entails_examples(engine):
    assert engine.entails(geq(X, IntConst(1)), geq(X, IntConst(0))) == HOLDS
    assert engine.entails(TRUE, TRUE) == HOLDS
    assert engine.entails(mk_and(FVar(B1), FVar(B2)),
                          FImp(FVar(B1), FVar(B2))) == HOLDS
    assert engine.entails(geq(X, IntConst(0)), geq(X, IntConst(1))) == FAILS


def _bool_eval(f: Formula, env) -> bool:
    if isinstance(f, FVar):
        return env[f.var]
    if isinstance(f, FNot):
        return not _bool_eval(f.arg, env)
    if isinstance(f, FAnd):
        return all(_bool_eval(a, env) for a in f.args)
    if isinstance(f, FOr):
        return any(_bool_eval(a, env) for a in f.args)
    if isinstance(f, FImp):
        return (not _bool_eval(f.lhs, env)) or _bool_eval(f.rhs, env)
    if isinstance(f, FIff):
        return _bool_eval(f.lhs, env) == _bool_eval(f.rhs, env)
    return {"FTrue": True, "FFalse": False}[type(f).__name__]


def _random_bool_formula(rng, depth):
    if depth == 0:
        return FVar(rng.choice([B1, B2, B3]))
    k = rng.random()
    a = _random_bool_formula(rng, depth - 1)
    b = _random_bool_formula(rng, depth - 1)
    if k < 0.3:
        return mk_and(a, b)
    if k < 0.6:
        return mk_or(a, b)
    if k < 0.75:
        return FImp(a, b)
    if k < 0.9:
        return mk_not(a)
    return FIff(a, b)


def test_entails_matches_truth_tables(engine):
    rng = random.Random(11)
    vs = [B1, B2, B3]
    for _ in range(60):
        c = _random_bool_formula(rng, 3)
        d = _random_bool_formula(rng, 3)
        want = all(
            (not _bool_eval(c, dict(zip(vs, bits)))) or
            _bool_eval(d, dict(zip(vs, bits)))
            for bits in itertools.product([False, True], repeat=3))
        got = engine.entails(c, d)
        assert got == (HOLDS if want else FAILS), (c, d)


def test_entails_reflexive_transitive(engine):
    rng = random.Random(5)
    fs = [_random_bool_formula(rng, 2) for _ in range(10)]
    for f in fs:
        assert engine.entails(f, f) == HOLDS
    for a, b, c in itertools.islice(itertools.permutations(fs, 3), 30):
        if engine.entails(a, b) == HOLDS and engine.entails(b, c) == HOLDS:
            assert engine.entails(a, c) == HOLDS


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_exact_elimination(engine):
    c = mk_and(geq(X, IntConst(1)), FComp("=", Y, lin({X: 1}, 1)))
    out = engine.project(c, {Y})
    assert free_vars(out) <= {Y}
    assert engine.entails(c, out) == HOLDS
    assert engine.equivalent(out, geq(Y, IntConst(2)))


def test_project_true_and_identity(engine):
    assert engine.project(TRUE, {X}) == TRUE
    c = mk_and(geq(X, IntConst(1)), leq(Y, X))
    assert engine.project(c, {X, Y}) == engine.simplify(c)


def test_project_postconditions_random(engine):
    rng = random.Random(23)
    vs = [Var(n, INT) for n in "PQRS"]
    for _ in range(40):
        atoms = []
        for _ in range(rng.randint(1, 5)):
            a, b = rng.sample(vs, 2)
            atoms.append(FComp(rng.choice(["=<", "=", ">="]),
                               lin({a: 1, b: -1}, rng.randint(-2, 2)),
                               IntConst(rng.randint(-3, 3))))
        c = mk_and(*atoms)
        keep = set(rng.sample(vs, rng.randint(0, 3)))
        out = engine.project(c, keep)
        assert free_vars(out) <= keep
        assert engine.entails(c, out) == HOLDS


def test_project_boolean_structure_falls_back(engine):
    c = mk_or(geq(X, IntConst(3)), leq(Y, IntConst(0)))
    out = engine.project(c, {Y})
    assert free_vars(out) <= {Y}
    assert engine.entails(c, out) == HOLDS


# ---------------------------------------------------------------------------
# generalization (widening)
# ---------------------------------------------------------------------------

def test_generalize_keeps_entailed_conjuncts(engine):
    d = mk_and(geq(X, IntConst(0)), leq(X, IntConst(5)))
    c = mk_and(geq(X, IntConst(0)), leq(X, IntConst(9)))
    assert engine.generalize(d, c) == geq(X, IntConst(0))


def test_generalize_degenerate(engine):
    c = mk_and(geq(X, IntConst(0)), leq(X, IntConst(9)))
    assert engine.equivalent(engine.generalize(c, c), c)
    assert engine.generalize(TRUE, c) == TRUE


def test_generalize_nondecomposable_widens_to_true(engine):
    d = mk_or(geq(X, IntConst(0)), FVar(B1))
    assert engine.generalize(d, TRUE) == TRUE


def test_generalize_postconditions(engine):
    rng = random.Random(7)
    for _ in range(25):
        d = mk_and(*(FComp("=<", lin({X: 1}, 0), IntConst(rng.randint(0, 9)))
                     for _ in range(rng.randint(1, 4))),
                   geq(X, IntConst(-rng.randint(0, 4))))
        c = mk_and(geq(X, IntConst(0)), leq(X, IntConst(rng.randint(0, 9))))
        a = engine.generalize(d, c)
        assert engine.entails(d, a) == HOLDS
        assert engine.entails(c, a) == HOLDS


def test_widening_chain_stabilizes(engine):
    # the subset-chain argument: conjunct sets only shrink
    rng = random.Random(3)
    vs = [Var(n, INT) for n in "UVW"]
    for _ in range(20):
        base = [FComp("=<", lin({v: 1}, 0), IntConst(rng.randint(0, 6)))
                for v in vs for _ in range(2)]
        d = mk_and(*base[: rng.randint(2, 6)])
        start = set(conjuncts(d))
        steps = 0
        while True:
            weaker = mk_and(*(f for f in conjuncts(d) if rng.random() < 0.7))
            nxt = engine.generalize(d, weaker)
            steps += 1
            assert set(conjuncts(nxt)) <= set(conjuncts(d))
            if nxt == d or steps > len(start) + 1:
                break
            d = nxt
        assert steps <= len(start) + 1


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------

def test_simplify_units():
    assert simplify(mk_and(TRUE, FVar(B1))) == FVar(B1)
    assert simplify(FNot(FNot(FVar(B1)))) == FVar(B1)


def test_simplify_equivalent_on_random_formulas(engine):
    rng = random.Random(31)
    for _ in range(100):
        f = _random_bool_formula(rng, 3)
        g = simplify(f)
        assert engine.entails(f, g) == HOLDS
        assert engine.entails(g, f) == HOLDS


# ---------------------------------------------------------------------------
# oracle process failures
# ---------------------------------------------------------------------------


def test_oracle_failure_names_exit_status_and_stderr():
    oracle = Oracle([sys.executable, "-c", "import sys; sys.exit('boom')"])
    try:
        with pytest.raises(OracleError) as info:
            oracle.check(TRUE)
    finally:
        oracle.close()
    assert "exit status 1" in str(info.value)
    assert "boom" in str(info.value)
