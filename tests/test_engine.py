import itertools
import random
import sys

import pytest

from catafuse import engine as engine_mod
from catafuse.engine import (
    FAILS, HOLDS, UNSAT, Oracle, OracleError, is_atomic_conjunct, simplify,
)
from catafuse.refsolver import qfcore
from catafuse.syntax import (
    BOOL, INT, FAnd, FComp, FIff, FImp, FNot, FOr, FVar, Formula, IntConst,
    TRUE, Var, as_lin, conjuncts, free_vars, lin, lin_sub, mk_and, mk_not,
    mk_or,
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
    assert engine.project(c, {X, Y}) == simplify(c)


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


# The projection before it moved onto lia.eliminate: unit-equality
# substitution and Fourier-Motzkin resolution without tightening or dedup.

def _ref_fm_project(atomic, keep):
    lias = []
    others = []
    for p in atomic:
        if isinstance(p, FComp):
            try:
                d = lin_sub(p.lhs, p.rhs)
                cs, k = as_lin(d)
            except TypeError:
                others.append(p)
                continue
            if p.rel == "=":
                lias.append((dict(cs), k, "="))
            elif p.rel == "=<":
                lias.append((dict(cs), k, "<="))
            elif p.rel == "<":
                lias.append((dict(cs), k + 1, "<="))
            elif p.rel == ">=":
                lias.append(({v: -a for v, a in cs.items()}, -k, "<="))
            else:  # >
                lias.append(({v: -a for v, a in cs.items()}, -k + 1, "<="))
        else:
            others.append(p)
    kept_others = [p for p in others if free_vars(p) <= keep]
    rows = [(dict(cs), k, rel == "=") for cs, k, rel in lias]
    drop = sorted({v for cs, _, _ in rows for v in cs} - keep,
                  key=lambda v: v.name)
    for x in drop:
        eqs = [(cs, k) for cs, k, is_eq in rows if is_eq and cs.get(x, 0) != 0]
        solved = False
        for cs, k in eqs:
            a = cs[x]
            if abs(a) == 1:
                sub_c = {v: -b * a for v, b in cs.items() if v != x}
                sub_k = -k * a
                nxt = []
                for cs2, k2, is_eq2 in rows:
                    if (cs2, k2) == (cs, k) and is_eq2:
                        continue
                    b = cs2.get(x, 0)
                    if b == 0:
                        nxt.append((cs2, k2, is_eq2))
                        continue
                    nc = {v: a2 for v, a2 in cs2.items() if v != x}
                    for v, a2 in sub_c.items():
                        nc[v] = nc.get(v, 0) + b * a2
                        if nc[v] == 0:
                            del nc[v]
                    nxt.append((nc, k2 + b * sub_k, is_eq2))
                rows = nxt
                solved = True
                break
        if solved:
            continue
        ineqs = []
        for cs, k, is_eq in rows:
            if cs.get(x, 0) == 0:
                ineqs.append((cs, k, is_eq))
                continue
            if is_eq:
                ineqs.append((dict(cs), k, False))
                ineqs.append(({v: -a for v, a in cs.items()}, -k, False))
            else:
                ineqs.append((cs, k, False))
        lows = [(cs, k) for cs, k, _ in ineqs if cs.get(x, 0) < 0]
        highs = [(cs, k) for cs, k, _ in ineqs if cs.get(x, 0) > 0]
        rows = [(cs, k, is_eq) for cs, k, is_eq in ineqs if cs.get(x, 0) == 0]
        for cl, kl in lows:
            al = -cl[x]
            for ch, kh in highs:
                ah = ch[x]
                comb = {}
                for v, a in cl.items():
                    if v != x:
                        comb[v] = comb.get(v, 0) + ah * a
                for v, a in ch.items():
                    if v != x:
                        comb[v] = comb.get(v, 0) + al * a
                comb = {v: a for v, a in comb.items() if a != 0}
                rows.append((comb, ah * kl + al * kh, False))
        if len(rows) > 600:
            return mk_and(*kept_others)
    out = list(kept_others)
    for cs, k, is_eq in rows:
        if not cs:
            continue
        out.append(FComp("=" if is_eq else "=<", lin(cs, k), IntConst(0)))
    return simplify(mk_and(*out))


def _implication(a, b):
    """qfcore's verdict on a & ~b: unsat proves a => b, and sat refutes it
    (the QF core never lies); a non-unit elimination can leave it unknown."""
    return qfcore.check_sat(mk_and(a, mk_not(b)))


def test_fm_project_matches_reference_random():
    """On random conjunctions of integer rows with coefficients ±1..3, all
    five relations and boolean conjuncts: the projection mentions only kept
    variables, is implied by its input, and implies the reference's."""
    rng = random.Random(29)
    ints = [Var(n, INT) for n in "PQRST"]
    bools = [B1, B2]
    verdicts = []
    stronger = 0
    for _ in range(1000):
        atoms = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.15:
                b = FVar(rng.choice(bools))
                atoms.append(b if rng.random() < 0.5 else mk_not(b))
                continue
            cs = {v: rng.choice((-3, -2, -1, 1, 2, 3))
                  for v in rng.sample(ints, rng.randint(1, 3))}
            atoms.append(FComp(rng.choice(["=", "<", "=<", ">=", ">"]),
                               lin(cs, rng.randint(-4, 4)),
                               IntConst(rng.randint(-3, 3))))
        c = mk_and(*atoms)
        atomic = [p for p in conjuncts(c) if is_atomic_conjunct(p)]
        keep = set(rng.sample(ints + bools, rng.randint(0, 5)))
        new = engine_mod._fm_project(atomic, keep)
        old = _ref_fm_project(atomic, keep)
        assert free_vars(new) <= keep, (c, keep, new)
        for a, b in ((c, new), (new, old)):
            verdicts.append(_implication(a, b))
            assert verdicts[-1] != qfcore.SAT, (a, b, keep)
        stronger += _implication(old, new) == qfcore.SAT
    assert verdicts.count(qfcore.UNKNOWN) <= len(verdicts) // 100
    assert stronger > 0  # tightening shows


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
